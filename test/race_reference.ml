(* The Format printers races and stores were rendered with before
   [Yashme.Race.to_string] and [Px86.Event.store_to_string] built their
   strings directly, kept as the reference those renderers must match
   byte for byte (test_detector.ml, test_family.ml). *)

let pp_addr ppf a = Format.fprintf ppf "0x%x" a
let pp_access ppf a = Format.pp_print_string ppf (Px86.Access.to_string a)

let pp_store ppf (s : Px86.Event.store) =
  Format.fprintf ppf "store[%s tid=%d lclk=%d seq=%d %a..+%d = %Ld %a]"
    (match s.Px86.Event.label with Some l -> l | None -> "?")
    s.Px86.Event.tid s.Px86.Event.lclk s.Px86.Event.seq pp_addr s.Px86.Event.addr
    s.Px86.Event.size s.Px86.Event.value pp_access s.Px86.Event.access

let pp ppf (t : Yashme.Race.t) =
  Format.fprintf ppf
    "persistency race on %s: non-atomic %a races with crash (exec %d); observed by \
     load of %a..+%d in exec %d%s%s"
    (Yashme.Race.label t) pp_store t.Yashme.Race.store t.Yashme.Race.store_exec pp_addr
    t.Yashme.Race.load_addr t.Yashme.Race.load_size t.Yashme.Race.load_exec
    (if t.Yashme.Race.committed then "" else " [candidate]")
    (if t.Yashme.Race.benign then " [benign: checksum-validated]" else "")

let store_to_string s = Format.asprintf "%a" pp_store s
let to_string t = Format.asprintf "%a" pp t
