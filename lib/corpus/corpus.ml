type stats = {
  total : int;
  races : int;
  recovery_failures : int;
  consistency_violations : int;
  programs : (string * int) list;
  distinct_keys : int;
  duplicates_folded : int;
}

let dedup ws =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let folded = ref 0 in
  let kept =
    List.filter
      (fun w ->
        let id = Witness.identity w in
        if Hashtbl.mem seen id then begin
          incr folded;
          false
        end
        else begin
          Hashtbl.add seen id ();
          true
        end)
      ws
  in
  (kept, !folded)

let merge corpora = dedup (List.concat corpora)

let stats ?(duplicates_folded = 0) ws =
  let races = ref 0 and rfs = ref 0 and cvs = ref 0 in
  let per_program : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let keys : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (w : Witness.t) ->
      (match w.Witness.kind with
      | Witness.Race -> incr races
      | Witness.Recovery_failure -> incr rfs
      | Witness.Consistency_violation -> incr cvs);
      Hashtbl.replace per_program w.Witness.program
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_program w.Witness.program));
      Hashtbl.replace keys w.Witness.key ())
    ws;
  {
    total = List.length ws;
    races = !races;
    recovery_failures = !rfs;
    consistency_violations = !cvs;
    programs =
      Hashtbl.fold (fun p n acc -> (p, n) :: acc) per_program []
      |> List.sort compare;
    distinct_keys = Hashtbl.length keys;
    duplicates_folded;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>%d witness(es): %d race(s), %d recovery failure(s)" s.total s.races
    s.recovery_failures;
  (* Appended only when present, so pre-oracle corpora render the
     exact bytes they always did. *)
  if s.consistency_violations > 0 then
    Format.fprintf ppf ", %d consistency violation(s)" s.consistency_violations;
  Format.fprintf ppf "@,distinct keys (cross-program): %d" s.distinct_keys;
  if s.duplicates_folded > 0 then
    Format.fprintf ppf "@,duplicates folded: %d" s.duplicates_folded;
  List.iter
    (fun (p, n) -> Format.fprintf ppf "@,  %-24s %d" p n)
    s.programs;
  Format.fprintf ppf "@]"

let to_jsonl ws =
  let buf = Buffer.create 1024 in
  List.iter
    (fun w ->
      Buffer.add_string buf (Witness.encode w);
      Buffer.add_char buf '\n')
    ws;
  Buffer.contents buf

(* Crash-safe: the corpus appears under [path] only once fully
   written, so a reader can never observe a half-saved checkpoint. *)
let save path ws = Yashme_util.Atomic_file.write path (to_jsonl ws)

(* Every failure is a positioned [Error], never an exception: soak
   checkpoints make partial and empty files a real-world input.  An
   empty (or whitespace-only) file is rejected loudly — a corpus you
   can replay must carry at least one witness, and a 0-byte file is
   the signature of an interrupted non-atomic writer. *)
let load path =
  Json.load_lines ~what:"corpus (no witness lines)" path Witness.decode
