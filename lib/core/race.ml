type t = {
  store : Px86.Event.store;
  store_exec : int;
  load_addr : Px86.Addr.t;
  load_size : int;
  load_tid : int;
  load_exec : int;
  committed : bool;
  benign : bool;
}

let label t =
  match t.store.Px86.Event.label with Some l -> l | None -> "<unlabelled>"

let dedup_key t = label t

(* Races from independently explored failure scenarios carry no global
   order of their own; downstream deduplication picks the first
   observation of each key as the exemplar and folds benignity in
   encounter order.  Merging in scenario order therefore makes a
   parallel exploration byte-identical to the sequential one. *)
let merge_ordered groups = List.concat groups

let to_string t =
  String.concat ""
    [
      "persistency race on ";
      label t;
      ": non-atomic ";
      Px86.Event.store_to_string t.store;
      " races with crash (exec ";
      string_of_int t.store_exec;
      "); observed by load of ";
      Px86.Addr.to_string t.load_addr;
      "..+";
      string_of_int t.load_size;
      " in exec ";
      string_of_int t.load_exec;
      (if t.committed then "" else " [candidate]");
      (if t.benign then " [benign: checksum-validated]" else "");
    ]
