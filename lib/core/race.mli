(** Persistency race reports. *)

type t = {
  store : Px86.Event.store;  (** the racing pre-crash store *)
  store_exec : int;  (** execution in which the store committed *)
  load_addr : Px86.Addr.t;
  load_size : int;
  load_tid : int;
  load_exec : int;  (** post-crash execution performing the load *)
  committed : bool;
      (** true when the post-crash execution actually read this store;
          false when it is another candidate the load could have read
          (still a race in a consistent execution, paper section 6) *)
  benign : bool;
      (** the observing load belongs to a checksum-validation region
          (paper, section 7.5 "Benign Issues") *)
}

(** Field label of the racing store; ["<unlabelled>"] if none. *)
val label : t -> string

(** Deduplication key: races on the same source-level field are one bug
    (the paper deduplicates manually at this granularity). *)
val dedup_key : t -> string

(** Merge per-scenario race lists into one list, preserving scenario
    order and, within a scenario, report order.  This is the merge the
    exploration engine uses: because deduplication keeps the first
    observation of each key as its exemplar, an engine that merges in
    scenario order produces output byte-identical to a sequential run,
    regardless of the order scenarios actually finished in. *)
val merge_ordered : t list list -> t list

val to_string : t -> string
