(** A crash-testable PM program: workload plus recovery. *)

type t = {
  name : string;
  setup : (unit -> unit) option;
      (** optional pre-population phase, always run to clean completion
          before the crashy phase (e.g. creating the pool) *)
  pre : unit -> unit;  (** the pre-crash workload *)
  post : unit -> unit;
      (** the post-crash recovery / reader.  Its run must depend only on
          its crash state, program, seed and options: model checking
          runs it while the pre-crash workload is suspended at a crash
          point, and replays one recovery's detector calls for every
          later crash point that leaves the same durable state (see
          [Engine]).  So it must neither read volatile (OCaml-side)
          state the workload writes nor change volatile state the
          workload reads; state it needs, it rebuilds from persistent
          memory on each run *)
  observe : (unit -> (string * string) list) option;
      (** optional state snapshot for the invariant oracle: read the
          recovered structure's observable fields as (name, value)
          pairs.  Runs inside the executor (so it may use {!Pm_runtime.Pmem}
          loads) but with no detector attached — observation never
          perturbs race reports.  Only consulted under [--oracle]. *)
}

val make : ?setup:(unit -> unit) ->
  ?observe:(unit -> (string * string) list) -> name:string ->
  pre:(unit -> unit) -> post:(unit -> unit) -> unit -> t
