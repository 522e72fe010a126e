(** A crash-testable PM program: workload plus recovery. *)

type t = {
  name : string;
  setup : (unit -> unit) option;
      (** optional pre-population phase, always run to clean completion
          before the crashy phase (e.g. creating the pool) *)
  pre : unit -> unit;  (** the pre-crash workload *)
  post : unit -> unit;
      (** the post-crash recovery / reader.  Model checking may run it
          while the pre-crash workload is suspended at a crash point
          (see [Engine]), so it must not change volatile (OCaml-side)
          state the workload reads; it may read such state freely *)
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
