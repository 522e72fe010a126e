(** Fault taxonomy of the exploration engine.

    A scenario phase that raises is captured — never re-raised into the
    batch — and classified:

    - a {e recovery} phase raising after a {e real} crash is a
      {!is_recovery_failure}: the recovery code could not cope with a
      legitimately-torn crash image.  WITCHER-style, this is first-class
      crash-consistency evidence and is merged into the {!Report}
      alongside persistency races, carrying the crash plan and seed that
      reproduce it;
    - any other fault (setup or pre-crash phase, or a recovery raising
      without a preceding crash) is an infrastructure/program fault:
      contained, counted and surfaced, but not a crash-consistency
      witness.

    The record holds string projections ([exn_text], rendered plans) so
    reports built from it are deterministic and byte-identical across
    [--jobs] counts; the engine keeps the raw [exn] and backtrace
    separately for the [--fail-fast] re-raise path. *)

type phase =
  | Setup  (** a re-run setup phase (trusted data, untrusted code) *)
  | Pre_crash
  | Recovery of int
      (** [Recovery 0] is the first recovery; [Recovery 1] the second
          recovery of a two-crash scenario *)
  | Observe
      (** the oracle's [observe] snapshot hook, run after recovery; a
          fault here is contained instrumentation failure, never a
          recovery failure *)

type fault = {
  label : string;  (** scenario label (program name) *)
  phase : phase;
  exn_text : string;  (** [Printexc.to_string] of the exception *)
  backtrace : string;  (** captured at the raise site; display only *)
  plan : string;  (** {!Pm_runtime.Executor.plan_label} of the crash plan *)
  post_plan : string;  (** plan of the first recovery run *)
  seed : int;  (** scenario seed — with [plan], the repro handle *)
  crash_fired : bool;  (** a real crash preceded the faulting phase *)
}

(** A recovery-phase fault observed on a real crash image. *)
val is_recovery_failure : fault -> bool

(** Stable dedup key of a recovery failure: label, plan(s) and
    exception text — no backtrace, no seed. *)
val recovery_failure_key : fault -> string

val to_string : fault -> string

(** A crash-consistency violation from the invariant oracle
    ({!Pm_oracle.Check}): the post-crash-recovery observation reached a
    state no reference execution's invariants allow. *)
type consistency = {
  c_label : string;  (** scenario label (program name) *)
  c_key : string;
      (** the oracle's plan-free violation key — the dedup identity *)
  c_detail : string;  (** human-readable exemplar *)
  c_plan : string;  (** crash plan of the witnessing scenario *)
  c_post_plan : string;
  c_seed : int;
}

val consistency_key : consistency -> string
val consistency_to_string : consistency -> string
