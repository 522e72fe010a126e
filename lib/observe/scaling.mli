(** Jobs-sweep analysis: speedup, parallel efficiency, Amdahl serial
    fraction, and a named decomposition of lost parallel wall-clock.

    The driver runs the same program at several [--jobs] levels and
    feeds one {!level} per count; {!analyze} derives everything else.
    Columns follow {!Attribution}'s two classes: counts and charged
    units are jobs-invariant and form the byte-stable
    [fields ~timing:false] projection ({!check} enforces it across a
    sweep), while wall clocks, speedup/efficiency and GC word deltas
    are scheduling-dependent and appear only in full rows. *)

(** One observed jobs level: engine stats plus the cost-center window
    ({!Metrics.window}) around the run. *)
type level = {
  v_jobs : int;
  v_elapsed_s : float;
  v_cpu_s : float;
  v_scenarios : int;
  v_completed : int;
  v_faulted : int;
  v_executions : int;
  v_ops : int;
  v_races : int;
  v_witnesses : int;
  v_snapshot_bytes : int;  (** px86/snapshot_copy charged units *)
  v_queue_wait_us : int;  (** engine/queue_wait wall *)
  v_snapshot_us : int;  (** px86/snapshot_copy wall *)
  v_merge_us : int;  (** engine/merge wall *)
  v_gc_minor_words : int;  (** volatile GC word delta over the run *)
  v_gc_major_words : int;
}

type derived = {
  d_speedup : float;  (** T_ref / T_n *)
  d_efficiency : float;  (** speedup / (jobs / reference jobs) *)
  d_serial_fraction : float option;
      (** per-level Amdahl estimate; [None] at the reference level *)
  d_lost_s : float;
      (** jobs * elapsed - reference elapsed: extra domain-seconds
          spent versus a perfect split of the reference run *)
}

type analysis = {
  a_program : string;
  a_reference_jobs : int;  (** lowest jobs level: the speedup baseline *)
  a_levels : (level * derived) list;  (** ascending jobs *)
  a_serial_fraction : float option;
      (** mean per-level Amdahl estimate over levels above the
          reference; [None] for a single-level sweep *)
  a_loss_centers : (string * float) list;
      (** lost seconds by named center at the highest jobs level,
          descending; the residual is labelled ["other"] *)
}

(** Errors on an empty sweep or duplicate jobs levels; otherwise sorts
    ascending and derives per-level and fitted quantities. *)
val analyze : program:string -> level list -> (analysis, string) result

(** The engine-determinism check a sweep carries its own evidence for:
    every level's non-timing projection (minus the [jobs] identity)
    must match the reference level's.  Names the first diverging
    field. *)
val check : program:string -> level list -> (unit, string) result

(** Flat JSONL row for one level (corpus-codec shape).
    [timing:false] keeps only the jobs-invariant class; the full row
    appends the wall-clock class after it so the projection is a
    stable field prefix. *)
val fields :
  ?timing:bool ->
  program:string ->
  level * derived ->
  (string * Yashme_util.Json.value) list

(** Aligned per-level table plus the serial-fraction fit and the
    loss-center decomposition. *)
val pp : Format.formatter -> analysis -> unit

val to_string : analysis -> string
