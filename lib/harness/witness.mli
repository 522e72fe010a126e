(** Race witnesses: the paper reports each persistency race together
    with "the pre-crash execution prefix E+ combined with the post-crash
    execution E'" (section 5.1).  This module renders that witness from
    a recorded {!Px86.Trace.t} of the racing execution. *)

(** The clock vector bounding E+ for [race]: the [CVpre] the detector
    checked the race against, joined with the racing store's clock.
    The check-time [CVpre] comes from replaying the post-crash calls
    [detector] logged ({!Yashme.Detector.log_calls}, as
    {!Runner.run_once_traced} does from the start of the recovery) into
    a fresh detector over the cleared pre-crash record, up to the call
    that raises [race]; the replay runs to the end, so the record is
    left with the joins it had.  Without a log, the record's [CVpre] as
    it is now.  [None] when the store's execution has no record. *)
val prefix_bound :
  detector:Yashme.Detector.t -> race:Yashme.Race.t -> Yashme_util.Clockvec.t option

(** [explain ~trace ~detector ~race ()] renders the racing store, the
    prefix E+ ({!prefix_bound}) and the events inside it.  [variant]
    (a {!Px86.Variant.label}) adds a ["[variant ...]"] line when the
    race was found under a non-default persistency model; the default
    renders byte-identically to historical output. *)
val explain :
  ?variant:string ->
  trace:Px86.Trace.t ->
  detector:Yashme.Detector.t ->
  race:Yashme.Race.t ->
  unit ->
  string
