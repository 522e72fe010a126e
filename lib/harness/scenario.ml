module Executor = Pm_runtime.Executor

type options = {
  mode : Yashme.Detector.mode;
  eadr : bool;
  coherence : bool;
  check_candidates : bool;
  sched : Executor.sched_policy;
  sb_policy : Px86.Machine.sb_policy;
  variant : Px86.Variant.t;
  cut : Px86.Machine.cut_strategy;
  seed : int;
  max_ops : int option;
  max_wall_s : float option;
}

let default_options =
  {
    mode = Yashme.Detector.Prefix;
    eadr = false;
    coherence = true;
    check_candidates = true;
    sched = Executor.Round_robin;
    sb_policy = Px86.Machine.Eager;
    variant = Px86.Variant.strict_tso;
    cut = Px86.Machine.Cut_all;
    seed = 42;
    max_ops = None;
    max_wall_s = None;
  }

(* ------------------------------------------------------------------ *)
(* Options serialization: the flat field list a corpus witness embeds.
   Everything round-trips exactly; [Cut_random]'s Rng is rebuilt from
   the serialized seed (see Px86.Machine.cut_of_label). *)

let mode_label = function
  | Yashme.Detector.Prefix -> "prefix"
  | Yashme.Detector.Baseline -> "baseline"

let mode_of_label = function
  | "prefix" -> Some Yashme.Detector.Prefix
  | "baseline" -> Some Yashme.Detector.Baseline
  | _ -> None

let options_fields o : (string * Yashme_util.Json.value) list =
  [
    ("mode", `S (mode_label o.mode));
    ("eadr", `B o.eadr);
    ("coherence", `B o.coherence);
    ("check_candidates", `B o.check_candidates);
    ("sched", `S (Executor.sched_label o.sched));
    ("sb_policy", `S (Px86.Machine.sb_policy_label o.sb_policy));
    ("variant", `S (Px86.Variant.label o.variant));
    ("cut", `S (Px86.Machine.cut_label o.cut));
    ("seed", `I o.seed);
    ("max_ops", match o.max_ops with Some n -> `I n | None -> `Null);
    ("max_wall_s", match o.max_wall_s with Some s -> `F s | None -> `Null);
  ]

let options_of_fields fields =
  let open Yashme_util.Json in
  let ( let* ) = Result.bind in
  let parsed key of_label what =
    let* s = str fields key in
    match of_label s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "options: unknown %s %S" what s)
  in
  let* seed = int fields "seed" in
  let* mode = parsed "mode" mode_of_label "detector mode" in
  let* eadr = bool fields "eadr" in
  let* coherence = bool fields "coherence" in
  let* check_candidates = bool fields "check_candidates" in
  let* sched = parsed "sched" Executor.sched_of_label "scheduling policy" in
  let* sb_policy =
    parsed "sb_policy" Px86.Machine.sb_policy_of_label "store-buffer policy"
  in
  let* variant =
    (* Absent in pre-variant (v1) witnesses: default to strict-tso. *)
    match List.assoc_opt "variant" fields with
    | None | Some `Null -> Ok Px86.Variant.strict_tso
    | Some _ -> parsed "variant" Px86.Variant.of_label "variant"
  in
  let* cut =
    parsed "cut" (Px86.Machine.cut_of_label ~seed) "cut strategy"
  in
  let* max_ops = int_opt fields "max_ops" in
  let* max_wall_s = float_opt fields "max_wall_s" in
  Ok
    {
      mode;
      eadr;
      coherence;
      check_candidates;
      sched;
      sb_policy;
      variant;
      cut;
      seed;
      max_ops;
      max_wall_s;
    }

(* Randomized knobs make a scenario's evidence RNG-dependent; the
   minimizer re-searches such witnesses for a deterministic
   equivalent. *)
let options_randomized o =
  o.sched = Executor.Random_sched
  || (match o.sb_policy with
     | Px86.Machine.Random_drain _ -> true
     | Px86.Machine.Eager -> false)
  ||
  match o.cut with
  | Px86.Machine.Cut_random _ -> true
  | Px86.Machine.Cut_all | Px86.Machine.Cut_lowerbound -> false

type setup =
  | No_setup
  | Snapshot of Px86.Crashstate.t
  | Run_setup of (unit -> unit)

(* The invariant-oracle context a driver may attach: a state snapshot
   hook and a checker closed over the crash-free reference.  Closures,
   never serialized — a corpus witness records only that the oracle was
   involved (its kind) and the context is rebuilt from the program at
   replay time. *)
type oracle = {
  oc_observe : unit -> (string * string) list;
  oc_check : observed:(string * string) list -> (string * string) list;
      (** (plan-free violation key, human detail) pairs, sorted *)
}

type t = {
  label : string;
  setup : setup;
  pre : unit -> unit;
  post : unit -> unit;
  plan : Executor.plan;
  post_plan : Executor.plan;
  options : options;
  oracle : oracle option;
}

let make ?(post_plan = Executor.Run_to_end) ?oracle ~label ~setup ~pre ~post
    ~plan ~options () =
  { label; setup; pre; post; plan; post_plan; options; oracle }

let of_program ?post_plan ?oracle ~setup ~plan ~options (p : Program.t) =
  make ?post_plan ?oracle ~label:p.Program.name ~setup ~pre:p.Program.pre
    ~post:p.Program.post ~plan ~options ()

(* [Cut_random] carries a mutable Rng shared by every scenario built
   from the same options record: scenarios using it must stay on one
   domain (see the executor's domain-safety audit). *)
let parallel_safe t =
  match t.options.cut with
  | Px86.Machine.Cut_random _ -> false
  | Px86.Machine.Cut_all | Px86.Machine.Cut_lowerbound -> true
