type phase = Setup | Pre_crash | Recovery of int | Observe

let phase_label = function
  | Setup -> "setup"
  | Pre_crash -> "pre"
  | Recovery 0 -> "recovery"
  | Recovery n -> Printf.sprintf "recovery#%d" (n + 1)
  | Observe -> "observe"

type fault = {
  label : string;
  phase : phase;
  exn_text : string;
  backtrace : string;
  plan : string;
  post_plan : string;
  seed : int;
  crash_fired : bool;
}

let is_recovery_failure f =
  f.crash_fired
  &&
  match f.phase with
  | Recovery _ -> true
  (* A throwing [observe] hook is an oracle-instrumentation fault, not
     evidence against the recovery code: contained, never a finding. *)
  | Setup | Pre_crash | Observe -> false

(* The dedup key deliberately excludes the backtrace (whose rendering
   depends on the build) and the seed (reported separately as the repro
   handle): one recovery bug observed from several crash plans of the
   same scenario label still folds per (label, plan, exception). *)
let recovery_failure_key f =
  Printf.sprintf "%s @ %s%s: %s" f.label f.plan
    (if f.post_plan = "run_to_end" then "" else "+" ^ f.post_plan)
    f.exn_text

let pp ppf f =
  Format.fprintf ppf "fault in %s phase of %s @ %s%s: %s" (phase_label f.phase)
    f.label f.plan
    (if f.post_plan = "run_to_end" then "" else "+" ^ f.post_plan)
    f.exn_text

let to_string f = Format.asprintf "%a" pp f

(* A consistency violation from the invariant oracle.  Its dedup key is
   the oracle's plan-free violation key — like a race key, one broken
   invariant observed from several crash plans folds to one finding;
   the plan and seed of the first observation travel along as the repro
   handle. *)
type consistency = {
  c_label : string;
  c_key : string;
  c_detail : string;
  c_plan : string;
  c_post_plan : string;
  c_seed : int;
}

let consistency_key c = c.c_key

let pp_consistency ppf c =
  Format.fprintf ppf "%s: %s (e.g. @@ %s%s, seed %d)" c.c_key c.c_detail
    c.c_plan
    (if c.c_post_plan = "run_to_end" then "" else "+" ^ c.c_post_plan)
    c.c_seed

let consistency_to_string c = Format.asprintf "%a" pp_consistency c
