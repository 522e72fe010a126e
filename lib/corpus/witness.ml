module Executor = Pm_runtime.Executor
module Scenario = Pm_harness.Scenario
module Engine = Pm_harness.Engine
module Runner = Pm_harness.Runner
module Finding = Pm_harness.Finding

(* v3 added the "consistency_violation" kind (invariant-oracle
   findings); the line shape is unchanged, so v2 and v1 lines still
   decode (v1 predates the "variant" options field and defaults to the
   strict-tso variant). *)
let version = 3
let oldest_readable = 1

type kind = Race | Recovery_failure | Consistency_violation

let kind_label = function
  | Race -> "race"
  | Recovery_failure -> "recovery_failure"
  | Consistency_violation -> "consistency_violation"

let kind_of_label = function
  | "race" -> Some Race
  | "recovery_failure" -> Some Recovery_failure
  | "consistency_violation" -> Some Consistency_violation
  | _ -> None

type t = {
  kind : kind;
  program : string;
  key : string;
  plan : Executor.plan;
  post_plan : Executor.plan;
  options : Scenario.options;
  summary : string;
}

let identity w =
  Printf.sprintf "%s|%s|%s" (kind_label w.kind) w.program w.key

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)

(* Field order is part of the format: a corpus re-emitted from equal
   witnesses must be byte-identical (merge idempotence, jobs
   invariance). *)
let encode w =
  Json.encode_obj
    ([
       ("v", `I version);
       ("kind", `S (kind_label w.kind));
       ("program", `S w.program);
       ("key", `S w.key);
       ("plan", `S (Executor.plan_label w.plan));
       ("post_plan", `S (Executor.plan_label w.post_plan));
     ]
    @ Scenario.options_fields w.options
    @ [ ("summary", `S w.summary) ])

let decode line =
  let ( let* ) = Result.bind in
  let* fields = Json.decode_obj line in
  let* _ = Json.version ~key:"v" ~oldest:oldest_readable ~current:version fields in
  let labelled key of_label =
    let* s = Json.str fields key in
    match of_label s with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "witness: unknown %s %S" key s)
  in
  let* kind = labelled "kind" kind_of_label in
  let* program = Json.str fields "program" in
  let* key = Json.str fields "key" in
  let* plan = labelled "plan" Executor.plan_of_label in
  let* post_plan = labelled "post_plan" Executor.plan_of_label in
  let* options = Scenario.options_of_fields fields in
  let* summary = Json.str fields "summary" in
  Ok { kind; program; key; plan; post_plan; options; summary }

(* ------------------------------------------------------------------ *)
(* Scenario reconstruction                                              *)

let scenario_of ~lookup w =
  match lookup w.program with
  | None -> Error (Printf.sprintf "unknown program %S" w.program)
  | Some p -> (
      (* A consistency witness only reproduces with its oracle context
         re-attached: the context holds closures (never serialized), so
         it is rebuilt here from the program's observe hook — crash-free
         reference runs under the witness's own options, hence the same
         inferred invariants as the original run. *)
      let oracle () =
        match w.kind with
        | Race | Recovery_failure -> Ok None
        | Consistency_violation -> (
            match Runner.prepare_oracle ~options:w.options p with
            | Some prep -> Ok (Some prep.Runner.op_ctx)
            | None ->
                Error
                  (Printf.sprintf "program %S has no observe hook" w.program)
            | exception e ->
                Error
                  (Printf.sprintf "oracle preparation for %S raised %s"
                     w.program (Printexc.to_string e)))
      in
      match oracle () with
      | Error msg -> Error msg
      | Ok oracle -> (
          match Engine.materialize_setup ~options:w.options p with
          | setup ->
              Ok
                (Scenario.of_program ?oracle ~post_plan:w.post_plan ~setup
                   ~plan:w.plan ~options:w.options p)
          | exception e ->
              Error
                (Printf.sprintf "setup of %S raised %s" w.program
                   (Printexc.to_string e))))

(* ------------------------------------------------------------------ *)
(* Extraction                                                           *)

type extraction = { witnesses : t list; raw : int; duplicates : int }

let of_pairs ~program pairs =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let acc = ref [] in
  let raw = ref 0 in
  let dups = ref 0 in
  let emit w =
    incr raw;
    let id = identity w in
    if Hashtbl.mem seen id then incr dups
    else begin
      Hashtbl.add seen id ();
      acc := w :: !acc
    end
  in
  let of_scenario (s : Scenario.t) kind key summary =
    {
      kind;
      program;
      key;
      plan = s.Scenario.plan;
      post_plan = s.Scenario.post_plan;
      options = s.Scenario.options;
      summary;
    }
  in
  let races s rs =
    List.iter
      (fun (r : Yashme.Race.t) ->
        emit
          (of_scenario s Race (Yashme.Race.dedup_key r) (Yashme.Race.to_string r)))
      rs
  in
  let consistencies (s : Scenario.t) (c : Engine.completed) =
    List.iter
      (fun (k, d) ->
        let f =
          {
            Finding.c_label = c.Engine.label;
            c_key = k;
            c_detail = d;
            c_plan = Executor.plan_label s.Scenario.plan;
            c_post_plan = Executor.plan_label s.Scenario.post_plan;
            c_seed = s.Scenario.options.Scenario.seed;
          }
        in
        emit
          (of_scenario s Consistency_violation k
             (Finding.consistency_to_string f)))
      c.Engine.violations
  in
  List.iter
    (fun ((s : Scenario.t), (result : Engine.scenario_result), evidence) ->
      match (result, (evidence : Runner.evidence)) with
      | Engine.Completed c, Runner.Full ->
          races s c.Engine.races;
          consistencies s c
      | Engine.Faulted f, Runner.Full | Engine.Faulted f, Runner.Faults_only ->
          (* Race evidence gathered before the fault only counts when
             the report kept it ([Full]); the recovery-failure finding
             itself always does. *)
          (match evidence with
          | Runner.Full -> races s f.Engine.f_races
          | Runner.Faults_only -> ());
          if Finding.is_recovery_failure f.Engine.f_info then
            emit
              (of_scenario s Recovery_failure
                 (Finding.recovery_failure_key f.Engine.f_info)
                 (Finding.to_string f.Engine.f_info))
      | Engine.Completed _, Runner.Faults_only -> ())
    pairs;
  { witnesses = List.rev !acc; raw = !raw; duplicates = !dups }

let of_outcome ~program (o : Runner.outcome) = of_pairs ~program o.Runner.o_pairs
