module Engine = Pm_harness.Engine

let replay_one ~lookup (w : Witness.t) =
  match Witness.scenario_of ~lookup w with
  | Error msg -> Error msg
  | Ok s -> (
      match Witness.reobserve w s (Engine.run_scenario s) with
      | Ok _ -> Ok ()
      | Error keys ->
          let kind =
            match w.Witness.kind with
            | Witness.Race -> "race"
            | Witness.Recovery_failure -> "recovery-failure"
            | Witness.Consistency_violation -> "consistency-violation"
          in
          Error
            (Printf.sprintf "%s key %S did not reproduce (%s)" kind
               w.Witness.key
               (if keys = [] then
                  "no race, recovery failure or violation observed"
                else "observed instead: " ^ String.concat ", " keys)))

type failure = { witness : Witness.t; reason : string }
type result = { total : int; reproduced : int; failures : failure list }

let replay_all ~lookup ws =
  let failures = ref [] in
  let reproduced = ref 0 in
  List.iter
    (fun w ->
      match replay_one ~lookup w with
      | Ok () -> incr reproduced
      | Error reason -> failures := { witness = w; reason } :: !failures)
    ws;
  { total = List.length ws; reproduced = !reproduced; failures = List.rev !failures }
