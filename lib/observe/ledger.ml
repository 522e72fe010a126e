(* The durable run ledger: one versioned manifest per detection run.

   A ledger file is JSONL — one flat object per run, encoded/decoded by
   the corpus codec (this module only builds and consumes the field
   lists; [Pm_corpus.Ledger_store] owns the file I/O, because lib/corpus
   depends on lib/observe and not the other way around).

   The schema is versioned ([v] = {!version}); a line written by a
   newer build is a positioned decode error, never a silent
   misinterpretation.  Fields split into three comparison classes:
   - identity fields ([run], [v]) that name a run and are never diffed,
   - timing fields ([ts], [elapsed_s], [cpu_s], every [cc:*:wall_us]
     and the [cc:gc/*] charges) — wall-clock/GC-word class, excluded
     from regression gating,
   - everything else, which is deterministic for a fixed configuration:
     two identical-config runs must show zero deltas there. *)

let version = 1

type cost = { c_center : string; c_count : int; c_units : int; c_wall_us : int }

type entry = {
  e_version : int;
  e_run : string; (* free-form label; identity, never compared *)
  e_ts : float; (* unix seconds at append time *)
  e_program : string;
  e_variant : string;
  e_mode : string; (* mc | mc-recovery | random | soak *)
  e_jobs : int;
  e_seed : int;
  e_scenarios : int;
  e_completed : int;
  e_faulted : int;
  e_diverged : int;
  e_executions : int;
  e_ops : int;
  e_races : int;
  e_benign : int;
  e_raw_races : int;
  e_recovery_failures : int;
  e_witnesses : int;
  e_elapsed_s : float;
  e_cpu_s : float;
  e_metrics_digest : string;
  e_coverage_digest : string;
  e_cost : cost list; (* sorted by center name *)
}

(* ------------------------------------------------------------------ *)
(* Digests: FNV-1a 64-bit over a canonical rendering.  [Hashtbl.hash]
   only samples a bounded prefix of its input, which would let distinct
   metric snapshots collide silently — a real hash of every byte is the
   point of a digest. *)

let digest_string s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let digest_counters counters =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) counters in
  digest_string
    (String.concat ";"
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) sorted))

let render_field = function
  | `S s -> s
  | `I i -> string_of_int i
  | `B b -> string_of_bool b
  | `F f -> Printf.sprintf "%.17g" f
  | `Null -> "null"

let digest_fields (fields : (string * Yashme_util.Json.value) list) =
  digest_string
    (String.concat ";"
       (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (render_field v)) fields))

(* ------------------------------------------------------------------ *)
(* Field classification                                                 *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let timing_field name =
  name = "ts" || name = "elapsed_s" || name = "cpu_s"
  || ends_with ~suffix:":wall_us" name
  || starts_with ~prefix:"cc:gc/" name

let identity_field name = name = "run" || name = "v"

(* Regression direction of a numeric field: losing races/witnesses is
   the regression the gate exists to catch. *)
let direction name : [ `Higher | `Neutral ] =
  match name with
  | "races" | "raw_races" | "benign" | "recovery_failures" | "witnesses" ->
      `Higher
  | _ -> `Neutral

(* ------------------------------------------------------------------ *)
(* Encoding to / from flat field lists                                  *)

let cost_field_names center =
  ( Printf.sprintf "cc:%s:count" center,
    Printf.sprintf "cc:%s:units" center,
    Printf.sprintf "cc:%s:wall_us" center )

let fields e : (string * Yashme_util.Json.value) list =
  [
    ("v", `I e.e_version);
    ("run", `S e.e_run);
    ("ts", `F e.e_ts);
    ("program", `S e.e_program);
    ("variant", `S e.e_variant);
    ("mode", `S e.e_mode);
    ("jobs", `I e.e_jobs);
    ("seed", `I e.e_seed);
    ("scenarios", `I e.e_scenarios);
    ("completed", `I e.e_completed);
    ("faulted", `I e.e_faulted);
    ("diverged", `I e.e_diverged);
    ("executions", `I e.e_executions);
    ("ops", `I e.e_ops);
    ("races", `I e.e_races);
    ("benign", `I e.e_benign);
    ("raw_races", `I e.e_raw_races);
    ("recovery_failures", `I e.e_recovery_failures);
    ("witnesses", `I e.e_witnesses);
    ("elapsed_s", `F e.e_elapsed_s);
    ("cpu_s", `F e.e_cpu_s);
    ("metrics_digest", `S e.e_metrics_digest);
    ("coverage_digest", `S e.e_coverage_digest);
  ]
  @ List.concat_map
      (fun c ->
        let kc, ku, kw = cost_field_names c.c_center in
        [ (kc, `I c.c_count); (ku, `I c.c_units); (kw, `I c.c_wall_us) ])
      (List.sort (fun a b -> compare a.c_center b.c_center) e.e_cost)

(* Parse "cc:<center>:count|units|wall_us"; everything between the
   first "cc:" and the last ':' is the center name (centers themselves
   contain '/' but never ':'). *)
let cost_key name =
  if not (starts_with ~prefix:"cc:" name) then None
  else
    match String.rindex_opt name ':' with
    | None | Some 2 -> None
    | Some i ->
        let center = String.sub name 3 (i - 3) in
        let kind = String.sub name (i + 1) (String.length name - i - 1) in
        if center = "" then None
        else (
          match kind with
          | "count" | "units" | "wall_us" -> Some (center, kind)
          | _ -> None)

let of_fields fields =
  let str = Yashme_util.Json.str fields
  and int = Yashme_util.Json.int fields
  and flt = Yashme_util.Json.float fields in
  let ( let* ) = Result.bind in
  let* v = Yashme_util.Json.version ~key:"v" ~oldest:1 ~current:version fields in
  let* run = str "run" in
  let* ts = flt "ts" in
  let* program = str "program" in
  let* variant = str "variant" in
  let* mode = str "mode" in
  let* jobs = int "jobs" in
  let* seed = int "seed" in
  let* scenarios = int "scenarios" in
  let* completed = int "completed" in
  let* faulted = int "faulted" in
  let* diverged = int "diverged" in
  let* executions = int "executions" in
  let* ops = int "ops" in
  let* races = int "races" in
  let* benign = int "benign" in
  let* raw_races = int "raw_races" in
  let* recovery_failures = int "recovery_failures" in
  let* witnesses = int "witnesses" in
  let* elapsed_s = flt "elapsed_s" in
  let* cpu_s = flt "cpu_s" in
  let* metrics_digest = str "metrics_digest" in
  let* coverage_digest = str "coverage_digest" in
  let costs : (string, cost) Hashtbl.t = Hashtbl.create 16 in
  let* () =
    List.fold_left
      (fun acc (name, v) ->
        let* () = acc in
        match cost_key name with
        | None -> Ok ()
        | Some (center, kind) -> (
            match v with
            | `I n ->
                let c =
                  match Hashtbl.find_opt costs center with
                  | Some c -> c
                  | None ->
                      {
                        c_center = center;
                        c_count = 0;
                        c_units = 0;
                        c_wall_us = 0;
                      }
                in
                let c =
                  match kind with
                  | "count" -> { c with c_count = n }
                  | "units" -> { c with c_units = n }
                  | _ -> { c with c_wall_us = n }
                in
                Hashtbl.replace costs center c;
                Ok ()
            | _ -> Error (Printf.sprintf "field %S: expected an integer" name)))
      (Ok ()) fields
  in
  let cost =
    Hashtbl.fold (fun _ c acc -> c :: acc) costs []
    |> List.sort (fun a b -> compare a.c_center b.c_center)
  in
  Ok
    {
      e_version = v;
      e_run = run;
      e_ts = ts;
      e_program = program;
      e_variant = variant;
      e_mode = mode;
      e_jobs = jobs;
      e_seed = seed;
      e_scenarios = scenarios;
      e_completed = completed;
      e_faulted = faulted;
      e_diverged = diverged;
      e_executions = executions;
      e_ops = ops;
      e_races = races;
      e_benign = benign;
      e_raw_races = raw_races;
      e_recovery_failures = recovery_failures;
      e_witnesses = witnesses;
      e_elapsed_s = elapsed_s;
      e_cpu_s = cpu_s;
      e_metrics_digest = metrics_digest;
      e_coverage_digest = coverage_digest;
      e_cost = cost;
    }

(* ------------------------------------------------------------------ *)
(* Comparison projections                                               *)

(* Every numeric field of the manifest (timing included — the caller
   classifies with {!timing_field}), in {!fields} order. *)
let numeric_fields e =
  List.filter_map
    (fun (name, v) ->
      if identity_field name then None
      else
        match v with
        | `I i -> Some (name, float_of_int i)
        | `F f -> Some (name, f)
        | `S _ | `B _ | `Null -> None)
    (fields e)

(* Configuration/digest strings; two comparable runs must agree on all
   of them ([run] is identity and excluded). *)
let string_fields e =
  [
    ("program", e.e_program);
    ("variant", e.e_variant);
    ("mode", e.e_mode);
    ("metrics_digest", e.e_metrics_digest);
    ("coverage_digest", e.e_coverage_digest);
  ]

(* Attribution rows fold into cost records verbatim; the volatile-unit
   distinction is recovered at comparison time by {!timing_field}
   ([cc:gc/*] charges are GC words, wall-clock class). *)
let costs_of_rows rows =
  List.map
    (fun (r : Attribution.row) ->
      {
        c_center = r.Attribution.r_center;
        c_count = r.Attribution.r_count;
        c_units = r.Attribution.r_units;
        c_wall_us = r.Attribution.r_wall_us;
      })
    rows
