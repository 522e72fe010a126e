(* The durable run ledger: one versioned manifest per detection run.

   A ledger file is JSONL — one flat object per run, through the one
   JSON codec ({!Yashme_util.Json}).

   The schema is versioned ([v] = {!version}); a line written by a
   newer build is a positioned decode error, never a silent
   misinterpretation.  Fields split into three comparison classes:
   - identity fields ([run], [v]) that name a run and are never diffed,
   - timing fields ([ts], [elapsed_s], [cpu_s], every [cc:*:wall_us]
     and the [cc:gc/*] charges) — wall-clock/GC-word class, excluded
     from regression gating,
   - everything else, which is deterministic for a fixed configuration:
     two identical-config runs must show zero deltas there. *)

module Json = Yashme_util.Json

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
        c_center = r.name;
        c_count = r.count;
        c_units = r.units;
        c_wall_us = r.wall_us;
      })
    rows

(* ------------------------------------------------------------------ *)
(* The ledger file                                                      *)

(* Crash-safe append: existing entries plus the new line are republished
   under [path] by atomic rename ({!Yashme_util.Atomic_file}), so an
   interrupted append can never truncate earlier runs.  Ledgers are
   small (one line per run), so the copy is cheap. *)
let append path e =
  Yashme_util.Atomic_file.append_line path (Json.encode_obj (fields e))

let load path =
  Json.load_lines ~what:"ledger" path (fun l ->
      Result.bind (Json.decode_obj l) of_fields)

let find entries sel =
  let n = List.length entries in
  match int_of_string_opt sel with
  | Some i ->
      if i >= 1 && i <= n then Ok (List.nth entries (i - 1))
      else
        Error
          (Printf.sprintf "run %d out of range (ledger has %d run%s)" i n
             (if n = 1 then "" else "s"))
  | None -> (
      match List.filter (fun e -> e.e_run = sel) entries with
      | [ e ] -> Ok e
      | [] -> Error (Printf.sprintf "no run labelled %S in ledger" sel)
      | l ->
          Error
            (Printf.sprintf "%d runs labelled %S; select by 1-based ordinal"
               (List.length l) sel))

type delta = {
  d_field : string;
  d_baseline : float;
  d_current : float;
  d_regressed : bool;
}

type comparison = {
  cmp_changed : delta list;
  cmp_timing : delta list;
  cmp_mismatched : (string * string * string) list;
  cmp_passed : bool;
}

let compare_runs ~baseline ~current =
  let bn = numeric_fields baseline in
  let cn = numeric_fields current in
  (* Union of both sides' fields, baseline order first: a cost center
     recorded by only one run must surface as a delta against 0, not
     silently vanish. *)
  let keys =
    List.map fst bn
    @ List.filter (fun k -> not (List.mem_assoc k bn)) (List.map fst cn)
  in
  let changed = ref [] and timing = ref [] in
  List.iter
    (fun k ->
      let bv = Option.value ~default:0. (List.assoc_opt k bn) in
      let cv = Option.value ~default:0. (List.assoc_opt k cn) in
      if bv <> cv then begin
        let d =
          { d_field = k; d_baseline = bv; d_current = cv;
            d_regressed = direction k = `Higher && cv < bv }
        in
        if timing_field k then timing := d :: !timing
        else changed := d :: !changed
      end)
    keys;
  let cmp_changed = List.rev !changed and cmp_timing = List.rev !timing in
  let bs = string_fields baseline in
  let cs = string_fields current in
  let cmp_mismatched =
    List.filter_map
      (fun (k, a) ->
        match List.assoc_opt k cs with
        | Some b when b <> a -> Some (k, a, b)
        | _ -> None)
      bs
  in
  {
    cmp_changed;
    cmp_timing;
    cmp_mismatched;
    cmp_passed = cmp_changed = [] && cmp_mismatched = [];
  }

(* %g keeps integral counters integral ("3", not "3.0") while still
   rendering real-valued timings, so the golden compare output is
   stable and readable. *)
let render ~a_label ~b_label c =
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  add "ledger compare: %s (baseline) vs %s (current)" a_label b_label;
  List.iter
    (fun (f, a, b) -> add "  %s: %S != %S MISMATCH" f a b)
    c.cmp_mismatched;
  List.iter
    (fun d ->
      add "  %s: %g -> %g (%s)%s" d.d_field d.d_baseline d.d_current
        (if d.d_baseline = 0. then "new"
         else
           Printf.sprintf "%+.1f%%"
             ((d.d_current -. d.d_baseline) /. d.d_baseline *. 100.))
        (if d.d_regressed then " REGRESSED" else " CHANGED"))
    c.cmp_changed;
  if c.cmp_changed = [] && c.cmp_mismatched = [] then
    add "  no non-timing deltas";
  List.iter
    (fun d -> add "  [timing] %s: %g -> %g" d.d_field d.d_baseline d.d_current)
    c.cmp_timing;
  add "ledger compare: %s" (if c.cmp_passed then "PASS" else "FAIL");
  String.concat "\n" (List.rev !lines)
