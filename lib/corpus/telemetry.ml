(* One run's telemetry, from start to finish: the session that arms and
   disarms the observe layer, the window around a run, the blocks, files
   and ledger entry built from it, and the jobs-level measurement behind
   scaling. *)

module Report = Pm_harness.Report
module Runner = Pm_harness.Runner

type config = {
  log_level : Observe.Log.level option;
  quiet : bool;
  metrics : bool;
  coverage : bool;
  coverage_out : string option;
  attribution : bool;
  attribution_out : string option;
  progress : bool;
  progress_out : string option;
  trace_out : string option;
  ledger : string option;
  run_label : string option;
}

let off =
  { log_level = None; quiet = false; metrics = false; coverage = false;
    coverage_out = None; attribution = false; attribution_out = None;
    progress = false; progress_out = None; trace_out = None; ledger = None;
    run_label = None }

let with_session cfg f =
  (match cfg.log_level with
  | Some l -> Observe.Log.set_level l
  | None -> Observe.Log.set_quiet cfg.quiet);
  if cfg.progress || cfg.progress_out <> None then
    Observe.Progress.start ~heartbeat:cfg.progress ?jsonl:cfg.progress_out ();
  (* Show vs collect: a ledger entry needs metrics, coverage and
     attribution collected for its digests and cost centers, but
     printing their blocks stays gated on the explicit flags. *)
  let collect shown = shown || cfg.ledger <> None in
  let metrics = collect cfg.metrics
  and coverage = collect (cfg.coverage || cfg.coverage_out <> None)
  and attribution = collect (cfg.attribution || cfg.attribution_out <> None) in
  if metrics then Observe.Metrics.enable ();
  if attribution then Observe.Attribution.enable ();
  if coverage then begin
    Observe.Coverage.enable ();
    Observe.Coverage.reset ()
  end;
  if cfg.trace_out <> None then Observe.Trace.start ();
  (* Closing never raises: it disarms everything, and hands back the
     write errors it caught, oldest first. *)
  let close () =
    let errors = ref [] in
    let attempt g =
      try g () with e -> errors := (e, Printexc.get_raw_backtrace ()) :: !errors
    in
    attempt (fun () -> ignore (Observe.Progress.stop ()));
    Option.iter
      (fun file ->
        Observe.Trace.stop ();
        attempt (fun () ->
            Observe.Trace.write file;
            Printf.printf "trace: %d event(s) written to %s\n"
              (Observe.Trace.event_count ()) file))
      cfg.trace_out;
    if metrics then Observe.Metrics.disable ();
    if attribution then Observe.Attribution.disable ();
    if coverage then Observe.Coverage.disable ();
    List.rev !errors
  in
  let report (e, _) = Printf.eprintf "telemetry: %s\n%!" (Printexc.to_string e) in
  (* The body's exception wins; a write error is re-raised only when
     the body returned, so it reaches the top level as it would have
     without the session. *)
  match f () with
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      List.iter report (close ());
      Printexc.raise_with_backtrace e bt
  | v -> (
      match close () with
      | [] -> v
      | (e, bt) :: rest ->
          List.iter report rest;
          Printexc.raise_with_backtrace e bt)

type observed = {
  o_metrics : (string * int) list;
  o_attribution : Observe.Attribution.row list;
  o_gc_minor_words : int;
  o_gc_major_words : int;
}

let observing f =
  let metrics = Observe.Metrics.snapshot ()
  and attribution = Observe.Attribution.snapshot ()
  and gc = Gc.quick_stat () in
  let v = f () in
  let gc' = Gc.quick_stat () in
  ( v,
    {
      o_metrics = Observe.Metrics.diff metrics (Observe.Metrics.snapshot ());
      o_attribution =
        Observe.Attribution.diff attribution (Observe.Attribution.snapshot ());
      o_gc_minor_words = int_of_float (gc'.Gc.minor_words -. gc.Gc.minor_words);
      o_gc_major_words = int_of_float (gc'.Gc.major_words -. gc.Gc.major_words);
    } )

let print_counters ~title counters =
  Printf.printf "%s:\n" title;
  match List.filter (fun (_, v) -> v <> 0) counters with
  | [] -> print_endline "  (none recorded)"
  | nonzero ->
      List.iter (fun (name, v) -> Printf.printf "  %-42s %d\n" name v) nonzero

let print_blocks cfg ~program (r : Report.t) obs =
  let label = r.Report.program in
  if cfg.metrics then print_counters ~title:(label ^ " metrics") obs.o_metrics;
  if cfg.coverage || cfg.coverage_out <> None then begin
    match Observe.Coverage.find ~variant:r.Report.variant program with
    | Some c -> print_endline (Observe.Coverage.to_string c)
    | None -> Printf.printf "%s coverage:\n  (not recorded)\n" label
  end;
  if cfg.attribution || cfg.attribution_out <> None then
    if obs.o_attribution = [] then
      Printf.printf "[attribution] %s: (not recorded)\n" label
    else print_endline (Observe.Attribution.to_string obs.o_attribution)

(* One flat object per line through the one JSON codec, so field order
   and number rendering are deterministic; written crash-safely (tmp +
   atomic rename) like every other file the drivers emit. *)
let write_outputs cfg obs =
  let write out tag noun rows =
    Option.iter
      (fun file ->
        let rows = rows () in
        Yashme_util.Atomic_file.write file
          (String.concat "" (List.map (fun fs -> Json.encode_obj fs ^ "\n") rows));
        Printf.printf "%s: %d %s written to %s\n" tag (List.length rows) noun file)
      out
  in
  write cfg.coverage_out "coverage" "program(s)" (fun () ->
      List.map Observe.Coverage.fields (Observe.Coverage.snapshot ()));
  write cfg.attribution_out "attribution" "cost center(s)" (fun () ->
      List.map Observe.Attribution.fields obs.o_attribution)

(* Every coverage bucket soak fills is a combo label (seed-free), so the
   digest stays bounded and two same-seed runs digest identically. *)
let coverage_digest () =
  match Observe.Coverage.snapshot () with
  | [] -> ""
  | stats ->
      Observe.Ledger.digest_string
        (String.concat "\n"
           (List.map (fun s -> Json.encode_obj (Observe.Coverage.fields s)) stats))

(* Every ledger entry starts here: its identity, the run label, and the
   window's metrics digest and cost centers.  Callers fill in the
   counts. *)
let entry cfg ~program ~variant ~mode ~seed ~coverage_digest obs =
  {
    Observe.Ledger.e_version = Observe.Ledger.version;
    e_run = Option.value cfg.run_label ~default:program;
    e_ts = Unix.gettimeofday ();
    e_program = program; e_variant = variant; e_mode = mode; e_seed = seed;
    e_jobs = 0; e_scenarios = 0; e_completed = 0; e_faulted = 0;
    e_diverged = 0; e_executions = 0; e_ops = 0; e_races = 0; e_benign = 0;
    e_raw_races = 0; e_recovery_failures = 0; e_witnesses = 0;
    e_elapsed_s = 0.; e_cpu_s = 0.;
    e_metrics_digest = Observe.Ledger.digest_counters obs.o_metrics;
    e_coverage_digest = coverage_digest;
    e_cost = Observe.Ledger.costs_of_rows obs.o_attribution;
  }

let outcome_entry cfg ~mode ~seed ~program (o : Runner.outcome)
    (ex : Witness.extraction) obs =
  let r = o.Runner.o_report and st = o.Runner.o_stats in
  let coverage_digest =
    match Observe.Coverage.find ~variant:r.Report.variant program with
    | Some c -> Observe.Ledger.digest_fields (Observe.Coverage.fields c)
    | None -> ""
  in
  { (entry cfg ~program:r.Report.program ~variant:r.Report.variant ~mode ~seed
       ~coverage_digest obs)
    with
    e_jobs = st.jobs; e_scenarios = st.scenarios; e_completed = st.completed;
    e_faulted = st.faulted; e_diverged = st.diverged;
    e_executions = st.executions; e_ops = st.ops;
    e_races = List.length (Report.real r);
    e_benign = List.length (Report.benign r);
    e_raw_races = r.Report.raw_races;
    e_recovery_failures = List.length r.Report.recovery_failures;
    e_witnesses = List.length ex.Witness.witnesses;
    e_elapsed_s = st.elapsed_s; e_cpu_s = st.cpu_s }

let soak_entry cfg ~run ~variant ~seed ~jobs ~races ~recovery_failures
    ~witnesses (r : Pm_harness.Soak.result) obs =
  let s = r.Pm_harness.Soak.r_snapshot in
  { (entry cfg ~program:run ~variant ~mode:"soak" ~seed
       ~coverage_digest:(coverage_digest ()) obs)
    with
    e_jobs = jobs; e_scenarios = s.snap_scenarios;
    e_completed = s.snap_completed; e_faulted = s.snap_faulted;
    e_diverged = s.snap_diverged; e_executions = s.snap_executions;
    e_ops = s.snap_ops; e_races = races; e_raw_races = s.snap_races;
    e_recovery_failures = recovery_failures; e_witnesses = witnesses;
    e_elapsed_s = r.r_elapsed_s }

type sample = {
  s_outcome : Runner.outcome;
  s_extraction : Witness.extraction;
  s_observed : observed;
}

let measure ?options ~jobs (p : Pm_harness.Program.t) =
  let o, s_observed =
    observing (fun () -> Runner.model_check_outcome ?options ~jobs p)
  in
  { s_outcome = o; s_observed;
    s_extraction = Witness.of_outcome ~program:p.Pm_harness.Program.name o }

let elapsed s = s.s_outcome.Runner.o_stats.Pm_harness.Engine.elapsed_s

let best_of ~repeats levels run =
  let best = Hashtbl.create 8 in
  for rep = 1 to max 1 repeats do
    List.iter
      (fun jobs ->
        let s = run ~rep ~jobs in
        match Hashtbl.find_opt best jobs with
        | Some prev when elapsed prev <= elapsed s -> ()
        | Some _ | None -> Hashtbl.replace best jobs s)
      levels
  done;
  List.map (Hashtbl.find best) levels

let scaling_level s =
  let st = s.s_outcome.Runner.o_stats in
  let center name field =
    match
      List.find_opt
        (fun r -> r.Observe.Attribution.r_center = name)
        s.s_observed.o_attribution
    with
    | Some r -> field r
    | None -> 0
  in
  let wall name = center name (fun r -> r.Observe.Attribution.r_wall_us)
  and units name = center name (fun r -> r.Observe.Attribution.r_units) in
  {
    Observe.Scaling.v_jobs = st.jobs;
    v_elapsed_s = st.elapsed_s;
    v_cpu_s = st.cpu_s;
    v_scenarios = st.scenarios;
    v_completed = st.completed;
    v_faulted = st.faulted;
    v_executions = st.executions;
    v_ops = st.ops;
    v_races = List.length (Report.real s.s_outcome.Runner.o_report);
    v_witnesses = List.length s.s_extraction.Witness.witnesses;
    v_snapshot_bytes = units "px86/snapshot_copy";
    v_queue_wait_us = wall "engine/queue_wait";
    v_snapshot_us = wall "px86/snapshot_copy";
    v_merge_us = wall "engine/merge";
    v_gc_minor_words = units "gc/minor";
    v_gc_major_words = units "gc/major";
  }

(* Empty tokens are skipped ("1,2," is [1; 2]); any other token that is
   not an integer rejects the whole list. *)
let parse_levels s =
  let tokens =
    List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' s))
  in
  let levels = List.filter_map int_of_string_opt tokens in
  if levels = [] || List.compare_lengths levels tokens <> 0
     || List.exists (fun j -> j < 1) levels
  then None
  else Some (List.sort_uniq compare levels)
