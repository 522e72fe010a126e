(* One run's telemetry, from start to finish: the session that arms and
   disarms the observe layer, the window around a run, and the blocks,
   files and ledger entry built from it. *)

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
  ledger : string option;
  run_label : string option;
}

let off =
  { log_level = None; quiet = false; metrics = false; coverage = false;
    coverage_out = None; attribution = false; attribution_out = None;
    progress = false; progress_out = None; ledger = None; run_label = None }

let with_session cfg f =
  (match cfg.log_level with
  | Some l -> Observe.Log.set_level l
  | None -> Observe.Log.set_quiet cfg.quiet);
  if cfg.progress || cfg.progress_out <> None then
    Observe.Progress.start ~heartbeat:cfg.progress ?jsonl:cfg.progress_out ();
  (* Show vs collect: any flag that shows or writes metrics, coverage
     or attribution, and a ledger entry (its digests and cost centers),
     arms the one registry; each block still prints only under its own
     flag. *)
  let armed =
    cfg.metrics || cfg.coverage || cfg.coverage_out <> None || cfg.attribution
    || cfg.attribution_out <> None || cfg.ledger <> None
  in
  if armed then begin
    Observe.Metrics.reset ();
    Observe.Metrics.enable ()
  end;
  (* Closing never raises: it commits the progress stream, disarms the
     registry, and hands back the commit's error, if any. *)
  let close () =
    let error =
      match Observe.Progress.stop () with
      | _ -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    if armed then Observe.Metrics.disable ();
    error
  in
  (* The body's exception wins; a commit error is re-raised only when
     the body returned, so it reaches the top level as it would have
     without the session. *)
  match f () with
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Option.iter
        (fun (e, _) -> Printf.eprintf "telemetry: %s\n%!" (Printexc.to_string e))
        (close ());
      Printexc.raise_with_backtrace e bt
  | v -> (
      match close () with
      | None -> v
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt)

type observed = {
  o_metrics : (string * int) list;
  o_attribution : Observe.Attribution.row list;
}

let observing f =
  let v, cells = Observe.Metrics.window f in
  ( v,
    {
      o_metrics =
        List.filter (fun (_, n) -> n <> 0) (Observe.Metrics.counters cells);
      o_attribution = Observe.Attribution.rows cells;
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

let soak_entry cfg ~run (soak : Pm_harness.Soak.config) (st : Corpus.stats)
    (r : Pm_harness.Soak.result) obs =
  let s = r.Pm_harness.Soak.r_snapshot and o = soak.sk_options in
  { (entry cfg ~program:run ~variant:(Px86.Variant.label o.variant) ~mode:"soak"
       ~seed:o.seed ~coverage_digest:(coverage_digest ()) obs)
    with
    e_jobs = soak.sk_jobs; e_scenarios = s.snap_scenarios;
    e_completed = s.snap_completed; e_faulted = s.snap_faulted;
    e_diverged = s.snap_diverged; e_executions = s.snap_executions;
    e_ops = s.snap_ops; e_races = st.races; e_raw_races = s.snap_races;
    e_recovery_failures = st.recovery_failures; e_witnesses = st.total;
    e_elapsed_s = r.r_elapsed_s }
