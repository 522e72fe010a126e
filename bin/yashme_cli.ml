(* Command-line driver for the Yashme persistency-race detector.

   yashme list                          enumerate benchmark programs
   yashme check BENCH [--mode ...]      run the detector on one program
   yashme check-all [--mode ...]        run it on the whole suite
   yashme soak [STREAM...]              long-running randomized crash-testing service
   yashme replay CORPUS                 re-run recorded witnesses (regression gate)
   yashme minimize CORPUS               ddmin-shrink recorded witnesses
   yashme corpus merge|stats            manage witness corpora
   yashme profile TRACE                 hot-spot tables from a recorded trace
   yashme bench-diff BASE CUR           benchmark regression gate
   yashme runs LEDGER                   list runs recorded with --ledger
   yashme compare LEDGER A B            diff two ledger runs (counter deltas)
   yashme variants                      list persistency-model variants
   yashme litmus                        litmus suite x variant divergence matrix
   yashme tables                        print the reorder/compiler tables *)

open Cmdliner

let mode_conv =
  let parse = function
    | "prefix" -> Ok Yashme.Detector.Prefix
    | "baseline" -> Ok Yashme.Detector.Baseline
    | s -> Error (`Msg (Printf.sprintf "unknown detector mode %S (prefix|baseline)" s))
  in
  let print ppf = function
    | Yashme.Detector.Prefix -> Format.fprintf ppf "prefix"
    | Yashme.Detector.Baseline -> Format.fprintf ppf "baseline"
  in
  Arg.conv (parse, print)

let detector_mode =
  let doc = "Detection mode: $(b,prefix) (prefix-based expansion, the paper's \
             contribution) or $(b,baseline) (crash-in-window only)." in
  Arg.(value & opt mode_conv Yashme.Detector.Prefix & info [ "detector" ] ~doc)

let run_mode =
  let doc = "$(b,mc) model-checks every crash point; $(b,random) runs randomized \
             executions (see --execs); $(b,mc-recovery) model-checks two-crash \
             scenarios to find races in the recovery procedure itself." in
  Arg.(value
       & opt (enum [ ("mc", `Mc); ("random", `Random); ("mc-recovery", `Mc_recovery) ]) `Mc
       & info [ "mode" ] ~doc)

let execs =
  let doc = "Number of random executions in --mode random." in
  Arg.(value & opt int 20 & info [ "execs" ] ~doc)

let jobs =
  let doc = "Worker domains for the exploration engine.  Each crash plan is an \
             independent failure scenario; $(docv) > 1 spreads them over OCaml \
             domains.  The race report is identical for every job count." in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~doc ~docv:"N")

let seed =
  let doc = "Random seed (schedules, crash points, cache cuts)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let variant_conv =
  let parse s =
    match Px86.Variant.of_label s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown persistency-model variant %S (try `yashme variants')" s))
  in
  let print ppf v = Format.pp_print_string ppf (Px86.Variant.label v) in
  Arg.conv (parse, print)

let variant_arg =
  let doc = "Persistency-model variant to detect under (see $(b,yashme \
             variants) for the built-ins, e.g. $(b,strict-tso), \
             $(b,fence-nop), $(b,epoch)).  The default, $(b,strict-tso), \
             is the paper's Px86 model and reproduces historical reports \
             byte-for-byte." in
  Arg.(value & opt variant_conv Px86.Variant.strict_tso
       & info [ "variant" ] ~doc ~docv:"VARIANT")

let show_benign =
  let doc = "Also list benign (checksum-validated) findings." in
  Arg.(value & flag & info [ "benign" ] ~doc)

let eadr_flag =
  let doc = "Detect under eADR persistency semantics (section 7.5): the cache              is in the persistence domain, so only stores whose cache commit              is not forced into the consistent prefix can race." in
  Arg.(value & flag & info [ "eadr" ] ~doc)

let no_coherence =
  let doc = "Ablation: disable the cache-coherence condition (2)." in
  Arg.(value & flag & info [ "no-coherence" ] ~doc)

let no_candidates =
  let doc = "Ablation: only check the store each load actually read." in
  Arg.(value & flag & info [ "no-candidates" ] ~doc)

let metrics_flag =
  let doc = "Collect and print observe-layer metrics (domain-sharded counters, \
             merged on read): per-phase executor operations, Px86 buffer \
             drains, detector candidates/prefix expansions/races raised vs \
             pruned.  Totals are identical for every --jobs count." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_out =
  let doc = "Record a trace of the run and write it to $(docv): Chrome \
             about://tracing JSON (open in chrome://tracing or Perfetto), or \
             JSONL when $(docv) ends in .jsonl.  Spans cover engine workers, \
             scenarios, executions and crash materializations, laned per \
             worker domain." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")

let quiet_flag =
  let doc = "Suppress warnings (e.g. the Cut_random fallback to --jobs 1).  \
             Alias for $(b,--log-level off)." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let log_level_conv =
  let parse s =
    match Observe.Log.level_of_string s with
    | Some l -> Ok l
    | None ->
        Error (`Msg (Printf.sprintf "unknown log level %S (off|warn|info|debug)" s))
  in
  let print ppf l = Format.pp_print_string ppf (Observe.Log.level_to_string l) in
  Arg.conv (parse, print)

let log_level_arg =
  let doc = "Stderr logging threshold: $(b,off), $(b,warn) (default), \
             $(b,info) or $(b,debug).  Takes precedence over --quiet; the \
             trace mirror of log messages is unaffected." in
  Arg.(value & opt (some log_level_conv) None & info [ "log-level" ] ~doc ~docv:"LEVEL")

let coverage_flag =
  let doc = "Account crash-space coverage per program (crash-plan indices \
             exercised, crash points fired, detector expansions vs pruned \
             checks, distinct cache lines materialized) and print a coverage \
             block after each report.  Totals are identical for every --jobs \
             count; the race report itself is byte-identical with or without \
             this flag." in
  Arg.(value & flag & info [ "coverage" ] ~doc)

let coverage_out =
  let doc = "Also write the merged coverage snapshot to $(docv) as JSONL (one \
             flat object per program, deterministic field order).  Implies \
             --coverage." in
  Arg.(value & opt (some string) None & info [ "coverage-out" ] ~doc ~docv:"FILE")

let progress_flag =
  let doc = "Print a live progress heartbeat to stderr (scenarios done/total, \
             rate, races and faults so far, ETA), throttled to twice a \
             second.  Purely informational: the report is unaffected." in
  Arg.(value & flag & info [ "progress" ] ~doc)

let progress_out =
  let doc = "Stream progress updates to $(docv) as JSONL (one flat object per \
             emission).  Independent of --progress: without it, nothing is \
             printed to stderr." in
  Arg.(value & opt (some string) None & info [ "progress-out" ] ~doc ~docv:"FILE")

let max_ops_arg =
  let doc = "Fuel budget: terminate any execution phase after $(docv) scheduled \
             operations and mark the scenario diverged.  Deterministic — the \
             same budget trips at the same operation on every run and every \
             --jobs count." in
  Arg.(value & opt (some int) None & info [ "max-ops" ] ~doc ~docv:"N")

let timeout_arg =
  let doc = "Wall-clock budget per execution phase, in seconds.  A \
             nondeterministic last-resort valve: prefer --max-ops when \
             reports must stay reproducible." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~doc ~docv:"SECONDS")

let corpus_out =
  let doc = "Write every distinct race / recovery-failure witness found during \
             this run to $(docv) as a JSONL corpus (overwriting it).  Witnesses \
             are deduplicated by stable identity key, so the file is \
             byte-identical for every --jobs count.  Re-check them later with \
             $(b,yashme replay), shrink them with $(b,yashme minimize)." in
  Arg.(value & opt (some string) None & info [ "corpus-out" ] ~doc ~docv:"FILE")

let oracle_flag =
  let doc = "Run the crash-consistency invariant oracle alongside the race \
             detector: infer likely persistence invariants (ordering and \
             same-line atomicity) from crash-free reference executions of the \
             program's observe hook, replay every crash chain under the \
             lowerbound persist cut, and diff the recovered observable state \
             against the invariant-reachable states.  Violations are \
             deduplicated by stable key and reported (and written to \
             --corpus-out) alongside races; an [oracle] block lists the \
             inferred invariant set.  Programs without an observe hook run \
             unchanged.  Without this flag no oracle work runs at all and \
             the report is byte-identical to earlier builds." in
  Arg.(value & flag & info [ "oracle" ] ~doc)

let fail_fast_flag =
  let doc = "Stop at the first scenario fault: cancel the remaining batch \
             cooperatively and re-raise the fault's exception with its \
             original backtrace.  Without it, faults are contained and \
             reported alongside the races." in
  Arg.(value & flag & info [ "fail-fast" ] ~doc)

let attribution_flag =
  let doc = "Collect per-scenario cost attribution (queue-wait vs work wall \
             clock, per-phase time, GC minor/major words, snapshot bytes \
             copied, detector clock-vector and prefix-expansion charges) and \
             print an [attribution] cost-center table after each report.  \
             Counts and charged units are identical for every --jobs count; \
             wall clocks and GC words are not.  The race report itself is \
             byte-identical with or without this flag." in
  Arg.(value & flag & info [ "attribution" ] ~doc)

let attribution_out =
  let doc = "Also write the cost-center table's jobs-invariant projection \
             (counts and deterministic charged units; no wall clocks) to \
             $(docv) as JSONL, one flat object per center.  Byte-identical \
             for every --jobs count.  Implies --attribution.  Render it \
             later with $(b,yashme profile --attribution)." in
  Arg.(value & opt (some string) None & info [ "attribution-out" ] ~doc ~docv:"FILE")

let ledger_arg =
  let doc = "Append one versioned run-manifest line to $(docv) (JSONL): \
             program, variant, jobs, engine stats, metrics and coverage \
             digests, cost centers, witness count.  Implies collecting \
             metrics, coverage and attribution (without printing their \
             blocks).  Inspect with $(b,yashme runs), diff with $(b,yashme \
             compare)." in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~doc ~docv:"FILE")

let run_label_arg =
  let doc = "Run label recorded in the ledger entry (default: the program \
             name).  $(b,yashme compare) selects runs by label or 1-based \
             ordinal." in
  Arg.(value & opt (some string) None & info [ "run-label" ] ~doc ~docv:"LABEL")

(* Arm the observe layer before a detection run... *)
let observe_setup ~log_level ~coverage ~progress ~progress_out ~metrics
    ?(attribution = false) ~trace_out ~quiet () =
  (match log_level with
  | Some l -> Observe.Log.set_level l
  | None -> Observe.Log.set_quiet quiet);
  if metrics then Observe.Metrics.enable ();
  if attribution then Observe.Attribution.enable ();
  if coverage then begin
    Observe.Coverage.enable ();
    Observe.Coverage.reset ()
  end;
  if progress || progress_out <> None then
    Observe.Progress.start ~heartbeat:progress ?jsonl:progress_out ();
  if trace_out <> None then Observe.Trace.start ()

(* Progress winds down before the report prints, so the final
   heartbeat never interleaves with findings. *)
let finish_progress () = ignore (Observe.Progress.stop ())

(* The merged coverage snapshot as JSONL: one flat object per program,
   through the corpus codec so field order and number rendering are
   deterministic.  Written crash-safely (tmp + atomic rename) like
   every other file the driver emits. *)
let write_coverage_file = function
  | None -> ()
  | Some file ->
      let stats = Observe.Coverage.snapshot () in
      Yashme_util.Atomic_file.write file
        (String.concat ""
           (List.map
              (fun s ->
                Yashme_util.Json.encode_obj (Observe.Coverage.fields s) ^ "\n")
              stats));
      Printf.printf "coverage: %d program(s) written to %s\n" (List.length stats)
        file

let attach_coverage ~coverage ~variant (p : Pm_harness.Program.t) r =
  if not coverage then r
  else
    match
      Observe.Coverage.find ~variant:(Px86.Variant.label variant)
        p.Pm_harness.Program.name
    with
    | Some c -> Pm_harness.Report.with_coverage r c
    | None -> r

(* The jobs-invariant attribution projection as JSONL, one flat object
   per cost center, through the corpus codec (like coverage-out).
   Also crash-safe via tmp + atomic rename. *)
let write_attribution_file rows = function
  | None -> ()
  | Some file ->
      Yashme_util.Atomic_file.write file
        (String.concat ""
           (List.map
              (fun r ->
                Yashme_util.Json.encode_obj (Observe.Attribution.fields r) ^ "\n")
              rows));
      Printf.printf "attribution: %d cost center(s) written to %s\n"
        (List.length rows) file

let mode_label = function
  | `Mc -> "mc"
  | `Mc_recovery -> "mc-recovery"
  | `Random -> "random"

(* One run-manifest line, built from what the run attached to the
   report (metrics diff, coverage, attribution rows) plus the engine
   stats.  [--ledger] forces all three to be collected, so the digests
   and cost centers are always populated here. *)
let append_ledger ~ledger ~run_label ~mode ~seed ~witnesses
    ~(stats : Pm_harness.Engine.stats) (r : Pm_harness.Report.t) =
  match ledger with
  | None -> ()
  | Some file ->
      let entry =
        {
          Observe.Ledger.e_version = Observe.Ledger.version;
          e_run =
            Option.value run_label ~default:r.Pm_harness.Report.program;
          e_ts = Unix.gettimeofday ();
          e_program = r.Pm_harness.Report.program;
          e_variant = r.Pm_harness.Report.variant;
          e_mode = mode;
          e_jobs = stats.Pm_harness.Engine.jobs;
          e_seed = seed;
          e_scenarios = stats.Pm_harness.Engine.scenarios;
          e_completed = stats.Pm_harness.Engine.completed;
          e_faulted = stats.Pm_harness.Engine.faulted;
          e_diverged = stats.Pm_harness.Engine.diverged;
          e_executions = stats.Pm_harness.Engine.executions;
          e_ops = stats.Pm_harness.Engine.ops;
          e_races = List.length (Pm_harness.Report.real r);
          e_benign = List.length (Pm_harness.Report.benign r);
          e_raw_races = r.Pm_harness.Report.raw_races;
          e_recovery_failures =
            List.length r.Pm_harness.Report.recovery_failures;
          e_witnesses = witnesses;
          e_elapsed_s = stats.Pm_harness.Engine.elapsed_s;
          e_cpu_s = stats.Pm_harness.Engine.cpu_s;
          e_metrics_digest =
            Observe.Ledger.digest_counters r.Pm_harness.Report.metrics;
          e_coverage_digest =
            (match r.Pm_harness.Report.coverage with
            | Some c ->
                Observe.Ledger.digest_fields (Observe.Coverage.fields c)
            | None -> "");
          e_cost =
            Observe.Ledger.costs_of_rows r.Pm_harness.Report.attribution;
        }
      in
      Pm_corpus.Ledger_store.append file entry;
      Printf.printf "ledger: run %S appended to %s\n"
        entry.Observe.Ledger.e_run file

(* ...and flush it afterwards: write the trace file, if one was asked
   for. *)
let write_trace = function
  | Some file ->
      Observe.Trace.stop ();
      Observe.Trace.write file;
      Printf.printf "trace: %d event(s) written to %s\n"
        (Observe.Trace.event_count ()) file
  | None -> ()

let print_metrics_summary ~title metrics =
  Printf.printf "%s:\n" title;
  let nonzero = List.filter (fun (_, v) -> v <> 0) metrics in
  if nonzero = [] then print_endline "  (none recorded)"
  else List.iter (fun (name, v) -> Printf.printf "  %-42s %d\n" name v) nonzero

let options ?(eadr = false) ?(no_coherence = false) ?(no_candidates = false)
    ?(variant = Px86.Variant.strict_tso) ?max_ops ?max_wall_s mode seed =
  { Pm_harness.Runner.default_options with
    mode; seed; eadr; variant; coherence = not no_coherence;
    check_candidates = not no_candidates; max_ops; max_wall_s }

let outcome_program ?(oracle = false) run_mode opts ~jobs ~fail_fast execs
    (p : Pm_harness.Program.t) =
  match run_mode with
  | `Mc ->
      Pm_harness.Runner.model_check_outcome ~options:opts ~jobs ~fail_fast
        ~oracle p
  | `Mc_recovery ->
      Pm_harness.Runner.model_check_recovery_outcome ~options:opts ~jobs
        ~fail_fast ~oracle p
  | `Random ->
      Pm_harness.Runner.random_mode_outcome ~options:opts ~jobs ~fail_fast
        ~oracle ~execs p

(* Replay/minimize rebuild scenarios by registry name; demos are
   findable too, so corpora recorded from them replay as well.  Soak
   witnesses carry encoded "soak:STREAM:MIX:DIST:OPS:SEED" names and
   rebuild through the soak stream registry. *)
let lookup name =
  match Pm_benchmarks.Registry.find name with
  | exception Not_found -> Pm_benchmarks.Registry.find_soak_program name
  | p -> Some p

let write_corpus ~corpus_out extractions =
  match corpus_out with
  | None -> ()
  | Some file ->
      let witnesses, folded =
        Pm_corpus.Corpus.merge
          (List.map
             (fun (e : Pm_corpus.Witness.extraction) -> e.Pm_corpus.Witness.witnesses)
             extractions)
      in
      Pm_corpus.Corpus.save file witnesses;
      let dups =
        folded
        + List.fold_left
            (fun acc (e : Pm_corpus.Witness.extraction) ->
              acc + e.Pm_corpus.Witness.duplicates)
            0 extractions
      in
      Printf.printf "corpus: %d witness(es) written to %s (%d duplicate observation(s) folded)\n"
        (List.length witnesses) file dups

let print_report show_benign (r : Pm_harness.Report.t) =
  if show_benign then print_endline (Pm_harness.Report.to_string r)
  else begin
    let real = Pm_harness.Report.real r in
    Printf.printf "%s: %d distinct persistency race(s) in %d execution(s)\n"
      r.Pm_harness.Report.program (List.length real) r.Pm_harness.Report.executions;
    List.iter
      (fun (f : Pm_harness.Report.finding) ->
        Printf.printf "  [race] %s (%d report%s)\n" f.Pm_harness.Report.label
          f.Pm_harness.Report.count
          (if f.Pm_harness.Report.count = 1 then "" else "s"))
      real;
    (* Recovery failures and consistency violations are real findings;
       contained-fault/divergence counts only appear when non-zero,
       like in Report.pp. *)
    List.iter
      (fun rf ->
        Printf.printf "  %s\n"
          (Format.asprintf "%a" Pm_harness.Report.pp_recovery_failure rf))
      r.Pm_harness.Report.recovery_failures;
    List.iter
      (fun cv ->
        Printf.printf "  %s\n"
          (Format.asprintf "%a" Pm_harness.Report.pp_consistency_violation cv))
      r.Pm_harness.Report.consistency_violations;
    if r.Pm_harness.Report.fault_count > 0 || r.Pm_harness.Report.diverged > 0
    then
      Printf.printf "  [contained] %d scenario fault(s), %d diverged (budget)\n"
        r.Pm_harness.Report.fault_count r.Pm_harness.Report.diverged
  end

let list_cmd =
  let term =
    Term.(
      const (fun () ->
          List.iter
            (fun (p : Pm_harness.Program.t) ->
              print_endline p.Pm_harness.Program.name)
            Pm_benchmarks.Registry.all;
          (* Demos and litmus programs are findable by name but never
             part of check-all; mark them rather than silently omitting
             them. *)
          List.iter
            (fun (p : Pm_harness.Program.t) ->
              Printf.printf "%-24s (demo: fault injection, excluded from check-all)\n"
                p.Pm_harness.Program.name)
            Pm_benchmarks.Registry.demos;
          List.iter
            (fun (p : Pm_harness.Program.t) ->
              Printf.printf "%-24s (litmus: variant validation, excluded from check-all)\n"
                p.Pm_harness.Program.name)
            Pm_benchmarks.Registry.litmus)
      $ const ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmark programs") term

let check_cmd =
  let bench =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH"
           ~doc:"Benchmark name (see $(b,yashme list)).")
  in
  let run bench run_mode dmode execs jobs seed variant show_benign eadr
      no_coherence no_candidates metrics trace_out quiet max_ops timeout
      fail_fast oracle corpus_out log_level coverage coverage_out progress
      progress_out attribution attribution_out ledger run_label =
    match Pm_benchmarks.Registry.find bench with
    | exception Not_found ->
        Printf.eprintf "unknown benchmark %S; try `yashme list'\n" bench;
        exit 1
    | p ->
        (* Show vs collect: --ledger needs metrics, coverage and
           attribution collected for its digests and cost centers, but
           printing their blocks stays gated on the explicit flags. *)
        let coverage_show = coverage || coverage_out <> None in
        let att_show = attribution || attribution_out <> None in
        let collect_metrics = metrics || ledger <> None in
        let collect_coverage = coverage_show || ledger <> None in
        let collect_att = att_show || ledger <> None in
        observe_setup ~log_level ~coverage:collect_coverage ~progress
          ~progress_out ~metrics:collect_metrics ~attribution:collect_att
          ~trace_out ~quiet ();
        let before =
          if collect_metrics then Observe.Metrics.snapshot () else []
        in
        let att_before =
          if collect_att then Observe.Attribution.snapshot () else []
        in
        let o =
          outcome_program ~oracle run_mode
            (options ~eadr ~no_coherence ~no_candidates ~variant ?max_ops
               ?max_wall_s:timeout dmode seed)
            ~jobs ~fail_fast execs p
        in
        finish_progress ();
        let r = o.Pm_harness.Runner.o_report in
        let r =
          if collect_metrics then
            Pm_harness.Report.with_metrics r
              (Observe.Metrics.diff before (Observe.Metrics.snapshot ()))
          else r
        in
        let r = attach_coverage ~coverage:collect_coverage ~variant p r in
        let r =
          if collect_att then
            Pm_harness.Report.with_attribution r
              (Observe.Attribution.diff att_before
                 (Observe.Attribution.snapshot ()))
          else r
        in
        print_report show_benign r;
        if oracle then print_endline (Pm_harness.Report.oracle_to_string r);
        if metrics then print_endline (Pm_harness.Report.metrics_to_string r);
        if coverage_show then
          print_endline (Pm_harness.Report.coverage_to_string r);
        if att_show then
          print_endline (Pm_harness.Report.attribution_to_string r);
        write_coverage_file coverage_out;
        write_attribution_file r.Pm_harness.Report.attribution attribution_out;
        if corpus_out <> None || ledger <> None then begin
          let ex =
            Pm_corpus.Witness.of_outcome ~program:p.Pm_harness.Program.name o
          in
          if corpus_out <> None then write_corpus ~corpus_out [ ex ];
          append_ledger ~ledger ~run_label ~mode:(mode_label run_mode) ~seed
            ~witnesses:(List.length ex.Pm_corpus.Witness.witnesses)
            ~stats:o.Pm_harness.Runner.o_stats r
        end;
        write_trace trace_out
  in
  let term =
    Term.(
      const run $ bench $ run_mode $ detector_mode $ execs $ jobs $ seed
      $ variant_arg $ show_benign $ eadr_flag $ no_coherence $ no_candidates
      $ metrics_flag $ trace_out $ quiet_flag $ max_ops_arg $ timeout_arg
      $ fail_fast_flag $ oracle_flag $ corpus_out $ log_level_arg
      $ coverage_flag $ coverage_out $ progress_flag $ progress_out
      $ attribution_flag $ attribution_out $ ledger_arg $ run_label_arg)
  in
  Cmd.v (Cmd.info "check" ~doc:"Detect persistency races in one benchmark") term

let witness_cmd =
  let bench =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH"
           ~doc:"Benchmark name (see $(b,yashme list)).")
  in
  let flush_point =
    let doc = "Crash before the n-th flush/fence; -1 crashes at program end." in
    Arg.(value & opt int (-1) & info [ "at" ] ~doc)
  in
  let run bench n seed variant =
    match Pm_benchmarks.Registry.find bench with
    | exception Not_found ->
        Printf.eprintf "unknown benchmark %S; try `yashme list'\n" bench;
        exit 1
    | p ->
        let plan =
          if n < 0 then Pm_runtime.Executor.Crash_at_end
          else Pm_runtime.Executor.Crash_before_flush n
        in
        let opts = { Pm_harness.Runner.default_options with seed; variant } in
        let detector, trace = Pm_harness.Runner.run_once_traced ~options:opts ~plan p in
        (match Yashme.Detector.races detector with
        | [] -> print_endline "no persistency race in this execution"
        | race :: _ ->
            print_endline
              (Pm_harness.Witness.explain
                 ~variant:(Px86.Variant.label variant)
                 ~trace ~detector ~race ()))
  in
  let term = Term.(const run $ bench $ flush_point $ seed $ variant_arg) in
  Cmd.v
    (Cmd.info "witness"
       ~doc:"Run one crash scenario and print a race witness (pre-crash prefix E+)")
    term

let check_all_cmd =
  let run run_mode dmode execs jobs seed variant show_benign metrics trace_out
      quiet max_ops timeout fail_fast oracle corpus_out log_level coverage
      coverage_out progress progress_out attribution attribution_out ledger
      run_label =
    let coverage_show = coverage || coverage_out <> None in
    let att_show = attribution || attribution_out <> None in
    let collect_metrics = metrics || ledger <> None in
    let collect_coverage = coverage_show || ledger <> None in
    let collect_att = att_show || ledger <> None in
    observe_setup ~log_level ~coverage:collect_coverage ~progress ~progress_out
      ~metrics:collect_metrics ~attribution:collect_att ~trace_out ~quiet ();
    let suite_before =
      if collect_metrics then Observe.Metrics.snapshot () else []
    in
    let suite_att_before =
      if collect_att then Observe.Attribution.snapshot () else []
    in
    let total = ref 0 in
    let extractions = ref [] in
    List.iter
      (fun (p : Pm_harness.Program.t) ->
        let before =
          if collect_metrics then Observe.Metrics.snapshot () else []
        in
        let att_before =
          if collect_att then Observe.Attribution.snapshot () else []
        in
        let o =
          outcome_program ~oracle run_mode
            (options ~variant ?max_ops ?max_wall_s:timeout dmode seed)
            ~jobs ~fail_fast execs p
        in
        let r = o.Pm_harness.Runner.o_report in
        let r =
          if collect_metrics then
            Pm_harness.Report.with_metrics r
              (Observe.Metrics.diff before (Observe.Metrics.snapshot ()))
          else r
        in
        let r = attach_coverage ~coverage:collect_coverage ~variant p r in
        let r =
          if collect_att then
            Pm_harness.Report.with_attribution r
              (Observe.Attribution.diff att_before
                 (Observe.Attribution.snapshot ()))
          else r
        in
        if corpus_out <> None || ledger <> None then begin
          let ex =
            Pm_corpus.Witness.of_outcome ~program:p.Pm_harness.Program.name o
          in
          if corpus_out <> None then extractions := ex :: !extractions;
          append_ledger ~ledger ~run_label ~mode:(mode_label run_mode) ~seed
            ~witnesses:(List.length ex.Pm_corpus.Witness.witnesses)
            ~stats:o.Pm_harness.Runner.o_stats r
        end;
        total := !total + List.length (Pm_harness.Report.real r);
        print_report show_benign r;
        if oracle then print_endline (Pm_harness.Report.oracle_to_string r);
        if metrics then print_endline (Pm_harness.Report.metrics_to_string r);
        if coverage_show then
          print_endline (Pm_harness.Report.coverage_to_string r);
        if att_show then
          print_endline (Pm_harness.Report.attribution_to_string r);
        print_newline ())
      Pm_benchmarks.Registry.all;
    finish_progress ();
    Printf.printf "total distinct persistency races: %d\n" !total;
    write_corpus ~corpus_out (List.rev !extractions);
    write_coverage_file coverage_out;
    if attribution_out <> None then
      write_attribution_file
        (Observe.Attribution.diff suite_att_before
           (Observe.Attribution.snapshot ()))
        attribution_out;
    if metrics then
      print_metrics_summary ~title:"metrics summary (whole suite)"
        (Observe.Metrics.diff suite_before (Observe.Metrics.snapshot ()));
    write_trace trace_out
  in
  let term =
    Term.(
      const run $ run_mode $ detector_mode $ execs $ jobs $ seed $ variant_arg
      $ show_benign $ metrics_flag $ trace_out $ quiet_flag $ max_ops_arg
      $ timeout_arg $ fail_fast_flag $ oracle_flag $ corpus_out $ log_level_arg
      $ coverage_flag $ coverage_out $ progress_flag $ progress_out
      $ attribution_flag $ attribution_out $ ledger_arg $ run_label_arg)
  in
  Cmd.v (Cmd.info "check-all" ~doc:"Detect persistency races across the whole suite") term

let trace_lint_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"File to validate: JSONL when the name ends in .jsonl, SVG \
                 (timeline export) when it ends in .svg, Chrome trace JSON \
                 otherwise.")
  in
  let run file =
    let check =
      if Filename.check_suffix file ".svg" then
        Observe.Timeline.check_svg_file
      else Observe.Trace.check_file
    in
    match check file with
    | Ok () -> Printf.printf "%s: well-formed\n" file
    | Error msg ->
        Printf.eprintf "malformed trace: %s\n" msg;
        exit 1
    | exception Sys_error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "trace-lint"
       ~doc:"Validate a trace file emitted by --trace-out (JSON \
             well-formedness), or an SVG timeline emitted by yashme scaling \
             --svg (XML well-formedness)")
    Term.(const run $ file)

let profile_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE"
           ~doc:"Trace file written by --trace-out (JSONL when the name ends \
                 in .jsonl, Chrome trace JSON otherwise).")
  in
  let top =
    let doc = "Rows per hot-spot table." in
    Arg.(value & opt int 15 & info [ "top" ] ~doc ~docv:"N")
  in
  let attribution =
    let doc = "Treat $(docv) as a cost-attribution JSONL file (written by \
               $(b,--attribution-out)) and render its jobs-invariant \
               cost-center table instead of trace hot-spots." in
    Arg.(value & flag & info [ "attribution" ] ~doc)
  in
  let run_attribution file =
    match
      Yashme_util.Json.load_lines ~what:"attribution file" file (fun l ->
          Result.bind (Yashme_util.Json.decode_obj l) Observe.Attribution.of_fields)
    with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok rows -> print_endline (Observe.Attribution.to_string ~timing:false rows)
  in
  let run file top attribution =
    if attribution then run_attribution file
    else
    match Observe.Profile.parse_file file with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok events ->
        let fmt_us us = Printf.sprintf "%.3fms" (float_of_int us /. 1000.) in
        let take n l = List.filteri (fun i _ -> i < n) l in
        let rows_of rows =
          List.map
            (fun (r : Observe.Profile.row) ->
              [ r.Observe.Profile.r_key;
                string_of_int r.Observe.Profile.r_count;
                fmt_us r.Observe.Profile.r_total_us;
                fmt_us r.Observe.Profile.r_self_us ])
            (take top rows)
        in
        Printf.printf "%s: %d event(s)\n\n" file (List.length events);
        print_endline "hot spots by span name (self time, descending):";
        print_endline
          (Yashme_util.Pretty.table
             ~header:[ "span"; "count"; "total"; "self" ]
             (rows_of (Observe.Profile.by_name events)));
        print_newline ();
        print_endline "by category:";
        print_endline
          (Yashme_util.Pretty.table
             ~header:[ "category"; "count"; "total"; "self" ]
             (rows_of (Observe.Profile.by_cat events)));
        print_newline ();
        print_endline "lanes (pid/tid = engine worker slots):";
        print_endline
          (Yashme_util.Pretty.table
             ~header:[ "pid"; "tid"; "spans"; "instants"; "busy" ]
             (List.map
                (fun (l : Observe.Profile.lane) ->
                  [ string_of_int l.Observe.Profile.l_pid;
                    string_of_int l.Observe.Profile.l_tid;
                    string_of_int l.Observe.Profile.l_spans;
                    string_of_int l.Observe.Profile.l_instants;
                    fmt_us l.Observe.Profile.l_busy_us ])
                (Observe.Profile.lanes events)));
        (* The timeline reconstruction classifies the same lanes into
           busy / queue-wait / idle; skipped silently for traces
           without complete spans (e.g. instants-only logs). *)
        (match Observe.Timeline.of_events events with
        | Error _ -> ()
        | Ok t ->
            print_newline ();
            print_endline (Observe.Timeline.to_string t))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Aggregate a recorded trace into per-phase/per-lane self-time \
             hot-spot tables; with $(b,--attribution), render a cost-center \
             table from an attribution JSONL file")
    Term.(const run $ file $ top $ attribution)

let bench_diff_cmd =
  let baseline =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE"
           ~doc:"Committed bench summary (JSONL, written by bench --out).")
  in
  let current =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CURRENT"
           ~doc:"Fresh bench summary to gate against the baseline.")
  in
  let tolerance =
    let doc = "Allowed regression, in percent of the baseline value." in
    Arg.(value & opt float 10. & info [ "tolerance" ] ~doc ~docv:"PCT")
  in
  let metric =
    let doc = "Higher-is-better numeric field to compare." in
    Arg.(value & opt string "ops_per_s" & info [ "metric" ] ~doc ~docv:"NAME")
  in
  let scaling =
    let doc = "Judge the scaling metric set instead of a single metric: \
               $(b,speedup) and $(b,efficiency), both higher-is-better, per \
               baseline row.  Rows written by $(b,bench --jobs-sweep) carry \
               one (bench, jobs) pair each, so every jobs level gates \
               independently." in
    Arg.(value & flag & info [ "scaling" ] ~doc)
  in
  let run baseline current tolerance metric scaling =
    let load path =
      match Pm_corpus.Bench_gate.load path with
      | Ok entries -> entries
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
    in
    let b = load baseline in
    let c = load current in
    let o =
      if scaling then
        Pm_corpus.Bench_gate.diff_metrics
          ~metrics:Pm_corpus.Bench_gate.scaling_metrics ~tolerance ~baseline:b
          ~current:c ()
      else Pm_corpus.Bench_gate.diff ~metric ~tolerance ~baseline:b ~current:c ()
    in
    print_endline (Pm_corpus.Bench_gate.outcome_to_string o);
    if not o.Pm_corpus.Bench_gate.passed then exit 1
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:"Gate a fresh bench summary against a committed baseline; exits \
             non-zero when the metric regresses beyond the tolerance (or a \
             baseline benchmark went missing).  With $(b,--scaling), gates \
             speedup and parallel efficiency instead of a single metric")
    Term.(const run $ baseline $ current $ tolerance $ metric $ scaling)

let scaling_cmd =
  let progs =
    Arg.(value & pos_all string [] & info [] ~docv:"BENCH"
           ~doc:"Benchmark programs to sweep (default: CCEH, Fast_Fair and \
                 Memcached, the throughput-bench set).")
  in
  let jobs_list_arg =
    let doc = "Comma-separated worker-domain counts to sweep, e.g. \
               $(b,1,2,4).  The lowest level is the speedup reference." in
    Arg.(value & opt string "1,2,4" & info [ "jobs-list" ] ~doc ~docv:"LIST")
  in
  let repeats_arg =
    let doc = "Interleaved measurement passes per jobs level; the best \
               elapsed per level wins (evens out warmup bias)." in
    Arg.(value & opt int 1 & info [ "repeats" ] ~doc ~docv:"N")
  in
  let out_arg =
    let doc = "Write one flat JSONL row per (program, jobs) level to $(docv): \
               the jobs-invariant projection first, then the wall-clock \
               class (speedup, efficiency, serial fraction, loss centers)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~doc ~docv:"FILE")
  in
  let projection_out_arg =
    let doc = "Write only the jobs-invariant projection rows to $(docv).  \
               Byte-identical for any $(b,--jobs-list) covering the same \
               levels in any order — CI cmp(1)s two of these." in
    Arg.(value & opt (some string) None
           & info [ "projection-out" ] ~doc ~docv:"FILE")
  in
  let svg_arg =
    let doc = "Write an SVG lane chart of the last program's top-jobs run to \
               $(docv) (validate with $(b,yashme trace-lint))." in
    Arg.(value & opt (some string) None & info [ "svg" ] ~doc ~docv:"FILE")
  in
  let timeline_flag =
    let doc = "Print the per-domain timeline (ASCII lane chart plus the \
               utilization/idle-gap table) of each program's top-jobs run." in
    Arg.(value & flag & info [ "timeline" ] ~doc)
  in
  let run progs jobs_list repeats seed variant out projection_out svg_file
      timeline quiet log_level =
    let levels_asked =
      List.sort_uniq compare
        (List.filter_map
           (fun t -> int_of_string_opt (String.trim t))
           (String.split_on_char ',' jobs_list))
    in
    if levels_asked = [] || List.exists (fun j -> j < 1) levels_asked then begin
      Printf.eprintf "bad --jobs-list %S: need comma-separated integers >= 1\n"
        jobs_list;
      exit 2
    end;
    let programs =
      match progs with
      | [] ->
          [ Pm_benchmarks.Cceh.program; Pm_benchmarks.Fast_fair.program;
            Pm_benchmarks.Memcached.program ]
      | names ->
          List.map
            (fun name ->
              match lookup name with
              | Some p -> p
              | None ->
                  Printf.eprintf "unknown benchmark %S (see `yashme list')\n"
                    name;
                  exit 2)
            names
    in
    observe_setup ~log_level ~coverage:false ~progress:false ~progress_out:None
      ~metrics:false ~attribution:true ~trace_out:None ~quiet ();
    let opts = { Pm_harness.Runner.default_options with seed; variant } in
    let top = List.fold_left max 1 levels_asked in
    let last_timeline = ref None in
    (* One engine run at [jobs] with the cost-center window around it;
       traced runs additionally reconstruct the per-domain timeline. *)
    let run_level ~trace (p : Pm_harness.Program.t) jobs =
      if trace then Observe.Trace.start ();
      let att0 = Observe.Attribution.snapshot () in
      let o = Pm_harness.Runner.model_check_outcome ~options:opts ~jobs p in
      let att =
        Observe.Attribution.diff att0 (Observe.Attribution.snapshot ())
      in
      if trace then begin
        Observe.Trace.stop ();
        let events = Observe.Trace.events () in
        Observe.Trace.clear ();
        match Observe.Timeline.of_events events with
        | Ok t ->
            last_timeline := Some (p.Pm_harness.Program.name, jobs, t);
            if timeline then begin
              Printf.printf "%s timeline (jobs=%d):\n"
                p.Pm_harness.Program.name jobs;
              print_endline (Observe.Timeline.ascii t);
              print_endline (Observe.Timeline.to_string t);
              print_newline ()
            end
        | Error msg ->
            Observe.Log.warn
              (Printf.sprintf "timeline reconstruction failed: %s" msg)
      end;
      let stats = o.Pm_harness.Runner.o_stats in
      let r = o.Pm_harness.Runner.o_report in
      let ex =
        Pm_corpus.Witness.of_outcome ~program:p.Pm_harness.Program.name o
      in
      let snapshot_bytes, queue_wait_us, snapshot_us, merge_us, gc_minor,
          gc_major =
        Observe.Scaling.of_attribution att
      in
      {
        Observe.Scaling.v_jobs = stats.Pm_harness.Engine.jobs;
        v_elapsed_s = stats.Pm_harness.Engine.elapsed_s;
        v_cpu_s = stats.Pm_harness.Engine.cpu_s;
        v_scenarios = stats.Pm_harness.Engine.scenarios;
        v_completed = stats.Pm_harness.Engine.completed;
        v_faulted = stats.Pm_harness.Engine.faulted;
        v_executions = stats.Pm_harness.Engine.executions;
        v_ops = stats.Pm_harness.Engine.ops;
        v_races = List.length (Pm_harness.Report.real r);
        v_witnesses = List.length ex.Pm_corpus.Witness.witnesses;
        v_snapshot_bytes = snapshot_bytes;
        v_queue_wait_us = queue_wait_us;
        v_snapshot_us = snapshot_us;
        v_merge_us = merge_us;
        v_gc_minor_words = gc_minor;
        v_gc_major_words = gc_major;
      }
    in
    let rows = ref [] and projection_rows = ref [] in
    List.iter
      (fun (p : Pm_harness.Program.t) ->
        let name = p.Pm_harness.Program.name in
        (* Interleaved best-of-N, like the bench: each pass visits every
           level before any level repeats, so no level systematically
           runs cold.  The top level of the first pass is traced for
           the timeline artifacts. *)
        let best : (int, Observe.Scaling.level) Hashtbl.t = Hashtbl.create 8 in
        for rep = 1 to max 1 repeats do
          List.iter
            (fun jobs ->
              let trace = rep = 1 && jobs = top && (timeline || svg_file <> None) in
              let l = run_level ~trace p jobs in
              match Hashtbl.find_opt best jobs with
              | Some prev
                when prev.Observe.Scaling.v_elapsed_s
                     <= l.Observe.Scaling.v_elapsed_s ->
                  ()
              | Some _ | None -> Hashtbl.replace best jobs l)
            levels_asked
        done;
        let levels =
          List.map (fun jobs -> Hashtbl.find best jobs) levels_asked
        in
        (match Observe.Scaling.check ~program:name levels with
        | Ok () -> ()
        | Error msg ->
            Printf.eprintf
              "%s: determinism violation across the sweep: %s\n" name msg;
            exit 1);
        match Observe.Scaling.analyze ~program:name levels with
        | Error msg ->
            Printf.eprintf "%s: %s\n" name msg;
            exit 1
        | Ok a ->
            print_endline (Observe.Scaling.to_string a);
            print_newline ();
            List.iter
              (fun pair ->
                rows :=
                  Yashme_util.Json.encode_obj
                    (Observe.Scaling.fields ~program:name pair)
                  :: !rows;
                projection_rows :=
                  Yashme_util.Json.encode_obj
                    (Observe.Scaling.fields ~timing:false ~program:name pair)
                  :: !projection_rows)
              a.Observe.Scaling.a_levels)
      programs;
    let write_rows file lines what =
      match file with
      | None -> ()
      | Some file ->
          Yashme_util.Atomic_file.write file
            (String.concat "" (List.rev_map (fun l -> l ^ "\n") lines));
          Printf.printf "%s: %d row(s) written to %s\n" what
            (List.length lines) file
    in
    write_rows out !rows "scaling";
    write_rows projection_out !projection_rows "scaling projection";
    match (svg_file, !last_timeline) with
    | None, _ -> ()
    | Some file, Some (name, jobs, t) ->
        Yashme_util.Atomic_file.write file (Observe.Timeline.svg t);
        Printf.printf "svg: %s timeline (jobs=%d) written to %s\n" name jobs
          file
    | Some _, None ->
        Printf.eprintf "svg: no timeline was reconstructed\n";
        exit 1
  in
  let term =
    Term.(
      const run $ progs $ jobs_list_arg $ repeats_arg $ seed $ variant_arg
      $ out_arg $ projection_out_arg $ svg_arg $ timeline_flag $ quiet_flag
      $ log_level_arg)
  in
  Cmd.v
    (Cmd.info "scaling"
       ~doc:"Sweep the exploration engine across --jobs-list levels and \
             report speedup, parallel efficiency, an Amdahl serial-fraction \
             fit and a named decomposition of lost parallel time \
             (queue-wait, snapshot copying, merge, GC); the race counts and \
             all other non-timing fields are byte-identical at every level, \
             and the sweep exits 1 if not")
    term

let runs_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEDGER"
           ~doc:"Run ledger (JSONL, appended by --ledger).")
  in
  let run file =
    match Pm_corpus.Ledger_store.load file with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok entries ->
        let rows =
          List.mapi
            (fun i (e : Observe.Ledger.entry) ->
              [
                string_of_int (i + 1);
                e.Observe.Ledger.e_run;
                e.Observe.Ledger.e_program;
                e.Observe.Ledger.e_variant;
                e.Observe.Ledger.e_mode;
                string_of_int e.Observe.Ledger.e_jobs;
                string_of_int e.Observe.Ledger.e_scenarios;
                string_of_int e.Observe.Ledger.e_races;
                string_of_int e.Observe.Ledger.e_witnesses;
                Printf.sprintf "%.2fs" e.Observe.Ledger.e_elapsed_s;
              ])
            entries
        in
        print_endline
          (Yashme_util.Pretty.table
             ~header:
               [ "#"; "run"; "program"; "variant"; "mode"; "jobs";
                 "scenarios"; "races"; "witnesses"; "elapsed" ]
             rows);
        let sum f =
          List.fold_left (fun acc e -> acc + f e) 0 entries
        in
        let programs =
          List.sort_uniq compare
            (List.map (fun e -> e.Observe.Ledger.e_program) entries)
        in
        Printf.printf
          "\n%d run(s) over %d program(s): %d execution(s), %d race \
           finding(s), %d witness(es), %.2fs total wall\n"
          (List.length entries) (List.length programs)
          (sum (fun e -> e.Observe.Ledger.e_executions))
          (sum (fun e -> e.Observe.Ledger.e_races))
          (sum (fun e -> e.Observe.Ledger.e_witnesses))
          (List.fold_left
             (fun acc e -> acc +. e.Observe.Ledger.e_elapsed_s)
             0. entries)
  in
  Cmd.v
    (Cmd.info "runs"
       ~doc:"List the runs recorded in a ledger file (appended by --ledger), \
             with summary stats")
    Term.(const run $ file)

let compare_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEDGER"
           ~doc:"Run ledger (JSONL, appended by --ledger).")
  in
  let sel ~pos:p ~docv ~doc =
    Arg.(required & pos p (some string) None & info [] ~docv ~doc)
  in
  let a =
    sel ~pos:1 ~docv:"BASELINE"
      ~doc:"Baseline run: 1-based ordinal (see $(b,yashme runs)) or unique \
            run label."
  in
  let b =
    sel ~pos:2 ~docv:"CURRENT"
      ~doc:"Current run to judge against the baseline: ordinal or label."
  in
  let run file a b =
    match Pm_corpus.Ledger_store.load file with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    | Ok entries -> (
        match
          ( Pm_corpus.Ledger_store.find entries a,
            Pm_corpus.Ledger_store.find entries b )
        with
        | Error msg, _ | _, Error msg ->
            Printf.eprintf "%s: %s\n" file msg;
            exit 2
        | Ok ea, Ok eb ->
            let c = Pm_corpus.Ledger_store.compare_runs ~baseline:ea ~current:eb in
            print_endline (Pm_corpus.Ledger_store.render ~a_label:a ~b_label:b c);
            if not c.Pm_corpus.Ledger_store.cmp_passed then exit 1)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Diff two ledger runs counter by counter (timing fields \
             informational only); exits non-zero on any non-timing delta or \
             configuration mismatch")
    Term.(const run $ file $ a $ b)

let corpus_pos ~doc =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CORPUS" ~doc)

let out_arg =
  let doc = "Write the resulting corpus to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc ~docv:"FILE")

let load_corpus_or_exit file =
  match Pm_corpus.Corpus.load file with
  | Ok ws -> ws
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1

(* Corpus results go to stdout when no -o is given, so status lines go
   to stderr there; with -o, stdout carries the status. *)
let emit_corpus ~out ~status ws =
  match out with
  | Some file ->
      Pm_corpus.Corpus.save file ws;
      Printf.printf "%s -> %s\n" status file
  | None ->
      print_string (Pm_corpus.Corpus.to_jsonl ws);
      Printf.eprintf "%s\n" status

let replay_cmd =
  let file =
    corpus_pos ~doc:"Witness corpus (JSONL, written by --corpus-out)."
  in
  let run file quiet =
    Observe.Log.set_quiet quiet;
    let ws = load_corpus_or_exit file in
    let r = Pm_corpus.Replay.replay_all ~lookup ws in
    List.iter
      (fun (f : Pm_corpus.Replay.failure) ->
        Printf.printf "  [no-repro] %s %s: %s\n"
          (Pm_corpus.Witness.kind_label f.Pm_corpus.Replay.witness.Pm_corpus.Witness.kind)
          f.Pm_corpus.Replay.witness.Pm_corpus.Witness.program
          f.Pm_corpus.Replay.reason)
      r.Pm_corpus.Replay.failures;
    Printf.printf "replayed %d witness(es): %d reproduced, %d failed\n"
      r.Pm_corpus.Replay.total r.Pm_corpus.Replay.reproduced
      (List.length r.Pm_corpus.Replay.failures);
    if r.Pm_corpus.Replay.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-run every witness in a corpus; exit non-zero if any race key \
             no longer reproduces (the corpus regression gate)")
    Term.(const run $ file $ quiet_flag)

let minimize_cmd =
  let file =
    corpus_pos ~doc:"Witness corpus (JSONL, written by --corpus-out)."
  in
  let run file out quiet =
    Observe.Log.set_quiet quiet;
    let ws = load_corpus_or_exit file in
    let shrinks = Pm_corpus.Minimize.minimize_all ~lookup ws in
    let stale = ref 0 in
    List.iter
      (fun (s : Pm_corpus.Minimize.shrink) ->
        let w = s.Pm_corpus.Minimize.original in
        let m = s.Pm_corpus.Minimize.minimized in
        if not s.Pm_corpus.Minimize.reproduced then begin
          incr stale;
          Printf.eprintf "  [stale] %s %s: key %S does not reproduce\n"
            (Pm_corpus.Witness.kind_label w.Pm_corpus.Witness.kind)
            w.Pm_corpus.Witness.program w.Pm_corpus.Witness.key
        end
        else
          Printf.eprintf "  [min] %s %s: %s -> %s%s (%d run%s)\n"
            (Pm_corpus.Witness.kind_label w.Pm_corpus.Witness.kind)
            w.Pm_corpus.Witness.program
            (Pm_runtime.Executor.plan_label w.Pm_corpus.Witness.plan)
            (Pm_runtime.Executor.plan_label m.Pm_corpus.Witness.plan)
            (if s.Pm_corpus.Minimize.derandomized then ", derandomized" else "")
            s.Pm_corpus.Minimize.runs
            (if s.Pm_corpus.Minimize.runs = 1 then "" else "s"))
      shrinks;
    let minimized =
      List.map (fun s -> s.Pm_corpus.Minimize.minimized) shrinks
    in
    let status =
      Printf.sprintf "minimized %d witness(es)%s" (List.length minimized)
        (if !stale > 0 then Printf.sprintf " (%d stale, kept unchanged)" !stale
         else "")
    in
    emit_corpus ~out ~status minimized;
    if !stale > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:"Shrink every witness with ddmin-style greedy steps (derandomize, \
             drop the double crash, smaller crash index, tighter fuel), \
             verifying reproduction after each step")
    Term.(const run $ file $ out_arg $ quiet_flag)

let corpus_cmd =
  let merge =
    let files =
      Arg.(non_empty & pos_all string [] & info [] ~docv:"CORPUS"
             ~doc:"Corpora to merge, in priority order.")
    in
    let run files out =
      let corpora = List.map load_corpus_or_exit files in
      let ws, folded = Pm_corpus.Corpus.merge corpora in
      let status =
        Printf.sprintf "merged %d file(s): %d witness(es), %d duplicate(s) folded"
          (List.length files) (List.length ws) folded
      in
      emit_corpus ~out ~status ws
    in
    Cmd.v
      (Cmd.info "merge"
         ~doc:"Concatenate corpora, folding duplicate identity keys (first \
               occurrence wins); merging a corpus with itself is the identity")
      Term.(const run $ files $ out_arg)
  in
  let stats =
    let files =
      Arg.(non_empty & pos_all string [] & info [] ~docv:"CORPUS"
             ~doc:"Corpora to summarize.")
    in
    let run files =
      let corpora = List.map load_corpus_or_exit files in
      let ws, folded = Pm_corpus.Corpus.merge corpora in
      Format.printf "%a@." Pm_corpus.Corpus.pp_stats
        (Pm_corpus.Corpus.stats ~duplicates_folded:folded ws)
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Summarize a corpus (counts per kind and program)")
      Term.(const run $ files)
  in
  Cmd.group
    (Cmd.info "corpus" ~doc:"Manage witness corpora (merge, stats)")
    [ merge; stats ]

let variants_cmd =
  let run () =
    List.iter
      (fun (name, v, desc) ->
        Printf.printf "%-16s%s %s\n" name
          (if Px86.Variant.is_default v then " (default)" else "")
          desc;
        Printf.printf "%-16s  %s\n" "" (Px86.Variant.field_form v))
      Px86.Variant.builtins
  in
  Cmd.v
    (Cmd.info "variants"
       ~doc:"List the built-in persistency-model variants (for --variant)")
    Term.(const run $ const ())

let litmus_cmd =
  let expect =
    let doc = "Golden matrix file to compare against (byte comparison after \
               trailing-newline normalization); exits non-zero on mismatch.  \
               CI pins $(b,LITMUS_matrix.txt) this way." in
    Arg.(value & opt (some string) None & info [ "expect" ] ~doc ~docv:"FILE")
  in
  let run jobs expect quiet =
    Observe.Log.set_quiet quiet;
    let m = Pm_benchmarks.Litmus.run_matrix ~jobs () in
    let rendered = Pm_benchmarks.Litmus.render m in
    print_endline rendered;
    Printf.printf
      "\n%d litmus case(s) x %d variant(s); '*' marks divergence from strict-tso\n"
      (List.length m.Pm_benchmarks.Litmus.m_rows)
      (List.length m.Pm_benchmarks.Litmus.m_variants);
    match expect with
    | None -> ()
    | Some file -> (
        match In_channel.with_open_bin file In_channel.input_all with
        | exception Sys_error msg ->
            Printf.eprintf "%s\n" msg;
            exit 2
        | golden ->
            let strip s = String.trim s in
            if strip golden = strip rendered then
              Printf.printf "matrix matches %s\n" file
            else begin
              Printf.eprintf
                "litmus matrix DIVERGES from %s — the persistency-model \
                 semantics changed.\nRegenerate with `yashme litmus > %s` if \
                 the change is intended.\n"
                file file;
              exit 1
            end)
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:"Run the litmus suite across every built-in variant and print the \
             divergence matrix (race findings per litmus program x variant)")
    Term.(const run $ jobs $ expect $ quiet_flag)

let tables_cmd =
  let run () =
    print_endline "Table 1: Px86 reordering constraints";
    print_endline (Px86.Reorder.table ());
    print_newline ();
    print_endline "Table 2a: compiler store optimizations";
    print_endline (Pm_compiler.Passes.table_2a ());
    print_newline ();
    print_endline "Table 2b: source vs assembly memory operations (clang -O3, x86-64)";
    print_endline (Pm_compiler.Programs.table_2b ())
  in
  Cmd.v (Cmd.info "tables" ~doc:"Print the static tables (1, 2a, 2b)")
    Term.(const run $ const ())

let soak_cmd =
  let streams_pos =
    Arg.(value & pos_all string [] & info [] ~docv:"STREAM"
           ~doc:"Op streams to soak (default: memcached, redis and cceh; \
                 $(b,demo-storm) is findable too, for quarantine demos).")
  in
  let soak_max_ops =
    let doc = "Total client-op budget: stop the service (soak_ok) once \
               $(docv) randomized client operations have been streamed.  \
               Deterministic: the same budget stops at the same round on \
               every run and every --jobs count." in
    Arg.(value & opt (some int) None & info [ "max-ops" ] ~doc ~docv:"N")
  in
  let wall_s_arg =
    let doc = "Wall-clock budget for this invocation, in seconds, checked at \
               round boundaries.  Stopping is still clean (soak_ok) but the \
               stop point is nondeterministic; prefer --max-ops when runs \
               must be comparable." in
    Arg.(value & opt (some float) None & info [ "wall-s" ] ~doc ~docv:"SECONDS")
  in
  let fault_budget_arg =
    let doc = "Faulted scenarios tolerated per (stream x mix x distribution) \
               combo before it is quarantined: the service logs the combo, \
               stops scheduling it and keeps soaking the rest instead of \
               aborting on a fault storm." in
    Arg.(value & opt int 3 & info [ "fault-budget" ] ~doc ~docv:"N")
  in
  let ops_per_exec_arg =
    let doc = "Randomized client operations streamed per failure scenario." in
    Arg.(value & opt int 24 & info [ "ops-per-exec" ] ~doc ~docv:"N")
  in
  let checkpoint_every_arg =
    let doc = "Rounds between periodic checkpoints (corpus + manifest, both \
               written crash-safely via tmp + atomic rename); 0 disables \
               periodic checkpoints (the final flush still happens)." in
    Arg.(value & opt int 10 & info [ "checkpoint-every" ] ~doc ~docv:"ROUNDS")
  in
  let manifest_arg =
    let doc = "Write the versioned run manifest to $(docv) (one flat JSON \
               line: seed, budgets, variant, snapshot, coverage digest, \
               soak_ok marker).  Updated at every checkpoint and at exit; \
               resume from it with $(b,--resume)." in
    Arg.(value & opt (some string) None & info [ "manifest" ] ~doc ~docv:"FILE")
  in
  let resume_arg =
    let doc = "Resume from a checkpoint manifest: configuration (streams, \
               seed, variant, budgets) is taken from $(docv), the checkpoint \
               corpus is preloaded, and rounds continue from the recorded \
               snapshot with identical derived seeds — the resumed run \
               produces the same witnesses the uninterrupted run would have." in
    Arg.(value & opt (some string) None & info [ "resume" ] ~doc ~docv:"MANIFEST")
  in
  let stop_after_arg =
    let doc = "Cooperatively stop after $(docv) rounds of this invocation, as \
               if SIGINT had arrived (flushes a final checkpoint with \
               soak_ok=false).  For tests and CI resume exercises." in
    Arg.(value & opt (some int) None & info [ "stop-after" ] ~doc ~docv:"ROUNDS")
  in
  let stream_names streams =
    List.map (fun s -> s.Pm_harness.Soak.os_name) streams
  in
  let resolve_streams names =
    List.map
      (fun n ->
        match Pm_benchmarks.Registry.find_soak_stream n with
        | Some s -> s
        | None ->
            Printf.eprintf
              "unknown soak stream %S (try memcached, redis, cceh or demo-storm)\n"
              n;
            exit 1)
      names
  in
  (* All coverage buckets are combo labels (seed-free), so the digest
     stays bounded and two same-seed runs digest identically. *)
  let coverage_digest () =
    match Observe.Coverage.snapshot () with
    | [] -> ""
    | stats ->
        Observe.Ledger.digest_string
          (String.concat "\n"
             (List.map
                (fun s ->
                  Yashme_util.Json.encode_obj (Observe.Coverage.fields s))
                stats))
  in
  let go ~streams ~seed ~variant ~jobs ~ops_per_exec ~fault_budget ~max_ops
      ~wall_s ~checkpoint_every ~manifest_path ~corpus_path ~resume_snapshot
      ~preload ~stop_after ~oracle ~quiet ~log_level ~progress ~progress_out
      ~coverage_out ~attribution_out ~ledger ~run_label ~trace_out =
    let collect_metrics = ledger <> None in
    let collect_att = attribution_out <> None || ledger <> None in
    observe_setup ~log_level ~coverage:true ~progress ~progress_out
      ~metrics:collect_metrics ~attribution:collect_att ~trace_out ~quiet ();
    let before = if collect_metrics then Observe.Metrics.snapshot () else [] in
    let att_before =
      if collect_att then Observe.Attribution.snapshot () else []
    in
    let sink = Pm_corpus.Soak_store.sink () in
    Pm_corpus.Soak_store.preload sink preload;
    let run_name =
      Option.value run_label
        ~default:("soak:" ^ String.concat "," (stream_names streams))
    in
    let cfg =
      {
        (Pm_harness.Soak.default_config ~streams) with
        Pm_harness.Soak.sk_options =
          { Pm_harness.Scenario.default_options with seed; variant };
        sk_jobs = jobs;
        sk_ops_per_exec = ops_per_exec;
        sk_fault_budget = fault_budget;
        sk_max_ops = max_ops;
        sk_wall_s = wall_s;
        sk_checkpoint_every = checkpoint_every;
        sk_oracle = oracle;
      }
    in
    let manifest_of ~soak_ok ~stopped ~elapsed snap =
      {
        Pm_corpus.Soak_store.m_run = run_name;
        m_streams = stream_names streams;
        m_seed = seed;
        m_variant = Px86.Variant.label variant;
        m_jobs = jobs;
        m_ops_per_exec = ops_per_exec;
        m_fault_budget = fault_budget;
        m_max_ops = max_ops;
        m_wall_s = wall_s;
        m_checkpoint_every = checkpoint_every;
        m_corpus = Option.value corpus_path ~default:"";
        m_snapshot = snap;
        m_witnesses = List.length (Pm_corpus.Soak_store.witnesses sink);
        m_raw = Pm_corpus.Soak_store.raw sink;
        m_duplicates = Pm_corpus.Soak_store.duplicates sink;
        m_coverage_digest = coverage_digest ();
        m_soak_ok = soak_ok;
        m_stopped = stopped;
        m_ts = Unix.gettimeofday ();
        m_elapsed_s = elapsed;
      }
    in
    (* One checkpoint = corpus (only once non-empty) + manifest, each
       atomic, corpus first so a manifest never references witnesses
       that were not yet durable. *)
    let flush ~soak_ok ~stopped ~elapsed snap =
      (match corpus_path with
      | Some file ->
          let ws = Pm_corpus.Soak_store.witnesses sink in
          if ws <> [] then Pm_corpus.Corpus.save file ws
      | None -> ());
      match manifest_path with
      | Some file ->
          Pm_corpus.Soak_store.save file
            (manifest_of ~soak_ok ~stopped ~elapsed snap)
      | None -> ()
    in
    let t_start = Unix.gettimeofday () in
    let rounds = ref 0 in
    let on_batch triples =
      Pm_corpus.Soak_store.absorb sink triples;
      incr rounds;
      match stop_after with
      | Some n when !rounds >= n -> Pm_harness.Soak.request_stop ()
      | _ -> ()
    in
    let on_checkpoint snap =
      flush ~soak_ok:false ~stopped:"running"
        ~elapsed:(Unix.gettimeofday () -. t_start)
        snap
    in
    let prev =
      Sys.signal Sys.sigint
        (Sys.Signal_handle (fun _ -> Pm_harness.Soak.request_stop ()))
    in
    let result =
      Fun.protect
        ~finally:(fun () -> Sys.set_signal Sys.sigint prev)
        (fun () ->
          Pm_harness.Soak.run ?resume:resume_snapshot ~on_batch ~on_checkpoint
            cfg)
    in
    finish_progress ();
    let reason = Pm_harness.Soak.stop_reason_label result.Pm_harness.Soak.r_reason in
    flush ~soak_ok:result.Pm_harness.Soak.r_ok ~stopped:reason
      ~elapsed:result.Pm_harness.Soak.r_elapsed_s
      result.Pm_harness.Soak.r_snapshot;
    let snap = result.Pm_harness.Soak.r_snapshot in
    let ws = Pm_corpus.Soak_store.witnesses sink in
    let count k =
      List.length (List.filter (fun w -> w.Pm_corpus.Witness.kind = k) ws)
    in
    let race_ws = count Pm_corpus.Witness.Race in
    let rf_ws = count Pm_corpus.Witness.Recovery_failure in
    let cv_ws = count Pm_corpus.Witness.Consistency_violation in
    Printf.printf
      "soak %s: stopped (%s) after %d round(s): %d scenario(s), %d client \
       op(s), %d execution(s)\n"
      run_name reason snap.Pm_harness.Soak.snap_next_round
      snap.Pm_harness.Soak.snap_scenarios snap.Pm_harness.Soak.snap_client_ops
      snap.Pm_harness.Soak.snap_executions;
    (* The consistency-violation count is appended only when the oracle
       found any, keeping oracle-off output byte-identical. *)
    Printf.printf
      "  %d raw race observation(s) -> %d witness(es) (%d race, %d \
       recovery-failure%s); %d faulted, %d diverged\n"
      snap.Pm_harness.Soak.snap_races (List.length ws) race_ws rf_ws
      (if cv_ws > 0 then Printf.sprintf ", %d consistency-violation" cv_ws
       else "")
      snap.Pm_harness.Soak.snap_faulted snap.Pm_harness.Soak.snap_diverged;
    List.iter
      (fun b ->
        if b.Pm_harness.Soak.bs_quarantined then
          Printf.printf "  [quarantined] %s (%d fault(s))\n"
            b.Pm_harness.Soak.bs_combo b.Pm_harness.Soak.bs_faults)
      snap.Pm_harness.Soak.snap_buckets;
    (match corpus_path with
    | Some file when ws <> [] ->
        Printf.printf "corpus: %d witness(es) written to %s\n" (List.length ws)
          file
    | _ -> ());
    (match manifest_path with
    | Some file -> Printf.printf "manifest: %s\n" file
    | None -> ());
    Printf.printf "soak_ok: %b\n" result.Pm_harness.Soak.r_ok;
    write_coverage_file coverage_out;
    if collect_att then
      write_attribution_file
        (Observe.Attribution.diff att_before (Observe.Attribution.snapshot ()))
        attribution_out;
    (match ledger with
    | None -> ()
    | Some file ->
        let entry =
          {
            Observe.Ledger.e_version = Observe.Ledger.version;
            e_run = run_name;
            e_ts = Unix.gettimeofday ();
            e_program = run_name;
            e_variant = Px86.Variant.label variant;
            e_mode = "soak";
            e_jobs = jobs;
            e_seed = seed;
            e_scenarios = snap.Pm_harness.Soak.snap_scenarios;
            e_completed = snap.Pm_harness.Soak.snap_completed;
            e_faulted = snap.Pm_harness.Soak.snap_faulted;
            e_diverged = snap.Pm_harness.Soak.snap_diverged;
            e_executions = snap.Pm_harness.Soak.snap_executions;
            e_ops = snap.Pm_harness.Soak.snap_ops;
            e_races = race_ws;
            e_benign = 0;
            e_raw_races = snap.Pm_harness.Soak.snap_races;
            e_recovery_failures = rf_ws;
            e_witnesses = List.length ws;
            e_elapsed_s = result.Pm_harness.Soak.r_elapsed_s;
            e_cpu_s = 0.;
            e_metrics_digest =
              Observe.Ledger.digest_counters
                (Observe.Metrics.diff before (Observe.Metrics.snapshot ()));
            e_coverage_digest = coverage_digest ();
            e_cost =
              Observe.Ledger.costs_of_rows
                (if collect_att then
                   Observe.Attribution.diff att_before
                     (Observe.Attribution.snapshot ())
                 else []);
          }
        in
        Pm_corpus.Ledger_store.append file entry;
        Printf.printf "ledger: run %S appended to %s\n" run_name file);
    write_trace trace_out;
    if not result.Pm_harness.Soak.r_ok then exit 1
  in
  let run streams_pos seed jobs variant max_ops wall_s fault_budget
      ops_per_exec checkpoint_every manifest_path resume stop_after oracle
      corpus_out quiet log_level progress progress_out coverage_out
      attribution_out ledger run_label trace_out =
    match resume with
    | None ->
        let names =
          if streams_pos = [] then
            stream_names Pm_benchmarks.Registry.soak_streams
          else streams_pos
        in
        go ~streams:(resolve_streams names) ~seed ~variant ~jobs ~ops_per_exec
          ~fault_budget ~max_ops ~wall_s ~checkpoint_every ~manifest_path
          ~corpus_path:corpus_out ~resume_snapshot:None ~preload:[] ~stop_after
          ~oracle ~quiet ~log_level ~progress ~progress_out ~coverage_out
          ~attribution_out ~ledger ~run_label ~trace_out
    | Some mf_path -> (
        match Pm_corpus.Soak_store.load mf_path with
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 1
        | Ok m ->
            let variant =
              match Px86.Variant.of_label m.Pm_corpus.Soak_store.m_variant with
              | Some v -> v
              | None ->
                  Printf.eprintf "%s: unknown variant %S in manifest\n" mf_path
                    m.Pm_corpus.Soak_store.m_variant;
                  exit 1
            in
            (* Configuration comes from the manifest — a resumed run is
               the same run.  Its corpus is preloaded so the dedup sink
               suppresses re-observations, only when the manifest says
               witnesses were actually written. *)
            let preload =
              if
                m.Pm_corpus.Soak_store.m_witnesses > 0
                && m.Pm_corpus.Soak_store.m_corpus <> ""
              then load_corpus_or_exit m.Pm_corpus.Soak_store.m_corpus
              else []
            in
            go
              ~streams:(resolve_streams m.Pm_corpus.Soak_store.m_streams)
              ~seed:m.Pm_corpus.Soak_store.m_seed ~variant
              ~jobs:m.Pm_corpus.Soak_store.m_jobs
              ~ops_per_exec:m.Pm_corpus.Soak_store.m_ops_per_exec
              ~fault_budget:m.Pm_corpus.Soak_store.m_fault_budget
              ~max_ops:m.Pm_corpus.Soak_store.m_max_ops
              ~wall_s:m.Pm_corpus.Soak_store.m_wall_s
              ~checkpoint_every:m.Pm_corpus.Soak_store.m_checkpoint_every
              ~manifest_path:(Some mf_path)
              ~corpus_path:
                (if m.Pm_corpus.Soak_store.m_corpus = "" then corpus_out
                 else Some m.Pm_corpus.Soak_store.m_corpus)
              ~resume_snapshot:(Some m.Pm_corpus.Soak_store.m_snapshot)
              ~preload ~stop_after ~oracle ~quiet ~log_level ~progress
              ~progress_out ~coverage_out ~attribution_out ~ledger
              ~run_label:(Some m.Pm_corpus.Soak_store.m_run)
              ~trace_out)
  in
  let term =
    Term.(
      const run $ streams_pos $ seed $ jobs $ variant_arg $ soak_max_ops
      $ wall_s_arg $ fault_budget_arg $ ops_per_exec_arg
      $ checkpoint_every_arg $ manifest_arg $ resume_arg $ stop_after_arg
      $ oracle_flag $ corpus_out $ quiet_flag $ log_level_arg $ progress_flag
      $ progress_out $ coverage_out $ attribution_out $ ledger_arg
      $ run_label_arg $ trace_out)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Long-running crash-testing service: stream randomized client \
             ops through continuous crash/recover cycles under hard budgets, \
             with crash-safe checkpoint/resume, per-combo fault quarantine \
             and clean SIGINT handling")
    term

let oracle_cmd =
  let bench =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH"
           ~doc:"Benchmark name (see $(b,yashme list)); must expose an \
                 observe hook.")
  in
  let find_observed bench =
    match Pm_benchmarks.Registry.find bench with
    | exception Not_found ->
        Printf.eprintf "unknown benchmark %S; try `yashme list'\n" bench;
        exit 1
    | p ->
        if p.Pm_harness.Program.observe = None then begin
          Printf.eprintf
            "benchmark %S has no observe hook; the oracle needs one to \
             snapshot recovered state\n"
            bench;
          exit 1
        end;
        p
  in
  let prepare ~seed ~variant p =
    let opts = { Pm_harness.Runner.default_options with seed; variant } in
    match Pm_harness.Runner.prepare_oracle ~options:opts p with
    | Some prep -> prep
    | None -> assert false (* find_observed checked the hook *)
  in
  let infer_cmd =
    let out_arg =
      let doc = "Write the inferred invariant set to $(docv) (one invariant \
                 per line, crash-safe tmp + atomic rename) instead of \
                 stdout.  Feed it back with $(b,yashme oracle check \
                 --invariants)." in
      Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc ~docv:"FILE")
    in
    let run bench seed variant out =
      let p = find_observed bench in
      let prep = prepare ~seed ~variant p in
      let lines =
        Pm_oracle.Invariant.to_lines
          prep.Pm_harness.Runner.op_invariants
      in
      match out with
      | None -> print_string lines
      | Some file ->
          Yashme_util.Atomic_file.write file lines;
          Printf.printf "oracle: %d invariant(s) written to %s\n"
            (List.length prep.Pm_harness.Runner.op_invariants)
            file
    in
    Cmd.v
      (Cmd.info "infer"
         ~doc:"Infer likely persistence invariants (ordering, same-line \
               atomicity) from a crash-free reference execution")
      Term.(const run $ bench $ seed $ variant_arg $ out_arg)
  in
  let check_cmd =
    let invariants_arg =
      let doc = "Check against the invariant set in $(docv) (the $(b,yashme \
                 oracle infer -o) format) instead of inferring one from the \
                 reference execution." in
      Arg.(value & opt (some string) None
             & info [ "invariants" ] ~doc ~docv:"FILE")
    in
    let run bench seed variant jobs invariants_file =
      let p = find_observed bench in
      let invariants =
        match invariants_file with
        | None -> None
        | Some file -> (
            let text =
              match In_channel.with_open_text file In_channel.input_all with
              | text -> text
              | exception Sys_error msg ->
                  Printf.eprintf "%s\n" msg;
                  exit 1
            in
            match Pm_oracle.Invariant.of_lines text with
            | Ok invs -> Some invs
            | Error msg ->
                Printf.eprintf "%s: %s\n" file msg;
                exit 1)
      in
      let opts = { Pm_harness.Runner.default_options with seed; variant } in
      let o =
        Pm_harness.Runner.model_check_outcome ~options:opts ~jobs ~oracle:true
          ?invariants p
      in
      let r = o.Pm_harness.Runner.o_report in
      print_report false r;
      print_endline (Pm_harness.Report.oracle_to_string r);
      if r.Pm_harness.Report.consistency_violations <> [] then exit 1
    in
    Cmd.v
      (Cmd.info "check"
         ~doc:"Model-check one benchmark with the invariant oracle attached; \
               exit 1 when the oracle reports a consistency violation")
      Term.(const run $ bench $ seed $ variant_arg $ jobs $ invariants_arg)
  in
  Cmd.group
    (Cmd.info "oracle"
       ~doc:"Crash-consistency invariant oracle: infer likely persistence \
             invariants from crash-free reference executions and diff \
             post-crash-recovery state against them")
    [ infer_cmd; check_cmd ]

let main =
  let doc = "Yashme: detecting persistency races (ASPLOS 2022 reproduction)" in
  Cmd.group (Cmd.info "yashme" ~version:"1.0.0" ~doc)
    [ list_cmd; check_cmd; check_all_cmd; soak_cmd; tables_cmd; witness_cmd;
      variants_cmd; litmus_cmd; oracle_cmd; trace_lint_cmd; profile_cmd;
      scaling_cmd; bench_diff_cmd; runs_cmd; compare_cmd; replay_cmd;
      minimize_cmd; corpus_cmd ]

let () = exit (Cmd.eval main)
