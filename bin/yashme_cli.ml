(* Command-line driver for the Yashme persistency-race detector.

   yashme list                          enumerate benchmark programs
   yashme check BENCH [--mode ...]      run the detector on one program
   yashme check-all [--mode ...]        run it on the whole suite
   yashme witness BENCH [--at N]        render a race with its E+ prefix
   yashme soak [STREAM...]              long-running randomized crash-testing service
   yashme replay CORPUS                 re-run recorded witnesses (regression gate)
   yashme minimize CORPUS               ddmin-shrink recorded witnesses
   yashme corpus merge|stats            manage witness corpora
   yashme profile FILE                  render an --attribution-out cost-center table
   yashme trace-lint FILE               check a JSONL file yashme wrote
   yashme runs LEDGER                   list runs recorded with --ledger
   yashme compare LEDGER A B            diff two ledger runs (counter deltas)
   yashme variants                      list persistency-model variants
   yashme litmus                        litmus suite x variant divergence matrix
   yashme oracle infer|check BENCH      crash-consistency invariant oracle
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

(* An integer that is a usage error below [min], so a value that would
   hang a run or misread as a result never starts one. *)
let int_at_least min =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < min ->
        Error (`Msg (Printf.sprintf "%d is below the minimum %d" n min))
    | r -> r
  in
  Arg.conv ~docv:"INT" (parse, Arg.conv_printer Arg.int)

(* A float that is a usage error unless it exceeds [bound]: a budget
   that ends every run at once. *)
let float_above bound =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (x > bound) ->
        Error (`Msg (Printf.sprintf "%g is not above %g" x bound))
    | r -> r
  in
  Arg.conv ~docv:"FLOAT" (parse, Arg.conv_printer Arg.float)

let execs =
  let doc = "Number of random executions in --mode random (at least 0)." in
  Arg.(value & opt (int_at_least 0) 20 & info [ "execs" ] ~doc)

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
             $(b,info) or $(b,debug).  Takes precedence over --quiet." in
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
             operations (at least 1) and mark the scenario diverged.  \
             Deterministic — the same budget trips at the same operation on \
             every run and every --jobs count." in
  Arg.(value & opt (some (int_at_least 1)) None & info [ "max-ops" ] ~doc ~docv:"N")

let timeout_arg =
  let doc = "Wall-clock budget per execution phase, in seconds (above 0).  A \
             nondeterministic last-resort valve: prefer --max-ops when \
             reports must stay reproducible." in
  Arg.(value & opt (some (float_above 0.)) None & info [ "timeout" ] ~doc ~docv:"SECONDS")

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
             later with $(b,yashme profile)." in
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

module Telemetry = Pm_corpus.Telemetry

(* The telemetry flags, folded into one run config.  [`Check] commands
   take all eleven; [`Soak] has no block flags (--metrics, --coverage,
   --attribution). *)
let telemetry_term shape =
  let blocks = shape = `Check in
  let pick present arg default = if present then arg else Term.const default in
  Term.(
    const
      (fun log_level quiet metrics coverage coverage_out attribution
           attribution_out progress progress_out ledger run_label ->
        { Telemetry.log_level; quiet; metrics; coverage;
          coverage_out; attribution; attribution_out; progress; progress_out;
          ledger; run_label })
    $ log_level_arg $ quiet_flag
    $ pick blocks metrics_flag false
    $ pick blocks coverage_flag false
    $ coverage_out
    $ pick blocks attribution_flag false
    $ attribution_out $ progress_flag $ progress_out $ ledger_arg
    $ run_label_arg)

let mode_label = function
  | `Mc -> "mc"
  | `Mc_recovery -> "mc-recovery"
  | `Random -> "random"

let options ?(eadr = false) ?(no_coherence = false) ?(no_candidates = false)
    ?(variant = Px86.Variant.strict_tso) ?max_ops ?max_wall_s mode seed =
  { Pm_harness.Runner.default_options with
    mode; seed; eadr; variant; coherence = not no_coherence;
    check_candidates = not no_candidates; max_ops; max_wall_s }

(* One detection run of [p] and the telemetry window around it. *)
let detect ~oracle run_mode opts ~jobs ~fail_fast execs
    (p : Pm_harness.Program.t) =
  Telemetry.observing (fun () ->
      match run_mode with
      | `Mc ->
          Pm_harness.Runner.model_check_outcome ~options:opts ~jobs ~fail_fast
            ~oracle p
      | `Mc_recovery ->
          Pm_harness.Runner.model_check_recovery_outcome ~options:opts ~jobs
            ~fail_fast ~oracle p
      | `Random ->
          Pm_harness.Runner.random_mode_outcome ~options:opts ~jobs ~fail_fast
            ~oracle ~execs p)

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

(* One program's report, its [oracle] block and the telemetry blocks
   that follow it. *)
let print_run tel ~show_benign ~oracle (p : Pm_harness.Program.t) obs
    (r : Pm_harness.Report.t) =
  print_report show_benign r;
  if oracle then print_endline (Pm_harness.Report.oracle_to_string r);
  Telemetry.print_blocks tel ~program:p.Pm_harness.Program.name r obs

(* Witnesses are extracted only when a corpus or a ledger entry wants
   them. *)
let extract ~corpus_out (tel : Telemetry.config) (p : Pm_harness.Program.t) o =
  if corpus_out = None && tel.Telemetry.ledger = None then None
  else Some (Pm_corpus.Witness.of_outcome ~program:p.Pm_harness.Program.name o)

let ledger_run tel ~run_mode ~seed (p : Pm_harness.Program.t) o obs ex =
  Option.iter
    (fun file ->
      let e =
        Telemetry.outcome_entry tel ~mode:(mode_label run_mode) ~seed
          ~program:p.Pm_harness.Program.name o ex obs
      in
      Observe.Ledger.append file e;
      Printf.printf "ledger: run %S appended to %s\n" e.Observe.Ledger.e_run file)
    tel.Telemetry.ledger

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
      no_coherence no_candidates max_ops timeout fail_fast oracle corpus_out tel =
    match Pm_benchmarks.Registry.find bench with
    | exception Not_found ->
        Printf.eprintf "unknown benchmark %S; try `yashme list'\n" bench;
        exit 1
    | p ->
        Telemetry.with_session tel (fun () ->
            let o, obs =
              detect ~oracle run_mode
                (options ~eadr ~no_coherence ~no_candidates ~variant ?max_ops
                   ?max_wall_s:timeout dmode seed)
                ~jobs ~fail_fast execs p
            in
            ignore (Observe.Progress.stop ());
            print_run tel ~show_benign ~oracle p obs o.Pm_harness.Runner.o_report;
            Telemetry.write_outputs tel obs;
            let ex = extract ~corpus_out tel p o in
            write_corpus ~corpus_out (Option.to_list ex);
            Option.iter (ledger_run tel ~run_mode ~seed p o obs) ex)
  in
  let term =
    Term.(
      const run $ bench $ run_mode $ detector_mode $ execs $ jobs $ seed
      $ variant_arg $ show_benign $ eadr_flag $ no_coherence $ no_candidates
      $ max_ops_arg $ timeout_arg $ fail_fast_flag $ oracle_flag $ corpus_out
      $ telemetry_term `Check)
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
  let run run_mode dmode execs jobs seed variant show_benign max_ops timeout
      fail_fast oracle corpus_out tel =
    Telemetry.with_session tel (fun () ->
        let total = ref 0 in
        let extractions = ref [] in
        let (), suite =
          Telemetry.observing (fun () ->
              List.iter
                (fun (p : Pm_harness.Program.t) ->
                  let o, obs =
                    detect ~oracle run_mode
                      (options ~variant ?max_ops ?max_wall_s:timeout dmode seed)
                      ~jobs ~fail_fast execs p
                  in
                  let r = o.Pm_harness.Runner.o_report in
                  Option.iter
                    (fun ex ->
                      if corpus_out <> None then extractions := ex :: !extractions;
                      ledger_run tel ~run_mode ~seed p o obs ex)
                    (extract ~corpus_out tel p o);
                  total := !total + List.length (Pm_harness.Report.real r);
                  print_run tel ~show_benign ~oracle p obs r;
                  print_newline ())
                Pm_benchmarks.Registry.all)
        in
        ignore (Observe.Progress.stop ());
        Printf.printf "total distinct persistency races: %d\n" !total;
        write_corpus ~corpus_out (List.rev !extractions);
        Telemetry.write_outputs tel suite;
        if tel.Telemetry.metrics then
          Telemetry.print_counters ~title:"metrics summary (whole suite)"
            suite.Telemetry.o_metrics)
  in
  let term =
    Term.(
      const run $ run_mode $ detector_mode $ execs $ jobs $ seed $ variant_arg
      $ show_benign $ max_ops_arg $ timeout_arg $ fail_fast_flag $ oracle_flag
      $ corpus_out $ telemetry_term `Check)
  in
  Cmd.v (Cmd.info "check-all" ~doc:"Detect persistency races across the whole suite") term

let trace_lint_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"JSONL file to validate.")
  in
  let run file =
    match Yashme_util.Json.load_lines ~what:"JSONL file" file Yashme_util.Json.parse with
    | Ok _ -> Printf.printf "%s: well-formed\n" file
    | Error msg ->
        Printf.eprintf "malformed JSONL: %s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "trace-lint"
       ~doc:"Validate a JSONL file yashme writes (progress stream, corpus, \
             coverage, attribution, ledger, soak manifest): every non-blank \
             line must be one JSON value")
    Term.(const run $ file)

let profile_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Cost-attribution JSONL file written by --attribution-out.")
  in
  let run file =
    match
      Yashme_util.Json.load_lines ~what:"attribution file" file (fun l ->
          Result.bind (Yashme_util.Json.decode_obj l) Observe.Attribution.of_fields)
    with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok rows -> print_endline (Observe.Attribution.to_string ~timing:false rows)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Render the jobs-invariant cost-center table of an attribution \
             JSONL file")
    Term.(const run $ file)

let runs_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEDGER"
           ~doc:"Run ledger (JSONL, appended by --ledger).")
  in
  let run file =
    match Observe.Ledger.load file with
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
    match Observe.Ledger.load file with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    | Ok entries -> (
        match
          ( Observe.Ledger.find entries a,
            Observe.Ledger.find entries b )
        with
        | Error msg, _ | _, Error msg ->
            Printf.eprintf "%s: %s\n" file msg;
            exit 2
        | Ok ea, Ok eb ->
            let c = Observe.Ledger.compare_runs ~baseline:ea ~current:eb in
            print_endline (Observe.Ledger.render ~a_label:a ~b_label:b c);
            if not c.Observe.Ledger.cmp_passed then exit 1)
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
               $(docv) randomized client operations have been streamed (at \
               least 1).  Deterministic: the same budget stops at the same \
               round on every run and every --jobs count." in
    Arg.(value & opt (some (int_at_least 1)) None & info [ "max-ops" ] ~doc ~docv:"N")
  in
  let wall_s_arg =
    let doc = "Wall-clock budget for this invocation, in seconds (above 0), \
               checked at round boundaries.  Stopping is still clean \
               (soak_ok) but the stop point is nondeterministic; prefer \
               --max-ops when runs must be comparable." in
    Arg.(value & opt (some (float_above 0.)) None & info [ "wall-s" ] ~doc ~docv:"SECONDS")
  in
  let fault_budget_arg =
    let doc = "Faulted scenarios tolerated per (stream x mix x distribution) \
               combo before it is quarantined (at least 1): the service logs \
               the combo, stops scheduling it and keeps soaking the rest \
               instead of aborting on a fault storm." in
    Arg.(value & opt (int_at_least 1) 3 & info [ "fault-budget" ] ~doc ~docv:"N")
  in
  let ops_per_exec_arg =
    let doc = "Randomized client operations streamed per failure scenario \
               (at least 1)." in
    Arg.(value & opt (int_at_least 1) 24 & info [ "ops-per-exec" ] ~doc ~docv:"N")
  in
  let checkpoint_every_arg =
    let doc = "Rounds between periodic checkpoints (corpus + manifest, both \
               written crash-safely via tmp + atomic rename; at least 0); 0 \
               disables periodic checkpoints (the final flush still happens)." in
    Arg.(value & opt (int_at_least 0) 10 & info [ "checkpoint-every" ] ~doc ~docv:"ROUNDS")
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
    let doc = "Cooperatively stop after $(docv) rounds of this invocation (at \
               least 1), as if SIGINT had arrived (flushes a final checkpoint \
               with soak_ok=false).  For tests and CI resume exercises." in
    Arg.(value & opt (some (int_at_least 1)) None & info [ "stop-after" ] ~doc ~docv:"ROUNDS")
  in
  let run streams_pos seed jobs variant max_ops wall_s fault_budget
      ops_per_exec checkpoint_every manifest resume stop_after oracle
      corpus_out tel =
    let module Soak = Pm_harness.Soak in
    let module Store = Pm_corpus.Soak_store in
    (* A resumed run is the same run: its configuration, run label and
       corpus come from the manifest, which it keeps updating. *)
    let resume =
      Option.map
        (fun path ->
          match
            Store.resume ~find_stream:Pm_benchmarks.Registry.find_soak_stream path
          with
          | Ok r -> r
          | Error msg ->
              prerr_endline msg;
              exit 1)
        resume
    in
    let cfg, run_name, corpus, manifest =
      match resume with
      | Some r ->
          let m = r.Store.rs_manifest in
          ( { r.Store.rs_config with Soak.sk_oracle = oracle },
            m.Store.m_run,
            (if m.Store.m_corpus = "" then corpus_out else Some m.Store.m_corpus),
            Some r.Store.rs_path )
      | None ->
          let streams =
            if streams_pos = [] then Pm_benchmarks.Registry.soak_streams
            else
              List.map
                (fun n ->
                  match Pm_benchmarks.Registry.find_soak_stream n with
                  | Some s -> s
                  | None ->
                      Printf.eprintf
                        "unknown soak stream %S (try memcached, redis, cceh \
                         or demo-storm)\n"
                        n;
                      exit 1)
                streams_pos
          in
          ( {
              (Soak.default_config ~streams) with
              Soak.sk_options =
                { Pm_harness.Scenario.default_options with seed; variant };
              sk_jobs = jobs;
              sk_ops_per_exec = ops_per_exec;
              sk_fault_budget = fault_budget;
              sk_max_ops = max_ops;
              sk_wall_s = wall_s;
              sk_checkpoint_every = checkpoint_every;
              sk_oracle = oracle;
            },
            Option.value tel.Telemetry.run_label
              ~default:
                ("soak:"
                ^ String.concat "," (List.map (fun s -> s.Soak.os_name) streams)),
            corpus_out,
            manifest )
    in
    let tel = { tel with Telemetry.coverage = true; run_label = Some run_name } in
    let ok =
      Telemetry.with_session tel @@ fun () ->
      let (result, sink), obs =
        Telemetry.observing (fun () ->
            Store.serve ?resume ?stop_after ~run:run_name ~corpus ~manifest cfg)
      in
      ignore (Observe.Progress.stop ());
      let snap = result.Soak.r_snapshot in
      let ws = Store.witnesses sink in
      let st = Pm_corpus.Corpus.stats ws in
      Printf.printf
        "soak %s: stopped (%s) after %d round(s): %d scenario(s), %d client \
         op(s), %d execution(s)\n"
        run_name
        (Soak.stop_reason_label result.Soak.r_reason)
        snap.Soak.snap_next_round snap.Soak.snap_scenarios
        snap.Soak.snap_client_ops snap.Soak.snap_executions;
      (* The consistency-violation count is appended only when the oracle
         found any, keeping oracle-off output byte-identical. *)
      Printf.printf
        "  %d raw race observation(s) -> %d witness(es) (%d race, %d \
         recovery-failure%s); %d faulted, %d diverged\n"
        snap.Soak.snap_races st.total st.races st.recovery_failures
        (if st.consistency_violations > 0 then
           Printf.sprintf ", %d consistency-violation" st.consistency_violations
         else "")
        snap.Soak.snap_faulted snap.Soak.snap_diverged;
      List.iter
        (fun b ->
          if b.Soak.bs_quarantined then
            Printf.printf "  [quarantined] %s (%d fault(s))\n" b.Soak.bs_combo
              b.Soak.bs_faults)
        snap.Soak.snap_buckets;
      (match corpus with
      | Some file when ws <> [] ->
          Printf.printf "corpus: %d witness(es) written to %s\n" st.total file
      | _ -> ());
      Option.iter (Printf.printf "manifest: %s\n") manifest;
      Printf.printf "soak_ok: %b\n" result.Soak.r_ok;
      Telemetry.write_outputs tel obs;
      Option.iter
        (fun file ->
          Observe.Ledger.append file
            (Telemetry.soak_entry tel ~run:run_name cfg st result obs);
          Printf.printf "ledger: run %S appended to %s\n" run_name file)
        tel.Telemetry.ledger;
      result.Soak.r_ok
    in
    if not ok then exit 1
  in
  let term =
    Term.(
      const run $ streams_pos $ seed $ jobs $ variant_arg $ soak_max_ops
      $ wall_s_arg $ fault_budget_arg $ ops_per_exec_arg
      $ checkpoint_every_arg $ manifest_arg $ resume_arg $ stop_after_arg
      $ oracle_flag $ corpus_out $ telemetry_term `Soak)
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
      runs_cmd; compare_cmd; replay_cmd; minimize_cmd; corpus_cmd ]

let () = exit (Cmd.eval main)
