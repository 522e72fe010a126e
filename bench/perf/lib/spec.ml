(* The benchmark's definition: workloads, metrics, bounds and the
   correctness pins.  BENCHMARK.json at the repository root is rendered
   from these tables by [perf.exe spec] and a test keeps the two equal. *)

type better = Higher | Lower

let better_label = function Higher -> "higher" | Lower -> "lower"

(* [bound]: the share of the parent's median by which an end-to-end
   metric may worsen before a change counts as a regression. *)
type metric = { name : string; unit : string; better : better; bound : float }

(* Named [layer.metric] after the repository module it describes. *)
type layer_metric = { l_name : string; l_unit : string; l_better : better }

type kind =
  | Model_check  (* Runner.model_check_outcome, one check per program *)
  | Recovery  (* Runner.model_check_recovery_outcome, one per program *)
  | Soak of string list  (* Soak.run over these mixes x both distributions *)

(* One check of a pass and what it must produce on every pass: the
   scenarios the engine ran and the distinct real races reported. *)
type pin = { program : string; scenarios : int; races : int }

type workload = {
  name : string;
  why : string;
  kind : kind;
  jobs : int;
  pins : pin list;  (* the checks of one pass, in registry order *)
  smoke : string list;  (* the checks a --smoke pass keeps *)
  soak_seed42 : (string * int) option;
      (* witness-identity digest and raw-race count of a full soak pass
         at seed 42 *)
}

let command = [ "bash"; "bench/perf/run.sh" ]
let paths = [ "bench/perf" ]

(* Twenty seconds of passes after set-up and one warm-up pass: 12 to 33
   passes per median on a shared 2-core VM, and about 23 s a run. *)
let run_seconds = 20

let workloads =
  [
    {
      name = "mc-suite";
      why =
        "check-all in model-checking mode at jobs=1: detector prefix and \
         clock-vector work plus setup-image copies dominate; the control for \
         engine-pool changes";
      kind = Model_check;
      jobs = 1;
      pins =
        [
          { program = "CCEH"; scenarios = 81; races = 2 };
          { program = "Fast_Fair"; scenarios = 77; races = 6 };
          { program = "P-ART"; scenarios = 251; races = 7 };
          { program = "P-BwTree"; scenarios = 64; races = 1 };
          { program = "P-CLHT"; scenarios = 31; races = 0 };
          { program = "P-Masstree"; scenarios = 117; races = 3 };
          { program = "Btree"; scenarios = 200; races = 1 };
          { program = "Ctree"; scenarios = 144; races = 1 };
          { program = "RBtree"; scenarios = 255; races = 1 };
          { program = "hashmap-atomic"; scenarios = 97; races = 1 };
          { program = "hashmap-tx"; scenarios = 127; races = 1 };
          { program = "Redis"; scenarios = 111; races = 1 };
          { program = "Memcached"; scenarios = 28; races = 4 };
        ];
      smoke = [ "CCEH"; "P-CLHT" ];
      soak_seed42 = None;
    };
    {
      name = "recovery-j2";
      why =
        "two-crash recovery model checking on 2 domains: engine spawn, queue \
         and merge, cross-domain GC and recovery-phase execution dominate";
      kind = Recovery;
      jobs = 2;
      pins =
        [
          { program = "P-BwTree"; scenarios = 832; races = 1 };
          { program = "Ctree"; scenarios = 2098; races = 1 };
          { program = "hashmap-atomic"; scenarios = 601; races = 1 };
          { program = "hashmap-tx"; scenarios = 1459; races = 1 };
          { program = "Redis"; scenarios = 699; races = 1 };
        ];
      smoke = [ "hashmap-atomic" ];
      soak_seed42 = None;
    };
    {
      name = "soak-read";
      why =
        "randomized read-heavy client streams on memcached, redis and cceh: \
         loads dominate (effect dispatch, store-buffer forwarding, memory \
         reads, witness dedup)";
      kind = Soak [ "read-heavy" ];
      jobs = 1;
      pins = [];
      smoke = [];
      soak_seed42 = Some ("dd0150640216fba261892f79592947c0", 24732);
    };
    {
      name = "soak-write";
      why =
        "write-heavy, churn and rmw-heavy client streams: stores, deletes \
         and RMWs drive store-buffer eviction, flushes and persistence; a \
         read-side gain that costs writes shows here";
      kind = Soak [ "write-heavy"; "churn"; "rmw-heavy" ];
      jobs = 1;
      pins = [];
      smoke = [];
      soak_seed42 = Some ("38cc68eb46af1821fa066592ae153088", 31803);
    };
  ]

(* Client ops of one soak pass, full and --smoke. *)
let soak_pass_ops = 120_000
let smoke_soak_pass_ops = 1_500

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* Bounds are about three times the widest run-to-run spread
   (interquartile range over median, ten seeds) measured on a shared
   2-core VM, so that noise alone does not cross them: timings spread up
   to 8 % there even after machine-speed scaling (recovery-j2's p99 once
   9.5 %), soak allocation up to 2 % (it depends on the seed), peak RSS
   up to 5.5 %.  Set-up has the largest bound. *)
let end_to_end =
  [
    { name = "setup_s"; unit = "s"; better = Lower; bound = 0.25 };
    { name = "scenarios_per_s"; unit = "1/s"; better = Higher; bound = 0.24 };
    { name = "scenario_us_p50"; unit = "us"; better = Lower; bound = 0.24 };
    { name = "scenario_us_p99"; unit = "us"; better = Lower; bound = 0.24 };
    { name = "alloc_words_per_scenario"; unit = "words"; better = Lower; bound = 0.06 };
    { name = "peak_rss_mb"; unit = "MB"; better = Lower; bound = 0.20 };
  ]

let find_metric name = List.find_opt (fun (m : metric) -> m.name = name) end_to_end

let per_layer =
  let m l_name l_unit l_better = { l_name; l_unit; l_better } in
  [
    m "engine.busy_frac" "ratio" Higher;
    m "engine.noop_batch_us" "us" Lower;
    m "engine.chain_crashed_frac" "ratio" Higher;
    m "runner.probe_ms" "ms" Lower;
    m "report.us_per_check" "us" Lower;
    m "corpus.us_per_batch" "us" Lower;
    m "corpus.witnesses" "count" Higher;
    m "corpus.dedup_rate" "ratio" Higher;
    m "px86.copy_us" "us" Lower;
    m "px86.copy_bytes" "bytes" Lower;
    m "px86.copy_alloc_words" "words" Lower;
    m "px86.sb_evictions" "count" Lower;
    m "px86.fb_applies" "count" Lower;
    m "px86.crashes" "count" Lower;
    m "px86.memimage_rw8_ns" "ns" Lower;
    m "px86.sb_push_evict_ns" "ns" Lower;
    m "runtime.pre_us" "us" Lower;
    m "runtime.post_us" "us" Lower;
    m "runtime.ns_per_op" "ns" Lower;
    m "runtime.alloc_words_per_op" "words" Lower;
    m "runtime.ops" "count" Lower;
    m "runtime.loads" "count" Lower;
    m "runtime.stores" "count" Lower;
    m "runtime.effect_ns" "ns" Lower;
    m "core.detector_us" "us" Lower;
    m "core.alloc_words" "words" Lower;
    m "core.detector_share" "ratio" Lower;
    m "core.prefix_expansions" "count" Lower;
    m "core.cv_comparisons" "count" Lower;
    m "core.candidate_checks" "count" Lower;
    m "core.races_raised" "count" Higher;
    m "util.cv_join_ns" "ns" Lower;
    m "util.cv_leq_ns" "ns" Lower;
    m "gc.minor_collections" "count" Lower;
    m "gc.major_words" "words" Lower;
    m "trace.overhead_frac" "ratio" Lower;
    m "trace.explained_frac" "ratio" Higher;
  ]

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                       *)

let str = Pm_corpus.Json.escape

let render () =
  let list xs = "[" ^ String.concat ", " (List.map str xs) ^ "]" in
  let block key rows = Printf.sprintf "  %S: [\n    %s\n  ]" key (String.concat ",\n    " rows) in
  String.concat ",\n"
    [
      "{\n" ^ Printf.sprintf "  \"command\": %s" (list command);
      Printf.sprintf "  \"paths\": %s" (list paths);
      Printf.sprintf "  \"run_seconds\": %d" run_seconds;
      block "workloads"
        (List.map
           (fun w -> Printf.sprintf "{\"name\": %s, \"why\": %s}" (str w.name) (str w.why))
           workloads);
      block "end_to_end"
        (List.map
           (fun (m : metric) ->
             Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}"
               (str m.name) (str m.unit)
               (str (better_label m.better))
               m.bound)
           end_to_end);
      block "per_layer"
        (List.map
           (fun m ->
             Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s}" (str m.l_name)
               (str m.l_unit)
               (str (better_label m.l_better)))
           per_layer);
    ]
  ^ "\n}\n"
