(* Soak persistence: witness sink, versioned run manifest, and the
   session that ties them to a running soak loop.

   The manifest is one flat Json line, like a witness or ledger entry,
   so the trace linter and the corpus codec cover it for free.  The
   per-combo quarantine state is flattened to [bucket:LABEL:faults] /
   [bucket:LABEL:quarantined] fields — labels contain ':' themselves,
   so decoding splits at the last one. *)

module Soak = Pm_harness.Soak
module Scenario = Pm_harness.Scenario
module Runner = Pm_harness.Runner

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Witness sink                                                         *)

type sink = {
  mutable sk_rev : Witness.t list;  (* reverse first-observation order *)
  sk_seen : (string, unit) Hashtbl.t;
  mutable sk_raw : int;
  mutable sk_dups : int;
}

let sink () =
  { sk_rev = []; sk_seen = Hashtbl.create 64; sk_raw = 0; sk_dups = 0 }

let preload s ws =
  List.iter
    (fun w ->
      let id = Witness.identity w in
      if not (Hashtbl.mem s.sk_seen id) then begin
        Hashtbl.add s.sk_seen id ();
        s.sk_rev <- w :: s.sk_rev
      end)
    ws

let absorb s triples =
  List.iter
    (fun (name, sc, res) ->
      let ex =
        Witness.of_pairs ~seen:s.sk_seen ~program:name [ (sc, res, Runner.Full) ]
      in
      s.sk_raw <- s.sk_raw + ex.Witness.raw;
      s.sk_dups <- s.sk_dups + ex.Witness.duplicates;
      s.sk_rev <- List.rev_append ex.Witness.witnesses s.sk_rev)
    triples

let witnesses s = List.rev s.sk_rev
let raw s = s.sk_raw
let duplicates s = s.sk_dups

(* ------------------------------------------------------------------ *)
(* Manifest                                                             *)

let version = 1

type manifest = {
  m_run : string;
  m_streams : string list;
  m_seed : int;
  m_variant : string;
  m_jobs : int;
  m_ops_per_exec : int;
  m_fault_budget : int;
  m_max_ops : int option;
  m_wall_s : float option;
  m_checkpoint_every : int;
  m_corpus : string;
  m_snapshot : Soak.snapshot;
  m_witnesses : int;
  m_raw : int;
  m_duplicates : int;
  m_coverage_digest : string;
  m_soak_ok : bool;
  m_stopped : string;
  m_ts : float;
  m_elapsed_s : float;
}

let bucket_prefix = "bucket:"

let identity_fields m =
  let s = m.m_snapshot in
  [
    ("manifest_version", `I version);
    ("run", `S m.m_run);
    ("streams", `S (String.concat "," m.m_streams));
    ("seed", `I m.m_seed);
    ("variant", `S m.m_variant);
    ("jobs", `I m.m_jobs);
    ("ops_per_exec", `I m.m_ops_per_exec);
    ("fault_budget", `I m.m_fault_budget);
    ("max_ops", match m.m_max_ops with Some n -> `I n | None -> `Null);
    ("wall_s", match m.m_wall_s with Some w -> `F w | None -> `Null);
    ("checkpoint_every", `I m.m_checkpoint_every);
    ("corpus", `S m.m_corpus);
    ("next_round", `I s.Soak.snap_next_round);
    ("scenarios", `I s.Soak.snap_scenarios);
    ("completed", `I s.Soak.snap_completed);
    ("faulted", `I s.Soak.snap_faulted);
    ("diverged", `I s.Soak.snap_diverged);
    ("crashed", `I s.Soak.snap_crashed);
    ("executions", `I s.Soak.snap_executions);
    ("ops", `I s.Soak.snap_ops);
    ("client_ops", `I s.Soak.snap_client_ops);
    ("races", `I s.Soak.snap_races);
  ]
  @ List.concat_map
      (fun b ->
        [
          (bucket_prefix ^ b.Soak.bs_combo ^ ":faults", `I b.Soak.bs_faults);
          ( bucket_prefix ^ b.Soak.bs_combo ^ ":quarantined",
            `B b.Soak.bs_quarantined );
        ])
      s.Soak.snap_buckets
  @ [
      ("witnesses", `I m.m_witnesses);
      ("raw", `I m.m_raw);
      ("duplicates", `I m.m_duplicates);
      ("coverage_digest", `S m.m_coverage_digest);
      ("soak_ok", `B m.m_soak_ok);
      ("stopped", `S m.m_stopped);
    ]

let fields m =
  identity_fields m @ [ ("ts", `F m.m_ts); ("elapsed_s", `F m.m_elapsed_s) ]

let encode m = Json.encode_obj (fields m)

(* Rebuild bucket states from the flattened fields in one pass, in
   field (= snapshot) order; a label missing one of its two fields
   takes the default. *)
let buckets_of fields =
  let plen = String.length bucket_prefix in
  let set label f acc =
    if List.exists (fun b -> b.Soak.bs_combo = label) acc then
      List.map (fun b -> if b.Soak.bs_combo = label then f b else b) acc
    else f { Soak.bs_combo = label; bs_faults = 0; bs_quarantined = false } :: acc
  in
  let field acc (name, v) =
    let* acc = acc in
    if String.length name <= plen || not (String.starts_with ~prefix:bucket_prefix name)
    then Ok acc
    else
      let i = String.rindex name ':' in
      let label = String.sub name plen (max 0 (i - plen)) in
      match (String.sub name (i + 1) (String.length name - i - 1), v) with
      | "faults", `I n when label <> "" ->
          Ok (set label (fun b -> { b with Soak.bs_faults = n }) acc)
      | "quarantined", `B q when label <> "" ->
          Ok (set label (fun b -> { b with Soak.bs_quarantined = q }) acc)
      | _ -> Error (Printf.sprintf "malformed bucket field %s" name)
  in
  Result.map List.rev (List.fold_left field (Ok []) fields)

let decode line =
  let* fields = Json.decode_obj line in
  let* _ =
    Json.version ~key:"manifest_version" ~oldest:1 ~current:version fields
  in
  let str = Json.str fields
  and int = Json.int fields
  and flt = Json.float fields in
  (* A resume runs what the manifest says: no stream would crash it, no
     op per scenario would hang it, a zero fault budget would quarantine
     every combo, a budget below one op or second would end it at once,
     and a jobs count below one names no domain; the CLI rejects the
     same values. *)
  let below key n min =
    Error (Printf.sprintf "field %S: %d is below the minimum %d" key n min)
  in
  let at_least min key =
    let* n = int key in
    if n >= min then Ok n else below key n min
  in
  let* m_run = str "run" in
  let* streams = str "streams" in
  let* () =
    if streams = "" then Error "field \"streams\": no op stream" else Ok ()
  in
  let* m_seed = int "seed" in
  let* m_variant = str "variant" in
  let* m_jobs = at_least 1 "jobs" in
  let* m_ops_per_exec = at_least 1 "ops_per_exec" in
  let* m_fault_budget = at_least 1 "fault_budget" in
  let* m_max_ops =
    let* n = Json.int_opt fields "max_ops" in
    match n with Some n when n < 1 -> below "max_ops" n 1 | _ -> Ok n
  in
  let* m_wall_s =
    let* w = Json.float_opt fields "wall_s" in
    match w with
    | Some w when not (w > 0.) ->
        Error (Printf.sprintf "field \"wall_s\": %g is not above 0" w)
    | _ -> Ok w
  in
  let* m_checkpoint_every = at_least 0 "checkpoint_every" in
  let* m_corpus = str "corpus" in
  let* snap_next_round = int "next_round" in
  let* snap_scenarios = int "scenarios" in
  let* snap_completed = int "completed" in
  let* snap_faulted = int "faulted" in
  let* snap_diverged = int "diverged" in
  let* snap_crashed = int "crashed" in
  let* snap_executions = int "executions" in
  let* snap_ops = int "ops" in
  let* snap_client_ops = int "client_ops" in
  let* snap_races = int "races" in
  let* snap_buckets = buckets_of fields in
  let* m_witnesses = int "witnesses" in
  let* m_raw = int "raw" in
  let* m_duplicates = int "duplicates" in
  let* m_coverage_digest = str "coverage_digest" in
  let* m_soak_ok = Json.bool fields "soak_ok" in
  let* m_stopped = str "stopped" in
  let* m_ts = flt "ts" in
  let* m_elapsed_s = flt "elapsed_s" in
  Ok
    {
      m_run;
      m_streams = String.split_on_char ',' streams;
      m_seed;
      m_variant;
      m_jobs;
      m_ops_per_exec;
      m_fault_budget;
      m_max_ops;
      m_wall_s;
      m_checkpoint_every;
      m_corpus;
      m_snapshot =
        {
          Soak.snap_next_round;
          snap_scenarios;
          snap_completed;
          snap_faulted;
          snap_diverged;
          snap_crashed;
          snap_executions;
          snap_ops;
          snap_client_ops;
          snap_races;
          snap_buckets;
        };
      m_witnesses;
      m_raw;
      m_duplicates;
      m_coverage_digest;
      m_soak_ok;
      m_stopped;
      m_ts;
      m_elapsed_s;
    }

let save path m = Yashme_util.Atomic_file.write path (encode m ^ "\n")

(* The manifest is the file's first non-blank line. *)
let load path =
  Result.map List.hd (Json.load_lines ~what:"soak manifest" path decode)

(* ------------------------------------------------------------------ *)
(* Session                                                              *)

type resume = {
  rs_path : string;
  rs_manifest : manifest;
  rs_config : Soak.config;
  rs_witnesses : Witness.t list;
}

let resume ~find_stream path =
  let* m = load path in
  let unknown what name =
    Error (Printf.sprintf "%s: unknown %s %S in manifest" path what name)
  in
  match
    (List.find_opt (fun n -> find_stream n = None) m.m_streams,
     Px86.Variant.of_label m.m_variant)
  with
  | Some name, _ -> unknown "soak stream" name
  | None, None -> unknown "variant" m.m_variant
  | None, Some _ when m.m_witnesses > 0 && m.m_corpus = "" ->
      (* The counters would carry over without the witnesses they count. *)
      Error
        (Printf.sprintf "%s: manifest records %d witness(es) but names no corpus to resume from"
           path m.m_witnesses)
  | None, Some variant ->
      (* The corpus is preloaded, so the sink suppresses re-observations,
         only when the manifest says witnesses were written to it. *)
      let* witnesses = if m.m_witnesses > 0 then Corpus.load m.m_corpus else Ok [] in
      let streams = List.filter_map find_stream m.m_streams in
      Ok
        {
          rs_path = path;
          rs_manifest = m;
          rs_config =
            {
              (Soak.default_config ~streams) with
              Soak.sk_options =
                { Scenario.default_options with seed = m.m_seed; variant };
              sk_jobs = m.m_jobs;
              sk_ops_per_exec = m.m_ops_per_exec;
              sk_fault_budget = m.m_fault_budget;
              sk_max_ops = m.m_max_ops;
              sk_wall_s = m.m_wall_s;
              sk_checkpoint_every = m.m_checkpoint_every;
            };
          rs_witnesses = witnesses;
        }

let serve ?resume ?stop_after ~run ~corpus ~manifest (cfg : Soak.config) =
  let sink = sink () in
  Option.iter
    (fun r ->
      preload sink r.rs_witnesses;
      sink.sk_raw <- r.rs_manifest.m_raw;
      sink.sk_dups <- r.rs_manifest.m_duplicates)
    resume;
  let options = cfg.Soak.sk_options in
  let manifest_of ~soak_ok ~stopped ~elapsed snap =
    {
      m_run = run;
      m_streams = List.map (fun s -> s.Soak.os_name) cfg.Soak.sk_streams;
      m_seed = options.Scenario.seed;
      m_variant = Px86.Variant.label options.Scenario.variant;
      m_jobs = cfg.Soak.sk_jobs;
      m_ops_per_exec = cfg.Soak.sk_ops_per_exec;
      m_fault_budget = cfg.Soak.sk_fault_budget;
      m_max_ops = cfg.Soak.sk_max_ops;
      m_wall_s = cfg.Soak.sk_wall_s;
      m_checkpoint_every = cfg.Soak.sk_checkpoint_every;
      m_corpus = Option.value corpus ~default:"";
      m_snapshot = snap;
      m_witnesses = List.length sink.sk_rev;
      m_raw = sink.sk_raw;
      m_duplicates = sink.sk_dups;
      m_coverage_digest = Telemetry.coverage_digest ();
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
    (match corpus with
    | Some file when sink.sk_rev <> [] -> Corpus.save file (witnesses sink)
    | _ -> ());
    Option.iter (fun file -> save file (manifest_of ~soak_ok ~stopped ~elapsed snap)) manifest
  in
  let t_start = Unix.gettimeofday () in
  let rounds = ref 0 in
  let on_batch triples =
    absorb sink triples;
    incr rounds;
    match stop_after with Some n when !rounds >= n -> Soak.request_stop () | _ -> ()
  in
  let on_checkpoint snap =
    flush ~soak_ok:false ~stopped:"running" ~elapsed:(Unix.gettimeofday () -. t_start) snap
  in
  let prev = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Soak.request_stop ())) in
  let result =
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigint prev)
      (fun () ->
        Soak.run
          ?resume:(Option.map (fun r -> r.rs_manifest.m_snapshot) resume)
          ~on_batch ~on_checkpoint cfg)
  in
  flush ~soak_ok:result.Soak.r_ok
    ~stopped:(Soak.stop_reason_label result.Soak.r_reason)
    ~elapsed:result.Soak.r_elapsed_s result.Soak.r_snapshot;
  (result, sink)
