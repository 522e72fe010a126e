(* Soak persistence: witness sink + versioned run manifest.

   The manifest is one flat Json line, like a witness or ledger entry,
   so the trace linter and the corpus codec cover it for free.  The
   per-combo quarantine state is flattened to [bucket:LABEL:faults] /
   [bucket:LABEL:quarantined] fields — labels contain ':' themselves,
   so decoding strips the fixed prefix and suffixes rather than
   splitting. *)

module Soak = Pm_harness.Soak
module Scenario = Pm_harness.Scenario
module Engine = Pm_harness.Engine
module Runner = Pm_harness.Runner

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
      let ex = Witness.of_pairs ~program:name [ (sc, res, Runner.Full) ] in
      s.sk_raw <- s.sk_raw + ex.Witness.raw;
      s.sk_dups <- s.sk_dups + ex.Witness.duplicates;
      List.iter
        (fun w ->
          let id = Witness.identity w in
          if Hashtbl.mem s.sk_seen id then s.sk_dups <- s.sk_dups + 1
          else begin
            Hashtbl.add s.sk_seen id ();
            s.sk_rev <- w :: s.sk_rev
          end)
        ex.Witness.witnesses)
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
let faults_suffix = ":faults"
let quarantined_suffix = ":quarantined"

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
          (bucket_prefix ^ b.Soak.bs_combo ^ faults_suffix, `I b.Soak.bs_faults);
          ( bucket_prefix ^ b.Soak.bs_combo ^ quarantined_suffix,
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

let strip_affixes name =
  (* "bucket:LABEL:faults" -> (LABEL, `Faults); labels contain ':'. *)
  let plen = String.length bucket_prefix in
  let body = String.sub name plen (String.length name - plen) in
  let ends_with suffix =
    let sl = String.length suffix and bl = String.length body in
    bl > sl && String.sub body (bl - sl) sl = suffix
  in
  if ends_with faults_suffix then
    Some
      ( String.sub body 0 (String.length body - String.length faults_suffix),
        `Faults )
  else if ends_with quarantined_suffix then
    Some
      ( String.sub body 0
          (String.length body - String.length quarantined_suffix),
        `Quarantined )
  else None

(* Rebuild bucket states from the flattened fields, preserving field
   (= snapshot) order. *)
let buckets_of fields =
  let order = ref [] and faults = Hashtbl.create 8 and quar = Hashtbl.create 8 in
  let note label = if not (List.mem label !order) then order := label :: !order in
  let rec walk = function
    | [] -> Ok ()
    | (name, v) :: rest
      when String.length name > String.length bucket_prefix
           && String.sub name 0 (String.length bucket_prefix) = bucket_prefix
      -> (
        match (strip_affixes name, v) with
        | Some (label, `Faults), `I n ->
            note label;
            Hashtbl.replace faults label n;
            walk rest
        | Some (label, `Quarantined), `B b ->
            note label;
            Hashtbl.replace quar label b;
            walk rest
        | _ -> Error (Printf.sprintf "malformed bucket field %s" name))
    | _ :: rest -> walk rest
  in
  match walk fields with
  | Error e -> Error e
  | Ok () ->
      Ok
        (List.rev_map
           (fun label ->
             {
               Soak.bs_combo = label;
               bs_faults = Option.value ~default:0 (Hashtbl.find_opt faults label);
               bs_quarantined =
                 Option.value ~default:false (Hashtbl.find_opt quar label);
             })
           !order)

let decode line =
  let ( let* ) = Result.bind in
  let* fields = Json.decode_obj line in
  let* _ =
    Json.version ~key:"manifest_version" ~oldest:1 ~current:version fields
  in
  let str = Json.str fields
  and int = Json.int fields
  and flt = Json.float fields in
  let* m_run = str "run" in
  let* streams = str "streams" in
  let* m_seed = int "seed" in
  let* m_variant = str "variant" in
  let* m_jobs = int "jobs" in
  let* m_ops_per_exec = int "ops_per_exec" in
  let* m_fault_budget = int "fault_budget" in
  let* m_max_ops = Json.int_opt fields "max_ops" in
  let* m_wall_s = Json.float_opt fields "wall_s" in
  let* m_checkpoint_every = int "checkpoint_every" in
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
      m_streams =
        (if streams = "" then [] else String.split_on_char ',' streams);
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
