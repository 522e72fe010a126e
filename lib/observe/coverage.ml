(* Crash-space coverage accounting.

   Answers, per program, "how much of the crash space did this run
   actually explore?": which crash-plan indices were exercised, which
   crash points actually fired, how many prefix expansions the detector
   performed vs how many checks it pruned (coherence / persisted), and
   how many distinct cache lines a crash ever materialized.

   Accounting is attributed to the ambient program of the calling
   domain (a [Domain.DLS] slot the engine sets around each scenario),
   and accumulated into per-domain shards merged on read.  Every
   per-program quantity is either a set union or a counter sum, and
   each scenario executes exactly once regardless of the pool size, so
   merged coverage is byte-identical for every [--jobs] count.

   Like {!Metrics}, the whole module is disabled by default: each hook
   is a no-op behind a single [Atomic.get] branch, and nothing here
   feeds back into the exploration being measured. *)

let shards = 64 (* power of two; domain ids map to shards by masking *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

(* Persistency-model variant label used when the engine supplies none.
   Kept as an opaque string convention (lib/observe must not depend on
   px86); it matches [Px86.Variant.default_label]. *)
let default_variant = "strict-tso"

(* Ambient (program, variant) of the calling domain.  Hooks fired
   outside any scenario (setup memoization, flush-point probes) have no
   ambient program and are deliberately dropped: those runs happen once
   on the launching domain no matter the job count, and attributing
   them would double-count work the scenarios repeat. *)
let ambient : (string * string) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Per-shard accumulator of one program.  Mutated only under the
   owning shard's lock; sets are unit-valued hashtables. *)
type acc = {
  mutable a_scenarios : int;
  a_plans : (int, unit) Hashtbl.t;
  a_crashes : (int, unit) Hashtbl.t;
  mutable a_expansions : int;
  mutable a_pruned_coherence : int;
  mutable a_pruned_persisted : int;
  a_lines : (int, unit) Hashtbl.t;
  mutable a_oracle_checks : int;
  mutable a_oracle_violations : int;
}

(* Keyed by (program, variant label): running the same program under
   several model variants accumulates separate rows. *)
type shard = { lock : Mutex.t; progs : (string * string, acc) Hashtbl.t }

let store =
  Array.init shards (fun _ -> { lock = Mutex.create (); progs = Hashtbl.create 8 })

let reset () =
  Array.iter
    (fun s -> Mutex.protect s.lock (fun () -> Hashtbl.reset s.progs))
    store

let acc_of s key =
  match Hashtbl.find_opt s.progs key with
  | Some a -> a
  | None ->
      let a =
        {
          a_scenarios = 0;
          a_plans = Hashtbl.create 8;
          a_crashes = Hashtbl.create 8;
          a_expansions = 0;
          a_pruned_coherence = 0;
          a_pruned_persisted = 0;
          a_lines = Hashtbl.create 8;
          a_oracle_checks = 0;
          a_oracle_violations = 0;
        }
      in
      Hashtbl.add s.progs key a;
      a

(* Run [f] on the calling domain's accumulator for the ambient
   program; the common disabled / no-ambient-program case is two loads
   and a branch. *)
let touch f =
  if Atomic.get enabled then
    match Domain.DLS.get ambient with
    | None -> ()
    | Some key ->
        let s = store.((Domain.self () :> int) land (shards - 1)) in
        Mutex.protect s.lock (fun () -> f (acc_of s key))

let with_program ?(variant = default_variant) program f =
  let saved = Domain.DLS.get ambient in
  Domain.DLS.set ambient (Some (program, variant));
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient saved) f

let mark tbl k = if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k ()

let scenario_started () = touch (fun a -> a.a_scenarios <- a.a_scenarios + 1)
let plan_exercised i = touch (fun a -> mark a.a_plans i)
let crash_point i = touch (fun a -> mark a.a_crashes i)
let prefix_expanded () = touch (fun a -> a.a_expansions <- a.a_expansions + 1)

let pruned = function
  | `Coherence ->
      touch (fun a -> a.a_pruned_coherence <- a.a_pruned_coherence + 1)
  | `Persisted ->
      touch (fun a -> a.a_pruned_persisted <- a.a_pruned_persisted + 1)

let line_materialized line = touch (fun a -> mark a.a_lines line)

let oracle_checked () =
  touch (fun a -> a.a_oracle_checks <- a.a_oracle_checks + 1)

let oracle_violation () =
  touch (fun a -> a.a_oracle_violations <- a.a_oracle_violations + 1)

(* ------------------------------------------------------------------ *)
(* Merge-on-read snapshots                                              *)

type stats = {
  program : string;
  variant : string;
  scenarios : int;
  plan_indices : int list;
  crash_points : int list;
  prefix_expansions : int;
  pruned_coherence : int;
  pruned_persisted : int;
  lines_materialized : int;
  oracle_checks : int;
  oracle_violations : int;
}

let keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl []

(* Merge one program's shard accumulators: counters sum, sets union —
   both commute, so the result is independent of which domain did
   which scenario. *)
let merge (program, variant) accs =
  let scenarios = ref 0
  and expansions = ref 0
  and coh = ref 0
  and per = ref 0
  and plans = ref []
  and crashes = ref []
  and lines = ref []
  and ochecks = ref 0
  and oviolations = ref 0 in
  List.iter
    (fun a ->
      scenarios := !scenarios + a.a_scenarios;
      expansions := !expansions + a.a_expansions;
      coh := !coh + a.a_pruned_coherence;
      per := !per + a.a_pruned_persisted;
      plans := keys a.a_plans @ !plans;
      crashes := keys a.a_crashes @ !crashes;
      lines := keys a.a_lines @ !lines;
      ochecks := !ochecks + a.a_oracle_checks;
      oviolations := !oviolations + a.a_oracle_violations)
    accs;
  {
    program;
    variant;
    scenarios = !scenarios;
    plan_indices = List.sort_uniq compare !plans;
    crash_points = List.sort_uniq compare !crashes;
    prefix_expansions = !expansions;
    pruned_coherence = !coh;
    pruned_persisted = !per;
    lines_materialized = List.length (List.sort_uniq compare !lines);
    oracle_checks = !ochecks;
    oracle_violations = !oviolations;
  }

let snapshot () =
  let by_key : (string * string, acc list) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          Hashtbl.iter
            (fun key a ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt by_key key) in
              Hashtbl.replace by_key key (a :: prev))
            s.progs))
    store;
  Hashtbl.fold (fun key accs out -> merge key accs :: out) by_key []
  |> List.sort (fun a b -> compare (a.program, a.variant) (b.program, b.variant))

let find ?(variant = default_variant) program =
  List.find_opt
    (fun s -> s.program = program && s.variant = variant)
    (snapshot ())

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

(* Compact range form of a sorted index set; -1 is the crash-at-end
   pseudo-index and renders as "end". *)
let indices_label indices =
  let at_end = List.mem (-1) indices in
  let indices = List.filter (fun i -> i >= 0) indices in
  let ranges =
    let rec group acc cur = function
      | [] -> List.rev (match cur with None -> acc | Some r -> r :: acc)
      | i :: rest -> (
          match cur with
          | Some (lo, hi) when i = hi + 1 -> group acc (Some (lo, i)) rest
          | Some r -> group (r :: acc) (Some (i, i)) rest
          | None -> group acc (Some (i, i)) rest)
    in
    group [] None indices
  in
  let parts =
    List.map
      (fun (lo, hi) ->
        if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi)
      ranges
    @ (if at_end then [ "end" ] else [])
  in
  match parts with [] -> "-" | parts -> String.concat "," parts

(* Flat field list, stable order: the shape lib/corpus's codec encodes
   verbatim (one JSON object per program). *)
let fields s : (string * Yashme_util.Json.value) list =
  [
    ("program", `S s.program);
    ("variant", `S s.variant);
    ("scenarios", `I s.scenarios);
    ("plan_indices", `S (indices_label s.plan_indices));
    ("plan_index_count", `I (List.length s.plan_indices));
    ("crash_points", `S (indices_label s.crash_points));
    ("crash_point_count", `I (List.length s.crash_points));
    ("prefix_expansions", `I s.prefix_expansions);
    ("pruned_coherence", `I s.pruned_coherence);
    ("pruned_persisted", `I s.pruned_persisted);
    ("lines_materialized", `I s.lines_materialized);
    (* Appended last so pre-oracle consumers of the JSONL shape keep
       their field prefix unchanged. *)
    ("oracle_checks", `I s.oracle_checks);
    ("oracle_violations", `I s.oracle_violations);
  ]

let pp ppf s =
  Format.fprintf ppf "@[<v>%s coverage:" s.program;
  (* The variant line appears only off the default, keeping historical
     coverage blocks byte-identical. *)
  if s.variant <> default_variant then
    Format.fprintf ppf "@,  variant                  %s" s.variant;
  Format.fprintf ppf "@,  scenarios run            %d" s.scenarios;
  Format.fprintf ppf "@,  crash-plan indices       %d exercised (%s)"
    (List.length s.plan_indices)
    (indices_label s.plan_indices);
  Format.fprintf ppf "@,  crash points fired       %d (%s)"
    (List.length s.crash_points)
    (indices_label s.crash_points);
  Format.fprintf ppf "@,  prefix expansions        %d" s.prefix_expansions;
  Format.fprintf ppf "@,  pruned checks            %d coherence, %d persisted"
    s.pruned_coherence s.pruned_persisted;
  Format.fprintf ppf "@,  cache lines materialized %d distinct" s.lines_materialized;
  (* Oracle lines appear only when the oracle ran, keeping pre-oracle
     coverage blocks byte-identical. *)
  if s.oracle_checks > 0 then
    Format.fprintf ppf "@,  oracle checks            %d (%d violation%s)"
      s.oracle_checks s.oracle_violations
      (if s.oracle_violations = 1 then "" else "s");
  Format.fprintf ppf "@]"

let to_string s = Format.asprintf "%a" pp s
