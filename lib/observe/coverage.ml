(* The coverage view: "how much of the crash space did this run
   actually explore?" — which crash-plan indices were exercised, which
   crash points actually fired, how many prefix expansions the detector
   performed vs how many checks it pruned (coherence / persisted), and
   how many distinct cache lines a crash ever materialized.

   Each quantity is a per-program cell of the registry ({!Metrics}),
   counted into the ambient (program, variant) bucket the engine sets
   around each scenario; this module only reads the buckets. *)

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

let row (b : Metrics.bucket) =
  let count name = Option.value ~default:0 (List.assoc_opt name b.counts)
  and set name = Option.value ~default:[] (List.assoc_opt name b.sets) in
  {
    program = b.program;
    variant = b.variant;
    scenarios = count "coverage/scenarios";
    plan_indices = set "coverage/plan_indices";
    crash_points = set "coverage/crash_points";
    prefix_expansions = count "detector/prefix_expansions";
    pruned_coherence = count "detector/pruned_coherence";
    pruned_persisted = count "detector/pruned_persisted";
    lines_materialized = List.length (set "coverage/lines");
    oracle_checks = count "oracle/observe";
    oracle_violations = count "oracle/violations";
  }

let snapshot () = List.map row (Metrics.buckets ())

let find ?(variant = Metrics.default_variant) program =
  List.find_opt (fun s -> s.program = program && s.variant = variant) (snapshot ())

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
  if s.variant <> Metrics.default_variant then
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
