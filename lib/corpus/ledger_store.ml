(* Run-ledger file I/O and comparison.

   The schema lives in Observe.Ledger; here it meets the JSONL codec
   ({!Yashme_util.Json}, whose flat records are Ledger's field lists)
   and the bench gate's tolerance judge. *)

module Ledger = Observe.Ledger

(* Crash-safe append: existing entries plus the new line are republished
   under [path] by atomic rename ({!Yashme_util.Atomic_file}), so an
   interrupted append can never truncate earlier runs.  Ledgers are
   small (one line per run), so the copy is cheap. *)
let append path e =
  Yashme_util.Atomic_file.append_line path (Json.encode_obj (Ledger.fields e))

let load path =
  Json.load_lines ~what:"ledger" path (fun l ->
      Result.bind (Json.decode_obj l) Ledger.of_fields)

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
      match List.filter (fun e -> e.Ledger.e_run = sel) entries with
      | [ e ] -> Ok e
      | [] -> Error (Printf.sprintf "no run labelled %S in ledger" sel)
      | l ->
          Error
            (Printf.sprintf "%d runs labelled %S; select by 1-based ordinal"
               (List.length l) sel))

type comparison = {
  cmp_changed : Bench_gate.verdict list;
  cmp_timing : Bench_gate.verdict list;
  cmp_mismatched : (string * string * string) list;
  cmp_passed : bool;
}

let compare_runs ~baseline ~current =
  let bn = Ledger.numeric_fields baseline in
  let cn = Ledger.numeric_fields current in
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
        let v =
          match Ledger.direction k with
          | `Higher ->
              Bench_gate.judge ~key:k ~metric:k ~better:Bench_gate.Higher
                ~tolerance:0. ~baseline:bv ~current:cv ()
          | `Lower ->
              Bench_gate.judge ~key:k ~metric:k ~better:Bench_gate.Lower
                ~tolerance:0. ~baseline:bv ~current:cv ()
          | `Neutral ->
              (* any delta is a change, neither direction a regression *)
              {
                (Bench_gate.judge ~key:k ~metric:k ~tolerance:0. ~baseline:bv
                   ~current:cv ())
                with
                Bench_gate.v_regressed = false;
              }
        in
        if Ledger.timing_field k then
          (* informational only — never flagged, never gates *)
          timing := { v with Bench_gate.v_regressed = false } :: !timing
        else changed := v :: !changed
      end)
    keys;
  let cmp_changed = List.rev !changed and cmp_timing = List.rev !timing in
  let bs = Ledger.string_fields baseline in
  let cs = Ledger.string_fields current in
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
    (fun (v : Bench_gate.verdict) ->
      add "  %s: %g -> %g (%+.1f%%)%s" v.Bench_gate.v_key v.Bench_gate.v_baseline
        v.Bench_gate.v_current v.Bench_gate.v_delta_pct
        (if v.Bench_gate.v_regressed then " REGRESSED" else " CHANGED"))
    c.cmp_changed;
  if c.cmp_changed = [] && c.cmp_mismatched = [] then
    add "  no non-timing deltas";
  List.iter
    (fun (v : Bench_gate.verdict) ->
      add "  [timing] %s: %g -> %g" v.Bench_gate.v_key v.Bench_gate.v_baseline
        v.Bench_gate.v_current)
    c.cmp_timing;
  add "ledger compare: %s" (if c.cmp_passed then "PASS" else "FAIL");
  String.concat "\n" (List.rev !lines)
