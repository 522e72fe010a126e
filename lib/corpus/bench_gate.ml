(* The benchmark regression gate.

   bench/main.exe writes its engine-throughput summary as a JSONL file
   of flat objects ({!Json.encode_obj} shape); the gate re-reads two
   such files — a committed baseline and a fresh run — and compares
   one numeric metric per benchmark under a percentage tolerance.
   Higher is better (the default metric is [ops_per_s]): a current
   value below [baseline * (1 - tolerance/100)] regresses, and a
   baseline benchmark missing from the current file fails the gate
   outright (a silently dropped benchmark must not read as a pass). *)

type entry = { e_key : string; e_fields : (string * Json.value) list }

let field e name = List.assoc_opt name e.e_fields

let number e name =
  match field e name with
  | Some (`I i) -> Some (float_of_int i)
  | Some (`F f) -> Some f
  | _ -> None

(* Identity of one benchmark row: its name plus the job count when
   present, so jobs=1 and jobs=N rows of one benchmark gate
   independently. *)
let key_of fields =
  let str name =
    match List.assoc_opt name fields with
    | Some (`S s) -> Some s
    | Some (`I i) -> Some (string_of_int i)
    | _ -> None
  in
  match str "bench" with
  | None -> None
  | Some bench -> (
      match str "jobs" with
      | None -> Some bench
      | Some jobs -> Some (Printf.sprintf "%s[jobs=%s]" bench jobs))

let entry_of_line l =
  Result.bind (Json.decode_obj l) (fun fields ->
      match key_of fields with
      | None -> Error "no \"bench\" field"
      | Some key -> Ok { e_key = key; e_fields = fields })

let load path = Json.load_lines ~what:"bench file" path entry_of_line

type verdict = {
  v_key : string;
  v_metric : string;
  v_baseline : float;
  v_current : float;
  v_delta_pct : float;  (* (current - baseline) / baseline * 100 *)
  v_regressed : bool;
}

type better = Higher | Lower

(* One metric comparison under a percentage tolerance.  [Higher] means
   higher-is-better (throughput: regress when current drops below the
   tolerance band); [Lower] means lower-is-better (latency, counts of
   bad events: regress when current rises above it).  Shared with the
   run-ledger compare, which judges counter deltas with tolerance 0. *)
let judge ~key ~metric ?(better = Higher) ~tolerance ~baseline ~current () =
  let delta_pct =
    if baseline <> 0. then (current -. baseline) /. baseline *. 100. else 0.
  in
  let regressed =
    match better with
    | Higher -> current < baseline *. (1. -. (tolerance /. 100.))
    | Lower -> current > baseline *. (1. +. (tolerance /. 100.))
  in
  {
    v_key = key;
    v_metric = metric;
    v_baseline = baseline;
    v_current = current;
    v_delta_pct = delta_pct;
    v_regressed = regressed;
  }

type outcome = {
  passed : bool;
  verdicts : verdict list;  (* baseline order *)
  missing : string list;  (* baseline keys absent from current *)
}

(* Gate [current] against [baseline] on several metrics per row.  Each
   baseline row is judged once per (metric, direction); a metric absent
   on either side fails loudly under the row's ["key.metric"] name,
   like a missing benchmark. *)
let diff_metrics ~metrics ~tolerance ~baseline ~current () =
  let verdicts = ref [] and missing = ref [] in
  List.iter
    (fun b ->
      match List.find_opt (fun c -> c.e_key = b.e_key) current with
      | None -> missing := b.e_key :: !missing
      | Some c ->
          List.iter
            (fun (metric, better) ->
              match (number b metric, number c metric) with
              | Some bv, Some cv ->
                  verdicts :=
                    judge ~key:b.e_key ~metric ~better ~tolerance ~baseline:bv
                      ~current:cv ()
                    :: !verdicts
              | _ -> missing := (b.e_key ^ "." ^ metric) :: !missing)
            metrics)
    baseline;
  let verdicts = List.rev !verdicts and missing = List.rev !missing in
  let passed = missing = [] && not (List.exists (fun v -> v.v_regressed) verdicts) in
  { passed; verdicts; missing }

let diff ?(metric = "ops_per_s") ~tolerance ~baseline ~current () =
  diff_metrics ~metrics:[ (metric, Higher) ] ~tolerance ~baseline ~current ()

(* The scaling gate's metric set: parallel speedup and efficiency,
   both higher-is-better.  Used by [yashme bench-diff --scaling] over
   [bench --jobs-sweep] rows. *)
let scaling_metrics = [ ("speedup", Higher); ("efficiency", Higher) ]

let pp_verdict ppf v =
  Format.fprintf ppf "%s %s: baseline %.1f, current %.1f (%+.1f%%)%s" v.v_key
    v.v_metric v.v_baseline v.v_current v.v_delta_pct
    (if v.v_regressed then " REGRESSED" else "")

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>";
  List.iter (fun v -> Format.fprintf ppf "%a@," pp_verdict v) o.verdicts;
  List.iter (fun k -> Format.fprintf ppf "%s: MISSING from current@," k) o.missing;
  Format.fprintf ppf "bench gate: %s@]" (if o.passed then "PASS" else "FAIL")

let outcome_to_string o = Format.asprintf "%a" pp_outcome o
