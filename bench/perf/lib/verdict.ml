(* [perf.exe compare]: judge a change against its parent from two sets
   of untraced runs, one JSONL file per run.

   Runs are paired in the order given (run them alternating which side
   goes first).  A metric is a gain when the change wins at least nine
   tenths of at least ten pairs and the medians differ by more than the
   parent's interquartile range; a regression when the change's median
   is worse than the parent's by more than the metric's bound;
   unresolved when there are fewer than ten pairs, or when the parent's
   own spread is wider than the bound and not every run of the change
   reads better than every run of the parent. *)

type verdict = Gain | Regression | Unresolved of string | Unchanged

let label = function
  | Gain -> "gain"
  | Regression -> "REGRESSION"
  | Unresolved why -> "unresolved (" ^ why ^ ")"
  | Unchanged -> "no change"

let judge (m : Spec.metric) ~base ~fresh =
  let pairs = min (List.length base) (List.length fresh) in
  let mb = Stats.median base and mn = Stats.median fresh in
  let q1, q3 = Stats.quartiles base in
  let iqr = q3 -. q1 in
  let better a b = match m.better with Spec.Higher -> a > b | Spec.Lower -> a < b in
  (* positive when the change is worse *)
  let worse = match m.better with Spec.Higher -> mb -. mn | Spec.Lower -> mn -. mb in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let wins = List.length (List.filter (fun (b, n) -> better n b) (zip base fresh)) in
  let allowed = m.bound *. Float.abs mb in
  let verdict =
    if pairs < 10 then Unresolved (Printf.sprintf "%d pairs < 10" pairs)
    else if wins * 10 >= 9 * pairs && -.worse > iqr then Gain
    else if worse > allowed then Regression
    else if iqr > allowed && not (List.for_all (fun n -> List.for_all (better n) base) fresh)
    then Unresolved "spread wider than bound"
    else Unchanged
  in
  (verdict, wins, pairs)

(* (workload, metric, value) of every untraced line of one run file. *)
let load file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun line ->
         match Pm_corpus.Json.decode_obj line with
         | Error e -> failwith (Printf.sprintf "%s: %s" file e)
         | Ok fields -> (
             match
               ( List.assoc_opt "workload" fields,
                 List.assoc_opt "metric" fields,
                 List.assoc_opt "value" fields,
                 List.assoc_opt "traced" fields )
             with
             | Some (`S w), Some (`S m), Some (`F v), Some (`B false) -> Some (w, m, v)
             | Some (`S w), Some (`S m), Some (`I v), Some (`B false) -> Some (w, m, float v)
             | _ -> None))

(* Print one row per workload x metric; true when nothing regressed. *)
let compare ~base ~fresh =
  let base = List.map load base and fresh = List.map load fresh in
  let values runs w m =
    List.filter_map
      (fun run -> List.find_map (fun (w', m', v) -> if w = w' && m = m' then Some v else None) run)
      runs
  in
  Printf.printf "%-12s %-26s %14s %14s %8s %7s  %s\n" "workload" "metric" "base median"
    "new median" "change" "wins" "verdict";
  List.fold_left
    (fun ok ((w : Spec.workload), (m : Spec.metric)) ->
      let b = values base w.name m.name and n = values fresh w.name m.name in
      if b = [] || n = [] then ok
      else
        let v, wins, pairs = judge m ~base:b ~fresh:n in
        let mb = Stats.median b and mn = Stats.median n in
        Printf.printf "%-12s %-26s %14.6g %14.6g %+7.2f%% %3d/%-3d  %s\n" w.name m.name mb mn
          ((mn -. mb) /. Float.abs mb *. 100.)
          wins pairs (label v);
        ok && v <> Regression)
    true
    (List.concat_map (fun w -> List.map (fun m -> (w, m)) Spec.end_to_end) Spec.workloads)
