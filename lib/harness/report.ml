type finding = {
  label : string;
  benign : bool;
  count : int;
  example : Yashme.Race.t;
}

type recovery_failure = {
  rf_key : string;
  rf_example : Finding.fault;
  rf_count : int;
}

type consistency_violation = {
  cv_key : string;
  cv_example : Finding.consistency;
  cv_count : int;
}

type t = {
  program : string;
  variant : string;
      (* persistency-model variant label; rendered (as a "[variant ...]"
         line) only when it is not the default, so historical reports
         stay byte-identical *)
  executions : int;
  raw_races : int;
  findings : finding list;
  recovery_failures : recovery_failure list;
  consistency_violations : consistency_violation list;
      (* invariant-oracle findings, sorted by key; empty unless the run
         attached an oracle context, so oracle-off reports are
         byte-identical to pre-oracle output *)
  fault_count : int;
  diverged : int;
  oracle : string list option;
      (* the inferred invariant labels ([--oracle] only); rendered by
         [pp_oracle], never by [pp]/[to_string] *)
}

let m_duplicates = Observe.Metrics.counter "report/duplicate_races"

let dedup ~program ?(variant = Px86.Variant.default_label) ~executions
    ?(faults = []) ?(consistency = []) ?(diverged = 0) races =
  let tbl : (string, finding) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Yashme.Race.t) ->
      let key = Yashme.Race.dedup_key r in
      match Hashtbl.find_opt tbl key with
      | None ->
          Hashtbl.add tbl key
            { label = key; benign = r.Yashme.Race.benign; count = 1; example = r }
      | Some f ->
          Observe.Metrics.incr m_duplicates;
          Hashtbl.replace tbl key
            {
              f with
              count = f.count + 1;
              (* a finding is benign only if every observation was *)
              benign = f.benign && r.Yashme.Race.benign;
            })
    races;
  let findings =
    Hashtbl.fold (fun _ f acc -> f :: acc) tbl []
    |> List.sort (fun a b -> compare a.label b.label)
  in
  (* Faults arrive in submission order; the exemplar of each
     recovery-failure key is the first observation, so the report is
     independent of which domain hit it first. *)
  let rf_tbl : (string, recovery_failure) Hashtbl.t = Hashtbl.create 8 in
  let fault_count = ref 0 in
  List.iter
    (fun (f : Finding.fault) ->
      if Finding.is_recovery_failure f then begin
        let key = Finding.recovery_failure_key f in
        match Hashtbl.find_opt rf_tbl key with
        | None -> Hashtbl.add rf_tbl key { rf_key = key; rf_example = f; rf_count = 1 }
        | Some r -> Hashtbl.replace rf_tbl key { r with rf_count = r.rf_count + 1 }
      end
      else incr fault_count)
    faults;
  let recovery_failures =
    Hashtbl.fold (fun _ r acc -> r :: acc) rf_tbl []
    |> List.sort (fun a b -> compare a.rf_key b.rf_key)
  in
  (* Consistency violations arrive in submission order; like recovery
     failures, the exemplar of each key is the first observation. *)
  let cv_tbl : (string, consistency_violation) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (c : Finding.consistency) ->
      let key = Finding.consistency_key c in
      match Hashtbl.find_opt cv_tbl key with
      | None ->
          Hashtbl.add cv_tbl key { cv_key = key; cv_example = c; cv_count = 1 }
      | Some v -> Hashtbl.replace cv_tbl key { v with cv_count = v.cv_count + 1 })
    consistency;
  let consistency_violations =
    Hashtbl.fold (fun _ v acc -> v :: acc) cv_tbl []
    |> List.sort (fun a b -> compare a.cv_key b.cv_key)
  in
  {
    program;
    variant;
    executions;
    raw_races = List.length races;
    findings;
    recovery_failures;
    consistency_violations;
    fault_count = !fault_count;
    diverged;
    oracle = None;
  }

let with_oracle t invariants = { t with oracle = Some invariants }

let real t = List.filter (fun f -> not f.benign) t.findings
let benign t = List.filter (fun f -> f.benign) t.findings

(* Key projections for the corpus round-trip property: every witness
   emitted for a run must map onto exactly these keys. *)
let keys t = List.map (fun f -> f.label) t.findings
let recovery_failure_keys t = List.map (fun r -> r.rf_key) t.recovery_failures
let consistency_keys t = List.map (fun v -> v.cv_key) t.consistency_violations

let pp_recovery_failure ppf r =
  Format.fprintf ppf "[recovery-failure] %s (seed %d) (%d report%s)" r.rf_key
    r.rf_example.Finding.seed r.rf_count
    (if r.rf_count = 1 then "" else "s")

let pp_consistency_violation ppf v =
  Format.fprintf ppf "[consistency-violation] %s (seed %d) (%d report%s)"
    v.cv_key v.cv_example.Finding.c_seed v.cv_count
    (if v.cv_count = 1 then "" else "s")

let pp_contained ppf t =
  if t.fault_count > 0 || t.diverged > 0 then
    Format.fprintf ppf "@,  [contained] %d scenario fault(s), %d diverged (budget)"
      t.fault_count t.diverged

let pp ppf t =
  Format.fprintf ppf "@[<v>%s: %d distinct persistency race(s) (%d raw, %d benign) in %d execution(s)"
    t.program
    (List.length (real t))
    t.raw_races
    (List.length (benign t))
    t.executions;
  if t.variant <> Px86.Variant.default_label then
    Format.fprintf ppf "@,  [variant %s]" t.variant;
  List.iter
    (fun f ->
      Format.fprintf ppf "@,  %s %s (%d report%s)"
        (if f.benign then "[benign]" else "[race]  ")
        f.label f.count
        (if f.count = 1 then "" else "s"))
    t.findings;
  List.iter
    (fun r -> Format.fprintf ppf "@,  %a" pp_recovery_failure r)
    t.recovery_failures;
  List.iter
    (fun v -> Format.fprintf ppf "@,  %a" pp_consistency_violation v)
    t.consistency_violations;
  pp_contained ppf t;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t

(* The [oracle] block: the inferred invariant set plus per-violation
   detail.  Deterministic — the invariant list is sorted at inference
   and violations are sorted by key — so the block is byte-identical
   across --jobs counts. *)
let pp_oracle ppf t =
  match t.oracle with
  | None -> Format.fprintf ppf "[oracle] %s: (not run)" t.program
  | Some invariants ->
      Format.fprintf ppf
        "@[<v>[oracle] %s: %d inferred invariant(s), %d violation(s)"
        t.program (List.length invariants)
        (List.length t.consistency_violations);
      List.iter (fun l -> Format.fprintf ppf "@,  %s" l) invariants;
      List.iter
        (fun v ->
          Format.fprintf ppf "@,  %s: %s" v.cv_key
            v.cv_example.Finding.c_detail)
        t.consistency_violations;
      Format.fprintf ppf "@]"

let oracle_to_string t = Format.asprintf "%a" pp_oracle t
