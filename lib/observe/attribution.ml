(* The attribution view: where does exploration time go?

   A cost center is a registry cell ({!Metrics}) shown with three
   columns: an occurrence count, a charged-unit total (bytes, ops,
   comparisons — whatever the center's units label says) and a
   wall-clock total in microseconds.

   The two-class column model is the crux.  Counts and charged units of
   deterministic work commute under addition, so their merged totals
   are identical for every --jobs count — that projection (rendered by
   [to_string ~timing:false] and exported by [fields]) is byte-stable
   and CI-comparable.  Wall clocks are not, and neither are GC words:
   a worker's allocation depends on which scenarios it ran and on
   when the collector ran.  Centers carrying such quantities declare
   [volatile_units]; volatile columns render in the full table but are
   excluded from the invariant projection and from ledger comparison. *)

type row = Metrics.reading

(* A counter that carries a cost-center name shows as that center, with
   no charged units.  Centers with nothing charged are dropped, so the
   table only names cost centers the run actually exercised. *)
let rows readings =
  List.filter_map
    (fun (r : row) ->
      match r.kind with
      | Metrics.Counter (Some name) ->
          Some { r with name; kind = Metrics.Center { units_label = ""; volatile_units = false } }
      | Metrics.Center _ -> Some r
      | Metrics.Counter None | Metrics.Histogram | Metrics.Tally | Metrics.Set -> None)
    readings
  |> List.filter (fun (r : row) -> r.count <> 0 || r.units <> 0 || r.wall_us <> 0)
  |> List.sort (fun (a : row) b -> compare a.name b.name)

let labels (r : row) =
  match r.kind with
  | Metrics.Center { units_label; volatile_units } -> (units_label, volatile_units)
  | Metrics.Counter _ | Metrics.Histogram | Metrics.Tally | Metrics.Set -> ("", false)

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let charged_cell ~timing r =
  let units_label, volatile = labels r in
  if units_label = "" then "-"
  else if volatile && not timing then "-"
  else Printf.sprintf "%d %s" r.units units_label

let wall_cell (r : row) = Printf.sprintf "%.3fms" (float_of_int r.wall_us /. 1000.)

(* [timing:false] is the jobs-invariant projection: the wall column is
   dropped and volatile charged units render as "-". *)
let pp ?(timing = true) ppf rows =
  let cells =
    List.map
      (fun (r : row) ->
        let base =
          [ r.name; string_of_int r.count; charged_cell ~timing r ]
        in
        if timing then base @ [ wall_cell r ] else base)
      rows
  in
  let header =
    if timing then [ "cost center"; "count"; "charged"; "wall" ]
    else [ "cost center"; "count"; "charged" ]
  in
  Format.fprintf ppf "@[<v>[attribution]";
  if rows = [] then Format.fprintf ppf "@,  (no cost recorded)"
  else
    List.iter (Format.fprintf ppf "@,  %s")
      (Yashme_util.Pretty.columns ~header cells);
  Format.fprintf ppf "@]"

let to_string ?timing rows = Format.asprintf "%a" (pp ?timing) rows

(* One flat JSONL object per center — only the invariant projection, so
   an --attribution-out file is byte-identical for every --jobs count. *)
let fields (r : row) : (string * Yashme_util.Json.value) list =
  let units_label, volatile = labels r in
  [
    ("center", `S r.name);
    ("count", `I r.count);
    ("units", if volatile then `Null else `I r.units);
    ("units_label", `S units_label);
  ]

(* Inverse of [fields], for re-rendering an --attribution-out file
   (yashme profile --attribution).  Wall clocks are not serialized, so
   the reconstructed row carries none. *)
let of_fields (fs : (string * Yashme_util.Json.value) list) =
  let str k =
    match List.assoc_opt k fs with Some (`S s) -> Some s | _ -> None
  in
  match (str "center", List.assoc_opt "count" fs) with
  | Some center, Some (`I count) ->
      let units, volatile =
        match List.assoc_opt "units" fs with
        | Some (`I u) -> (u, false)
        | Some `Null -> (0, true)
        | _ -> (0, false)
      in
      let units_label = Option.value ~default:"" (str "units_label") in
      Ok
        {
          Metrics.name = center;
          kind = Metrics.Center { units_label; volatile_units = volatile };
          count;
          units;
          wall_us = 0;
          max = 0;
        }
  | _ -> Error "not an attribution row (missing \"center\"/\"count\")"
