(* Per-scenario cost attribution: where does exploration time go?

   A [center] is a named cost bucket (snapshot copying, queue wait,
   detector clock-vector comparisons, ...) holding three domain-sharded
   accumulators: an occurrence count, a charged-unit total (bytes, ops,
   comparisons — whatever the center's [units] label says) and a
   wall-clock total in microseconds.  Concurrent charges from engine
   workers land on different shards; reads merge the shards.

   The two-class column model is the crux.  Counts and charged units of
   deterministic work commute under addition, so their merged totals
   are identical for every --jobs count — that projection (rendered by
   [to_string ~timing:false] and exported by [fields]) is byte-stable
   and CI-comparable.  Wall clocks are not, and neither are GC word
   deltas: OCaml 5's [Gc.quick_stat] counters are flushed globally at
   minor collections, so a delta taken on one domain absorbs other
   domains' allocation.  Centers carrying such quantities declare
   [volatile_units]; volatile columns render in the full table but are
   excluded from the invariant projection and from ledger comparison.

   Like {!Metrics}, everything is a no-op behind one [Atomic.get]
   branch until [enable], and nothing here feeds back into the engine:
   attribution on vs off never changes a race report. *)

let shards = 64

let slot () = (Domain.self () :> int) land (shards - 1)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

type center = {
  a_name : string;
  a_units_label : string; (* "" = the center charges no units *)
  a_volatile_units : bool; (* units are wall-clock class (GC words) *)
  a_counts : int Atomic.t array;
  a_units : int Atomic.t array;
  a_wall : int Atomic.t array;
}

let registry_lock = Mutex.create ()
let registry : (string, center) Hashtbl.t = Hashtbl.create 32

let atomics n = Array.init n (fun _ -> Atomic.make 0)

(* Find-or-create, like {!Metrics.counter}: one name, one set of cells,
   so instrumentation sites and tests share centers by name alone.
   The first registration fixes the units label. *)
let center ?(units = "") ?(volatile_units = false) name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let c =
            {
              a_name = name;
              a_units_label = units;
              a_volatile_units = volatile_units;
              a_counts = atomics shards;
              a_units = atomics shards;
              a_wall = atomics shards;
            }
          in
          Hashtbl.add registry name c;
          c)

let center_name c = c.a_name

let charge c ?(count = 1) ?(units = 0) ?(wall_us = 0) () =
  if Atomic.get enabled then begin
    let s = slot () in
    if count <> 0 then ignore (Atomic.fetch_and_add c.a_counts.(s) count);
    if units <> 0 then ignore (Atomic.fetch_and_add c.a_units.(s) units);
    if wall_us > 0 then ignore (Atomic.fetch_and_add c.a_wall.(s) wall_us)
  end

let tick c =
  if Atomic.get enabled then ignore (Atomic.fetch_and_add c.a_counts.(slot ()) 1)

(* ------------------------------------------------------------------ *)
(* Merge-on-read rows                                                   *)

type row = {
  r_center : string;
  r_units_label : string;
  r_volatile_units : bool;
  r_count : int;
  r_units : int;
  r_wall_us : int;
}

let merged a = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 a

let row_of c =
  {
    r_center = c.a_name;
    r_units_label = c.a_units_label;
    r_volatile_units = c.a_volatile_units;
    r_count = merged c.a_counts;
    r_units = merged c.a_units;
    r_wall_us = merged c.a_wall;
  }

(* Registered-but-uncharged centers are dropped so the table only names
   cost centers the run actually exercised (and stays deterministic
   regardless of which modules happened to register centers). *)
let live r = r.r_count <> 0 || r.r_units <> 0 || r.r_wall_us <> 0

let snapshot () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.fold (fun _ c acc -> row_of c :: acc) registry [])
  |> List.filter live
  |> List.sort (fun a b -> compare a.r_center b.r_center)

(* after - before per center, dropping all-zero deltas; centers absent
   from [before] count as zero there. *)
let diff before after =
  List.filter_map
    (fun r ->
      match List.find_opt (fun b -> b.r_center = r.r_center) before with
      | None -> if live r then Some r else None
      | Some b ->
          let d =
            {
              r with
              r_count = r.r_count - b.r_count;
              r_units = r.r_units - b.r_units;
              r_wall_us = r.r_wall_us - b.r_wall_us;
            }
          in
          if live d then Some d else None)
    after

let reset () =
  Mutex.protect registry_lock (fun () ->
      let zero a = Array.iter (fun cell -> Atomic.set cell 0) a in
      Hashtbl.iter
        (fun _ c ->
          zero c.a_counts;
          zero c.a_units;
          zero c.a_wall)
        registry)

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let charged_cell ~timing r =
  if r.r_units_label = "" then "-"
  else if r.r_volatile_units && not timing then "-"
  else Printf.sprintf "%d %s" r.r_units r.r_units_label

let wall_cell r = Printf.sprintf "%.3fms" (float_of_int r.r_wall_us /. 1000.)

(* [timing:false] is the jobs-invariant projection: the wall column is
   dropped and volatile charged units render as "-". *)
let pp ?(timing = true) ppf rows =
  let cells =
    List.map
      (fun r ->
        let base =
          [ r.r_center; string_of_int r.r_count; charged_cell ~timing r ]
        in
        if timing then base @ [ wall_cell r ] else base)
      rows
  in
  let header =
    if timing then [ "cost center"; "count"; "charged"; "wall" ]
    else [ "cost center"; "count"; "charged" ]
  in
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map String.length header)
      cells
  in
  let render_row row =
    String.concat "  " (List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths row)
  in
  Format.fprintf ppf "@[<v>[attribution]";
  if rows = [] then Format.fprintf ppf "@,  (no cost recorded)"
  else begin
    Format.fprintf ppf "@,  %s" (render_row header);
    List.iter (fun row -> Format.fprintf ppf "@,  %s" (render_row row)) cells
  end;
  Format.fprintf ppf "@]"

let to_string ?timing rows = Format.asprintf "%a" (pp ?timing) rows

(* One flat JSONL object per center — only the invariant projection, so
   an --attribution-out file is byte-identical for every --jobs count. *)
let fields r : (string * Yashme_util.Json.value) list =
  [
    ("center", `S r.r_center);
    ("count", `I r.r_count);
    ("units", if r.r_volatile_units then `Null else `I r.r_units);
    ("units_label", `S r.r_units_label);
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
      Ok
        {
          r_center = center;
          r_units_label = Option.value ~default:"" (str "units_label");
          r_volatile_units = volatile;
          r_count = count;
          r_units = units;
          r_wall_us = 0;
        }
  | _ -> Error "not an attribution row (missing \"center\"/\"count\")"
