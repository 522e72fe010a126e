(* The one telemetry registry.  Every cell holds four {!Sharded}
   columns: concurrent hooks land on different shards and reads merge
   them (sums and maxima commute, so merged values are the same for any
   --jobs count).

   A per-program cell also counts into the ambient (program, variant)
   bucket of the calling domain.  [with_program] resolves that bucket
   once per scenario, so a hook only reads a [Domain.DLS] slot and adds
   to a shard.  Hooks outside any scenario (setup memoization,
   flush-point probes) count in no bucket: those runs happen once on
   the launching domain whatever the job count. *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

type kind =
  | Counter of string option
  | Histogram
  | Center of { units_label : string; volatile_units : bool }
  | Tally
  | Set

type cell = {
  c_name : string;
  c_kind : kind;
  slot : int; (* index into a bucket's slots; -1 = not per-program *)
  c_count : Sharded.counter;
  c_units : Sharded.counter;
  c_wall : Sharded.counter;
  c_max : Sharded.counter;
}

(* A (program, variant) bucket holds one slot per per-program cell.  A
   set is one table under its own lock: sets record per-scenario and
   per-crash events, never per-operation ones. *)
type slot =
  | Count of Sharded.counter
  | Members of { lock : Mutex.t; members : (int, unit) Hashtbl.t }

let lock = Mutex.create ()
let registry : (string, cell) Hashtbl.t = Hashtbl.create 64
let slotted : cell array ref = ref [||] (* per-program cells, by slot *)

(* Registering a per-program cell grows every bucket; growth keeps the
   same slots, so a hook still holding the old array counts into live
   ones. *)
let programs : (string * string, slot array ref) Hashtbl.t = Hashtbl.create 16

let new_slot c =
  if c.c_kind = Set then Members { lock = Mutex.create (); members = Hashtbl.create 8 }
  else Count (Sharded.counter ())

let fill slots =
  let n = Array.length !slots in
  let added = Array.sub !slotted n (Array.length !slotted - n) in
  slots := Array.append !slots (Array.map new_slot added)

let register name kind ~per_program =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let slot = if per_program then Array.length !slotted else -1 in
          let c =
            {
              c_name = name;
              c_kind = kind;
              slot;
              c_count = Sharded.counter ();
              c_units = Sharded.counter ();
              c_wall = Sharded.counter ();
              c_max = Sharded.counter ();
            }
          in
          Hashtbl.add registry name c;
          if per_program then begin
            slotted := Array.append !slotted [| c |];
            Hashtbl.iter (fun _ slots -> fill slots) programs
          end;
          c)

let counter ?center ?(per_program = false) name = register name (Counter center) ~per_program
let histogram name = register name Histogram ~per_program:false

let center ?(units = "") ?(volatile_units = false) ?(per_program = false) name =
  register name (Center { units_label = units; volatile_units }) ~per_program

let tally name = register name Tally ~per_program:true
let set name = register name Set ~per_program:true
let name c = c.c_name

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter
        (fun _ c -> List.iter Sharded.zero [ c.c_count; c.c_units; c.c_wall; c.c_max ])
        registry;
      Hashtbl.reset programs)

(* ------------------------------------------------------------------ *)
(* Program buckets                                                      *)

(* Persistency-model variant label used when the engine supplies none.
   Kept as an opaque string convention (lib/observe must not depend on
   px86); it matches [Px86.Variant.default_label]. *)
let default_variant = "strict-tso"

let ambient : slot array ref option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let program_slots key =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt programs key with
      | Some slots -> slots
      | None ->
          let slots = ref [||] in
          fill slots;
          Hashtbl.add programs key slots;
          slots)

let with_program ?(variant = default_variant) program f =
  if not (Atomic.get enabled) then f ()
  else begin
    let saved = Domain.DLS.get ambient in
    Domain.DLS.set ambient (Some (program_slots (program, variant)));
    Fun.protect ~finally:(fun () -> Domain.DLS.set ambient saved) f
  end

(* ------------------------------------------------------------------ *)
(* Hooks                                                                *)

let count c n =
  Sharded.add c.c_count n;
  if c.slot >= 0 then
    match Domain.DLS.get ambient with
    | Some slots -> (
        match !slots.(c.slot) with Count s -> Sharded.add s n | Members _ -> ())
    | None -> ()

let add c n = if Atomic.get enabled then count c n
let incr c = add c 1

let charge c ~units ~wall_us =
  if Atomic.get enabled then begin
    count c 1;
    if units <> 0 then Sharded.add c.c_units units;
    if wall_us > 0 then Sharded.add c.c_wall wall_us
  end

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let rec raise_max cell v =
  let m = Atomic.get cell in
  if v > m && not (Atomic.compare_and_set cell m v) then raise_max cell v

let observe c v =
  if Atomic.get enabled then begin
    count c 1;
    Sharded.add c.c_units v;
    raise_max (Sharded.local c.c_max) v
  end

let mark c i =
  if Atomic.get enabled then
    match Domain.DLS.get ambient with
    | Some slots -> (
        match !slots.(c.slot) with
        | Members m ->
            Mutex.lock m.lock;
            Hashtbl.replace m.members i ();
            Mutex.unlock m.lock
        | Count _ -> ())
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Reads                                                                *)

type reading = {
  name : string;
  kind : kind;
  count : int;
  units : int;
  wall_us : int;
  max : int;
}

let merged_max c = Sharded.fold (fun m a -> Stdlib.max m (Atomic.get a)) 0 c.c_max

let read c =
  {
    name = c.c_name;
    kind = c.c_kind;
    count = Sharded.sum c.c_count;
    units = Sharded.sum c.c_units;
    wall_us = Sharded.sum c.c_wall;
    max = merged_max c;
  }

let registered () =
  Mutex.protect lock (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) registry [])

let cells () =
  List.sort (fun (a : reading) b -> compare a.name b.name) (List.map read (registered ()))

let since before (r : reading) =
  match List.find_opt (fun (b : reading) -> b.name = r.name) before with
  | None -> r
  | Some b ->
      {
        r with
        count = r.count - b.count;
        units = r.units - b.units;
        wall_us = r.wall_us - b.wall_us;
      }

let changed (r : reading) = r.count <> 0 || r.units <> 0 || r.wall_us <> 0 || r.max <> 0

(* Sums subtract, but a maximum does not: each window restarts the max
   column from zero and merges the enclosing maximum back on close, so
   nested and sequential windows each report their own. *)
let window f =
  let outer = registered () in
  let before = List.map read outer in
  List.iter (fun c -> Sharded.zero c.c_max) outer;
  let restore () =
    List.iter2 (fun c (b : reading) -> raise_max (Sharded.local c.c_max) b.max) outer before
  in
  let v, after = Fun.protect ~finally:restore (fun () -> let v = f () in (v, cells ())) in
  (v, List.filter changed (List.map (since before) after))

type bucket = {
  program : string;
  variant : string;
  counts : (string * int) list;
  sets : (string * int list) list;
}

(* A bucket nothing counted into is dropped: a program is listed once a
   hook has counted for it. *)
let buckets () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold
        (fun (program, variant) slots acc ->
          let counts, sets =
            List.partition_map
              (fun c ->
                match !slots.(c.slot) with
                | Count s -> Left (c.c_name, Sharded.sum s)
                | Members m ->
                    Right
                      ( c.c_name,
                        Mutex.protect m.lock (fun () ->
                            List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) m.members [])) ))
              (Array.to_list !slotted)
          in
          { program; variant; counts; sets } :: acc)
        programs [])
  |> List.filter (fun b ->
         List.exists (fun (_, n) -> n <> 0) b.counts || List.exists (fun (_, m) -> m <> []) b.sets)
  |> List.sort (fun a b -> compare (a.program, a.variant) (b.program, b.variant))

let counters readings =
  List.concat_map
    (fun (r : reading) ->
      match r.kind with
      | Counter _ -> [ (r.name, r.count) ]
      | Histogram ->
          [ (r.name ^ "#count", r.count); (r.name ^ "#max", r.max); (r.name ^ "#sum", r.units) ]
      | Center _ | Tally | Set -> [])
    readings
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot () = counters (cells ())

(* after - before, dropping zero deltas (names absent from [before]
   count as zero). *)
let diff before after =
  List.filter_map
    (fun (name, v) ->
      let prev = Option.value ~default:0 (List.assoc_opt name before) in
      if v - prev = 0 then None else Some (name, v - prev))
    after
