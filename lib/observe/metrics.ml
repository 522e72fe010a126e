(* Domain-safe counters and histograms.

   Every cell is an [Atomic.t] sharded by domain id ({!Sharded}):
   concurrent increments from engine workers land on different cells,
   and reads merge the shards (addition commutes, so merged totals are
   identical for any interleaving — and therefore for any --jobs
   count).

   Everything is a no-op behind a single [Atomic.get] branch until
   [enable] is called, and nothing here feeds back into the systems
   being measured: instrumented code behaves identically with metrics
   on or off. *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

type counter = { c_name : string; cells : Sharded.counter }

(* Power-of-two buckets: a value v lands in bucket [bits v], so bucket
   i holds values in [2^(i-1), 2^i). *)
let buckets = 63

type histogram = {
  h_name : string;
  h_counts : int Atomic.t array Sharded.t; (* per-shard bucket counts *)
  h_sums : Sharded.counter; (* per-shard value sums *)
  h_maxes : Sharded.counter; (* per-shard maxima *)
}

type hstats = { count : int; sum : int; max : int }

let registry_lock = Mutex.create ()
let counter_registry : (string, counter) Hashtbl.t = Hashtbl.create 64
let histogram_registry : (string, histogram) Hashtbl.t = Hashtbl.create 16

(* Creation is idempotent: asking twice for one name yields the same
   cells, so instrumentation sites and tests can share counters by
   name alone. *)
let counter name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt counter_registry name with
      | Some c -> c
      | None ->
          let c = { c_name = name; cells = Sharded.counter () } in
          Hashtbl.add counter_registry name c;
          c)

let histogram name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt histogram_registry name with
      | Some h -> h
      | None ->
          let h =
            {
              h_name = name;
              h_counts =
                Sharded.make (fun () -> Array.init buckets (fun _ -> Atomic.make 0));
              h_sums = Sharded.counter ();
              h_maxes = Sharded.counter ();
            }
          in
          Hashtbl.add histogram_registry name h;
          h)

let counter_name c = c.c_name
let histogram_name h = h.h_name

let add c n = if Atomic.get enabled then Sharded.add c.cells n

let incr c = add c 1

let value c = Sharded.sum c.cells

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      b := !b + 1;
      v := !v lsr 1
    done;
    min !b (buckets - 1)
  end

let observe h v =
  if Atomic.get enabled then begin
    ignore (Atomic.fetch_and_add (Sharded.local h.h_counts).(bucket_of v) 1);
    Sharded.add h.h_sums v;
    let cell = Sharded.local h.h_maxes in
    let rec bump () =
      let m = Atomic.get cell in
      if v > m && not (Atomic.compare_and_set cell m v) then bump ()
    in
    bump ()
  end

let hstats h =
  let count =
    Sharded.fold
      (Array.fold_left (fun acc a -> acc + Atomic.get a))
      0 h.h_counts
  in
  let max = Sharded.fold (fun acc a -> Stdlib.max acc (Atomic.get a)) 0 h.h_maxes in
  { count; sum = Sharded.sum h.h_sums; max }

let bucket_counts h =
  Array.init buckets (fun b ->
      Sharded.fold (fun acc cells -> acc + Atomic.get cells.(b)) 0 h.h_counts)

(* Merged view of the whole registry: counters by name, plus #count /
   #sum / #max pseudo-counters per histogram, sorted by name so two
   snapshots of identical work compare equal structurally. *)
let snapshot () =
  Mutex.protect registry_lock (fun () ->
      let cs =
        Hashtbl.fold (fun name c acc -> (name, value c) :: acc) counter_registry []
      in
      let hs =
        Hashtbl.fold
          (fun name h acc ->
            let s = hstats h in
            (name ^ "#count", s.count)
            :: (name ^ "#sum", s.sum)
            :: (name ^ "#max", s.max)
            :: acc)
          histogram_registry []
      in
      List.sort (fun (a, _) (b, _) -> compare a b) (cs @ hs))

(* after - before, dropping zero deltas (names absent from [before]
   count as zero). *)
let diff before after =
  List.filter_map
    (fun (name, v) ->
      let prev = Option.value ~default:0 (List.assoc_opt name before) in
      if v - prev = 0 then None else Some (name, v - prev))
    after

let reset () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.iter (fun _ c -> Sharded.zero c.cells) counter_registry;
      Hashtbl.iter
        (fun _ h ->
          Sharded.iter (Array.iter (fun cell -> Atomic.set cell 0)) h.h_counts;
          Sharded.zero h.h_sums;
          Sharded.zero h.h_maxes)
        histogram_registry)
