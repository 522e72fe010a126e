(* The machine's hot path against slow reference models, and its
   allocation budgets.

   Each allocation-free structure of the px86 layer (the array-backed
   store buffer, the [Bytes]-accessor memory image, the in-place
   persistence history, the commit-log crash materialization into a
   shared, line-indexed crash state, chained along a run, and the
   lazily materialized thread clocks) is compared on random inputs with
   a list-, byte-loop or hash-table model written the obvious way, and the executor's direct
   dispatch of a one-thread run's operations with its effect dispatch,
   on random programs.  The allocation tests then bound the minor words
   of the hottest operations and of a run's fixed cost, so that a
   per-operation copy -- such as rebuilding a line's store history on
   every load -- fails here instead of hiding in a benchmark. *)

module Clockvec = Yashme_util.Clockvec
module Rng = Yashme_util.Rng
open Px86

let check = Alcotest.(check bool)

let mk_store ?(tid = 0) ~addr ~size value =
  { Event.seq = -1; tid; lclk = 0; cv = Clockvec.empty; addr; size; value;
    access = Access.Plain; nt = false; label = None }

(* ------------------------------------------------------------------ *)
(* Store buffer vs. a list model                                        *)

type sb_action =
  | Push of [ `Store of int * int | `Clwb of int | `Clflush of int | `Sfence ]
  | Take of int  (* which evictable entry, modulo their number *)
  | Forward of int * int  (* addr, size *)

let sb_action_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map (fun e -> Push e)
            (frequency
               [
                 (4, map2 (fun a s -> `Store (a, s)) (int_bound 200) (int_range 1 8));
                 (2, map (fun a -> `Clwb a) (int_bound 200));
                 (1, map (fun a -> `Clflush a) (int_bound 200));
                 (1, return `Sfence);
               ]) );
        (3, map (fun i -> Take i) (int_bound 16));
        (2, map2 (fun a s -> Forward (a, s)) (int_bound 200) (int_range 1 8));
      ])

let sb_entry = function
  | `Store (a, s) -> Store_buffer.Store (mk_store ~addr:a ~size:s 0L)
  | `Clwb a ->
      Store_buffer.Flush
        { Event.fseq = -1; ftid = 0; flclk = 0; fcv = Clockvec.empty; faddr = a;
          kind = Event.Clwb }
  | `Clflush a ->
      Store_buffer.Flush
        { Event.fseq = -1; ftid = 0; flclk = 0; fcv = Clockvec.empty; faddr = a;
          kind = Event.Clflush }
  | `Sfence ->
      Store_buffer.Sfence
        { Event.ktid = 0; klclk = 0; kcv = Clockvec.empty; kkind = Event.Sfence }

let ref_kind = function
  | Store_buffer.Store _ -> Reorder.Write
  | Store_buffer.Flush { Event.kind = Event.Clflush; _ } -> Reorder.Clflush_k
  | Store_buffer.Flush { Event.kind = Event.Clwb; _ } -> Reorder.Clflushopt
  | Store_buffer.Sfence _ -> Reorder.Sfence_k

let ref_line = function
  | Store_buffer.Store s -> Some (Addr.line s.Event.addr)
  | Store_buffer.Flush f -> Some (Addr.line f.Event.faddr)
  | Store_buffer.Sfence _ -> None

(* Table 1, read directly: entry [i] may leave first when no older entry
   is required to precede it. *)
let ref_evictable items =
  List.concat
    (List.mapi
       (fun i e ->
         let older = List.filteri (fun j _ -> j < i) items in
         let free d =
           not
             (Reorder.required ~earlier:(ref_kind d) ~later:(ref_kind e)
                ~same_line:(ref_line d <> None && ref_line d = ref_line e))
         in
         if List.for_all free older then [ i ] else [])
       items)

let ref_forward items ~addr ~size =
  let rec scan = function
    | [] -> Store_buffer.Miss
    | Store_buffer.Store s :: rest ->
        if Event.store_covers s addr size then Store_buffer.Covered s
        else if Event.store_overlaps s addr size then Store_buffer.Partial
        else scan rest
    | _ :: rest -> scan rest
  in
  scan (List.rev items)

let same_forwarding a b =
  match a, b with
  | Store_buffer.Covered s, Store_buffer.Covered s' -> s == s'
  | Store_buffer.Partial, Store_buffer.Partial | Store_buffer.Miss, Store_buffer.Miss -> true
  | _ -> false

let prop_sb_matches_list_model =
  QCheck.Test.make ~name:"store buffer = list model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 60) sb_action_gen))
    (fun actions ->
      let sb = Store_buffer.create () in
      let model = ref [] in
      List.for_all
        (fun action ->
          (match action with
          | Push d ->
              let e = sb_entry d in
              Store_buffer.push sb e;
              model := !model @ [ e ];
              true
          | Take k -> (
              match ref_evictable !model with
              | [] -> true
              | ev ->
                  let i = List.nth ev (k mod List.length ev) in
                  let e = Store_buffer.take sb i in
                  let e' = List.nth !model i in
                  model := List.filteri (fun j _ -> j <> i) !model;
                  e == e')
          | Forward (addr, size) ->
              same_forwarding (Store_buffer.forward sb ~addr ~size)
                (ref_forward !model ~addr ~size))
          && List.length (Store_buffer.entries sb) = List.length !model
          && List.for_all2 ( == ) (Store_buffer.entries sb) !model
          && Store_buffer.evictable sb = ref_evictable !model
          && Store_buffer.length sb = List.length !model)
        actions)

(* ------------------------------------------------------------------ *)
(* Memory image vs. a byte array                                        *)

let ref_size = 12_288

let ref_write mem ~addr ~size ~value =
  for i = 0 to size - 1 do
    Bytes.set mem (addr + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical value (8 * i)) 0xFFL)))
  done

let ref_read mem ~addr ~size =
  let v = ref 0L in
  for i = size - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get mem (addr + i))))
  done;
  !v

let addr_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_bound 300);
        (2, int_range 4080 4100) (* around the initial capacity *);
        (1, int_range 8180 8200);
        (1, int_bound 12_000);
      ])

(* An image and its copy each against their own byte array: a write to
   either must leave the other unchanged, and the footprint must follow
   the nominal doubling rule (4,096 bytes, doubled or raised to the
   write's end when a write passes it) whatever the backing bytes hold. *)
type mi_action = Write of bool * int * int * int64  (* to the copy?, addr, size, value *) | Copy

let mi_action_gen =
  QCheck.Gen.(
    frequency
      [
        (12, map (fun (((c, a), s), v) -> Write (c, a, s, v))
               (pair (pair (pair bool addr_gen) (int_range 1 8)) (map Int64.of_int int)));
        (1, return Copy);
      ])

let prop_memimage_matches_bytes =
  QCheck.Test.make ~name:"memory image = byte-array model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 50) mi_action_gen))
    (fun actions ->
      let side () = (Memimage.create (), Bytes.make ref_size '\000', ref 0, ref 4096) in
      let orig = ref (side ()) and copy = ref (side ()) in
      let reads_match (img, mem, _, _) addr size =
        List.for_all
          (fun (a, s) ->
            a < 0 || a + s > ref_size || Memimage.read img ~addr:a ~size:s = ref_read mem ~addr:a ~size:s)
          [ (addr, size); (addr - 3, 8); (addr + 1, 4); (addr, 2); (addr + 5, 1); (addr - 1, 7) ]
      in
      let shape_matches (img, _, extent, capacity) =
        Memimage.extent img = !extent && Memimage.footprint img = !capacity
      in
      List.for_all
        (function
          | Copy ->
              let img, mem, extent, capacity = !orig in
              copy := (Memimage.copy img, Bytes.copy mem, ref !extent, ref !capacity);
              shape_matches !copy
          | Write (to_copy, addr, size, value) ->
              let ((img, mem, extent, capacity) as target) = if to_copy then !copy else !orig in
              Memimage.write img ~addr ~size ~value;
              ref_write mem ~addr ~size ~value;
              extent := max !extent (addr + size);
              if addr + size > !capacity then capacity := max (addr + size) (2 * !capacity);
              (* Read back at every size around the write, in both images,
                 including past the backing bytes (reads as zero). *)
              reads_match !orig addr size && reads_match !copy addr size && shape_matches target)
        actions
      && List.for_all
           (fun (img, mem, _, _) ->
             List.for_all
               (fun a -> Memimage.read img ~addr:a ~size:1 = ref_read mem ~addr:a ~size:1)
               (List.init ref_size Fun.id))
           [ !orig; !copy ])

(* ------------------------------------------------------------------ *)
(* Persistence history vs. filters over line_stores                     *)

(* A location's candidates written the obvious way: its line's
   covering stores, oldest first, from the newest durable one on. *)
let ref_candidates p ~addr ~size =
  let line = Addr.line addr in
  let cut = Persistence.cut_lb p line in
  List.filter (fun s -> Event.store_covers s addr size) (Persistence.line_stores p line)
  |> List.fold_left
       (fun newest_first (s : Event.store) ->
         if s.Event.seq <= cut || Persistence.is_durable_nt p s then [ s ] else s :: newest_first)
       []
  |> List.rev

let prop_persistence_history =
  QCheck.Test.make ~name:"persistence queries = filters over line_stores" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 40)
           (pair (pair (int_bound 250) (int_range 1 8)) (pair (int_bound 3) (int_bound 50)))))
    (fun ops ->
      let p = Persistence.create () in
      let committed = ref [] and seq = ref 0 in
      List.iter
        (fun ((addr, size), (flush, at)) ->
          incr seq;
          let s = mk_store ~addr ~size (Int64.of_int !seq) in
          s.Event.seq <- !seq;
          Persistence.commit_store p s;
          if !seq mod 5 = 0 then Persistence.mark_durable p s;
          committed := s :: !committed;
          if flush = 0 then Persistence.flush_line p ~line:(Addr.line addr) ~seq:(!seq - at))
        ops;
      let visited = ref [] in
      Persistence.iter_committed p ~from:0 (fun s -> visited := s :: !visited);
      let newest_first line = List.rev (Persistence.line_stores p line) in
      List.length !visited = List.length !committed
      && List.for_all2 ( == ) !visited !committed
      && List.for_all
           (fun addr ->
             List.for_all
               (fun size ->
                 let covering =
                   List.filter
                     (fun s -> Event.store_covers s addr size)
                     (newest_first (Addr.line addr))
                 in
                 let cut = Persistence.cut_lb p (Addr.line addr) in
                 Persistence.newest_covering p ~addr ~size
                 = (match covering with s :: _ -> Some s | [] -> None)
                 && Persistence.latest_at_or_below p ~addr ~size ~cut
                    = List.find_opt
                        (fun (s : Event.store) -> s.Event.seq <= cut || Persistence.is_durable_nt p s)
                        covering
                 && Persistence.candidates p ~addr ~size = ref_candidates p ~addr ~size
                 && Persistence.history p (Addr.line addr) = newest_first (Addr.line addr))
               [ 1; 2; 4; 8 ])
           (List.init 260 Fun.id))

(* Line states kept by line in an array, with far flushed lines aside,
   against a line-keyed table: histories, cuts, the line list, the
   generation and the changed lines, with flushes of lines before, after
   and far past any store to them. *)
type pers_op = Commit of int * int | Flush_line of int * int | Durable | Take

let prop_persistence_lines =
  QCheck.Test.make ~name:"persistence line states = line-keyed table" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 60)
           (frequency
              [
                (4, map2 (fun a n -> Commit (a, n)) (int_bound 1_400) (int_range 1 8));
                ( 2,
                  map2
                    (fun l back -> Flush_line (l, back))
                    (frequency [ (4, int_bound 30); (1, int_range 1_000 1_003) ])
                    (int_bound 5) );
                (1, return Durable);
                (1, return Take);
              ])))
    (fun ops ->
      let p = Persistence.create () in
      let model = Hashtbl.create 16 and bumps = ref 0 and seq = ref 0 and last = ref None in
      let changed = Hashtbl.create 16 and takes_match = ref true in
      let store_lines (s : Event.store) =
        List.init (Addr.line (s.Event.addr + s.Event.size - 1) - Addr.line s.Event.addr + 1)
          (fun i -> Addr.line s.Event.addr + i)
      in
      let take () =
        let expected = List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) changed []) in
        Hashtbl.reset changed;
        List.sort compare (Persistence.take_changed p) = expected
      in
      let state line =
        match Hashtbl.find_opt model line with
        | Some st -> st
        | None ->
            let st = (ref [], ref 0) in
            Hashtbl.add model line st;
            incr bumps;
            st
      in
      List.iter
        (function
          | Commit (addr, size) ->
              incr seq;
              let s = mk_store ~addr ~size (Int64.of_int !seq) in
              s.Event.seq <- !seq;
              Persistence.commit_store p s;
              incr bumps;
              last := Some s;
              List.iter
                (fun line ->
                  let stores, _ = state line in
                  stores := s :: !stores;
                  Hashtbl.replace changed line ())
                (store_lines s)
          | Flush_line (line, back) ->
              Persistence.flush_line p ~line ~seq:(!seq - back);
              let _, cut = state line in
              if !seq - back > !cut then begin
                cut := !seq - back;
                incr bumps;
                Hashtbl.replace changed line ()
              end
          | Durable ->
              Option.iter
                (fun s ->
                  Persistence.mark_durable p s;
                  incr bumps;
                  List.iter (fun line -> Hashtbl.replace changed line ()) (store_lines s))
                !last
          | Take -> takes_match := take () && !takes_match)
        ops;
      let lines = List.sort compare (Hashtbl.fold (fun l _ acc -> l :: acc) model []) in
      Persistence.lines p = lines
      && Persistence.generation p = !bumps
      && !takes_match && take ()
      && List.for_all
           (fun line ->
             let stores, cut =
               match Hashtbl.find_opt model line with
               | Some (stores, cut) -> (!stores, !cut)
               | None -> ([], 0)
             in
             Persistence.history p line = stores && Persistence.cut_lb p line = cut)
           (List.init 40 Fun.id @ [ 1_000; 1_001; 1_002; 1_003; max_int; -1 ]))

(* ------------------------------------------------------------------ *)
(* Crash materialization vs. the per-line replay                        *)

(* The crash state written with hash tables: one writer per byte
   address and one candidate list per (addr, size), each crash copying
   both tables whole. *)
type ref_state = {
  r_image : Memimage.t;
  r_origins : (Addr.t, Crashstate.origin) Hashtbl.t;
  r_cands : (Addr.t * int, Crashstate.origin list) Hashtbl.t;
}

let ref_boot () =
  { r_image = Memimage.create (); r_origins = Hashtbl.create 64; r_cands = Hashtbl.create 64 }

(* Writers rank by execution, then by commit order. *)
let origin_key (o : Crashstate.origin) = (o.Crashstate.exec_id, o.Crashstate.store.Event.seq)

let ref_writers r ~addr ~size =
  List.filter_map (fun i -> Hashtbl.find_opt r.r_origins (addr + i)) (List.init size Fun.id)

let ref_find_origin r ~addr ~size =
  match ref_writers r ~addr ~size with
  | [] -> None
  | w :: ws ->
      let newest = List.fold_left (fun b o -> if origin_key o > origin_key b then o else b) w ws in
      Some
        (newest, List.exists (fun (o : Crashstate.origin) -> o.Crashstate.store != w.Crashstate.store) ws)

let ref_find_candidates r ~addr ~size =
  match Hashtbl.find_opt r.r_cands (addr, size) with
  | Some cs -> cs
  | None ->
      List.fold_left
        (fun acc (o : Crashstate.origin) ->
          if List.exists (fun (x : Crashstate.origin) -> x.Crashstate.store == o.Crashstate.store) acc
          then acc
          else o :: acc)
        [] (ref_writers r ~addr ~size)
      |> List.sort (fun a b -> compare (origin_key a) (origin_key b))

(* The materialization written per line, from the inherited state and
   the whole run, however many times the machine crashed before: each
   line's cut, every store persisted by its first byte's line, replayed
   after a sort by seq, and one candidate set per (addr, size) stored
   to. *)
let ref_crash m ~(inherited : ref_state) ~exec_id ~strategy =
  let pers = Machine.persistence m in
  let lines = Persistence.lines pers in
  let line_cut line =
    let lb = Persistence.cut_lb pers line in
    let later =
      List.filter (fun (s : Event.store) -> s.Event.seq > lb) (Persistence.line_stores pers line)
    in
    match strategy with
    | Machine.Cut_all -> List.fold_left (fun acc (s : Event.store) -> max acc s.Event.seq) lb later
    | Machine.Cut_lowerbound -> lb
    | Machine.Cut_random rng -> Rng.pick rng (lb :: List.map (fun (s : Event.store) -> s.Event.seq) later)
  in
  let cuts = List.map (fun line -> (line, line_cut line)) lines in
  let image = Memimage.copy inherited.r_image in
  let origins = Hashtbl.copy inherited.r_origins in
  let cands = Hashtbl.copy inherited.r_cands in
  let mine line =
    List.filter
      (fun (s : Event.store) -> Addr.line s.Event.addr = line)
      (Persistence.line_stores pers line)
  in
  List.concat_map
    (fun line ->
      List.filter
        (fun (s : Event.store) ->
          s.Event.seq <= List.assoc line cuts || Persistence.is_durable_nt pers s)
        (mine line))
    lines
  |> List.sort (fun (a : Event.store) b -> compare a.Event.seq b.Event.seq)
  |> List.iter (fun (s : Event.store) ->
         Memimage.write image ~addr:s.Event.addr ~size:s.Event.size ~value:s.Event.value;
         for i = 0 to s.Event.size - 1 do
           Hashtbl.replace origins (s.Event.addr + i) { Crashstate.store = s; exec_id }
         done);
  List.iter
    (fun line ->
      List.iter
        (fun (s : Event.store) ->
          let addr = s.Event.addr and size = s.Event.size in
          let this_exec =
            List.map (fun s -> { Crashstate.store = s; exec_id }) (ref_candidates pers ~addr ~size)
          in
          let base =
            Persistence.latest_at_or_below pers ~addr ~size ~cut:(Persistence.cut_lb pers line)
          in
          Hashtbl.replace cands (addr, size)
            (if base <> None then this_exec
             else ref_find_candidates inherited ~addr ~size @ this_exec))
        (mine line))
    lines;
  { r_image = image; r_origins = origins; r_cands = cands }

(* Every address a program below can touch, at every load size. *)
let queries = List.concat_map (fun addr -> List.map (fun size -> (addr, size)) [ 1; 2; 4; 8 ]) (List.init 330 Fun.id)

let answers find_origin find_candidates =
  List.map
    (fun (addr, size) ->
      ( Option.map (fun (o, torn) -> (origin_key o, torn)) (find_origin ~addr ~size),
        List.map origin_key (find_candidates ~addr ~size) ))
    queries

(* What a state shows through its read-only interface: its writers and
   candidate keys by fold, and every load's origin and candidates. *)
let view (cs : Crashstate.t) =
  ( Crashstate.fold_origins (fun a o acc -> (a, origin_key o) :: acc) cs [],
    Crashstate.fold_candidates (fun ~addr ~size cs acc -> ((addr, size), List.map origin_key cs) :: acc) cs [],
    answers (Crashstate.find_origin cs) (Crashstate.find_candidates cs) )

let sorted_bindings tbl f =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])

let same_state r (cs : Crashstate.t) =
  let origins, cands, loads = view cs in
  let n = max (Memimage.extent r.r_image) (Memimage.extent cs.Crashstate.image) in
  Memimage.extent r.r_image = Memimage.extent cs.Crashstate.image
  && List.for_all
       (fun a -> Memimage.read r.r_image ~addr:a ~size:1 = Memimage.read cs.Crashstate.image ~addr:a ~size:1)
       (List.init n Fun.id)
  && sorted_bindings r.r_origins origin_key = List.sort compare origins
  && sorted_bindings r.r_cands (List.map origin_key) = List.sort compare cands
  && answers (ref_find_origin r) (ref_find_candidates r) = loads
  && Crashstate.copy_cost cs
     = Memimage.footprint r.r_image + (16 * (Hashtbl.length r.r_origins + Hashtbl.length r.r_cands))

type mop =
  | St of int * int * int * bool  (* tid, slot, size, release *)
  | Nt of int * int * int  (* tid, slot, size: a movnt store *)
  | Ld of int * int * bool  (* tid, slot, acquire *)
  | Clwb of int * int
  | Clflush of int * int
  | Sfence of int
  | Mfence of int
  | Cas of int * int

(* Slots of 6 bytes straddle cache lines now and then. *)
let slot_addr slot = 64 + (slot * 6)

let mop_gen =
  QCheck.Gen.(
    let tid = int_bound 2 and slot = int_bound 40 in
    frequency
      [
        (5, map (fun (((t, s), sz), r) -> St (t, s, sz, r))
             (pair (pair (pair tid slot) (oneofl [ 1; 2; 4; 8 ])) (map (fun n -> n = 0) (int_bound 4))));
        (1, map (fun ((t, s), sz) -> Nt (t, s, sz)) (pair (pair tid slot) (oneofl [ 4; 8 ])));
        (4, map (fun ((t, s), a) -> Ld (t, s, a)) (pair (pair tid slot) bool));
        (2, map2 (fun t s -> Clwb (t, s)) tid slot);
        (1, map2 (fun t s -> Clflush (t, s)) tid slot);
        (1, map (fun t -> Sfence t) tid);
        (1, map (fun t -> Mfence t) tid);
        (1, map2 (fun t s -> Cas (t, s)) tid slot);
      ])

let run_mop m i op =
  (match op with
  | St (tid, slot, size, release) ->
      Machine.store m ~tid ~addr:(slot_addr slot) ~size ~value:(Int64.of_int (i + 1))
        ~access:(if release then Access.Atomic Access.Release else Access.Plain)
        ~label:None
  | Nt (tid, slot, size) ->
      Machine.store ~nt:true m ~tid ~addr:(slot_addr slot) ~size ~value:(Int64.of_int (i + 1))
        ~access:Access.Plain ~label:None
  | Ld (tid, slot, acquire) ->
      ignore
        (Machine.load m ~tid ~addr:(slot_addr slot) ~size:8
           ~access:(if acquire then Access.Atomic Access.Acquire else Access.Plain))
  | Clwb (tid, slot) -> Machine.clwb m ~tid ~addr:(slot_addr slot)
  | Clflush (tid, slot) -> Machine.clflush m ~tid ~addr:(slot_addr slot)
  | Sfence tid -> Machine.sfence m ~tid
  | Mfence tid -> Machine.mfence m ~tid
  | Cas (tid, slot) ->
      ignore
        (Machine.cas m ~tid ~addr:(slot_addr slot) ~size:8 ~expected:0L
           ~desired:(Int64.of_int (i + 1)) ~label:None));
  Machine.background m

let strategy_of k seed =
  match k with
  | 0 -> Machine.Cut_all
  | 1 -> Machine.Cut_lowerbound
  | _ -> Machine.Cut_random (Rng.create seed)

(* Copy a strategy so the reference and the machine draw the same cuts. *)
let copy_strategy = function
  | Machine.Cut_random rng -> Machine.Cut_random (Rng.copy rng)
  | s -> s

(* Three programs, a seed, a first cut strategy and a variant: the links
   of a crash chain boot -> 1 -> 2 -> 3. *)
let chain_arb =
  QCheck.make
    QCheck.Gen.(
      pair
        (triple (list_size (int_bound 40) mop_gen) (list_size (int_bound 40) mop_gen)
           (list_size (int_bound 40) mop_gen))
        (triple (int_bound 10_000) (int_bound 2) (int_bound (List.length Variant.builtins - 1))))

let chain_machine ~seed ~v ?inherited exec_id =
  let _, variant, _ = List.nth Variant.builtins v in
  Machine.create ?inherited ~exec_id
    { Machine.sb_policy = Machine.Random_drain 0.4; variant; rng = Rng.create (seed + exec_id);
      observer = Observer.nop }

(* Each link runs its program from the previous link's state and
   crashes its machine before every [step]-th op and after the last,
   [step] 4..11.  Every other link crashes under its own strategy each
   time; the rest rotate through all three, so [Cut_lowerbound] and
   [Cut_random] crashes fall between the [Cut_all] crashes of one
   machine.  [crash j] makes the [j]-th crash. *)
let run_crashing ~seed ~k exec_id m mops crash =
  let step = 4 + ((seed + exec_id) mod 8) and j = ref 0 in
  let crash_next () =
    let turn = if (seed + exec_id) land 1 = 0 then 0 else !j in
    crash (strategy_of ((k + exec_id + turn) mod 3) (seed + exec_id + !j));
    incr j
  in
  List.iteri
    (fun i op ->
      if i > 0 && i mod step = 0 then crash_next ();
      run_mop m i op)
    mops;
  crash_next ()

let prop_crash_matches_reference =
  QCheck.Test.make
    ~name:"crash materialization = per-line replay, several crashes per link of 3-state chains"
    ~count:150 chain_arb
    (fun ((p1, p2, p3), (seed, k, v)) ->
      let link (ok, cs, r) (exec_id, mops) =
        let m = chain_machine ~seed ~v ~inherited:cs exec_id in
        let ok = ref ok and last = ref (cs, r) in
        run_crashing ~seed ~k exec_id m mops (fun strategy ->
            let expected = ref_crash m ~inherited:r ~exec_id ~strategy:(copy_strategy strategy) in
            let crashed = Machine.crash m ~strategy in
            ok := !ok && same_state expected crashed;
            last := (crashed, expected));
        (* a clean shutdown drains and flushes, then persists every line *)
        let shut = Machine.shutdown m in
        let crashed, expected = !last in
        (!ok && same_state (ref_crash m ~inherited:r ~exec_id ~strategy:Machine.Cut_all) shut,
         crashed, expected)
      in
      let ok, _, _ =
        List.fold_left link (true, Crashstate.boot (), ref_boot ()) [ (1, p1); (2, p2); (3, p3) ]
      in
      ok)

(* A derived state shares its parent's index, and a later crash of one
   machine extends its earlier crash's state, so no crash may write
   what an earlier state, of its own machine or an ancestor, can still
   read. *)
let prop_derive_leaves_ancestors =
  QCheck.Test.make ~name:"deriving a state leaves its ancestors' answers unchanged" ~count:150
    chain_arb
    (fun ((p1, p2, p3), (seed, k, v)) ->
      (* every state returned so far, with its view when returned *)
      let states = ref [] in
      let keep cs = states := (cs, view cs) :: !states in
      let link inherited (exec_id, mops) =
        let m = chain_machine ~seed ~v ~inherited exec_id in
        let last = ref inherited in
        run_crashing ~seed ~k exec_id m mops (fun strategy ->
            let cs = Machine.crash m ~strategy in
            keep cs;
            last := cs);
        keep (Machine.shutdown m);
        !last
      in
      ignore (List.fold_left link (Crashstate.boot ()) [ (1, p1); (2, p2); (3, p3) ]);
      List.for_all (fun (cs, seen) -> view cs = seen) !states)

(* ------------------------------------------------------------------ *)
(* Lazy thread clocks vs. eager ticking                                 *)

(* The clock every instruction would carry if each tick rebuilt the
   vector: the machine must record exactly these, however lazily. *)
let prop_lazy_clocks =
  QCheck.Test.make ~name:"lazy thread clocks = eager ticking" ~count:200
    (QCheck.make QCheck.Gen.(pair (list_size (int_bound 60) mop_gen) (int_bound 10_000)))
    (fun (mops, seed) ->
      let recorded = ref [] in
      let observer =
        { Observer.nop with
          Observer.on_store_commit = (fun s -> recorded := (s.Event.tid, s.Event.lclk, s.Event.cv) :: !recorded) }
      in
      let m =
        Machine.create ~exec_id:1
          { Machine.sb_policy = Machine.Random_drain 0.5; variant = Variant.strict_tso;
            rng = Rng.create seed; observer }
      in
      let cvs = Array.make 3 Clockvec.empty and clks = Array.make 3 0 in
      let issued = Hashtbl.create 16 in
      let tick tid =
        clks.(tid) <- clks.(tid) + 1;
        cvs.(tid) <- Clockvec.set cvs.(tid) tid clks.(tid)
      in
      let acquire tid = function
        | Machine.From_cache s when Access.is_release s.Event.access ->
            cvs.(tid) <- Clockvec.join cvs.(tid) s.Event.cv
        | _ -> ()
      in
      let ok = ref true in
      List.iteri
        (fun i op ->
          (match op with
          | St (tid, slot, size, release) ->
              tick tid;
              Hashtbl.replace issued (tid, clks.(tid)) cvs.(tid);
              Machine.store m ~tid ~addr:(slot_addr slot) ~size ~value:(Int64.of_int (i + 1))
                ~access:(if release then Access.Atomic Access.Release else Access.Plain)
                ~label:None
          | Nt (tid, slot, size) ->
              tick tid;
              Hashtbl.replace issued (tid, clks.(tid)) cvs.(tid);
              Machine.store ~nt:true m ~tid ~addr:(slot_addr slot) ~size
                ~value:(Int64.of_int (i + 1)) ~access:Access.Plain ~label:None
          | Ld (tid, slot, acq) ->
              tick tid;
              let _, source =
                Machine.load m ~tid ~addr:(slot_addr slot) ~size:8
                  ~access:(if acq then Access.Atomic Access.Acquire else Access.Plain)
              in
              if acq then acquire tid source
          | Clwb (tid, slot) -> tick tid; Machine.clwb m ~tid ~addr:(slot_addr slot)
          | Clflush (tid, slot) -> tick tid; Machine.clflush m ~tid ~addr:(slot_addr slot)
          | Sfence tid -> tick tid; Machine.sfence m ~tid
          | Mfence tid -> tick tid; Machine.mfence m ~tid
          | Cas (tid, slot) ->
              tick tid;
              let swapped, _, source =
                Machine.cas m ~tid ~addr:(slot_addr slot) ~size:8 ~expected:0L
                  ~desired:(Int64.of_int (i + 1)) ~label:None
              in
              acquire tid source;
              if swapped then begin
                tick tid;
                Hashtbl.replace issued (tid, clks.(tid)) cvs.(tid)
              end);
          Machine.background m;
          List.iter
            (fun tid ->
              if not (Clockvec.equal (Machine.thread_cv m ~tid) cvs.(tid)) then ok := false)
            [ 0; 1; 2 ])
        mops;
      !ok
      && List.for_all
           (fun (tid, lclk, cv) -> Clockvec.equal cv (Hashtbl.find issued (tid, lclk)))
           !recorded)

(* ------------------------------------------------------------------ *)
(* Direct dispatch vs. effect dispatch                                  *)

module Executor = Pm_runtime.Executor
module Pmem = Pm_runtime.Pmem

(* A program of one thread; [P_spawn] bodies run in their own thread,
   joined when the spawning program ends. *)
type pop =
  | P_load of int * bool  (* slot, acquire *)
  | P_store of int * int * int * int64  (* slot, size, 0 plain / 1 release / 2 movnt, value *)
  | P_cas of int
  | P_flush of int * bool  (* slot, clflush (else clwb) *)
  | P_fence of bool  (* mfence (else sfence) *)
  | P_alloc of int
  | P_validating of pop list
  | P_my_tid
  | P_yield
  | P_crash_now
  | P_raise  (* [Pmem.alloc 0] raises Invalid_argument *)
  | P_catch of pop list  (* the body under a handler for Invalid_argument *)
  | P_spawn of pop list

let rec pp_pop = function
  | P_load (s, a) -> Printf.sprintf "load %d%s" s (if a then " acq" else "")
  | P_store (s, z, k, v) -> Printf.sprintf "store%s %d/%d=%Ld" [| ""; " rel"; " nt" |].(k) s z v
  | P_cas s -> Printf.sprintf "cas %d" s
  | P_flush (s, c) -> Printf.sprintf "%s %d" (if c then "clflush" else "clwb") s
  | P_fence m -> if m then "mfence" else "sfence"
  | P_alloc n -> Printf.sprintf "alloc %d" n
  | P_validating b -> "validating [" ^ pp_pops b ^ "]"
  | P_my_tid -> "my_tid"
  | P_yield -> "yield"
  | P_crash_now -> "crash_now"
  | P_raise -> "raise"
  | P_catch b -> "catch [" ^ pp_pops b ^ "]"
  | P_spawn b -> "spawn [" ^ pp_pops b ^ "]"

and pp_pops ops = String.concat "; " (List.map pp_pop ops)

let rec pops_gen depth =
  QCheck.Gen.(
    let slot = int_bound 23 in
    let nested k f = (k, map f (pops_gen (depth - 1))) in
    list_size (int_bound (if depth = 2 then 24 else 6))
      (frequency
         ([
            (16, map2 (fun s a -> P_load (s, a)) slot bool);
            ( 14,
              map (fun (((s, z), k), v) -> P_store (s, z, k, Int64.of_int v))
                (pair (pair (pair slot (oneofl [ 1; 2; 4; 8 ])) (int_bound 2)) (int_bound 1000)) );
            (2, map (fun s -> P_cas s) slot);
            (6, map2 (fun s c -> P_flush (s, c)) slot bool);
            (6, map (fun m -> P_fence m) bool);
            (2, map (fun n -> P_alloc n) (int_range 1 40));
            (2, return P_my_tid);
            (2, return P_yield);
            (1, return P_crash_now);
            (1, return P_raise);
          ]
         @ (if depth > 0 then [ nested 2 (fun b -> P_validating b); nested 2 (fun b -> P_catch b) ]
            else [])
         @ if depth = 2 then [ nested 3 (fun b -> P_spawn b) ] else [])))

let dslot_addr slot = 64 + (slot * 8)

(* Runs a program, logging what it observes.  The effect side clears the
   domain's dispatch slot first, so every operation performs its effect
   and the scheduler loop takes it, as before direct dispatch. *)
let rec interp ~log ~spawned ops =
  List.iter
    (function
      | P_load (s, acq) ->
          let atomic = if acq then Some Access.Acquire else None in
          log (Int64.to_string (Pmem.load ?atomic (dslot_addr s)))
      | P_store (s, size, k, v) ->
          let label = Printf.sprintf "s%d" s in
          if k = 0 then Pmem.store ~label ~size (dslot_addr s) v
          else if k = 1 then Pmem.store ~label ~size ~atomic:Access.Release (dslot_addr s) v
          else Pmem.store ~label ~size ~nt:true (dslot_addr s) v
      | P_cas s -> log (string_of_bool (Pmem.cas (dslot_addr s) ~expected:0L ~desired:7L))
      | P_flush (s, c) -> if c then Pmem.clflush (dslot_addr s) else Pmem.clwb (dslot_addr s)
      | P_fence m -> if m then Pmem.mfence () else Pmem.sfence ()
      | P_alloc n -> log (string_of_int (Pmem.alloc n))
      | P_validating b -> Pmem.validating (fun () -> interp ~log ~spawned b)
      | P_my_tid -> log ("tid " ^ string_of_int (Pmem.my_tid ()))
      | P_yield -> Pmem.yield ()
      | P_crash_now -> Pmem.crash_now ()
      | P_raise -> ignore (Pmem.alloc 0)
      | P_catch b -> (
          try interp ~log ~spawned b with Invalid_argument m -> log ("caught " ^ m))
      | P_spawn b ->
          let tid = Pmem.spawn (fun () -> interp ~log ~spawned b) in
          spawned := tid :: !spawned;
          log ("spawned " ^ string_of_int tid))
    ops

let program ~effects ~log ops () =
  if effects then Domain.DLS.set Pmem.current None;
  let spawned = ref [] in
  interp ~log ~spawned ops;
  List.iter Pmem.join (List.rev !spawned)

let show_state (cs : Crashstate.t) =
  let img = cs.Crashstate.image in
  Printf.sprintf "exec %d break %d image [%s] origins [%s] candidates [%s]" cs.Crashstate.exec_id
    cs.Crashstate.heap_break
    (String.init (Memimage.extent img) (fun a ->
         Char.chr (Int64.to_int (Memimage.read img ~addr:a ~size:1))))
    (String.concat ","
       (Crashstate.fold_origins
          (fun a o acc ->
            Printf.sprintf "%d:%d.%d" a o.Crashstate.exec_id o.Crashstate.store.Event.seq :: acc)
          cs []))
    (String.concat ","
       (Crashstate.fold_candidates
          (fun ~addr ~size os acc ->
            Printf.sprintf "%d/%d:%s" addr size
              (String.concat "+"
                 (List.map
                    (fun (o : Crashstate.origin) ->
                      Printf.sprintf "%d.%d" o.Crashstate.exec_id o.Crashstate.store.Event.seq)
                    os))
            :: acc)
          cs []))

let show_result (r : Executor.result) =
  Printf.sprintf "%s ops %d flush points %d crashed at %s; %s"
    (Executor.outcome_label r.Executor.outcome)
    r.Executor.ops r.Executor.flush_points
    (match r.Executor.crashed_at_op with Some n -> string_of_int n | None -> "-")
    (show_state r.Executor.state)

exception Hook_escape of int

type dcfg = {
  random_sched : bool;
  random_drain : bool;
  plan : int * int;  (* kind, index *)
  max_ops : int option;
  dseed : int;
  cut : int;
  hook : bool;
  hook_raise : int option;  (* the flush point whose offer raises *)
}

let pp_dcfg c =
  Printf.sprintf "sched %s drain %s plan %d/%d max_ops %s seed %d cut %d hook %b raise %s"
    (if c.random_sched then "random" else "rr")
    (if c.random_drain then "random" else "eager")
    (fst c.plan) (snd c.plan)
    (match c.max_ops with Some n -> string_of_int n | None -> "-")
    c.dseed c.cut c.hook
    (match c.hook_raise with Some n -> string_of_int n | None -> "-")

let dcfg_gen =
  QCheck.Gen.(
    map
      (fun ((rs, rd, (pk, pn)), (mo, seed, cut), (hook, hr)) ->
        {
          random_sched = rs;
          random_drain = rd;
          plan = (pk, pn);
          max_ops = mo;
          dseed = seed;
          cut;
          hook;
          hook_raise = hr;
        })
      (triple
         (triple bool bool (pair (int_bound 3) (int_bound 25)))
         (triple (opt (int_range 1 40)) (int_bound 10_000) (int_bound 2))
         (pair (frequency [ (1, return false); (3, return true) ]) (opt (int_bound 12)))))

(* A pre-crash run and a recovery from its state, both with one
   detector, and at every offered flush point the [at_flush_point]
   hook: it logs the offer, materializes every other crash state and
   recovers from it in a nested run, whose failures it catches. *)
let dispatch_run ~effects cfg (pre, post) =
  let lines = ref [] in
  let log l = lines := l :: !lines in
  let d = Yashme.Detector.create () in
  let plan =
    match cfg.plan with
    | 0, _ -> Executor.Run_to_end
    | 1, _ -> Executor.Crash_at_end
    | 2, n -> Executor.Crash_before_op n
    | _, n -> Executor.Crash_before_flush n
  in
  let cut () =
    match cfg.cut with
    | 0 -> Machine.Cut_all
    | 1 -> Machine.Cut_lowerbound
    | _ -> Machine.Cut_random (Rng.create cfg.dseed)
  in
  let hook exec_id n ~key:(generation, break) ~ops crash =
    log (Printf.sprintf "offer %d key %d,%d ops %d" n generation break ops);
    if cfg.hook_raise = Some n then raise (Hook_escape n);
    if n mod 2 = 0 then begin
      let r = crash () in
      log ("materialized " ^ show_result r);
      let recovery () =
        List.iter (fun s -> log (Int64.to_string (Pmem.load (dslot_addr s)))) [ 0; 3; 9 ];
        if n mod 3 = 0 then failwith "recovery fault";
        Pmem.store ~label:"r" (dslot_addr 1) 5L;
        Pmem.clflush (dslot_addr 1)
      in
      match
        Executor.run ~inherited:r.Executor.state ~exec_id:(exec_id + 1)
          ~plan:(if n mod 4 = 0 then Executor.Crash_before_op 2 else Executor.Run_to_end)
          (fun () ->
            if effects then Domain.DLS.set Pmem.current None;
            recovery ())
      with
      | r -> log ("nested " ^ show_result r)
      | exception Failure m -> log ("nested raised " ^ m)
    end
  in
  let phase ?inherited exec_id ops =
    let r =
      Executor.run ~detector:d ?inherited ~plan
        ~sb_policy:(if cfg.random_drain then Machine.Random_drain 0.5 else Machine.Eager)
        ~cut:(cut ())
        ~sched:(if cfg.random_sched then Executor.Random_sched else Executor.Round_robin)
        ~seed:cfg.dseed ?max_ops:cfg.max_ops
        ?at_flush_point:(if cfg.hook then Some (hook exec_id) else None)
        ~exec_id (program ~effects ~log ops)
    in
    log ("result " ^ show_result r);
    r
  in
  (match phase ~inherited:(phase 1 pre).Executor.state 2 post with
  | _ -> ()
  | exception e -> log ("raised " ^ Printexc.to_string e));
  (match Domain.DLS.get Pmem.current with
  | None -> ()
  | Some _ -> log "dispatch slot left set");
  List.iter (fun race -> log ("race " ^ Yashme.Race.to_string race)) (Yashme.Detector.races d);
  List.rev !lines

let prop_direct_dispatch =
  QCheck.Test.make ~name:"direct dispatch = effect dispatch" ~count:400
    (QCheck.make
       ~print:(fun (c, (pre, post)) ->
         Printf.sprintf "%s\npre: %s\npost: %s" (pp_dcfg c) (pp_pops pre) (pp_pops post))
       QCheck.Gen.(pair dcfg_gen (pair (pops_gen 2) (pops_gen 2))))
    (fun (cfg, progs) ->
      let direct = dispatch_run ~effects:false cfg progs in
      let effect = dispatch_run ~effects:true cfg progs in
      direct = effect
      || QCheck.Test.fail_reportf "direct:\n%s\n\neffect:\n%s" (String.concat "\n" direct)
           (String.concat "\n" effect))

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                   *)

module Detector = Yashme.Detector

(* Minor words per call of [f], after one warm-up call. *)
let words_per ?(n = 20_000) f =
  f 0;
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. w0) /. float n

let check_budget name ~max words =
  if words > max then Alcotest.failf "%s: %.2f minor words per op, budget %.2f" name words max

let eager () =
  Machine.create ~exec_id:1
    { Machine.sb_policy = Machine.Eager; variant = Variant.strict_tso; rng = Rng.create 1;
      observer = Observer.nop }

let test_store_buffer_allocates_nothing () =
  let sb = Store_buffer.create () in
  let e = Store_buffer.Store (mk_store ~addr:0 ~size:8 1L) in
  check_budget "push/take" ~max:0.01
    (words_per (fun _ ->
         Store_buffer.push sb e;
         Store_buffer.push sb e;
         ignore (Store_buffer.take sb 0);
         ignore (Store_buffer.take sb 0)));
  Store_buffer.push sb e;
  check_budget "forward miss" ~max:0.01
    (words_per (fun _ -> ignore (Sys.opaque_identity (Store_buffer.forward sb ~addr:64 ~size:8))))

let test_rng_draw_allocates_nothing () =
  let rng = Rng.create 3 in
  check_budget "Rng.int" ~max:0.01 (words_per (fun _ -> ignore (Sys.opaque_identity (Rng.int rng 7))));
  check_budget "Rng.chance" ~max:0.01
    (words_per (fun _ -> ignore (Sys.opaque_identity (Rng.chance rng 0.5))))

let test_memimage_budget () =
  let img = Memimage.create () in
  let v = Sys.opaque_identity 0x1122334455667788L in
  check_budget "write" ~max:0.01 (words_per (fun i -> Memimage.write img ~addr:(i land 255) ~size:8 ~value:v));
  (* a read boxes its int64 result, nothing else *)
  check_budget "read" ~max:3.01
    (words_per (fun i -> ignore (Sys.opaque_identity (Memimage.read img ~addr:(i land 255) ~size:4))))

(* A load's cost must not depend on how many stores its line has seen:
   the machine scans the history in place instead of copying it. *)
let test_load_independent_of_history () =
  let load_words history =
    let m = eager () in
    for i = 1 to history do
      Machine.store m ~tid:0 ~addr:(64 + (i mod 8 * 8)) ~size:8 ~value:(Int64.of_int i)
        ~access:Access.Plain ~label:None;
      Machine.background m
    done;
    words_per (fun _ ->
        ignore (Sys.opaque_identity (Machine.load m ~tid:0 ~addr:64 ~size:8 ~access:Access.Plain)))
  in
  let short = load_words 8 and long = load_words 4000 in
  check_budget "load, 8-store line" ~max:12. short;
  check_budget "load, 4000-store line" ~max:short long

let test_store_budget () =
  let m = eager () in
  check_budget "store + eager drain" ~max:32.
    (words_per (fun i ->
         Machine.store m ~tid:0 ~addr:(64 + (i land 7 * 8)) ~size:8 ~value:1L ~access:Access.Plain
           ~label:None;
         Machine.background m))

(* A shut-down state with [bytes] written bytes: [bytes / 4] four-byte
   stores from line 1 on. *)
let inherited_with bytes =
  let m = eager () in
  for i = 0 to (bytes / 4) - 1 do
    Machine.store m ~tid:0 ~addr:(64 + (4 * i)) ~size:4 ~value:(Int64.of_int i)
      ~access:Access.Plain ~label:None;
    Machine.background m
  done;
  Machine.shutdown m

let from_inherited cs =
  Machine.create ~inherited:cs ~exec_id:2
    { Machine.sb_policy = Machine.Eager; variant = Variant.strict_tso; rng = Rng.create 1;
      observer = Observer.nop }

(* A load of never-written memory probes one line and allocates
   nothing, whether or not the line holds other writers. *)
let test_origin_miss_allocates_nothing () =
  let cs = inherited_with 100 in
  check_budget "find_origin, absent line" ~max:0.01
    (words_per (fun i -> ignore (Sys.opaque_identity (Crashstate.find_origin cs ~addr:(4096 + (i land 63)) ~size:8))));
  check_budget "find_origin, unwritten bytes of a written line" ~max:0.01
    (words_per (fun _ -> ignore (Sys.opaque_identity (Crashstate.find_origin cs ~addr:168 ~size:8))))

(* A load of inherited memory costs the same however much the state
   holds.  The machine looks nothing up for it: 6 words, the result.
   Looked up, as a run that can check the answer does, a line probe and
   a key probe, no table walk and no tuple key: 14 words, the origin
   answer too. *)
let test_inherited_load_independent_of_state () =
  let load_words ~lookup bytes =
    let cs = inherited_with bytes in
    let m = from_inherited cs in
    words_per (fun _ ->
        ignore (Sys.opaque_identity (Machine.load m ~tid:0 ~addr:68 ~size:4 ~access:Access.Plain));
        if lookup then begin
          ignore (Sys.opaque_identity (Crashstate.find_origin cs ~addr:68 ~size:4));
          ignore (Sys.opaque_identity (Crashstate.find_candidates cs ~addr:68 ~size:4))
        end)
  in
  check_budget "inherited load, no lookup" ~max:6. (load_words ~lookup:false 100);
  let small = load_words ~lookup:true 100 and large = load_words ~lookup:true 10_000 in
  check_budget "inherited load, 100 written bytes" ~max:14. small;
  check_budget "inherited load, 10,000 written bytes" ~max:small large

(* Minor words per [Pmem.load] of [addr] in a run on [cs]. *)
let run_load_words ?detector cs ~addr =
  let n = 20_000 and words = ref 0. in
  ignore
    (Executor.run ?detector ~inherited:cs ~exec_id:(cs.Crashstate.exec_id + 1) (fun () ->
         ignore (Pmem.load ~size:4 addr);
         let w0 = Gc.minor_words () in
         for _ = 1 to n do
           ignore (Sys.opaque_identity (Pmem.load ~size:4 addr))
         done;
         words := (Gc.minor_words () -. w0) /. float n));
  !words

(* A run whose detector holds no record of the inherited state's
   writers, and does not log, cannot use a load's origin: its load of
   inherited memory costs what a detector-free run's does, which looks
   nothing up.  Logging, the run looks every origin up. *)
let test_unchecked_inherited_load () =
  let cs = inherited_with 100 in
  let d = Detector.create () in
  check_budget "inherited load, run that cannot check it"
    ~max:(run_load_words cs ~addr:68 +. 0.01)
    (run_load_words ~detector:d cs ~addr:68);
  Detector.log_calls d;
  ignore (run_load_words ~detector:d cs ~addr:68);
  check "a logging run looks every load up" true
    (Detector.log_length (Detector.logged d) = 20_001)

(* A machine's first crash copies the line arrays its run persisted
   into and adds the keys its run stored to; what it inherited is
   shared.  Only the index maps' logarithmic path copies grow with the
   inherited state.  Each crash is a fresh machine's first: a later one
   would extend the earlier crash's state instead. *)
let test_crash_independent_of_inherited () =
  let crash_words bytes =
    let cs = inherited_with bytes in
    let machines =
      Array.init 200 (fun _ ->
          let m = from_inherited cs in
          for i = 0 to 7 do
            Machine.store m ~tid:0 ~addr:(64 + (8 * i)) ~size:8 ~value:7L ~access:Access.Plain
              ~label:None;
            Machine.background m
          done;
          m)
    in
    words_per ~n:199 (fun i ->
        ignore (Sys.opaque_identity (Machine.crash machines.(i) ~strategy:Machine.Cut_all)))
  in
  let small = crash_words 100 in
  check_budget "crash, 10,000 inherited written bytes" ~max:(1.5 *. small) (crash_words 10_000)

(* A crash extends its machine's previous crash state by what changed
   since, so the crash after the 2,000th store and flush of one line
   costs what the crash after the 20th does. *)
let test_crash_independent_of_run_length () =
  let last_crash_words flushes =
    let m = eager () and words = ref 0. in
    for i = 1 to flushes do
      Machine.store m ~tid:0 ~addr:(64 + (8 * (i land 7))) ~size:8 ~value:(Int64.of_int i)
        ~access:Access.Plain ~label:None;
      Machine.clflush m ~tid:0 ~addr:64;
      Machine.background m;
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (Machine.crash m ~strategy:Machine.Cut_all));
      words := Gc.minor_words () -. w0
    done;
    !words
  in
  let short = last_crash_words 20 in
  check_budget "crash after 2,000 flushes" ~max:(1.5 *. short) (last_crash_words 2_000)

(* [n] [Pmem.my_tid] calls in thread 0, after [prefix ()], under a fuel
   budget of [max_ops]: the minor words per call, and whether the loop
   finished.  A call costs one unit of fuel, so a budget that cannot
   cover the loop proves the calls went through the executor. *)
let my_tid_loop ~prefix ~max_ops n =
  let words = ref 0. and finished = ref false in
  let r =
    Executor.run ~max_ops ~exec_id:0 (fun () ->
        prefix ();
        ignore (Pmem.my_tid ());
        let w0 = Gc.minor_words () in
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Pmem.my_tid ()))
        done;
        words := (Gc.minor_words () -. w0) /. float n;
        finished := true)
  in
  (!words, !finished, r.Executor.outcome)

let check_my_tid_loop name ~prefix ~max_words =
  let n = 20_000 in
  let words, finished, outcome = my_tid_loop ~prefix ~max_ops:(n + 10) n in
  check (name ^ ": loop completed") true (finished && outcome = Executor.Completed);
  check_budget name ~max:max_words words;
  let _, finished, outcome = my_tid_loop ~prefix ~max_ops:n n in
  check (name ^ ": each call spent fuel") true
    ((not finished) && outcome = Executor.Diverged)

(* A Pmem operation of a run's only thread is a direct call: nothing
   suspends, so nothing is allocated. *)
let test_direct_dispatch_budget () =
  check_my_tid_loop "my_tid, direct" ~prefix:ignore ~max_words:1.

(* Once the run has spawned a thread, an operation is an effect round
   trip: the effect, its continuation and the suspended-thread state,
   with no per-operation closures. *)
let test_effect_round_trip_budget () =
  check_my_tid_loop "my_tid round trip, effect"
    ~prefix:(fun () -> Pmem.join (Pmem.spawn ignore))
    ~max_words:20.

(* Words a call of [f] allocates, minor and directly major, after one
   warm-up call. *)
let all_words_per ?(n = 2_000) f =
  f ();
  let s0 = Gc.quick_stat () and m0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  let s1 = Gc.quick_stat () in
  let direct_major (s : Gc.stat) = s.Gc.major_words -. s.Gc.promoted_words in
  let major = direct_major s1 -. direct_major s0 in
  ((Gc.minor_words () -. m0) /. float n, major /. float n)

(* What a run costs before its first operation and after its last: an
   empty run from a state of 100 written bytes copies that state's
   image twice (into its machine, and into the state it leaves), each
   copy as large as the image's extent.  The budget is half of the
   4,096-byte copies' 1,388 words, none of them in the major heap: a
   block allocated there directly is over 256 words, so a word per run
   on average leaves room only for the heap's own one-off growth. *)
let test_run_fixed_cost () =
  let cs = inherited_with 100 in
  let minor, major =
    all_words_per (fun () ->
        ignore (Sys.opaque_identity (Executor.run ~inherited:cs ~exec_id:2 ignore)))
  in
  check_budget "empty run, allocated directly in the major heap" ~max:1. major;
  check_budget "empty run" ~max:694. (minor +. major);
  let minor, major = all_words_per (fun () -> ignore (Sys.opaque_identity (Crashstate.copy cs))) in
  check_budget "Crashstate.copy"
    ~max:(float (Memimage.extent cs.Crashstate.image / 8) +. 24.)
    (minor +. major)

(* Telemetry hooks.  Disabled, every hook kind is one branch; enabled,
   a per-program cell inside [with_program] adds to its shards without
   building a key or a closure. *)
let test_telemetry_hooks_allocate_nothing () =
  let module Metrics = Observe.Metrics in
  let counter = Metrics.counter ~per_program:true "test/hot_counter"
  and center = Metrics.center ~units:"ops" ~per_program:true "test/hot_center"
  and histogram = Metrics.histogram "test/hot_histogram"
  and set = Metrics.set "test/hot_set" in
  let hooks =
    [
      ("incr", fun _ -> Metrics.incr counter);
      ("add", fun i -> Metrics.add counter i);
      ("charge", fun i -> Metrics.charge center ~units:i ~wall_us:i);
      ("observe", fun i -> Metrics.observe histogram i);
      ("mark", fun i -> Metrics.mark set i);
    ]
  in
  Metrics.disable ();
  List.iter (fun (name, f) -> check_budget (name ^ ", disabled") ~max:0.01 (words_per f)) hooks;
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    (fun () ->
      Metrics.with_program "hot" (fun () ->
          List.iter
            (fun (name, f) -> check_budget (name ^ ", per-program") ~max:0.01 (words_per f))
            (List.filter (fun (name, _) -> name <> "mark") hooks));
      check "per-program cells counted" true
        (List.exists
           (fun (b : Metrics.bucket) -> b.program = "hot" && List.assoc "test/hot_counter" b.counts > 0)
           (Metrics.buckets ())))

(* Post-crash checks.  A check reads single clock components and the
   store's flush list in place and joins [CVpre] and [lastflush] in
   place. *)

(* A detector whose record 1 holds a flushed plain store at 64, an
   atomic release store at 72 and an unflushed plain store at 128. *)
let detector_fixture () =
  let d = Detector.create () in
  let record = Detector.begin_exec d ~id:1 in
  let at lclk = Clockvec.set Clockvec.empty 0 lclk in
  let plain = { (mk_store ~addr:64 ~size:8 1L) with Event.seq = 1; lclk = 1; cv = at 1 } in
  let release =
    { (mk_store ~addr:72 ~size:8 1L) with
      Event.seq = 3; lclk = 5; cv = at 5; access = Access.Atomic Access.Release }
  in
  let unflushed = { (mk_store ~addr:128 ~size:8 1L) with Event.seq = 4; lclk = 6; cv = at 6 } in
  Yashme.Exec_record.set_store record plain;
  Yashme.Exec_record.set_store record release;
  Yashme.Exec_record.set_store record unflushed;
  Yashme.Exec_record.add_flush record ~seq:1 { Yashme.Exec_record.fe_tid = 0; fe_lclk = 2 };
  Detector.load_atomic d ~exec:1 ~store:release;
  let pruned _ =
    Detector.load_non_atomic d ~exec:1 ~store:plain ~load_addr:64 ~load_size:8 ~load_tid:0
      ~load_exec:2 ~commit:true ~benign:false
  in
  (d, release, unflushed, pruned)

(* With no call log started, a pruned check and an atomic load allocate
   nothing, and a check that raises a race allocates the race and its
   list cell (9 + 3 words). *)
let test_detector_checks_budget () =
  let d, release, unflushed, pruned = detector_fixture () in
  check_budget "load_atomic" ~max:0.
    (words_per (fun _ -> Detector.load_atomic d ~exec:1 ~store:release));
  check_budget "pruned load_non_atomic" ~max:0. (words_per pruned);
  check "the check was pruned" true (Detector.races d = []);
  check_budget "load_non_atomic raising a race" ~max:12.
    (words_per ~n:2_000 (fun _ ->
         Detector.load_non_atomic d ~exec:1 ~store:unflushed ~load_addr:128 ~load_size:8
           ~load_tid:0 ~load_exec:2 ~commit:false ~benign:false));
  check "each raised a race" true (List.length (Detector.races d) = 2_001)

(* A logged call appends its fields to the log's flat buffers: 5 ints
   and a store, doubled as the log grows, so at most 12 words a call on
   average (minor and major), none of them a block of its own. *)
let test_logged_check_budget () =
  let d, _, _, pruned = detector_fixture () in
  Detector.log_calls d;
  let minor, major = all_words_per ~n:3_000 (fun () -> pruned 0) in
  check_budget "logged call" ~max:12. (minor +. major);
  check "every call logged" true (Detector.log_length (Detector.logged d) = 3_001)

let () =
  Alcotest.run "hotpath"
    [
      ( "reference-models",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sb_matches_list_model;
            prop_memimage_matches_bytes;
            prop_persistence_history;
            prop_persistence_lines;
            prop_crash_matches_reference;
            prop_derive_leaves_ancestors;
            prop_lazy_clocks;
            prop_direct_dispatch;
          ] );
      ( "allocation",
        [
          Alcotest.test_case "store buffer" `Quick test_store_buffer_allocates_nothing;
          Alcotest.test_case "rng draws" `Quick test_rng_draw_allocates_nothing;
          Alcotest.test_case "memory image" `Quick test_memimage_budget;
          Alcotest.test_case "load vs history" `Quick test_load_independent_of_history;
          Alcotest.test_case "store" `Quick test_store_budget;
          Alcotest.test_case "origin miss" `Quick test_origin_miss_allocates_nothing;
          Alcotest.test_case "inherited load vs state" `Quick test_inherited_load_independent_of_state;
          Alcotest.test_case "inherited load, unchecked run" `Quick test_unchecked_inherited_load;
          Alcotest.test_case "crash vs inherited state" `Quick test_crash_independent_of_inherited;
          Alcotest.test_case "crash vs run length" `Quick test_crash_independent_of_run_length;
          Alcotest.test_case "effect round trip" `Quick test_effect_round_trip_budget;
          Alcotest.test_case "direct dispatch" `Quick test_direct_dispatch_budget;
          Alcotest.test_case "run fixed cost" `Quick test_run_fixed_cost;
          Alcotest.test_case "telemetry hooks" `Quick test_telemetry_hooks_allocate_nothing;
          Alcotest.test_case "detector checks, no log" `Quick test_detector_checks_budget;
          Alcotest.test_case "detector checks, logged" `Quick test_logged_check_budget;
        ] );
    ]
