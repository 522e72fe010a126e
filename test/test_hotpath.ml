(* The machine's hot path against slow reference models, and its
   allocation budgets.

   Each allocation-free structure of the px86 layer (the array-backed
   store buffer, the [Bytes]-accessor memory image, the in-place
   persistence history, the commit-log crash materialization and the
   lazily materialized thread clocks) is compared on random inputs with
   a list- or byte-loop model written the obvious way.  The allocation
   tests then bound the minor words of the hottest operations, so that a
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

let prop_memimage_matches_bytes =
  QCheck.Test.make ~name:"memory image = byte-array model" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 50)
           (triple addr_gen (int_range 1 8) (map Int64.of_int int))))
    (fun writes ->
      let img = Memimage.create () and mem = Bytes.make ref_size '\000' in
      let extent = ref 0 in
      List.for_all
        (fun (addr, size, value) ->
          Memimage.write img ~addr ~size ~value;
          ref_write mem ~addr ~size ~value;
          extent := max !extent (addr + size);
          (* Read back at every size around the write, including past the
             backing bytes (reads as zero). *)
          List.for_all
            (fun (a, s) ->
              a < 0 || a + s > ref_size || Memimage.read img ~addr:a ~size:s = ref_read mem ~addr:a ~size:s)
            [ (addr, size); (addr - 3, 8); (addr + 1, 4); (addr, 2); (addr + 5, 1); (addr - 1, 7) ]
          && Memimage.extent img = !extent)
        writes)

(* ------------------------------------------------------------------ *)
(* Persistence history vs. filters over line_stores                     *)

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
      Persistence.iter_committed p (fun s -> visited := s :: !visited);
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
                 && Persistence.history p (Addr.line addr) = newest_first (Addr.line addr))
               [ 1; 2; 4; 8 ])
           (List.init 260 Fun.id))

(* ------------------------------------------------------------------ *)
(* Crash materialization vs. the per-line replay                        *)

(* The materialization written per line: each line's cut, every store
   persisted by its first byte's line, replayed after a sort by seq, and
   one candidate set per (addr, size) stored to. *)
let ref_crash m ~(inherited : Crashstate.t) ~exec_id ~strategy =
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
  let image = Memimage.copy inherited.Crashstate.image in
  let origins = Hashtbl.copy inherited.Crashstate.origins in
  let cands = Hashtbl.copy inherited.Crashstate.cands in
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
            List.map (fun s -> { Crashstate.store = s; exec_id }) (Persistence.candidates pers ~addr ~size)
          in
          let base =
            Persistence.latest_at_or_below pers ~addr ~size ~cut:(Persistence.cut_lb pers line)
          in
          Hashtbl.replace cands (addr, size)
            (if base <> None then this_exec
             else Crashstate.find_candidates inherited ~addr ~size @ this_exec))
        (mine line))
    lines;
  (image, origins, cands)

let origin_key (o : Crashstate.origin) = (o.Crashstate.exec_id, o.Crashstate.store.Event.seq)

let sorted_bindings tbl f =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])

let same_state (image, origins, cands) (cs : Crashstate.t) =
  let n = max (Memimage.extent image) (Memimage.extent cs.Crashstate.image) in
  Memimage.extent image = Memimage.extent cs.Crashstate.image
  && List.for_all
       (fun a -> Memimage.read image ~addr:a ~size:1 = Memimage.read cs.Crashstate.image ~addr:a ~size:1)
       (List.init n Fun.id)
  && sorted_bindings origins origin_key = sorted_bindings cs.Crashstate.origins origin_key
  && sorted_bindings cands (List.map origin_key)
     = sorted_bindings cs.Crashstate.cands (List.map origin_key)

type mop =
  | St of int * int * int * bool  (* tid, slot, size, release *)
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
        (4, map (fun ((t, s), a) -> Ld (t, s, a)) (pair (pair tid slot) bool));
        (2, map2 (fun t s -> Clwb (t, s)) tid slot);
        (1, map2 (fun t s -> Clflush (t, s)) tid slot);
        (1, map (fun t -> Sfence t) tid);
        (1, map (fun t -> Mfence t) tid);
        (1, map2 (fun t s -> Cas (t, s)) tid slot);
      ])

let run_mops m mops =
  List.iteri
    (fun i op ->
      (match op with
      | St (tid, slot, size, release) ->
          Machine.store m ~tid ~addr:(slot_addr slot) ~size ~value:(Int64.of_int (i + 1))
            ~access:(if release then Access.Atomic Access.Release else Access.Plain)
            ~label:None
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
      Machine.background m)
    mops

let strategy_of k seed =
  match k with
  | 0 -> Machine.Cut_all
  | 1 -> Machine.Cut_lowerbound
  | _ -> Machine.Cut_random (Rng.create seed)

(* Copy a strategy so the reference and the machine draw the same cuts. *)
let copy_strategy = function
  | Machine.Cut_random rng -> Machine.Cut_random (Rng.copy rng)
  | s -> s

let prop_crash_matches_reference =
  QCheck.Test.make ~name:"crash materialization = per-line replay" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (pair (list_size (int_bound 40) mop_gen) (list_size (int_bound 40) mop_gen))
           (triple (int_bound 10_000) (int_bound 2) (int_bound (List.length Variant.builtins - 1)))))
    (fun ((first, second), (seed, k, v)) ->
      let _, variant, _ = List.nth Variant.builtins v in
      let machine ?inherited exec_id =
        Machine.create ?inherited ~exec_id
          { Machine.sb_policy = Machine.Random_drain 0.4; variant; rng = Rng.create (seed + exec_id);
            observer = Observer.nop }
      in
      let m1 = machine 1 in
      run_mops m1 first;
      let inherited = Machine.crash m1 ~strategy:(strategy_of k seed) in
      let m2 = machine ~inherited 2 in
      run_mops m2 second;
      let strategy = strategy_of ((k + 1) mod 3) (seed + 1) in
      let expected = ref_crash m2 ~inherited ~exec_id:2 ~strategy:(copy_strategy strategy) in
      same_state expected (Machine.crash m2 ~strategy)
      && same_state (ref_crash m2 ~inherited ~exec_id:2 ~strategy:Machine.Cut_all)
           (Machine.shutdown m2))

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
(* Allocation budgets                                                   *)

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

(* One Pmem operation through the executor: the effect, its continuation
   and the suspended-thread state, with no per-operation closures. *)
let test_effect_round_trip_budget () =
  let n = 20_000 in
  let words = ref 0. in
  ignore
    (Pm_runtime.Executor.run ~exec_id:0 (fun () ->
         ignore (Pm_runtime.Pmem.my_tid ());
         let w0 = Gc.minor_words () in
         for _ = 1 to n do
           ignore (Sys.opaque_identity (Pm_runtime.Pmem.my_tid ()))
         done;
         words := (Gc.minor_words () -. w0) /. float n));
  check_budget "my_tid round trip" ~max:20. !words;
  check "executor ran" true (!words > 0.)

let () =
  Alcotest.run "hotpath"
    [
      ( "reference-models",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sb_matches_list_model;
            prop_memimage_matches_bytes;
            prop_persistence_history;
            prop_crash_matches_reference;
            prop_lazy_clocks;
          ] );
      ( "allocation",
        [
          Alcotest.test_case "store buffer" `Quick test_store_buffer_allocates_nothing;
          Alcotest.test_case "rng draws" `Quick test_rng_draw_allocates_nothing;
          Alcotest.test_case "memory image" `Quick test_memimage_budget;
          Alcotest.test_case "load vs history" `Quick test_load_independent_of_history;
          Alcotest.test_case "store" `Quick test_store_budget;
          Alcotest.test_case "effect round trip" `Quick test_effect_round_trip_budget;
        ] );
    ]
