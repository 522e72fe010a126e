(* Tests for the benchmark suite: functional correctness of every data
   structure, crash-recovery behaviour, and — the headline reproduction —
   the exact race sets of Tables 3 and 4. *)

open Pm_runtime
open Pm_benchmarks
module Runner = Pm_harness.Runner
module Report = Pm_harness.Report

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let in_sim fn =
  let r = Executor.run ~exec_id:0 fn in
  assert (r.Executor.outcome = Executor.Completed)

let model_check ?options p = (Runner.model_check_outcome ?options p).Runner.o_report

let real_labels p =
  let r = model_check p in
  List.map (fun (f : Report.finding) -> f.Report.label) (Report.real r)

(* ------------------------------------------------------------------ *)
(* Functional tests                                                     *)

let test_cceh_functional () =
  in_sim (fun () ->
      let t = Cceh.create () in
      List.iter (fun k -> Cceh.insert t ~key:k ~value:(k * 7)) [ 1; 2; 3; 4 ];
      List.iter (fun k -> assert (Cceh.get t ~key:k = Some (k * 7))) [ 1; 2; 3; 4 ];
      assert (Cceh.get t ~key:99 = None);
      assert (List.length (Cceh.scan t) = 4);
      Cceh.remove t ~key:2;
      assert (Cceh.get t ~key:2 = None);
      assert (List.length (Cceh.scan t) = 3))

let test_cceh_split_and_doubling () =
  in_sim (fun () ->
      let t = Cceh.create () in
      (* Enough keys to force segment splits and directory doubling. *)
      let keys = List.init 48 (fun i -> i + 1) in
      List.iter (fun k -> Cceh.insert t ~key:k ~value:k) keys;
      List.iter (fun k -> assert (Cceh.get t ~key:k = Some k)) keys;
      assert (Cceh.global_depth t > Cceh.initial_depth);
      assert (List.length (Cceh.scan t) = 48))

let test_fast_fair_functional () =
  in_sim (fun () ->
      let t = Fast_fair.create () in
      let keys = List.init 30 (fun i -> ((i * 7) mod 31) + 1) |> List.sort_uniq compare in
      List.iter (fun k -> Fast_fair.insert t ~key:k ~value:(k * 2)) keys;
      List.iter (fun k -> assert (Fast_fair.get t ~key:k = Some (k * 2))) keys;
      assert (Fast_fair.get t ~key:1000 = None);
      let scanned = List.map fst (Fast_fair.scan t) in
      assert (scanned = List.sort compare keys);
      assert (Fast_fair.height t >= 2))

let test_p_art_functional () =
  in_sim (fun () ->
      let t = P_art.create () in
      let keys = [ 0x1; 0x10; 0x100; 0x1000; 0xABCDE ] in
      List.iter (fun k -> P_art.insert t ~key:k ~value:(k + 1)) keys;
      List.iter (fun k -> assert (P_art.lookup t ~key:k = Some (k + 1))) keys;
      P_art.remove t ~key:0x10;
      assert (P_art.lookup t ~key:0x10 = None);
      assert (P_art.recover_scan t = 4))

let test_p_bwtree_functional () =
  in_sim (fun () ->
      let t = P_bwtree.create () in
      List.iter (fun k -> P_bwtree.insert t ~key:k ~value:(k * 3)) [ 1; 2; 3 ];
      (* Delta-chain update: re-insert overrides. *)
      P_bwtree.insert t ~key:2 ~value:222;
      assert (P_bwtree.lookup t ~key:2 = Some 222);
      assert (P_bwtree.lookup t ~key:3 = Some 9);
      assert (P_bwtree.current_epoch t > 0))

let test_p_clht_functional () =
  in_sim (fun () ->
      let t = P_clht.create () in
      List.iter (fun k -> assert (P_clht.insert t ~key:k ~value:(k * k))) [ 2; 3; 5 ];
      List.iter (fun k -> assert (P_clht.get t ~key:k = Some (k * k))) [ 2; 3; 5 ];
      assert (P_clht.get t ~key:7 = None))

let test_p_masstree_functional () =
  in_sim (fun () ->
      let t = P_masstree.create () in
      let keys = List.init 25 (fun i -> ((i * 13) mod 29) + 1) |> List.sort_uniq compare in
      List.iter (fun k -> P_masstree.put t ~key:k ~value:(k * 5)) keys;
      List.iter (fun k -> assert (P_masstree.get t ~key:k = Some (k * 5))) keys;
      let scanned = List.map fst (P_masstree.scan t) in
      assert (scanned = List.sort compare keys))

let test_pmdk_btree_functional () =
  in_sim (fun () ->
      let p = Pmdk_btree.create () in
      let kv = List.init 20 (fun i -> (((i * 11) mod 23) + 1, i)) in
      List.iter (fun (k, v) -> Pmdk_btree.insert p ~key:k ~value:v) kv;
      List.iter
        (fun (k, _) -> assert (Pmdk_btree.lookup p ~key:k <> None))
        kv;
      let keys = List.sort_uniq compare (List.map fst kv) in
      assert (List.map fst (Pmdk_btree.scan p) = keys))

let test_pmdk_ctree_functional () =
  in_sim (fun () ->
      let p = Pmdk_ctree.create () in
      let kv = [ (10, 1); (6, 2); (15, 3); (1, 4); (9, 5); (0, 6) ] in
      List.iter (fun (k, v) -> Pmdk_ctree.insert p ~key:k ~value:v) kv;
      List.iter (fun (k, v) -> assert (Pmdk_ctree.lookup p ~key:k = Some v)) kv;
      (* Update in place. *)
      Pmdk_ctree.insert p ~key:10 ~value:42;
      assert (Pmdk_ctree.lookup p ~key:10 = Some 42))

let test_pmdk_rbtree_functional () =
  in_sim (fun () ->
      let p = Pmdk_rbtree.create () in
      let keys = List.init 20 (fun i -> i + 1) in
      List.iter (fun k -> Pmdk_rbtree.insert p ~key:k ~value:(k * 10)) keys;
      List.iter (fun k -> assert (Pmdk_rbtree.lookup p ~key:k = Some (k * 10))) keys;
      (* check_and_scan raises if red-black invariants are broken. *)
      assert (List.map fst (Pmdk_rbtree.check_and_scan p) = keys))

let test_pmdk_hashmaps_functional () =
  in_sim (fun () ->
      let p = Pmdk_hashmap.create_tx () in
      List.iter (fun (k, v) -> Pmdk_hashmap.insert_tx p ~key:k ~value:v)
        [ (1, 10); (2, 20); (3, 30) ];
      assert (Pmdk_hashmap.lookup p ~key:2 = Some 20);
      assert (Pmdk_hashmap.count p = 3));
  in_sim (fun () ->
      let p = Pmdk_hashmap.create_atomic () in
      List.iter (fun (k, v) -> Pmdk_hashmap.insert_atomic p ~key:k ~value:v)
        [ (1, 10); (2, 20) ];
      assert (Pmdk_hashmap.lookup p ~key:1 = Some 10);
      assert (Pmdk_hashmap.count p = 2))

let test_memcached_functional () =
  in_sim (fun () ->
      let t = Memcached.startup () in
      Memcached.set t ~key:101 ~value:"alpha";
      Memcached.set t ~key:202 ~value:"bravo";
      assert (Memcached.get t ~key:101 = Some "alpha");
      assert (Memcached.get t ~key:202 = Some "bravo");
      assert (Memcached.get t ~key:999 = None);
      assert (Memcached.restart_check t = 2))

let test_redis_functional () =
  in_sim (fun () ->
      let t = Redis.start () in
      Redis.set t ~key:1 ~value:"a";
      Redis.set t ~key:2 ~value:"bb";
      Redis.set t ~key:1 ~value:"ccc" (* overwrite *);
      assert (Redis.get t ~key:1 = Some "ccc");
      assert (Redis.get t ~key:2 = Some "bb");
      assert (Redis.recover_all t = 2))

(* ------------------------------------------------------------------ *)
(* Extended features                                                    *)

let test_fast_fair_remove_and_range () =
  in_sim (fun () ->
      let t = Fast_fair.create () in
      let keys = List.init 20 (fun i -> i + 1) in
      List.iter (fun k -> Fast_fair.insert t ~key:k ~value:k) keys;
      Fast_fair.remove t ~key:7;
      Fast_fair.remove t ~key:13;
      assert (Fast_fair.get t ~key:7 = None);
      assert (Fast_fair.get t ~key:8 = Some 8);
      let r = List.map fst (Fast_fair.range t ~lo:5 ~hi:15) in
      assert (r = [ 5; 6; 8; 9; 10; 11; 12; 14; 15 ]))

let test_p_art_node_growth () =
  in_sim (fun () ->
      let t = P_art.create () in
      (* Six keys sharing every nibble but the last force an N4 -> N16
         growth on the shared parent. *)
      let keys = List.init 6 (fun i -> 0x54320 + i) in
      List.iter (fun k -> P_art.insert t ~key:k ~value:k) keys;
      List.iter (fun k -> assert (P_art.lookup t ~key:k = Some k)) keys;
      assert (P_art.recover_scan t = 6))

let test_p_art_leaf_update () =
  in_sim (fun () ->
      let t = P_art.create () in
      P_art.insert t ~key:42 ~value:1;
      P_art.insert t ~key:42 ~value:2;
      assert (P_art.lookup t ~key:42 = Some 2))

let test_p_clht_resize () =
  in_sim (fun () ->
      let t = P_clht.create () in
      let keys = List.init 40 (fun i -> i + 1) in
      List.iter (fun k -> ignore (P_clht.insert t ~key:k ~value:(k * 2))) keys;
      List.iter (fun k -> assert (P_clht.get t ~key:k = Some (k * 2))) keys;
      check "table grew" true (P_clht.buckets t > 8))

let test_p_bwtree_delete_consolidate () =
  in_sim (fun () ->
      let t = P_bwtree.create () in
      (* Hammer one slot to trigger consolidation. *)
      for i = 1 to 10 do
        P_bwtree.insert t ~key:1 ~value:i
      done;
      assert (P_bwtree.lookup t ~key:1 = Some 10);
      P_bwtree.delete t ~key:1;
      assert (P_bwtree.lookup t ~key:1 = None);
      P_bwtree.insert t ~key:1 ~value:99;
      assert (P_bwtree.lookup t ~key:1 = Some 99))

let test_pmdk_ctree_remove () =
  in_sim (fun () ->
      let p = Pmdk_ctree.create () in
      List.iter (fun (k, v) -> Pmdk_ctree.insert p ~key:k ~value:v)
        [ (10, 1); (6, 2); (15, 3); (1, 4) ];
      Pmdk_ctree.remove p ~key:6;
      assert (Pmdk_ctree.lookup p ~key:6 = None);
      List.iter (fun (k, v) -> assert (Pmdk_ctree.lookup p ~key:k = Some v))
        [ (10, 1); (15, 3); (1, 4) ];
      (* Deleting the only key empties the tree. *)
      let p2 = Pmdk_ctree.create () in
      Pmdk_ctree.insert p2 ~key:5 ~value:1;
      Pmdk_ctree.remove p2 ~key:5;
      assert (Pmdk_ctree.lookup p2 ~key:5 = None))

let test_memcached_delete_stats () =
  in_sim (fun () ->
      let t = Memcached.startup () in
      Memcached.set t ~key:101 ~value:"a";
      Memcached.set t ~key:202 ~value:"b";
      check_int "two linked" 2 (Memcached.stats t);
      Memcached.delete t ~key:101;
      check_int "one after delete" 1 (Memcached.stats t);
      assert (Memcached.get t ~key:101 = None))

let test_redis_del_incr () =
  in_sim (fun () ->
      let t = Redis.start () in
      Redis.set t ~key:1 ~value:"v";
      check "del existing" true (Redis.del t ~key:1);
      check "del absent" false (Redis.del t ~key:1);
      check_int "incr from nothing" 1 (Redis.incr t ~key:9);
      check_int "incr again" 2 (Redis.incr t ~key:9);
      assert (Redis.get t ~key:9 = Some "2"))

let test_p_masstree_multilayer () =
  in_sim (fun () ->
      let t = P_masstree.create () in
      P_masstree.put_multi t ~key:[ 1; 2; 3 ] ~value:123;
      P_masstree.put_multi t ~key:[ 1; 2; 4 ] ~value:124;
      P_masstree.put_multi t ~key:[ 1; 9 ] ~value:19;
      P_masstree.put t ~key:50 ~value:150;
      assert (P_masstree.get_multi t ~key:[ 1; 2; 3 ] = Some 123);
      assert (P_masstree.get_multi t ~key:[ 1; 2; 4 ] = Some 124);
      assert (P_masstree.get_multi t ~key:[ 1; 9 ] = Some 19);
      assert (P_masstree.get_multi t ~key:[ 1; 2; 5 ] = None);
      assert (P_masstree.get_multi t ~key:[ 2; 2 ] = None);
      assert (P_masstree.get t ~key:50 = Some 150))

let test_memcached_lru_and_ops () =
  in_sim (fun () ->
      let t = Memcached.startup () in
      Memcached.set t ~key:1 ~value:"one";
      assert (Memcached.append t ~key:1 ~suffix:"+1");
      assert (Memcached.get t ~key:1 = Some "one+1");
      check "append to absent fails" false (Memcached.append t ~key:77 ~suffix:"x");
      check_int "incr fresh" 1 (Memcached.incr_counter t ~key:5);
      check_int "incr again" 2 (Memcached.incr_counter t ~key:5);
      (* Overfill the small class: the oldest untouched key is evicted,
         recently touched ones survive. *)
      for k = 10 to 16 do
        Memcached.set t ~key:k ~value:(string_of_int k)
      done;
      assert (Memcached.get t ~key:16 = Some "16"))

let test_undo_tx_commit_and_abort () =
  in_sim (fun () ->
      let p = Pmdk_pool.create ~root_size:16 in
      let r = Pmdk_pool.root p in
      (* Committed undo transaction: new values stick. *)
      Pmdk_pool.tx_undo p (fun () ->
          Pmdk_pool.tx_add_range p r 16;
          Pmdk_pool.tx_direct_store p r 1L;
          Pmdk_pool.tx_direct_store p (r + 8) 2L);
      assert (Pmem.load r = 1L && Pmem.load (r + 8) = 2L);
      (* Aborted undo transaction: snapshots roll back. *)
      (try
         Pmdk_pool.tx_undo p (fun () ->
             Pmdk_pool.tx_add_range p r 16;
             Pmdk_pool.tx_direct_store p r 99L;
             failwith "abort")
       with Failure _ -> ());
      assert (Pmem.load r = 1L && Pmem.load (r + 8) = 2L))

(* Undo-log atomicity under crashes: after a crash anywhere inside the
   transaction, recovery restores either the complete old state or (when
   sealed) the complete new state — never a mix. *)
let test_undo_tx_crash_atomicity () =
  let program =
    Pm_harness.Program.make ~name:"undo-atomicity"
      ~setup:(fun () ->
        let p = Pmdk_pool.create ~root_size:16 in
        let r = Pmdk_pool.root p in
        Pmem.store r 10L;
        Pmem.store (r + 8) 20L;
        Pmem.persist r 16)
      ~pre:(fun () ->
        let p = Pmdk_pool.open_pool () in
        let r = Pmdk_pool.root p in
        Pmdk_pool.tx_undo p (fun () ->
            Pmdk_pool.tx_add_range p r 16;
            Pmdk_pool.tx_direct_store p r 11L;
            Pmdk_pool.tx_direct_store p (r + 8) 21L))
      ~post:(fun () ->
        let p = Pmdk_pool.open_pool () in
        let r = Pmdk_pool.root p in
        let a = Pmem.load r and b = Pmem.load (r + 8) in
        if not ((a = 10L && b = 20L) || (a = 11L && b = 21L)) then
          failwith
            (Printf.sprintf "torn undo state: %Ld/%Ld" a b))
      ()
  in
  let points = Runner.count_flush_points program in
  check "undo tx has crash points" true (points > 5);
  for n = 0 to points - 1 do
    let _, _, post = Runner.run_once ~plan:(Executor.Crash_before_flush n) program in
    check "recovery consistent" true (post <> None)
  done

(* The undo log's shared ulog.c entry pointer races like the redo one. *)
let test_undo_log_race_surface () =
  let program =
    Pm_harness.Program.make ~name:"undo-races"
      ~setup:(fun () -> ignore (Pmdk_pool.create ~root_size:16))
      ~pre:(fun () ->
        let p = Pmdk_pool.open_pool () in
        let r = Pmdk_pool.root p in
        Pmdk_pool.tx_undo p (fun () ->
            Pmdk_pool.tx_add_range p r 8;
            Pmdk_pool.tx_direct_store p r 7L))
      ~post:(fun () -> ignore (Pmdk_pool.open_pool ()))
      ()
  in
  Alcotest.(check (list string)) "only the ulog pointer races"
    [ "pointer to ulog_entry in ulog.c" ]
    (real_labels program)

(* CCEH recovery sanity: a fully persisted prefix of inserts survives
   any later crash (segments/directory are published only when
   persisted). *)
let test_cceh_crash_recovery_consistency () =
  let program =
    Pm_harness.Program.make ~name:"cceh-consistency"
      ~setup:(fun () ->
        let t = Cceh.create () in
        List.iter (fun k -> Cceh.insert t ~key:k ~value:(k * 3)) [ 1; 2; 3 ])
      ~pre:(fun () ->
        let t = Cceh.open_existing () in
        List.iter (fun k -> Cceh.insert t ~key:k ~value:(k * 3)) (List.init 20 (fun i -> i + 4)))
      ~post:(fun () ->
        let t = Cceh.open_existing () in
        (* Keys from the clean setup phase must always be readable. *)
        List.iter (fun k -> assert (Cceh.get t ~key:k = Some (k * 3))) [ 1; 2; 3 ])
      ()
  in
  let points = Runner.count_flush_points program in
  for n = 0 to min 40 (points - 1) do
    let _, _, post = Runner.run_once ~plan:(Executor.Crash_before_flush n) program in
    check "recovery ran" true (post <> None)
  done

(* ------------------------------------------------------------------ *)
(* Crash-recovery behaviour                                             *)

let test_fast_fair_survives_any_crash () =
  (* Crash the insert workload at every flush point; after recovery the
     tree must contain a prefix-consistent subset: every key that a
     completed+persisted insert wrote must be readable. *)
  let points = Runner.count_flush_points Fast_fair.program in
  check "has crash points" true (points > 10);
  for n = 0 to min 20 (points - 1) do
    let _, pre, _ =
      Runner.run_once ~plan:(Executor.Crash_before_flush n) Fast_fair.program
    in
    check "crashed" true (pre.Executor.outcome = Executor.Crashed)
  done

let test_redis_tx_atomicity () =
  (* Crash at every flush point of a single SET: after recovery the key
     either maps to a checksum-valid value or is absent — never a torn
     read that validation accepts. *)
  let program =
    Pm_harness.Program.make ~name:"redis-atomicity"
      ~setup:(fun () -> ignore (Redis.start ()))
      ~pre:(fun () ->
        let t = Redis.open_existing () in
        Redis.set t ~key:5 ~value:"atomic-value")
      ~post:(fun () ->
        let t = Redis.open_existing () in
        match Redis.get t ~key:5 with
        | Some v -> assert (v = "atomic-value")
        | None -> ())
      ()
  in
  let points = Runner.count_flush_points program in
  for n = 0 to points - 1 do
    let _, _, post = Runner.run_once ~plan:(Executor.Crash_before_flush n) program in
    (* The recovery assertion runs inside post; reaching here means no
       torn value passed validation. *)
    check "post ran" true (post <> None)
  done

let test_memcached_checksum_rejects_torn_values () =
  (* Crash mid-SET everywhere: restart_check must never return an item
     whose payload fails validation (read_item filters). *)
  let program = Memcached.program in
  let points = Runner.count_flush_points program in
  for n = 0 to min 30 (points - 1) do
    let _, _, post = Runner.run_once ~plan:(Executor.Crash_before_flush n) program in
    check "restart check completed" true (post <> None)
  done

(* ------------------------------------------------------------------ *)
(* Multi-threaded workloads (the RECIPE indexes are concurrent)         *)

let test_cceh_multithreaded_functional () =
  (* Two writers on disjoint key ranges; CAS slot-locking keeps them
     from colliding.  Exercised under the random scheduler. *)
  List.iter
    (fun seed ->
      let r =
        Executor.run ~sched:Executor.Random_sched ~seed ~exec_id:0 (fun () ->
            let t = Cceh.create () in
            let t1 =
              Pmem.spawn (fun () ->
                  List.iter (fun k -> Cceh.insert t ~key:k ~value:k) [ 1; 2; 3; 4 ])
            in
            let t2 =
              Pmem.spawn (fun () ->
                  List.iter (fun k -> Cceh.insert t ~key:k ~value:k) [ 11; 12; 13; 14 ])
            in
            Pmem.join t1;
            Pmem.join t2;
            List.iter
              (fun k -> assert (Cceh.get t ~key:k = Some k))
              [ 1; 2; 3; 4; 11; 12; 13; 14 ])
      in
      assert (r.Executor.outcome = Executor.Completed))
    [ 1; 7; 23; 99 ]

let test_clht_multithreaded_functional () =
  List.iter
    (fun seed ->
      let r =
        Executor.run ~sched:Executor.Random_sched ~seed ~exec_id:0 (fun () ->
            let t = P_clht.create () in
            let writer keys () = List.iter (fun k -> ignore (P_clht.insert t ~key:k ~value:k)) keys in
            let t1 = Pmem.spawn (writer [ 2; 3; 5; 7 ]) in
            let t2 = Pmem.spawn (writer [ 11; 13; 17; 19 ]) in
            Pmem.join t1;
            Pmem.join t2;
            List.iter
              (fun k -> assert (P_clht.get t ~key:k = Some k))
              [ 2; 3; 5; 7; 11; 13; 17; 19 ])
      in
      assert (r.Executor.outcome = Executor.Completed))
    [ 5; 17; 41 ]

let test_cceh_multithreaded_detection () =
  (* A concurrent pre-crash workload still yields the two CCEH races. *)
  let program =
    Pm_harness.Program.make ~name:"cceh-mt"
      ~setup:(fun () -> ignore (Cceh.create ()))
      ~pre:(fun () ->
        let t = Cceh.open_existing () in
        let t1 =
          Pmem.spawn (fun () ->
              List.iter (fun k -> Cceh.insert t ~key:k ~value:k) [ 1; 2; 3 ])
        in
        let t2 =
          Pmem.spawn (fun () ->
              List.iter (fun k -> Cceh.insert t ~key:k ~value:k) [ 11; 12; 13 ])
        in
        Pmem.join t1;
        Pmem.join t2)
      ~post:(fun () ->
        let t = Cceh.open_existing () in
        ignore (Cceh.scan t))
      ()
  in
  let opts = { Runner.default_options with sched = Executor.Random_sched } in
  let r = model_check ~options:opts program in
  Alcotest.(check (list string)) "both CCEH races under concurrency"
    [ "key in Pair struct in pair.h"; "value in Pair struct in pair.h" ]
    (List.map (fun (f : Report.finding) -> f.Report.label) (Report.real r))

(* ------------------------------------------------------------------ *)
(* Race reproduction: Tables 3 and 4                                    *)

let test_table3_cceh () =
  Alcotest.(check (list string)) "CCEH races (#1-#2)"
    [ "key in Pair struct in pair.h"; "value in Pair struct in pair.h" ]
    (real_labels Cceh.program)

let test_table3_fast_fair () =
  Alcotest.(check (list string)) "FAST_FAIR races (#3-#8)"
    [
      "key in entry class in btree.h";
      "last_index in header class in btree.h";
      "ptr in entry class in btree.h";
      "root in btree class in btree.h";
      "sibling_ptr in header class in btree.h";
      "switch_counter in header class in btree.h";
    ]
    (real_labels Fast_fair.program)

let test_table3_p_art () =
  Alcotest.(check (list string)) "P-ART races (#9-#15)"
    [
      "added in DeletionList class in Epoche.h";
      "compactCount in N class in N.h";
      "count in N class in N.h";
      "deletitionListCount in DeletionList class in Epoche.h";
      "headDeletionList in DeletionList class in Epoche.h";
      "nodesCount in LabelDelete struct in Epoche.h";
      "thresholdCounter in DeletionList class in Epoche.h";
    ]
    (real_labels P_art.program)

let test_table3_p_bwtree () =
  Alcotest.(check (list string)) "P-BwTree race (#16)"
    [ "epoch in BwTreeBase class in bwtree.h" ]
    (real_labels P_bwtree.program)

let test_table3_p_clht () =
  Alcotest.(check (list string)) "P-CLHT is race-free" [] (real_labels P_clht.program)

let test_table3_p_masstree () =
  Alcotest.(check (list string)) "P-Masstree races (#17-#19)"
    [
      "next in leafnode class in masstree.h";
      "permutation in leafnode class in masstree.h";
      "root_ in masstree class in masstree.h";
    ]
    (real_labels P_masstree.program)

let test_table3_total_19 () =
  let total =
    List.fold_left
      (fun acc p -> acc + List.length (real_labels p))
      0 Registry.indexes
  in
  check_int "19 races across the PM indexes" 19 total

let test_table4_pmdk () =
  List.iter
    (fun p ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s exposes the ulog race (#1)" p.Pm_harness.Program.name)
        [ "pointer to ulog_entry in ulog.c" ]
        (real_labels p))
    [ Pmdk_btree.program; Pmdk_ctree.program; Pmdk_rbtree.program;
      Pmdk_hashmap.program_tx; Pmdk_hashmap.program_atomic ]

let test_table4_memcached () =
  Alcotest.(check (list string)) "Memcached races (#2-#5)"
    [
      "cas variable in item struct in memcached.h";
      "id variable in pslab_t struct in pslab.c";
      "it_flags variable in item_chunk struct in memcached.h";
      "valid variable in pslab_pool_t struct in pslab.c";
    ]
    (real_labels Memcached.program)

let test_checksum_findings_are_benign () =
  let r = model_check Pmdk_btree.program in
  List.iter
    (fun (f : Report.finding) ->
      if f.Report.label = Pmdk_ulog.label_data || f.Report.label = Pmdk_ulog.label_checksum
      then check (f.Report.label ^ " benign") true f.Report.benign)
    r.Report.findings

let test_registry_complete () =
  check_int "13 programs (Table 5 rows)" 13 (List.length Registry.all);
  check "find is case-insensitive" true
    ((Registry.find "cceh").Pm_harness.Program.name = "CCEH");
  check "litmus programs findable but not in check-all" true
    (List.for_all
       (fun (p : Pm_harness.Program.t) ->
         (Registry.find p.Pm_harness.Program.name) == p
         && not (List.memq p Registry.all))
       Registry.litmus);
  Alcotest.check_raises "unknown name" Not_found (fun () ->
      ignore (Registry.find "nope"))

(* ------------------------------------------------------------------ *)
(* The litmus x variant matrix (persistency-model validation)           *)

module Variant = Px86.Variant

let matrix = lazy (Litmus.run_matrix ())

(* The strict-tso column IS today's behaviour: running each litmus case
   with an explicit strict-tso variant produces the byte-identical
   report of a run with untouched default options. *)
let test_litmus_strict_tso_is_default () =
  List.iter
    (fun (case : Litmus.case) ->
      let run options =
        let o =
          if case.Litmus.c_recovery then
            Runner.model_check_recovery_outcome ~options case.Litmus.c_program
          else Runner.model_check_outcome ~options case.Litmus.c_program
        in
        Report.to_string o.Runner.o_report
      in
      Alcotest.(check string)
        (case.Litmus.c_name ^ " bytes")
        (run case.Litmus.c_options)
        (run
           { case.Litmus.c_options with
             Runner.variant = Variant.strict_tso }))
    Litmus.cases

(* The golden divergence table, committed as LITMUS_matrix.txt (also
   enforced by `yashme litmus --expect` in CI).  A diff here means the
   persistency-model semantics changed. *)
let test_litmus_matrix_golden () =
  (* dune runtest runs in test/; a direct `dune exec` runs in the
     workspace root. *)
  let path =
    if Sys.file_exists "LITMUS_matrix.txt" then "LITMUS_matrix.txt"
    else "../LITMUS_matrix.txt"
  in
  let golden = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string)
    "rendered matrix matches the committed golden table"
    (String.trim golden)
    (String.trim (Litmus.render (Lazy.force matrix)))

(* Named divergences: each non-default variant is provably separated
   from strict-tso by at least one litmus program, and the control rows
   separate none. *)
let test_litmus_divergences () =
  let m = Lazy.force matrix in
  List.iter
    (fun (variant, case) ->
      check (variant ^ " diverges on " ^ case) true
        (Litmus.diverges m ~variant ~case))
    [ ("fence-nop", "litmus-publish-flag");
      ("fence-nop", "litmus-movnt-fence");
      ("epoch", "litmus-epoch-bare-fence");
      ("relaxed", "litmus-relaxed-publish");
      ("sb-bypass-off", "litmus-sb-bypass-probe");
      ("sb-fifo", "litmus-sb-fifo-probe") ];
  List.iter
    (fun case ->
      List.iter
        (fun variant ->
          check (variant ^ " agrees on control " ^ case) false
            (Litmus.diverges m ~variant ~case))
        m.Litmus.m_variants)
    [ "litmus-flush-fence-chain"; "litmus-clwb-unfenced";
      "litmus-clflush-strict"; "litmus-same-line-pair";
      "litmus-epoch-double-crash" ]

(* The matrix is an engine artifact, so it must be jobs-invariant like
   every report. *)
let test_litmus_matrix_jobs_invariant () =
  check "jobs=2 matrix identical" true
    (Litmus.run_matrix ~jobs:2 () = Lazy.force matrix)

let () =
  Alcotest.run "benchmarks"
    [
      ( "functional",
        [
          Alcotest.test_case "cceh" `Quick test_cceh_functional;
          Alcotest.test_case "cceh split/doubling" `Quick test_cceh_split_and_doubling;
          Alcotest.test_case "fast_fair" `Quick test_fast_fair_functional;
          Alcotest.test_case "p-art" `Quick test_p_art_functional;
          Alcotest.test_case "p-bwtree" `Quick test_p_bwtree_functional;
          Alcotest.test_case "p-clht" `Quick test_p_clht_functional;
          Alcotest.test_case "p-masstree" `Quick test_p_masstree_functional;
          Alcotest.test_case "pmdk btree" `Quick test_pmdk_btree_functional;
          Alcotest.test_case "pmdk ctree" `Quick test_pmdk_ctree_functional;
          Alcotest.test_case "pmdk rbtree" `Quick test_pmdk_rbtree_functional;
          Alcotest.test_case "pmdk hashmaps" `Quick test_pmdk_hashmaps_functional;
          Alcotest.test_case "memcached" `Quick test_memcached_functional;
          Alcotest.test_case "redis" `Quick test_redis_functional;
        ] );
      ( "extended-features",
        [
          Alcotest.test_case "fast_fair remove/range" `Quick test_fast_fair_remove_and_range;
          Alcotest.test_case "p-art node growth" `Quick test_p_art_node_growth;
          Alcotest.test_case "p-art leaf update" `Quick test_p_art_leaf_update;
          Alcotest.test_case "p-clht resize" `Quick test_p_clht_resize;
          Alcotest.test_case "p-bwtree delete/consolidate" `Quick
            test_p_bwtree_delete_consolidate;
          Alcotest.test_case "ctree remove" `Quick test_pmdk_ctree_remove;
          Alcotest.test_case "memcached delete/stats" `Quick test_memcached_delete_stats;
          Alcotest.test_case "redis del/incr" `Quick test_redis_del_incr;
          Alcotest.test_case "cceh crash consistency" `Slow
            test_cceh_crash_recovery_consistency;
          Alcotest.test_case "masstree multi-layer" `Quick test_p_masstree_multilayer;
          Alcotest.test_case "memcached lru/append/incr" `Quick test_memcached_lru_and_ops;
          Alcotest.test_case "undo tx commit/abort" `Quick test_undo_tx_commit_and_abort;
          Alcotest.test_case "undo tx crash atomicity" `Slow test_undo_tx_crash_atomicity;
          Alcotest.test_case "undo log race surface" `Slow test_undo_log_race_surface;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "fast_fair crash sweep" `Slow test_fast_fair_survives_any_crash;
          Alcotest.test_case "redis tx atomicity" `Slow test_redis_tx_atomicity;
          Alcotest.test_case "memcached checksums" `Slow
            test_memcached_checksum_rejects_torn_values;
        ] );
      ( "multithreaded",
        [
          Alcotest.test_case "cceh concurrent inserts" `Quick
            test_cceh_multithreaded_functional;
          Alcotest.test_case "clht concurrent inserts" `Quick
            test_clht_multithreaded_functional;
          Alcotest.test_case "cceh concurrent detection" `Slow
            test_cceh_multithreaded_detection;
        ] );
      ( "table-3",
        [
          Alcotest.test_case "CCEH" `Slow test_table3_cceh;
          Alcotest.test_case "FAST_FAIR" `Slow test_table3_fast_fair;
          Alcotest.test_case "P-ART" `Slow test_table3_p_art;
          Alcotest.test_case "P-BwTree" `Slow test_table3_p_bwtree;
          Alcotest.test_case "P-CLHT" `Slow test_table3_p_clht;
          Alcotest.test_case "P-Masstree" `Slow test_table3_p_masstree;
          Alcotest.test_case "19 total" `Slow test_table3_total_19;
        ] );
      ( "table-4",
        [
          Alcotest.test_case "PMDK ulog race" `Slow test_table4_pmdk;
          Alcotest.test_case "Memcached" `Slow test_table4_memcached;
          Alcotest.test_case "checksum benign" `Slow test_checksum_findings_are_benign;
        ] );
      ( "registry",
        [ Alcotest.test_case "complete" `Quick test_registry_complete ] );
      ( "litmus-matrix",
        [
          Alcotest.test_case "strict-tso is today's behaviour" `Slow
            test_litmus_strict_tso_is_default;
          Alcotest.test_case "golden table" `Slow test_litmus_matrix_golden;
          Alcotest.test_case "named divergences" `Slow test_litmus_divergences;
          Alcotest.test_case "jobs-invariant" `Slow
            test_litmus_matrix_jobs_invariant;
        ] );
    ]
