(* Tests for the Yashme detection algorithm: the paper's figure
   scenarios, prefix vs baseline semantics, exec records, multi-threaded
   prefix rearrangement, multi-crash scenarios, benign classification,
   and cross-mode properties on randomly generated programs. *)

open Pm_runtime
module Detector = Yashme.Detector
module Race = Yashme.Race
module Rng = Yashme_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run [pre] under [plan], then [post], returning the detector. *)
let scenario ?(mode = Detector.Prefix) ~plan ~pre ~post () =
  let d = Detector.create ~mode () in
  let r1 = Executor.run ~detector:d ~plan ~exec_id:0 pre in
  let _ = Executor.run ~detector:d ~inherited:r1.Executor.state ~exec_id:1 post in
  d

let labels d =
  List.sort_uniq compare (List.map Race.label (Detector.races d))

let real_labels d =
  List.sort_uniq compare
    (List.filter_map
       (fun (r : Race.t) -> if r.Race.benign then None else Some (Race.label r))
       (Detector.races d))

(* Common pre/post bodies. *)
let store_flush_pre () =
  let x = Pmem.alloc ~align:64 8 in
  Pmem.set_root 0 x;
  Pmem.store ~label:"x" x 1L;
  Pmem.clflush x;
  Pmem.mfence ()

let read_post () = ignore (Pmem.load (Pmem.get_root 0))

(* ------------------------------------------------------------------ *)
(* Figure scenarios                                                     *)

let test_fig1_crash_in_window () =
  (* Crash between the store and its clflush: both modes report. *)
  List.iter
    (fun mode ->
      let d =
        scenario ~mode ~plan:(Executor.Crash_before_flush 2) ~pre:store_flush_pre
          ~post:read_post ()
      in
      Alcotest.(check (list string)) "race on x" [ "x" ] (labels d))
    [ Detector.Prefix; Detector.Baseline ]

let test_fig4a_clflush_protects_baseline () =
  let d =
    scenario ~mode:Detector.Baseline ~plan:Executor.Crash_at_end ~pre:store_flush_pre
      ~post:read_post ()
  in
  check_int "no race after flush (baseline)" 0 (List.length (Detector.races d))

let test_fig4b_clwb_fence_protects_baseline () =
  let pre () =
    let x = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 x;
    Pmem.store ~label:"x" x 1L;
    Pmem.clwb x;
    Pmem.sfence ()
  in
  let d =
    scenario ~mode:Detector.Baseline ~plan:Executor.Crash_at_end ~pre ~post:read_post ()
  in
  check_int "clwb+sfence persists" 0 (List.length (Detector.races d))

let test_clwb_without_fence_races () =
  let pre () =
    let x = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 x;
    Pmem.store ~label:"x" x 1L;
    Pmem.clwb x;
    Pmem.sfence ()
  in
  (* Crash between the clwb and the sfence: flush point 2 is the clwb,
     3 the sfence. *)
  let d =
    scenario ~mode:Detector.Baseline ~plan:(Executor.Crash_before_flush 3) ~pre
      ~post:read_post ()
  in
  Alcotest.(check (list string)) "clwb alone insufficient" [ "x" ] (labels d)

let test_fig5a_coherence_prevents () =
  (* x and y on one line; y is an atomic release store after x; reading
     y first covers x. *)
  let pre () =
    let x = Pmem.alloc ~align:64 16 in
    Pmem.set_root 0 x;
    Pmem.store ~label:"x" x 1L;
    Pmem.store ~label:"y" ~atomic:Px86.Access.Release (x + 8) 1L
  in
  let post () =
    let x = Pmem.get_root 0 in
    ignore (Pmem.load ~atomic:Px86.Access.Acquire (x + 8));
    ignore (Pmem.load x)
  in
  let d = scenario ~plan:Executor.Crash_at_end ~pre ~post () in
  check_int "coherence covers x" 0 (List.length (Detector.races d))

let test_fig5a_requires_read_order () =
  (* Reading x BEFORE y: the race on x is real (condition 2 requires
     reading y first). *)
  let pre () =
    let x = Pmem.alloc ~align:64 16 in
    Pmem.set_root 0 x;
    Pmem.store ~label:"x" x 1L;
    Pmem.store ~label:"y" ~atomic:Px86.Access.Release (x + 8) 1L
  in
  let post () =
    let x = Pmem.get_root 0 in
    ignore (Pmem.load x);
    ignore (Pmem.load ~atomic:Px86.Access.Acquire (x + 8))
  in
  let d = scenario ~plan:Executor.Crash_at_end ~pre ~post () in
  Alcotest.(check (list string)) "x read first still races" [ "x" ] (labels d)

let test_fig6a_prefix_finds_after_window () =
  let d =
    scenario ~mode:Detector.Prefix ~plan:Executor.Crash_at_end ~pre:store_flush_pre
      ~post:read_post ()
  in
  Alcotest.(check (list string)) "prefix expansion finds it" [ "x" ] (labels d)

let test_fig6b_observed_flush_pins_prefix () =
  let pre () =
    let x = Pmem.alloc ~align:64 8 in
    let y = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 x;
    Pmem.set_root 1 y;
    Pmem.store ~label:"x" x 1L;
    Pmem.clflush x;
    Pmem.mfence ();
    Pmem.store ~label:"y" ~atomic:Px86.Access.Release y 1L
  in
  let post () =
    ignore (Pmem.load ~atomic:Px86.Access.Acquire (Pmem.get_root 1));
    ignore (Pmem.load (Pmem.get_root 0))
  in
  let d = scenario ~plan:Executor.Crash_at_end ~pre ~post () in
  check_int "flush inside consistent prefix" 0 (List.length (Detector.races d))

let test_fig6b_read_order_matters () =
  (* Same writes, but the post-crash execution reads x BEFORE y: the
     short prefix is still consistent at that point, so the race on x is
     reported. *)
  let pre () =
    let x = Pmem.alloc ~align:64 8 in
    let y = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 x;
    Pmem.set_root 1 y;
    Pmem.store ~label:"x" x 1L;
    Pmem.clflush x;
    Pmem.mfence ();
    Pmem.store ~label:"y" ~atomic:Px86.Access.Release y 1L
  in
  let post () =
    ignore (Pmem.load (Pmem.get_root 0));
    ignore (Pmem.load ~atomic:Px86.Access.Acquire (Pmem.get_root 1))
  in
  let d = scenario ~plan:Executor.Crash_at_end ~pre ~post () in
  Alcotest.(check (list string)) "x before y races" [ "x" ] (labels d)

let test_section42_multithreaded () =
  (* No crash point in this interleaving exposes the race; the
     per-thread prefix analysis still finds it. *)
  let pre () =
    let z = Pmem.alloc ~align:64 8 in
    let f = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 z;
    Pmem.set_root 1 f;
    let t1 =
      Pmem.spawn (fun () ->
          Pmem.store ~label:"z" z 1L;
          Pmem.clflush z;
          Pmem.mfence ())
    in
    Pmem.join t1;
    let t2 =
      Pmem.spawn (fun () -> Pmem.store ~label:"f" ~atomic:Px86.Access.Release f 1L)
    in
    Pmem.join t2
  in
  let post () =
    if Pmem.load ~atomic:Px86.Access.Acquire (Pmem.get_root 1) = 1L then
      ignore (Pmem.load (Pmem.get_root 0))
  in
  let d = scenario ~plan:Executor.Crash_at_end ~pre ~post () in
  Alcotest.(check (list string)) "cross-thread prefix race" [ "z" ] (labels d)

(* ------------------------------------------------------------------ *)
(* Definition 5.1 condition 1: atomic stores never race                 *)

let test_atomic_store_never_races () =
  let pre () =
    let x = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 x;
    Pmem.store ~label:"x" ~atomic:Px86.Access.Release x 1L
  in
  List.iter
    (fun mode ->
      let d = scenario ~mode ~plan:Executor.Crash_at_end ~pre ~post:read_post () in
      check_int "atomic store safe" 0 (List.length (Detector.races d)))
    [ Detector.Prefix; Detector.Baseline ]

let test_relaxed_atomic_store_never_races () =
  let pre () =
    let x = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 x;
    Pmem.store ~label:"x" ~atomic:Px86.Access.Relaxed x 1L
  in
  let d = scenario ~plan:Executor.Crash_at_end ~pre ~post:read_post () in
  check_int "relaxed atomic safe" 0 (List.length (Detector.races d))

(* ------------------------------------------------------------------ *)
(* Non-temporal stores (movnt)                                          *)

let test_nt_store_fenced_is_safe_baseline () =
  (* movnt + sfence persists without any flush instruction. *)
  let pre () =
    let x = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 x;
    Pmem.store ~label:"x" ~nt:true x 1L;
    Pmem.sfence ()
  in
  let d =
    scenario ~mode:Detector.Baseline ~plan:Executor.Crash_at_end ~pre ~post:read_post ()
  in
  check_int "fenced movnt store safe (baseline)" 0 (List.length (Detector.races d))

let test_nt_store_prefix_still_races () =
  (* Like Figure 6(a): a consistent prefix stopping before the fence
     leaves the movnt store in flight. *)
  let pre () =
    let x = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 x;
    Pmem.store ~label:"x" ~nt:true x 1L;
    Pmem.sfence ()
  in
  let d = scenario ~plan:Executor.Crash_at_end ~pre ~post:read_post () in
  Alcotest.(check (list string)) "prefix mode still reports" [ "x" ] (labels d)

let test_nt_memcpy_persist_safe_baseline () =
  let pre () =
    let x = Pmem.alloc ~align:64 32 in
    Pmem.set_root 0 x;
    Pmem.memcpy_nt_persist ~label:"payload" x "twenty-four byte string!"
  in
  let post () = ignore (Pmem.load_bytes (Pmem.get_root 0) 24) in
  let d = scenario ~mode:Detector.Baseline ~plan:Executor.Crash_at_end ~pre ~post () in
  check_int "pmem_memcpy_persist safe (baseline)" 0 (List.length (Detector.races d))

(* ------------------------------------------------------------------ *)
(* Candidate checking: unread-but-readable stores are still reported    *)

let test_candidate_reported () =
  (* x is stored plainly, flushed, stored again plainly; recovery reads
     the latest value but the older candidate is also checked. *)
  let pre () =
    let x = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 x;
    Pmem.store ~label:"x1" x 1L;
    Pmem.clflush x;
    Pmem.mfence ();
    Pmem.store ~label:"x2" x 2L
  in
  let d = scenario ~plan:Executor.Crash_at_end ~pre ~post:read_post () in
  let ls = labels d in
  check "committed read reported" true (List.mem "x2" ls);
  check "candidate also reported" true (List.mem "x1" ls);
  let committed =
    List.filter (fun (r : Race.t) -> r.Race.committed) (Detector.races d)
  in
  Alcotest.(check (list string)) "only x2 committed" [ "x2" ]
    (List.sort_uniq compare (List.map Race.label committed))

(* ------------------------------------------------------------------ *)
(* Benign classification                                                *)

let test_benign_classification () =
  let pre () =
    let x = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 x;
    Pmem.store ~label:"payload" x 1L
  in
  let post () =
    Pm_runtime.Pmem.validating (fun () -> ignore (Pmem.load (Pmem.get_root 0)))
  in
  let d = scenario ~plan:Executor.Crash_at_end ~pre ~post () in
  (match Detector.races d with
  | [ r ] -> check "validating read is benign" true r.Race.benign
  | rs -> Alcotest.failf "expected one race, got %d" (List.length rs));
  (* Outside the validating region the same race is real. *)
  let d = scenario ~plan:Executor.Crash_at_end ~pre ~post:read_post () in
  match Detector.races d with
  | [ r ] -> check "plain read is real" false r.Race.benign
  | rs -> Alcotest.failf "expected one race, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Multi-crash scenarios (exec stacks)                                  *)

let test_multi_crash_recovery_race () =
  (* A race in the recovery procedure itself requires two crashes
     (section 6, the exec stack).  Recovery writes a repair marker with
     a plain store; a second crash before its flush exposes it to the
     second recovery. *)
  let d = Detector.create () in
  let pre () =
    let x = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 x;
    Pmem.store ~label:"data" x 1L;
    Pmem.clflush x;
    Pmem.mfence ()
  in
  let recovery () =
    let x = Pmem.get_root 0 in
    ignore (Pmem.load x);
    Pmem.store ~label:"repair-marker" x 2L;
    Pmem.clflush x;
    Pmem.mfence ()
  in
  let r1 = Executor.run ~detector:d ~plan:Executor.Crash_at_end ~exec_id:0 pre in
  (* Crash the recovery between its store and flush: set_root is absent
     here, so the marker flush is point 0. *)
  let r2 =
    Executor.run ~detector:d ~inherited:r1.Executor.state
      ~plan:(Executor.Crash_before_flush 0) ~exec_id:1 recovery
  in
  let _ =
    Executor.run ~detector:d ~inherited:r2.Executor.state ~exec_id:2 (fun () ->
        ignore (Pmem.load (Pmem.get_root 0)))
  in
  let ls = labels d in
  check "recovery marker races" true (List.mem "repair-marker" ls)

let test_crash_state_propagates () =
  (* Data untouched by the middle execution flows through to the third
     with its original execution id. *)
  let d = Detector.create () in
  let pre () =
    let x = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 x;
    Pmem.store ~label:"deep-data" x 1L
  in
  let r1 = Executor.run ~detector:d ~plan:Executor.Crash_at_end ~exec_id:0 pre in
  let r2 =
    Executor.run ~detector:d ~inherited:r1.Executor.state ~plan:Executor.Crash_at_end
      ~exec_id:1 (fun () -> ())
  in
  let _ =
    Executor.run ~detector:d ~inherited:r2.Executor.state ~exec_id:2 (fun () ->
        ignore (Pmem.load (Pmem.get_root 0)))
  in
  let races = Detector.races d in
  check_int "race found across two crashes" 1 (List.length races);
  check_int "attributed to exec 0" 0 (List.hd races).Race.store_exec

(* ------------------------------------------------------------------ *)
(* Exec_record internals                                                 *)

module Exec_record = Yashme.Exec_record
module Clockvec = Yashme_util.Clockvec

let mk_store ?(tid = 0) ?(lclk = 1) ?(seq = 1) ?(addr = 0) () =
  { Px86.Event.seq; tid; lclk; cv = Clockvec.of_list [ (tid, lclk) ]; addr; size = 8;
    value = 0L; access = Px86.Access.Plain; nt = false; label = None }

let test_exec_record_storemap () =
  let r = Exec_record.create ~id:0 in
  check "empty" true (Exec_record.store_at r 0 = None);
  let s1 = mk_store ~addr:0 ~seq:1 () in
  let s2 = mk_store ~addr:0 ~seq:2 () in
  Exec_record.set_store r s1;
  Exec_record.set_store r s2;
  (match Exec_record.store_at r 0 with
  | Some s -> check_int "latest wins" 2 s.Px86.Event.seq
  | None -> Alcotest.fail "expected a store");
  Exec_record.set_store r (mk_store ~addr:8 ~seq:3 ());
  Exec_record.set_store r (mk_store ~addr:128 ~seq:4 ());
  Alcotest.(check (list int)) "line index" [ 0; 8 ]
    (List.sort compare (Exec_record.line_addrs r 0));
  Alcotest.(check (list int)) "other line" [ 128 ] (Exec_record.line_addrs r 2)

let test_exec_record_flushmap () =
  let r = Exec_record.create ~id:0 in
  check_int "no flushes" 0 (List.length (Exec_record.flushes_of r 1));
  Exec_record.add_flush r ~seq:1 { Exec_record.fe_tid = 0; fe_lclk = 5 };
  Exec_record.add_flush r ~seq:1 { Exec_record.fe_tid = 1; fe_lclk = 2 };
  check_int "two entries" 2 (List.length (Exec_record.flushes_of r 1));
  check_int "other seq empty" 0 (List.length (Exec_record.flushes_of r 2))

let test_exec_record_clocks () =
  let r = Exec_record.create ~id:7 in
  check_int "id" 7 (Exec_record.id r);
  check "cvpre empty" true (Clockvec.equal (Exec_record.cvpre r) Clockvec.empty);
  Exec_record.join_cvpre r (Clockvec.of_list [ (0, 3) ]);
  Exec_record.join_cvpre r (Clockvec.of_list [ (1, 2) ]);
  check_int "joined 0" 3 (Clockvec.get (Exec_record.cvpre r) 0);
  check_int "joined 1" 2 (Clockvec.get (Exec_record.cvpre r) 1);
  Exec_record.join_lastflush r ~line:4 (Clockvec.of_list [ (0, 9) ]);
  check_int "lastflush" 9 (Clockvec.get (Exec_record.lastflush r ~line:4) 0);
  check "other line empty" true
    (Clockvec.equal (Exec_record.lastflush r ~line:5) Clockvec.empty)

(* [Witness.checked_cvpre] keeps [CVpre] values across later joins:
   a snapshot must not follow the accumulator it was read from, and
   clearing leaves it as well. *)
let test_snapshot_survives_joins () =
  let r = Exec_record.create ~id:0 in
  Exec_record.set_store r (mk_store ~tid:1 ~lclk:2 ~addr:64 ());
  Exec_record.join_cvpre r (Clockvec.of_list [ (1, 2) ]);
  Exec_record.join_lastflush r ~line:1 (Clockvec.of_list [ (1, 2) ]);
  let cvpre = Exec_record.cvpre r and lastflush = Exec_record.lastflush r ~line:1 in
  let expected = Clockvec.of_list [ (1, 2) ] in
  Exec_record.join_cvpre r (Clockvec.of_list [ (0, 4); (1, 3) ]);
  Exec_record.join_lastflush r ~line:1 (Clockvec.of_list [ (0, 4); (1, 3) ]);
  check "cvpre snapshot unchanged by a join" true (Clockvec.equal cvpre expected);
  check "lastflush snapshot unchanged by a join" true (Clockvec.equal lastflush expected);
  check_int "the record joined" 4 (Exec_record.cvpre_at r 0);
  Exec_record.clear_joins r;
  check "cvpre snapshot unchanged by clearing" true (Clockvec.equal cvpre expected);
  check "cleared" true
    (Exec_record.joins_empty r && Clockvec.equal (Exec_record.cvpre r) Clockvec.empty)

(* A log handed out is frozen: the calls its detector makes later, in
   a new log or the same one, leave it as it was. *)
let test_log_frozen () =
  let d = Detector.create () in
  let r = Detector.begin_exec d ~id:0 in
  let racy = mk_store ~addr:64 ~seq:1 () and other = mk_store ~addr:128 ~seq:2 () in
  Exec_record.set_store r racy;
  Exec_record.set_store r other;
  let check_load store =
    Detector.load_non_atomic d ~exec:0 ~store ~load_addr:store.Px86.Event.addr ~load_size:8
      ~load_tid:0 ~load_exec:1 ~commit:true ~benign:false
  in
  Detector.log_calls d;
  check_load racy;
  let first = Detector.logged d in
  check_load other;
  Detector.log_calls d;
  for _ = 1 to 40 do
    check_load other
  done;
  check_int "one call" 1 (Detector.log_length first);
  let fresh = Detector.create () in
  Detector.adopt fresh r;
  Detector.replay fresh first;
  Alcotest.(check (list int)) "the first call's race" [ 64 ]
    (List.map (fun (race : Race.t) -> race.Race.load_addr) (Detector.races fresh))

(* ------------------------------------------------------------------ *)
(* Differential: the flat-array detector against the reference model   *)

module Ref = Detector_reference

(* A clock as (tid, clock) pairs over tids 0-3, built in both
   representations. *)
let both l = (Clockvec.of_list l, Ref.Clockvec.of_list l)

let clock_gen = QCheck.Gen.(list_size (int_bound 3) (pair (int_bound 3) (int_bound 6)))

(* The stores of one pre-crash execution: [seq] from 1, addresses over
   three cache lines, a thread's own clock component at its [lclk]. *)
let exec_stores_gen =
  QCheck.Gen.(
    list_size (int_range 1 10)
      (map3
         (fun (slot, tid, lclk) cv access -> (slot, tid, lclk, cv, access))
         (triple (int_bound 23) (int_bound 3) (int_range 1 6))
         clock_gen
         (oneofl
            [ Px86.Access.Plain; Px86.Access.Plain; Px86.Access.Atomic Px86.Access.Release;
              Px86.Access.Atomic Px86.Access.Relaxed ])))

type pre_event =
  | Flush of int * int * int * (int * int) list  (* line, tid, lclk, clock *)
  | Applied of int * (int * int) list * int * int  (* line, clock, fence tid, lclk *)
  | Nt of int * int * int  (* store index, fence tid, lclk *)

let pre_event_gen =
  QCheck.Gen.(
    let line = int_range 1 3 and tid = int_bound 3 and clk = int_bound 6 in
    frequency
      [
        (3, map3 (fun (l, t) c cv -> Flush (l, t, c, cv)) (pair line tid) clk clock_gen);
        (2, map3 (fun l cv (t, c) -> Applied (l, cv, t, c)) line clock_gen (pair tid clk));
        (1, map3 (fun i t c -> Nt (i, t, c)) (int_bound 9) tid clk);
      ])

(* A post-crash call: atomic or not, the execution (0, 1, or 9, which
   is never registered), a store index, commit, benign, load tid. *)
let post_call_gen =
  QCheck.Gen.(
    map3
      (fun (atomic, exec) (i, commit) (benign, tid) -> (atomic, exec, i, commit, benign, tid))
      (pair (frequency [ (1, return true); (3, return false) ]) (oneofl [ 0; 0; 1; 9 ]))
      (pair (int_bound 9) bool)
      (pair (frequency [ (1, return true); (4, return false) ]) (int_bound 3)))

let scenario_gen =
  QCheck.Gen.(
    pair
      (triple (oneofl [ Detector.Prefix; Detector.Baseline ]) bool bool)
      (pair
         (list_repeat 2 (pair exec_stores_gen (list_size (int_bound 8) pre_event_gen)))
         (list_size (int_bound 30) post_call_gen)))

let detector_counters diff =
  List.filter
    (fun (name, _) -> String.length name > 9 && String.sub name 0 9 = "detector/"
                      && not (String.contains name '#'))
    diff

let differential ((mode, eadr, coherence), (execs, calls)) =
  let d = Detector.create ~mode ~eadr ~coherence () in
  let rd = Ref.Detector.create ~mode ~eadr ~coherence () in
  let ok = ref true in
  let expect b = if not b then ok := false in
  let before = Observe.Metrics.snapshot () in
  (* Pre-crash runs 0 and 1: stores and flushes through the observer. *)
  let stores =
    List.mapi
      (fun exec (specs, events) ->
        let r = Detector.begin_exec d ~id:exec and rr = Ref.Detector.begin_exec rd ~id:exec in
        let obs = Detector.observer d in
        let stores =
          Array.of_list
            (List.mapi
               (fun i (slot, tid, lclk, cv, access) ->
                 let cv, rcv = both ((tid, lclk) :: List.filter (fun (t, _) -> t <> tid) cv) in
                 let s =
                   { Px86.Event.seq = i + 1; tid; lclk; cv; addr = 64 + (slot * 8); size = 8;
                     value = 0L; access; nt = false;
                     label = Some (Printf.sprintf "e%d.%d" exec i) }
                 in
                 obs.Px86.Observer.on_store_commit s;
                 Ref.Exec_record.set_store rr s;
                 (s, rcv))
               specs)
        in
        let fence ktid klclk = { Px86.Event.ktid; klclk; kcv = Clockvec.empty; kkind = Px86.Event.Sfence } in
        let flush line ftid flclk fcv =
          { Px86.Event.fseq = 0; ftid; flclk; fcv; faddr = line * 64; kind = Px86.Event.Clflush }
        in
        List.iter
          (function
            | Flush (line, tid, lclk, cv) ->
                let cv, rcv = both cv in
                obs.Px86.Observer.on_clflush_commit (flush line tid lclk cv);
                Ref.Detector.note_flush rd rr ~line ~flush_cv:rcv
                  ~entry:{ Exec_record.fe_tid = tid; fe_lclk = lclk }
            | Applied (line, cv, tid, lclk) ->
                let cv, rcv = both cv in
                obs.Px86.Observer.on_flush_applied (flush line 0 0 cv) ~fence:(fence tid lclk);
                Ref.Detector.note_flush rd rr ~line ~flush_cv:rcv
                  ~entry:{ Exec_record.fe_tid = tid; fe_lclk = lclk }
            | Nt (i, tid, lclk) when i < Array.length stores ->
                let s, _ = stores.(i) in
                obs.Px86.Observer.on_nt_persisted s ~fence:(fence tid lclk);
                Ref.Exec_record.add_flush rr ~seq:s.Px86.Event.seq
                  { Exec_record.fe_tid = tid; fe_lclk = lclk }
            | Nt _ -> ())
          events;
        Array.iteri
          (fun i _ ->
            expect (Exec_record.flushes_of r (i + 1) = Ref.Exec_record.flushes_of rr (i + 1)))
          stores;
        (r, rr, stores))
      execs
  in
  let records = Array.of_list stores in
  let same_clocks () =
    Array.iter
      (fun (r, rr, _) ->
        expect
          (Clockvec.to_list (Exec_record.cvpre r)
          = Ref.Clockvec.to_list (Ref.Exec_record.cvpre rr));
        for line = 0 to 4 do
          expect
            (Clockvec.to_list (Exec_record.lastflush r ~line)
            = Ref.Clockvec.to_list (Ref.Exec_record.lastflush rr ~line))
        done)
      records
  in
  (* The post-crash calls, logged. *)
  Detector.log_calls d;
  List.iter
    (fun (atomic, exec, i, commit, benign, load_tid) ->
      let _, _, stores = records.(if exec = 1 then 1 else 0) in
      let s, rcv = stores.(i mod Array.length stores) in
      if atomic then begin
        Detector.load_atomic d ~exec ~store:s;
        Ref.Detector.load_atomic rd ~exec ~store:s ~cv:rcv
      end
      else begin
        let n = List.length (Detector.races d) in
        Detector.load_non_atomic d ~exec ~store:s ~load_addr:s.Px86.Event.addr ~load_size:8
          ~load_tid ~load_exec:2 ~commit ~benign;
        let expected =
          Ref.Detector.load_non_atomic rd ~exec ~store:s ~cv:rcv ~load_addr:s.Px86.Event.addr
            ~load_size:8 ~load_tid ~load_exec:2 ~commit ~benign
        in
        expect (Option.is_some expected = (List.length (Detector.races d) = n + 1))
      end;
      expect (Detector.races d = Ref.Detector.races rd);
      same_clocks ())
    calls;
  expect
    (detector_counters (Observe.Metrics.diff before (Observe.Metrics.snapshot ()))
    = List.filter (fun (_, v) -> v <> 0) (Ref.Detector.counter_list rd.Ref.Detector.counts));
  (* The log, replayed into a fresh detector over the cleared records,
     finds the same races and leaves the same joins. *)
  let log = Detector.logged d in
  expect (Detector.log_length log = List.length calls);
  let fresh = Detector.create ~mode ~eadr ~coherence () in
  Array.iter
    (fun (r, _, _) ->
      Exec_record.clear_joins r;
      expect (Exec_record.joins_empty r);
      Detector.adopt fresh r)
    records;
  Detector.replay fresh log;
  expect (Detector.races fresh = Detector.races d);
  same_clocks ();
  !ok

let prop_matches_reference =
  QCheck.Test.make ~name:"flat-array detector = map/hashtable reference" ~count:400
    (QCheck.make scenario_gen) (fun sc ->
      Observe.Metrics.enable ();
      Fun.protect ~finally:Observe.Metrics.disable (fun () -> differential sc))

let test_race_rendering () =
  let race =
    { Race.store = mk_store ~addr:0 (); store_exec = 0; load_addr = 0; load_size = 8;
      load_tid = 1; load_exec = 1; committed = false; benign = true }
  in
  let s = Race.to_string race in
  check "mentions candidate" true
    (let rec has i needle =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || has (i + 1) needle)
     in
     has 0 "[candidate]" && has 0 "[benign");
  Alcotest.(check string) "unlabelled label" "<unlabelled>" (Race.label race)

(* Races of any label (or none), access, size, value and addresses,
   negative ones and ones past 2^32 among them, in each committed/benign
   combination: rendered directly as the Format reference renders them. *)
let race_gen =
  QCheck.Gen.(
    let wide =
      oneof
        [ int; map (fun n -> (1 lsl 32) + n) nat; oneofl [ 0; -1; min_int; max_int ] ]
    and value = oneof [ int64; oneofl [ 0L; -1L; Int64.min_int; Int64.max_int ] ] in
    let store =
      map3
        (fun (label, access, size) (tid, lclk, seq) (addr, value) ->
          { (mk_store ~addr ()) with
            Px86.Event.label; access; size; tid; lclk; seq; value })
        (triple (opt string_printable)
           (oneofl
              Px86.Access.
                [ Plain; Atomic Relaxed; Atomic Acquire; Atomic Release; Atomic Acq_rel;
                  Atomic Seq_cst ])
           (int_range 1 8))
        (triple small_nat small_nat (oneofl [ -1; 0; 7; max_int ]))
        (pair wide value)
    in
    map3
      (fun store (store_exec, load_exec, load_tid) (load_addr, load_size, (committed, benign)) ->
        { Race.store; store_exec; load_addr; load_size; load_tid; load_exec; committed; benign })
      store
      (triple (int_range (-1) 3) (int_range 1 4) small_nat)
      (triple wide (int_range 1 8) (pair bool bool)))

let prop_rendering_matches_format =
  QCheck.Test.make ~name:"race rendering = Format reference" ~count:1000
    (QCheck.make ~print:Race_reference.to_string race_gen) (fun r ->
      Race.to_string r = Race_reference.to_string r
      && Px86.Event.store_to_string r.Race.store
         = Race_reference.store_to_string r.Race.store)

(* ------------------------------------------------------------------ *)
(* Exhaustive op-level crash injection                                  *)

let test_exhaustive_op_crashes () =
  (* Crash before EVERY instruction of a small program (not only flush
     points); at each point both modes run, baseline ⊆ prefix, and the
     union over all points equals the program's racy fields. *)
  let pre () =
    let a = Pmem.alloc ~align:64 24 in
    Pmem.set_root 0 a;
    Pmem.store ~label:"f1" a 1L;
    Pmem.clflush a;
    Pmem.mfence ();
    Pmem.store ~label:"f2" (a + 8) 2L;
    Pmem.store ~label:"f3" ~atomic:Px86.Access.Release (a + 16) 3L
  in
  let post () =
    let a = Pmem.get_root 0 in
    ignore (Pmem.load a);
    ignore (Pmem.load (a + 8));
    ignore (Pmem.load ~atomic:Px86.Access.Acquire (a + 16))
  in
  let total_ops =
    (Executor.run ~plan:Executor.Run_to_end ~exec_id:0 pre).Executor.ops
  in
  let all_prefix = ref [] in
  for op = 0 to total_ops do
    let lp = labels (scenario ~plan:(Executor.Crash_before_op op) ~pre ~post ()) in
    let lb =
      labels
        (scenario ~mode:Detector.Baseline ~plan:(Executor.Crash_before_op op) ~pre
           ~post ())
    in
    check "baseline subset of prefix" true (List.for_all (fun l -> List.mem l lp) lb);
    all_prefix := lp @ !all_prefix
  done;
  Alcotest.(check (list string)) "union over all crash points"
    [ "f1"; "f2" ]
    (List.sort_uniq compare !all_prefix)

(* ------------------------------------------------------------------ *)
(* Cross-mode properties on random straight-line programs               *)

type op = Rstore of int * bool (* slot, atomic *) | Rflush of int | Rfence

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 25)
      (frequency
         [
           (4, map2 (fun s a -> Rstore (s, a)) (int_bound 3) bool);
           (2, map (fun s -> Rflush s) (int_bound 3));
           (1, return Rfence);
         ]))

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Rstore (s, a) -> Printf.sprintf "st%d%s" s (if a then "!" else "")
             | Rflush s -> Printf.sprintf "fl%d" s
             | Rfence -> "fence")
           ops))
    gen_ops

let run_ops ~mode ~plan ops =
  let pre () =
    let base = Pmem.alloc ~align:64 (4 * 64) in
    Pmem.set_root 0 base;
    List.iteri
      (fun i op ->
        match op with
        | Rstore (s, atomic) ->
            let addr = base + (64 * s) in
            if atomic then
              Pmem.store ~label:(Printf.sprintf "slot%d" s)
                ~atomic:Px86.Access.Release addr
                (Int64.of_int (i + 1))
            else
              Pmem.store ~label:(Printf.sprintf "slot%d" s) addr (Int64.of_int (i + 1))
        | Rflush s -> Pmem.clflush (base + (64 * s))
        | Rfence -> Pmem.mfence ())
      ops
  in
  let post () =
    let base = Pmem.get_root 0 in
    for s = 0 to 3 do
      ignore (Pmem.load (base + (64 * s)))
    done
  in
  scenario ~mode ~plan ~pre ~post ()

let prop_all_atomic_no_race =
  QCheck.Test.make ~name:"all-atomic programs never race" ~count:60 arb_ops (fun ops ->
      let ops =
        List.map (function Rstore (s, _) -> Rstore (s, true) | o -> o) ops
      in
      let d = run_ops ~mode:Detector.Prefix ~plan:Executor.Crash_at_end ops in
      Detector.races d = [])

let prop_baseline_subset_of_prefix =
  QCheck.Test.make ~name:"baseline findings are a subset of prefix findings" ~count:60
    (QCheck.pair arb_ops QCheck.(int_bound 10)) (fun (ops, n) ->
      let plan = Executor.Crash_before_flush n in
      let db = run_ops ~mode:Detector.Baseline ~plan ops in
      let dp = run_ops ~mode:Detector.Prefix ~plan ops in
      let lb = labels db and lp = labels dp in
      List.for_all (fun l -> List.mem l lp) lb)

let prop_races_only_on_plain =
  QCheck.Test.make ~name:"race reports only involve plain stores" ~count:60 arb_ops
    (fun ops ->
      let d = run_ops ~mode:Detector.Prefix ~plan:Executor.Crash_at_end ops in
      List.for_all
        (fun (r : Race.t) -> not (Px86.Access.is_atomic r.Race.store.Px86.Event.access))
        (Detector.races d))

let prop_fully_flushed_baseline_clean =
  QCheck.Test.make ~name:"store+clflush+mfence programs are baseline-clean" ~count:60
    QCheck.(int_range 1 8) (fun n ->
      let pre () =
        let base = Pmem.alloc ~align:64 (8 * 64) in
        Pmem.set_root 0 base;
        for i = 0 to n - 1 do
          Pmem.store ~label:"s" (base + (64 * i)) (Int64.of_int i);
          Pmem.clflush (base + (64 * i));
          Pmem.mfence ()
        done
      in
      let post () =
        let base = Pmem.get_root 0 in
        for i = 0 to n - 1 do
          ignore (Pmem.load (base + (64 * i)))
        done
      in
      let d =
        scenario ~mode:Detector.Baseline ~plan:Executor.Crash_at_end ~pre ~post ()
      in
      Detector.races d = [])

let () =
  ignore real_labels;
  Alcotest.run "detector"
    [
      ( "figures",
        [
          Alcotest.test_case "fig1 crash in window" `Quick test_fig1_crash_in_window;
          Alcotest.test_case "fig4a clflush protects (baseline)" `Quick
            test_fig4a_clflush_protects_baseline;
          Alcotest.test_case "fig4b clwb+fence protects (baseline)" `Quick
            test_fig4b_clwb_fence_protects_baseline;
          Alcotest.test_case "clwb without fence races" `Quick
            test_clwb_without_fence_races;
          Alcotest.test_case "fig5a coherence prevents" `Quick test_fig5a_coherence_prevents;
          Alcotest.test_case "fig5a needs read order" `Quick test_fig5a_requires_read_order;
          Alcotest.test_case "fig6a prefix finds after window" `Quick
            test_fig6a_prefix_finds_after_window;
          Alcotest.test_case "fig6b observed flush pins prefix" `Quick
            test_fig6b_observed_flush_pins_prefix;
          Alcotest.test_case "fig6b read order matters" `Quick test_fig6b_read_order_matters;
          Alcotest.test_case "section 4.2 multithreaded" `Quick test_section42_multithreaded;
        ] );
      ( "definition-5.1",
        [
          Alcotest.test_case "atomic store never races" `Quick test_atomic_store_never_races;
          Alcotest.test_case "relaxed atomic never races" `Quick
            test_relaxed_atomic_store_never_races;
        ] );
      ( "non-temporal",
        [
          Alcotest.test_case "fenced movnt safe (baseline)" `Quick
            test_nt_store_fenced_is_safe_baseline;
          Alcotest.test_case "prefix still races" `Quick test_nt_store_prefix_still_races;
          Alcotest.test_case "memcpy_nt_persist safe" `Quick
            test_nt_memcpy_persist_safe_baseline;
        ] );
      ( "candidates",
        [ Alcotest.test_case "candidate stores reported" `Quick test_candidate_reported ] );
      ( "benign",
        [ Alcotest.test_case "checksum validation" `Quick test_benign_classification ] );
      ( "multi-crash",
        [
          Alcotest.test_case "recovery race needs two crashes" `Quick
            test_multi_crash_recovery_race;
          Alcotest.test_case "state propagates" `Quick test_crash_state_propagates;
        ] );
      ( "exec-record",
        [
          Alcotest.test_case "storemap" `Quick test_exec_record_storemap;
          Alcotest.test_case "flushmap" `Quick test_exec_record_flushmap;
          Alcotest.test_case "clocks" `Quick test_exec_record_clocks;
          Alcotest.test_case "race rendering" `Quick test_race_rendering;
          QCheck_alcotest.to_alcotest prop_rendering_matches_format;
          Alcotest.test_case "snapshots survive joins" `Quick test_snapshot_survives_joins;
          Alcotest.test_case "a log is frozen" `Quick test_log_frozen;
        ] );
      ( "exhaustive",
        [ Alcotest.test_case "op-level crash sweep" `Quick test_exhaustive_op_crashes ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_all_atomic_no_race;
            prop_baseline_subset_of_prefix;
            prop_races_only_on_plain;
            prop_fully_flushed_baseline_clean;
            prop_matches_reference;
          ] );
    ]
