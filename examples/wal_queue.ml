(* A write-ahead-logged persistent queue built from scratch on the
   public Pmem API — the kind of application a Yashme user would write
   and then crash-test.

   Design: a ring of fixed-size records plus head/tail indices.
   - enqueue: write the record payload + checksum, persist it, then
     publish by storing the tail index with an ATOMIC release store and
     persisting it.
   - dequeue: read head record (validating its checksum), then advance
     the head index (atomic, persisted).

   One deliberately sloppy field is left in: a statistics counter
   updated with a plain store and flushed lazily — exactly the kind of
   "harmless" bookkeeping where persistency races hide in real code
   (cf. the Memcached and P-ART findings).  Yashme flags it; the data
   path stays clean.

   Run with: dune exec examples/wal_queue.exe *)

open Pm_runtime

let capacity = 8
let record_bytes = 64 (* one cache line: len@0, checksum@8, payload@16 *)
let payload_cap = 40

(* Queue descriptor (one line): head@0, tail@8, total_enqueued@16, ring@24. *)

let create () =
  let q = Pmem.alloc ~align:64 32 in
  let ring = Pmem.alloc ~align:64 (capacity * record_bytes) in
  Pmem.store (q + 24) (Int64.of_int ring);
  Pmem.persist q 32;
  Pmem.persist ring (capacity * record_bytes);
  Pmem.set_root 0 q;
  q

let open_existing () = Pmem.get_root 0

let ring q = Pmem.load_int (q + 24)
let head q = Pmem.load_int ~atomic:Px86.Access.Acquire q
let tail q = Pmem.load_int ~atomic:Px86.Access.Acquire (q + 8)
let record q i = ring q + (i mod capacity * record_bytes)

let enqueue q payload =
  assert (String.length payload <= payload_cap);
  let t = tail q in
  if t - head q >= capacity then false
  else begin
    let r = record q t in
    Pmem.store r (Int64.of_int (String.length payload));
    Pmem.store_bytes (r + 16) payload;
    Pmem.store (r + 8) (Pm_benchmarks.Bench_util.checksum_string payload);
    Pmem.persist r record_bytes;
    (* Publication: atomic, ordered after the record persist. *)
    Pmem.store ~atomic:Px86.Access.Release (q + 8) (Int64.of_int (t + 1));
    Pmem.persist (q + 8) 8;
    (* Sloppy bookkeeping: plain store, lazily flushed -> racy. *)
    Pmem.store ~label:"total_enqueued stats counter" (q + 16)
      (Int64.of_int (t + 1));
    true
  end

let dequeue q =
  let h = head q in
  if h >= tail q then None
  else begin
    let r = record q h in
    let value =
      Pmem.validating (fun () ->
          let n = Pmem.load_int r in
          if n < 0 || n > payload_cap then None
          else
            let data = Pmem.load_bytes (r + 16) n in
            if Pmem.load (r + 8) = Pm_benchmarks.Bench_util.checksum_string data then
              Some data
            else None)
    in
    Pmem.store ~atomic:Px86.Access.Release q (Int64.of_int (h + 1));
    Pmem.persist q 8;
    value
  end

let program =
  Pm_harness.Program.make ~name:"wal-queue"
    ~setup:(fun () -> ignore (create ()))
    ~pre:(fun () ->
      let q = open_existing () in
      List.iter
        (fun p -> ignore (enqueue q p))
        [ "job-1"; "job-2"; "job-3"; "job-4" ];
      ignore (dequeue q);
      ignore (dequeue q))
    ~post:(fun () ->
      let q = open_existing () in
      ignore (Pmem.load (q + 16)) (* the stats counter *);
      let rec drain n = match dequeue q with Some _ -> drain (n + 1) | None -> n in
      ignore (drain 0))
    ()

let () =
  (* Functional session. *)
  let _ =
    Executor.run ~exec_id:0 (fun () ->
        let q = create () in
        assert (enqueue q "hello");
        assert (enqueue q "world");
        assert (dequeue q = Some "hello");
        assert (dequeue q = Some "world");
        assert (dequeue q = None))
  in
  print_endline "wal-queue functional session: ok";

  (* Crash-test it. *)
  let report = (Pm_harness.Runner.model_check_outcome program).o_report in
  print_endline (Pm_harness.Report.to_string report);
  print_endline "\nthe data path (records + head/tail) is clean: payloads are";
  print_endline "persisted before atomic publication and validated by checksum.";
  print_endline "the plain-store statistics counter races, as Yashme reports —";
  print_endline "the same pattern as the Memcached and P-ART bookkeeping bugs."
