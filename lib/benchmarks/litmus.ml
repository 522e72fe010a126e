open Pm_runtime
module Runner = Pm_harness.Runner
module Report = Pm_harness.Report
module Program = Pm_harness.Program
module Variant = Px86.Variant

(* Persistency-model litmus programs: each is a handful of labeled
   stores, flushes and fences at fixed addresses (no setup phase, no
   roots — roots would add their own flush points and "__root" races to
   every cell).  Run across the variant matrix, their race reports
   localize semantic divergence to a single model rule; the rendered
   table is pinned as a golden file (LITMUS_matrix.txt) and checked by
   CI and the test suite.

   Address map: one variable per cache line, starting at the heap base
   so the root slots (line 0) stay untouched. *)

let a = 64 (* line 1 *)
let b = 128 (* line 2 *)
let c = 192 (* line 3 *)

type case = {
  c_name : string;
  c_program : Program.t;
  c_options : Runner.options;  (* variant field overridden per column *)
  c_recovery : bool;  (** drive with [model_check_recovery_outcome] (two-crash) *)
  c_doc : string;
}

let mk ?(sb_policy = Px86.Machine.Eager) ?(seed = Runner.default_options.seed)
    ?(recovery = false) ~doc name pre post =
  {
    c_name = name;
    c_program = Program.make ~name ~pre ~post ();
    c_options = { Runner.default_options with sb_policy; seed };
    c_recovery = recovery;
    c_doc = doc;
  }

let read addr = ignore (Pmem.load_int addr)

(* store -> clwb -> sfence, read back unconditionally.  Prefix
   expansion makes every variant agree here: the recovery read races
   with the consistent prefix that has the store committed but the
   chain incomplete, whatever the fence later did.  A control row. *)
let flush_fence_chain =
  mk "litmus-flush-fence-chain"
    ~doc:"store a; clwb a; sfence | read a"
    (fun () ->
      Pmem.store_int ~label:"lit.a" a 1;
      Pmem.clwb a;
      Pmem.sfence ())
    (fun () -> read a)

(* clwb with no fence, read back unconditionally: the pre-flush prefix
   races under every variant (prefix expansion again), so this control
   pins that an unconditional read-back cannot tell Fb_immediate from
   Fb_at_fence — only the conditional publish shape below can. *)
let clwb_unfenced =
  mk "litmus-clwb-unfenced"
    ~doc:"store a; clwb a | read a"
    (fun () ->
      Pmem.store_int ~label:"lit.ua" a 1;
      Pmem.clwb a)
    (fun () -> read a)

(* Control: clflush applies at commit and cas/mfence drains are forced,
   so every variant (fence-nop included) agrees on this cell. *)
let clflush_strict =
  mk "litmus-clflush-strict"
    ~doc:"store a; clflush a; mfence | read a"
    (fun () ->
      Pmem.store_int ~label:"lit.ca" a 1;
      Pmem.clflush a;
      Pmem.mfence ())
    (fun () -> read a)

(* Publish pattern: data is flushed and fenced before the flag store.
   The recovery reads data only behind the flag, so the early crash
   plans see no race at all; at crash-at-end the unflushed flag always
   races, and fence-nop additionally races on the data it failed to
   persist — a key-set divergence, not just a count. *)
let publish_flag =
  mk "litmus-publish-flag"
    ~doc:"store a; clwb a; sfence; store b(flag) | if b read a"
    (fun () ->
      Pmem.store_int ~label:"lit.data" a 1;
      Pmem.clwb a;
      Pmem.sfence ();
      Pmem.store_int ~label:"lit.flag" b 1)
    (fun () -> if Pmem.load_int b = 1 then read a)

(* Epoch probe: a bare sfence (no flush) between data and flag.  Under
   per-line persistency the fence persists nothing and the data races;
   under epoch persistency the fence is a persist barrier and only the
   flag races. *)
let epoch_bare_fence =
  mk "litmus-epoch-bare-fence"
    ~doc:"store a; sfence(bare); store b(flag) | if b read a"
    (fun () ->
      Pmem.store_int ~label:"lit.edata" a 1;
      Pmem.sfence ();
      Pmem.store_int ~label:"lit.eflag" b 1)
    (fun () -> if Pmem.load_int b = 1 then read a)

(* movnt publish: the non-temporal store is durable at the fence
   without any flush, so a prefix containing the flag store has the
   data durable — except under fence-nop, where the write-combining
   buffer is never drained and the data races alongside the flag. *)
let movnt_fence =
  mk "litmus-movnt-fence"
    ~doc:"movnt a; sfence; store b(flag) | if b read a"
    (fun () ->
      Pmem.store ~label:"lit.nt" ~nt:true a 1L;
      Pmem.sfence ();
      Pmem.store_int ~label:"lit.ntflag" b 1)
    (fun () -> if Pmem.load_int b = 1 then read a)

(* Unfenced-clwb publish: no fence anywhere, so Fb_at_fence never
   applies the write-back and any prefix containing the flag has the
   data unflushed; Fb_immediate (relaxed) applies it at commit, which
   is hb-before the flag store, leaving only the flag racing. *)
let relaxed_publish =
  mk "litmus-relaxed-publish"
    ~doc:"store a; clwb a (no fence); store b(flag) | if b read a"
    (fun () ->
      Pmem.store_int ~label:"lit.rdata" a 1;
      Pmem.clwb a;
      Pmem.store_int ~label:"lit.rflag" b 1)
    (fun () -> if Pmem.load_int b = 1 then read a)

(* Store-buffer bypass probe: with background drain disabled, the only
   way the store ever reaches the cache is a load forced to stall.
   Under strict-tso the load forwards from the buffer and the store
   dies with the crash (no race — nothing durable was read); with
   bypass off the load drains, committing an unflushed store that the
   recovery then reads. *)
let sb_bypass_probe =
  mk "litmus-sb-bypass-probe" ~sb_policy:(Px86.Machine.Random_drain 0.0)
    ~doc:"store a; load a (no drain) | read a"
    (fun () ->
      Pmem.store_int ~label:"lit.bflag" a 1;
      read a)
    (fun () -> read a)

(* Store-buffer eviction-order probe: under Random_drain, strict-tso
   picks any Table-1-evictable entry (a clwb may overtake older stores
   to other lines) while sb-fifo evicts strictly in order, so the two
   consume the RNG differently and strand different suffixes in the
   buffer at the crash.  The seed is chosen so the difference is
   visible in the matrix (under seed 1, fifo order drains lit.fc before
   the crash that strict-tso's free pick leaves it stranded in). *)
let sb_fifo_probe =
  mk "litmus-sb-fifo-probe" ~sb_policy:(Px86.Machine.Random_drain 0.5) ~seed:1
    ~doc:"stores a,b,c + clwbs under random drain | read a,b,c"
    (fun () ->
      Pmem.store_int ~label:"lit.fa" a 1;
      Pmem.store_int ~label:"lit.fb" b 1;
      Pmem.clwb a;
      Pmem.clwb b;
      Pmem.store_int ~label:"lit.fc" c 1)
    (fun () ->
      read a;
      read b;
      read c)

(* Two fields on one cache line behind one clwb+sfence: per-line
   persist order keeps them atomic; the cell pins that no variant
   splits a line. *)
let same_line_pair =
  mk "litmus-same-line-pair"
    ~doc:"store a, a+8 (one line); clwb; sfence | read both"
    (fun () ->
      Pmem.store_int ~label:"lit.s1" a 1;
      Pmem.store_int ~label:"lit.s2" (a + 8) 1;
      Pmem.clwb a;
      Pmem.sfence ())
    (fun () ->
      read a;
      read (a + 8))

(* Double-crash control: the recovery procedure persists its own repair
   marker and the two-crash driver crashes inside it.  Prefix expansion
   keeps the counts equal across variants; the row pins that the
   two-crash scenario space itself is variant-stable. *)
let epoch_double_crash =
  mk "litmus-epoch-double-crash" ~recovery:true
    ~doc:"pre persists a | recovery: store b(marker); clwb; sfence; read a"
    (fun () ->
      Pmem.store_int ~label:"lit.dc" a 1;
      Pmem.clwb a;
      Pmem.sfence ())
    (fun () ->
      Pmem.store_int ~label:"lit.rec" b 1;
      Pmem.clwb b;
      Pmem.sfence ();
      read a)

let cases =
  [
    flush_fence_chain;
    clwb_unfenced;
    clflush_strict;
    publish_flag;
    epoch_bare_fence;
    movnt_fence;
    relaxed_publish;
    sb_bypass_probe;
    sb_fifo_probe;
    same_line_pair;
    epoch_double_crash;
  ]

let programs = List.map (fun case -> case.c_program) cases

(* ------------------------------------------------------------------ *)
(* The matrix                                                           *)

type cell = {
  races : (string * int * bool) list;  (* label, report count, benign *)
  recovery_failures : int;
}

type matrix = {
  m_variants : string list;  (* column labels; strict-tso first *)
  m_rows : (string * cell list) list;  (* per case, in [cases] order *)
}

let variants = List.map (fun (_, v, _) -> v) Variant.builtins

let run_case ?(jobs = 1) ~variant case =
  let options = { case.c_options with Runner.variant } in
  let o =
    if case.c_recovery then
      Runner.model_check_recovery_outcome ~options ~jobs case.c_program
    else Runner.model_check_outcome ~options ~jobs case.c_program
  in
  let report = o.Runner.o_report in
  {
    races =
      List.map
        (fun (f : Report.finding) ->
          (f.Report.label, f.Report.count, f.Report.benign))
        report.Report.findings;
    recovery_failures =
      List.fold_left
        (fun acc (r : Report.recovery_failure) -> acc + r.Report.rf_count)
        0 report.Report.recovery_failures;
  }

let run_matrix ?(jobs = 1) () =
  {
    m_variants = List.map Variant.label variants;
    m_rows =
      List.map
        (fun case ->
          ( case.c_name,
            List.map (fun variant -> run_case ~jobs ~variant case) variants ))
        cases;
  }

(* Compact cell form: "label:count[b] ...", "rf:n", or "-". *)
let cell_label cell =
  let races =
    List.map
      (fun (label, count, benign) ->
        Printf.sprintf "%s:%d%s" label count (if benign then "b" else ""))
      cell.races
  in
  let rf =
    if cell.recovery_failures = 0 then []
    else [ Printf.sprintf "rf:%d" cell.recovery_failures ]
  in
  match races @ rf with [] -> "-" | parts -> String.concat " " parts

(* Cells that differ from the strict-tso column carry a '*' — the
   divergences the matrix exists to surface. *)
let render m =
  let header = "litmus \\ variant" :: m.m_variants in
  let rows =
    List.map
      (fun (name, cells) ->
        let baseline = List.hd cells in
        name
        :: List.map
             (fun cell ->
               cell_label cell ^ (if cell <> baseline then " *" else ""))
             cells)
      m.m_rows
  in
  Yashme_util.Pretty.table ~header rows

(* [diverges m ~variant ~case]: does the named cell differ from its
   strict-tso baseline? *)
let diverges m ~variant ~case =
  match List.assoc_opt case m.m_rows with
  | None -> false
  | Some cells -> (
      match
        List.mapi (fun i v -> (v, i)) m.m_variants |> List.assoc_opt variant
      with
      | None -> false
      | Some i -> List.nth cells i <> List.hd cells)
