(* The fix the paper prescribes (sections 3.1, 7.2): replace racing
   non-atomic stores with atomic release stores.  On x86 the generated
   code is the same mov instruction — zero overhead — but the compiler
   may no longer tear or invent stores.

   This demo model-checks two implementations of the CCEH slot-commit
   protocol: the shipped (racy) one, and one with the atomic fix.

   Run with: dune exec examples/fix_demo.exe *)

open Pm_runtime

let slot_protocol ~fixed () =
  let atomic = if fixed then Some Px86.Access.Release else None in
  let store ?label addr v =
    match atomic with
    | Some order -> Pmem.store ?label ~atomic:order addr v
    | None -> Pmem.store ?label addr v
  in
  Pm_harness.Program.make
    ~name:(if fixed then "cceh-slot-fixed" else "cceh-slot-racy")
    ~setup:(fun () ->
      let pair = Pmem.alloc ~align:64 16 in
      Pmem.set_root 0 pair)
    ~pre:(fun () ->
      let pair = Pmem.get_root 0 in
      (* Segment::Insert: CAS-lock, value, mfence, key, persist. *)
      if Pmem.cas pair ~expected:0L ~desired:(-1L) then begin
        store ~label:"value" (pair + 8) 4200L;
        Pmem.mfence ();
        store ~label:"key" pair 42L;
        Pmem.persist pair 16
      end)
    ~post:(fun () ->
      let pair = Pmem.get_root 0 in
      (* CCEH::Get *)
      if Pmem.load pair = 42L then ignore (Pmem.load (pair + 8)))
    ()

let () =
  let report fixed =
    let r = (Pm_harness.Runner.model_check_outcome (slot_protocol ~fixed ())).o_report in
    Printf.printf "%-16s -> %d race(s)%s\n"
      (if fixed then "with atomic fix" else "as shipped")
      (List.length (Pm_harness.Report.real r))
      (match Pm_harness.Report.real r with
      | [] -> ""
      | fs ->
          ": "
          ^ String.concat ", "
              (List.map (fun (f : Pm_harness.Report.finding) -> f.Pm_harness.Report.label) fs))
  in
  print_endline "CCEH slot-commit protocol, model-checked at every crash point:";
  report false;
  report true;
  print_endline "\nthe fixed variant uses memory_order_release stores, which on x86";
  print_endline "compile to the same mov instructions (no overhead) but forbid the";
  print_endline "compiler from tearing the stores."
