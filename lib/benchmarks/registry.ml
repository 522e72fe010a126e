let indexes =
  [
    Cceh.program;
    Fast_fair.program;
    P_art.program;
    P_bwtree.program;
    P_clht.program;
    P_masstree.program;
  ]

let frameworks =
  [
    Pmdk_btree.program;
    Pmdk_ctree.program;
    Pmdk_rbtree.program;
    Pmdk_hashmap.program_atomic;
    Pmdk_hashmap.program_tx;
    Redis.program;
    Memcached.program;
  ]

let all = indexes @ frameworks

(* Fault-injection demos: findable by name, never part of [all] (they
   are not in the paper's suite, and demo-diverge only terminates under
   a budget). *)
let demos = Demo_faults.all

(* Litmus programs ({!Litmus}): findable by name for check/witness, but
   never part of [all] — they validate the model variants, not the
   paper's suite, and check-all must stay comparable to Table 5. *)
let litmus = Litmus.programs

(* Soak op streams: the benchmarks whose client surface maps onto the
   soak driver's randomized get/set/delete/rmw shape. *)
let soak_streams = [ Memcached.soak_stream; Redis.soak_stream; Cceh.soak_stream ]

(* Fault-storm demo stream: findable by name for quarantine tests,
   never soaked by default. *)
let soak_demo_streams = [ Demo_faults.storm_stream ]

let find_soak_stream name =
  let target = String.lowercase_ascii name in
  List.find_opt
    (fun (s : Pm_harness.Soak.op_stream) ->
      String.lowercase_ascii s.Pm_harness.Soak.os_name = target)
    (soak_streams @ soak_demo_streams)

(* Rebuild a soak scenario's program from its encoded name, for corpus
   replay of soak witnesses. *)
let find_soak_program name =
  Pm_harness.Soak.find_program ~streams:(soak_streams @ soak_demo_streams) name

let find name =
  let target = String.lowercase_ascii name in
  match
    List.find_opt
      (fun (p : Pm_harness.Program.t) ->
        String.lowercase_ascii p.Pm_harness.Program.name = target)
      (all @ demos @ litmus)
  with
  | Some p -> p
  | None -> raise Not_found
