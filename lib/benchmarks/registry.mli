(** Name-indexed registry of all crash-test programs (the paper's
    benchmark suite). *)

(** All programs, in the row order of Table 5. *)
val all : Pm_harness.Program.t list

(** The PM index benchmarks evaluated with model checking (Table 3). *)
val indexes : Pm_harness.Program.t list

(** The frameworks evaluated in random mode (Table 4): PMDK example
    structures, Redis, Memcached. *)
val frameworks : Pm_harness.Program.t list

(** Fault-injection demos ({!Demo_faults}); findable by name but never
    part of {!all}. *)
val demos : Pm_harness.Program.t list

(** Litmus programs ({!Litmus}); findable by name but never part of
    {!all} (excluded from [check-all]). *)
val litmus : Pm_harness.Program.t list

(** Soak op streams ({!Pm_harness.Soak}) for the benchmarks with a
    randomized-client surface: memcached, redis, cceh. *)
val soak_streams : Pm_harness.Soak.op_stream list

(** Find a soak stream by (case-insensitive) name, the fault-storm demo
    stream ({!Demo_faults.storm_stream}) included: findable by name,
    never soaked by default. *)
val find_soak_stream : string -> Pm_harness.Soak.op_stream option

(** Rebuild a soak program from its encoded
    ["soak:STREAM:MIX:DIST:OPS:SEED"] name (corpus replay of soak
    witnesses); [None] for non-soak or malformed names. *)
val find_soak_program : string -> Pm_harness.Program.t option

(** Find by (case-insensitive) name, demos and litmus included; raises
    [Not_found]. *)
val find : string -> Pm_harness.Program.t

