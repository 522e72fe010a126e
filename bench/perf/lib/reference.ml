(* The reference kernel: a fixed loop of pseudo-random reads and writes
   over a 2 MiB int array, one array and one loop per domain the
   workload uses.  It allocates nothing and calls no code of the
   program, so only the machine moves its time.

   The machine a benchmark shares can run 10-40 % slower for seconds to
   minutes at a time, and a process sees this only as slower code.  The
   kernel is read before and after every check (or soak stream) of a
   pass, and the timings taken inside the check are scaled by
   [nominal_s] over the mean of the two readings.  Timings then read as
   on a machine where the kernel takes [nominal_s], and a change to the
   program moves them as much as it moves the raw ones.  Scaling per
   check rather than per pass halves the run-to-run spread again, since
   slow spells are often shorter than a pass. *)

let now = Unix.gettimeofday

(* The kernel's time on a quiet 2-core x86-64 VM (its tenth percentile
   there). *)
let nominal_s = 0.009

type t = { arenas : int array array; mutable last : float  (* latest reading *) }

let loop arena =
  let mask = Array.length arena - 1 in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 3_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = (!x lsr 7) land mask in
    acc := !acc + arena.(i);
    arena.(i) <- !acc land 0xFFFF
  done;
  ignore (Sys.opaque_identity !acc)

(* Mean seconds of one loop, run on every domain at once.  The mean,
   not the slowest domain: a multi-domain workload shares its work
   through a queue, so it runs at the domains' average speed. *)
let read t =
  let timed arena () =
    let t0 = now () in
    loop arena;
    now () -. t0
  in
  let helpers =
    List.init (Array.length t.arenas - 1) (fun i -> Domain.spawn (timed t.arenas.(i + 1)))
  in
  let own = timed t.arenas.(0) () in
  let times = own :: List.map Domain.join helpers in
  List.fold_left ( +. ) 0. times /. float (List.length times)

(* Arenas for [jobs] domains, touched once so that no reading pays for
   first-touch page faults. *)
let create ~jobs =
  let t = { arenas = Array.init jobs (fun _ -> Array.make (1 lsl 18) 0); last = 0. } in
  ignore (read t);
  t.last <- read t;
  t

(* Read the kernel; return the scale for timings taken since the
   previous reading (1 without a kernel). *)
let rescale = function
  | None -> 1.
  | Some t ->
      let k = read t in
      let scale = nominal_s /. ((t.last +. k) /. 2.) in
      t.last <- k;
      scale

(* Run [f]; return its result, its wall time, and the scale for timings
   taken inside it. *)
let timed kernel f =
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  (r, wall, rescale kernel)
