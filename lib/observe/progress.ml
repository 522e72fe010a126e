(* Live exploration progress.

   The engine announces each batch ([batch n]) and ticks once per
   finished scenario; this module turns the ticks into a throttled
   heartbeat on stderr and, optionally, a machine-readable JSONL
   stream (one flat object per emission, accepted by
   [Trace.check_file]).

   Progress is wall-clock by nature (rate, ETA), so it is kept
   strictly out of the deterministic report path: nothing here is read
   back by the harness, and when inactive a tick costs one [Atomic.get]
   branch. *)

let active = Atomic.make false
let is_active () = Atomic.get active

type state = {
  mutable total : int;
  mutable finished : int;
  mutable races : int;
  mutable faults : int;
  mutable jobs : int;
  lanes : (int, int) Hashtbl.t;  (* worker slot -> scenarios finished *)
  mutable t0 : float;
  mutable last_emit : float;
  mutable interval_s : float;
  mutable heartbeat : bool;
  mutable jsonl : Yashme_util.Atomic_file.stream option;
  mutable emitted : int;
}

let lock = Mutex.create ()

let st =
  {
    total = 0;
    finished = 0;
    races = 0;
    faults = 0;
    jobs = 0;
    lanes = Hashtbl.create 8;
    t0 = 0.;
    last_emit = 0.;
    interval_s = 0.5;
    heartbeat = true;
    jsonl = None;
    emitted = 0;
  }

(* Rate and ETA are clamped to finite non-negative values: a tick
   arriving before any work (or before the clock advances), a zero op
   rate, or a clock step backwards must never leak inf/nan into the
   stderr heartbeat or the JSONL stream. *)
let finite f =
  match Float.classify_float f with FP_nan | FP_infinite -> 0. | _ -> f

let rate_of ~elapsed_s ~finished =
  if elapsed_s > 0. && finished > 0 then
    finite (float_of_int finished /. elapsed_s)
  else 0.

let eta_of ~rate ~remaining =
  if rate > 0. && remaining > 0 then finite (float_of_int remaining /. rate)
  else 0.

(* "slot:count" per worker lane, ascending slot — the final summary's
   after-the-fact attribution of scenarios to domains. *)
let lanes_label () =
  Hashtbl.fold (fun lane n acc -> (lane, n) :: acc) st.lanes []
  |> List.sort compare
  |> List.map (fun (lane, n) -> Printf.sprintf "%d:%d" lane n)
  |> String.concat ","

(* One emission; call with the lock held.  [final] appends the run
   identity (jobs, per-domain scenario counts) to the JSONL line;
   throttled mid-run lines keep the historical shape. *)
let emit ?(final = false) ~now () =
  st.last_emit <- now;
  st.emitted <- st.emitted + 1;
  let elapsed_s = Float.max 0. (now -. st.t0) in
  let remaining = max 0 (st.total - st.finished) in
  let rate = rate_of ~elapsed_s ~finished:st.finished in
  let eta_s = eta_of ~rate ~remaining in
  (* The heartbeat is stderr chatter like any log line: level [off]
     (--quiet) silences it.  The JSONL stream is machine-facing and
     unaffected. *)
  if st.heartbeat && not (Log.quiet ()) then begin
    let pct =
      if st.total > 0 then 100. *. float_of_int st.finished /. float_of_int st.total
      else 0.
    in
    (* With work remaining but no observed rate yet, there is no ETA to
       claim — print "--" rather than a misleading 0.0s. *)
    let eta =
      if remaining > 0 && rate <= 0. then "--"
      else Printf.sprintf "%.1fs" eta_s
    in
    Printf.eprintf
      "yashme: progress %d/%d scenario(s) (%.0f%%), %.1f/s, %d race(s), %d \
       fault(s), eta %s\n\
       %!"
      st.finished st.total pct rate st.races st.faults eta
  end;
  match st.jsonl with
  | None -> ()
  | Some s ->
      let summary =
        if final && st.jobs > 0 then
          Printf.sprintf ",\"jobs\":%d,\"per_domain\":\"%s\"" st.jobs
            (lanes_label ())
        else ""
      in
      Yashme_util.Atomic_file.output_string s
        (Printf.sprintf
           "{\"done\":%d,\"total\":%d,\"races\":%d,\"faults\":%d,\
            \"rate_per_s\":%.6f,\"eta_s\":%.6f,\"elapsed_s\":%.6f%s}\n"
           st.finished st.total st.races st.faults rate eta_s elapsed_s summary)

let start ?(interval_s = 0.5) ?(heartbeat = true) ?jsonl () =
  Mutex.protect lock (fun () ->
      (match st.jsonl with
      | Some s -> Yashme_util.Atomic_file.abort s
      | None -> ());
      st.total <- 0;
      st.finished <- 0;
      st.races <- 0;
      st.faults <- 0;
      st.jobs <- 0;
      Hashtbl.reset st.lanes;
      st.t0 <- Unix.gettimeofday ();
      st.last_emit <- 0.;
      st.interval_s <- interval_s;
      st.heartbeat <- heartbeat;
      st.jsonl <- Option.map Yashme_util.Atomic_file.stream jsonl;
      st.emitted <- 0);
  Atomic.set active true

let batch n =
  if Atomic.get active then
    Mutex.protect lock (fun () -> st.total <- st.total + n)

let set_jobs jobs =
  if Atomic.get active then
    Mutex.protect lock (fun () -> st.jobs <- jobs)

let tick ?lane ~races ~faulted () =
  if Atomic.get active then
    Mutex.protect lock (fun () ->
        st.finished <- st.finished + 1;
        st.races <- st.races + races;
        if faulted then st.faults <- st.faults + 1;
        (match lane with
        | Some l ->
            Hashtbl.replace st.lanes l
              (1 + Option.value ~default:0 (Hashtbl.find_opt st.lanes l))
        | None -> ());
        let now = Unix.gettimeofday () in
        if now -. st.last_emit >= st.interval_s then emit ~now ())

(* Final emission happens unconditionally, so a [--progress-out] file
   always carries at least one (summary) line even for runs faster
   than the throttle interval.  The JSONL stream only appears under its
   destination name here — the commit's atomic rename means a killed
   run leaves no truncated artifact behind. *)
let stop () =
  if not (Atomic.get active) then 0
  else begin
    Atomic.set active false;
    Mutex.protect lock (fun () ->
        emit ~final:true ~now:(Unix.gettimeofday ()) ();
        (match st.jsonl with
        | Some s -> Yashme_util.Atomic_file.commit s
        | None -> ());
        st.jsonl <- None;
        st.emitted)
  end
