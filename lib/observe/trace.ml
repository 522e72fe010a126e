(* A trace sink for structured events, exported as Chrome
   about://tracing JSON ({"traceEvents":[...]}) or machine-readable
   JSONL (one event object per line).

   Events are recorded into per-domain {!Sharded} buffers (one mutex
   per shard, domains collide only modulo the shard count) and merged at
   export.  Recording is off until [start]; every emit is a no-op
   behind one [Atomic.get] branch, so instrumentation left in hot
   paths costs one load + branch when tracing is disabled. *)

type phase = Complete | Instant

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_us : int;
  dur_us : int; (* 0 for instants *)
  pid : int;
  tid : int;
  args : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Clock: wall time clamped to never run backwards, so span durations
   and event order stay sane across NTP steps.  Only consulted while
   recording, so the shared CAS cell is off every disabled path. *)

let last_us = Atomic.make 0

let now_us () =
  let t = int_of_float (Unix.gettimeofday () *. 1e6) in
  let rec clamp () =
    let l = Atomic.get last_us in
    if t <= l then l else if Atomic.compare_and_set last_us l t then t else clamp ()
  in
  clamp ()

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let recording_flag = Atomic.make false
let recording () = Atomic.get recording_flag

type shard = { lock : Mutex.t; mutable shard_events : event list (* newest first *) }

let shards = Sharded.make (fun () -> { lock = Mutex.create (); shard_events = [] })

let clear () =
  Sharded.iter
    (fun s -> Mutex.protect s.lock (fun () -> s.shard_events <- []))
    shards

let start () =
  clear ();
  Atomic.set recording_flag true

let stop () = Atomic.set recording_flag false

(* Ambient (pid, tid) of the calling domain: the engine labels each
   worker's lane once and every span emitted underneath inherits it,
   so executor/machine instrumentation needs no plumbing. *)
let context : (int * int) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let set_context ~pid ~tid = Domain.DLS.set context (Some (pid, tid))
let clear_context () = Domain.DLS.set context None

let default_pid_tid () =
  match Domain.DLS.get context with
  | Some c -> c
  | None -> (0, (Domain.self () :> int))

let record ev =
  let s = Sharded.local shards in
  Mutex.protect s.lock (fun () -> s.shard_events <- ev :: s.shard_events)

let complete ?(cat = "") ?pid ?tid ?(args = []) ~ts_us ~dur_us name =
  if recording () then begin
    let dpid, dtid = default_pid_tid () in
    let pid = Option.value ~default:dpid pid
    and tid = Option.value ~default:dtid tid in
    record { name; cat; ph = Complete; ts_us; dur_us; pid; tid; args }
  end

let instant ?(cat = "") ?pid ?tid ?(args = []) name =
  if recording () then begin
    let dpid, dtid = default_pid_tid () in
    let pid = Option.value ~default:dpid pid
    and tid = Option.value ~default:dtid tid in
    record { name; cat; ph = Instant; ts_us = now_us (); dur_us = 0; pid; tid; args }
  end

(* Parents first: ascending start, longer spans first on ties. *)
let parents_first a b =
  match compare a.ts_us b.ts_us with 0 -> compare b.dur_us a.dur_us | c -> c

(* Merged events, earliest first; at equal timestamps longer spans
   sort first so enclosing spans precede their children.  When both the
   timestamp and the duration tie (sub-microsecond spans), fall back to
   reverse recording order within the shard: a span is recorded when it
   ends, so the enclosing span is recorded after — and must still sort
   before — its children. *)
let events () =
  let all =
    Sharded.fold
      (fun acc s ->
        List.rev_append (List.mapi (fun i e -> (i, e)) s.shard_events) acc)
      [] shards
  in
  List.stable_sort
    (fun (ia, a) (ib, b) -> match parents_first a b with 0 -> compare ia ib | c -> c)
    all
  |> List.map snd

(* ------------------------------------------------------------------ *)
(* Lanes                                                                *)

(* Group by (pid, tid), lanes in key order, each lane parents first
   (stable, so equal spans keep their input order). *)
let lanes events =
  let tbl : (int * int, event list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let k = (e.pid, e.tid) in
      Hashtbl.replace tbl k (e :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    events;
  Hashtbl.fold (fun k evs acc -> (k, List.rev evs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (k, evs) -> (k, List.stable_sort parents_first evs))

(* Stack scan of one lane's spans, parents first: a span starting
   before the stack top ends is its child, and its duration is charged
   to the parent's child time, making parent self = dur - children. *)
let nest lane f =
  (* stack entries: (end_ts, child duration accumulator, event) *)
  let stack = ref [] in
  let rec unwind ts =
    match !stack with
    | ((end_ts, children, ev) :: rest) when end_ts <= ts ->
        stack := rest;
        f ev ~self_us:(max 0 (ev.dur_us - !children)) ~top_level:(rest = []);
        unwind ts
    | _ -> ()
  in
  List.iter
    (fun e ->
      if e.ph = Complete then begin
        unwind e.ts_us;
        (match !stack with
        | (_, children, _) :: _ -> children := !children + e.dur_us
        | [] -> ());
        stack := (e.ts_us + e.dur_us, ref 0, e) :: !stack
      end)
    lane;
  unwind max_int

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)

module Json = Yashme_util.Json

let event_json buf ev =
  Buffer.add_string buf "{\"name\":";
  Buffer.add_string buf (Json.escape ev.name);
  Buffer.add_string buf ",\"cat\":";
  Buffer.add_string buf (Json.escape ev.cat);
  (match ev.ph with
  | Complete ->
      Buffer.add_string buf
        (Printf.sprintf ",\"ph\":\"X\",\"ts\":%d,\"dur\":%d" ev.ts_us ev.dur_us)
  | Instant ->
      Buffer.add_string buf
        (Printf.sprintf ",\"ph\":\"i\",\"s\":\"t\",\"ts\":%d" ev.ts_us));
  Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d,\"args\":{" ev.pid ev.tid);
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Json.escape k);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Json.escape v))
    ev.args;
  Buffer.add_string buf "}}"

let to_chrome_json () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n";
      event_json buf ev)
    (events ());
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let to_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      event_json buf ev;
      Buffer.add_char buf '\n')
    (events ());
  Buffer.contents buf

let event_count () = List.length (events ())

let is_jsonl path = Filename.check_suffix path ".jsonl"

let write path =
  Yashme_util.Atomic_file.write path
    (if is_jsonl path then to_jsonl () else to_chrome_json ())

(* Validation goes through the one codec ({!Yashme_util.Json}); an
   empty file is rejected in both formats, so a trace truncated at
   birth never lints clean. *)
let check_file path =
  if is_jsonl path then
    Result.map ignore (Json.load_lines ~what:"trace file" path Json.parse)
  else Result.map ignore (Json.load ~what:"trace file" path)
