module Clockvec = Yashme_util.Clockvec

(* The CVpre the detector checked [race] against: the detector's logged
   post-crash calls, replayed into a fresh detector over the cleared
   record, up to the call that raises [race].  The replay runs to the
   end, putting back the joins the recovery left, so the record ends as
   it was found. *)
let checked_cvpre ~detector ~record (race : Yashme.Race.t) =
  let log = Yashme.Detector.logged detector in
  if Yashme.Detector.log_length log = 0 then Yashme.Exec_record.cvpre record
  else begin
    let fresh =
      Yashme.Detector.create ~mode:(Yashme.Detector.mode detector)
        ~eadr:(Yashme.Detector.eadr detector)
        ~coherence:(Yashme.Detector.coherence detector) ()
    in
    Yashme.Detector.adopt fresh record;
    Yashme.Exec_record.clear_joins record;
    let at_check = ref None in
    for i = 0 to Yashme.Detector.log_length log - 1 do
      let cvpre = Yashme.Exec_record.cvpre record in
      match Yashme.Detector.replay_call fresh log i with
      | Some r when Option.is_none !at_check && r = race -> at_check := Some cvpre
      | Some _ | None -> ()
    done;
    Option.value !at_check ~default:(Yashme.Exec_record.cvpre record)
  end

let prefix_bound ~detector ~race:(r : Yashme.Race.t) =
  Option.map
    (fun record ->
      Clockvec.join (checked_cvpre ~detector ~record r) r.Yashme.Race.store.Px86.Event.cv)
    (Yashme.Detector.record detector ~id:r.Yashme.Race.store_exec)

let explain ?(variant = Px86.Variant.default_label) ~trace ~detector
    ~race:(r : Yashme.Race.t) () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Yashme.Race.to_string r);
  (* Non-default variants are part of the witness identity — without
     the line, a reader would replay the race under the wrong model.
     The default renders nothing, keeping historical output. *)
  if variant <> Px86.Variant.default_label then
    Buffer.add_string buf (Printf.sprintf "\n  [variant %s]" variant);
  Buffer.add_string buf "\n  witness (E+ combined with E'):\n";
  (match prefix_bound ~detector ~race:r with
  | None -> Buffer.add_string buf "    (pre-crash execution not recorded)\n"
  | Some cvpre ->
      let prefix = Px86.Trace.prefix trace ~cvpre in
      Buffer.add_string buf
        (Printf.sprintf
           "    consistent prefix CVpre = %s (%d of %d committed events)\n"
           (Format.asprintf "%a" Clockvec.pp cvpre)
           (List.length prefix)
           (List.length (Px86.Trace.entries trace)));
      List.iter
        (fun e ->
          Buffer.add_string buf
            (Printf.sprintf "    | %s\n" (Format.asprintf "%a" Px86.Trace.pp_entry e)))
        prefix;
      Buffer.add_string buf
        (Printf.sprintf "    the racing store itself: %s\n"
           (Format.asprintf "%a" Px86.Event.pp_store r.Yashme.Race.store));
      Buffer.add_string buf
        "    every pre-crash prefix extending E+ without flushing this store\n\
        \    crashes with the store only partially persistent.\n");
  Buffer.contents buf
