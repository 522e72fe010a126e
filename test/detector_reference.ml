(* The detector as it was built on persistent maps and hash tables,
   kept as the reference model its flat-array replacement in [lib] is
   checked against (test_util.ml, test_detector.ml): a clock vector is
   a [Map] from tid to clock, an execution record keeps [Hashtbl]s keyed
   by address, line and commit seq, and a check finds its record in a
   [Hashtbl] and folds its flush list with [List.exists].  Counters are
   plain fields here; the library counts into [Observe.Metrics]. *)

module Clockvec = struct
  module Imap = Map.Make (Int)

  type t = int Imap.t

  let empty = Imap.empty
  let get cv tid = match Imap.find tid cv with c -> c | exception Not_found -> 0

  let set cv tid clk =
    if clk < 0 then invalid_arg "Clockvec.set: negative clock"
    else if clk = 0 then Imap.remove tid cv
    else Imap.add tid clk cv

  let tick cv tid = set cv tid (get cv tid + 1)
  let leq a b = Imap.for_all (fun tid c -> c <= get b tid) a

  let join a b =
    if leq b a then a
    else if leq a b then b
    else Imap.union (fun _ x y -> Some (max x y)) a b

  let equal a b = Imap.equal Int.equal a b
  let of_list assoc = List.fold_left (fun cv (tid, clk) -> set cv tid clk) empty assoc
  let to_list cv = Imap.bindings cv
end

module Exec_record = struct
  type flush_entry = Yashme.Exec_record.flush_entry = { fe_tid : int; fe_lclk : int }

  type t = {
    rid : int;
    storemap : (Px86.Addr.t, Px86.Event.store) Hashtbl.t;
    by_line : (int, Px86.Addr.t list ref) Hashtbl.t;
    flushmap : (int, flush_entry list ref) Hashtbl.t;
    lastflush : (int, Clockvec.t) Hashtbl.t;
    mutable cvpre : Clockvec.t;
  }

  let create ~id =
    {
      rid = id;
      storemap = Hashtbl.create 16;
      by_line = Hashtbl.create 16;
      flushmap = Hashtbl.create 16;
      lastflush = Hashtbl.create 16;
      cvpre = Clockvec.empty;
    }

  let id t = t.rid
  let store_at t addr = Hashtbl.find_opt t.storemap addr

  let set_store t (s : Px86.Event.store) =
    let addr = s.Px86.Event.addr in
    if not (Hashtbl.mem t.storemap addr) then begin
      let line = Px86.Addr.line addr in
      let addrs =
        match Hashtbl.find_opt t.by_line line with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.add t.by_line line r;
            r
      in
      addrs := addr :: !addrs
    end;
    Hashtbl.replace t.storemap addr s

  let line_addrs t line =
    match Hashtbl.find_opt t.by_line line with Some r -> !r | None -> []

  let flushes_of t seq =
    match Hashtbl.find_opt t.flushmap seq with Some r -> !r | None -> []

  let add_flush t ~seq entry =
    match Hashtbl.find_opt t.flushmap seq with
    | Some r -> r := entry :: !r
    | None -> Hashtbl.add t.flushmap seq (ref [ entry ])

  let lastflush t ~line =
    match Hashtbl.find_opt t.lastflush line with Some cv -> cv | None -> Clockvec.empty

  let join_lastflush t ~line cv =
    Hashtbl.replace t.lastflush line (Clockvec.join (lastflush t ~line) cv)

  let cvpre t = t.cvpre
  let join_cvpre t cv = t.cvpre <- Clockvec.join t.cvpre cv

  let clear_joins t =
    Hashtbl.reset t.lastflush;
    t.cvpre <- Clockvec.empty
end

module Detector = struct
  type mode = Yashme.Detector.mode = Prefix | Baseline

  (* The [detector/*] counters, by the name the library gives them. *)
  type counters = {
    mutable candidate_checks : int;
    mutable committed_checks : int;
    mutable atomic_loads : int;
    mutable cv_comparisons : int;
    mutable prefix_expansions : int;
    mutable flush_records : int;
    mutable races_raised : int;
    mutable races_benign : int;
    mutable pruned_coherence : int;
    mutable pruned_persisted : int;
  }

  let counter_list c =
    [
      ("detector/atomic_loads", c.atomic_loads);
      ("detector/candidate_checks", c.candidate_checks);
      ("detector/committed_checks", c.committed_checks);
      ("detector/cv_comparisons", c.cv_comparisons);
      ("detector/flush_records", c.flush_records);
      ("detector/prefix_expansions", c.prefix_expansions);
      ("detector/pruned_coherence", c.pruned_coherence);
      ("detector/pruned_persisted", c.pruned_persisted);
      ("detector/races_benign", c.races_benign);
      ("detector/races_raised", c.races_raised);
    ]

  type t = {
    dmode : mode;
    deadr : bool;
    dcoherence : bool;
    records : (int, Exec_record.t) Hashtbl.t;
    mutable reported : Yashme.Race.t list;  (* newest first *)
    counts : counters;
  }

  let create ?(mode = Prefix) ?(eadr = false) ?(coherence = true) () =
    {
      dmode = mode;
      deadr = eadr;
      dcoherence = coherence;
      records = Hashtbl.create 4;
      reported = [];
      counts =
        {
          candidate_checks = 0;
          committed_checks = 0;
          atomic_loads = 0;
          cv_comparisons = 0;
          prefix_expansions = 0;
          flush_records = 0;
          races_raised = 0;
          races_benign = 0;
          pruned_coherence = 0;
          pruned_persisted = 0;
        };
    }

  let races t = List.rev t.reported

  let begin_exec t ~id =
    let r = Exec_record.create ~id in
    Hashtbl.replace t.records id r;
    r

  (* Figure 8: record a flush for the latest store to every address on
     the flushed line that happens-before it and has no
     happens-before-earlier flush recorded. *)
  let note_flush t r ~line ~(flush_cv : Clockvec.t) ~entry =
    List.iter
      (fun addr ->
        match Exec_record.store_at r addr with
        | None -> ()
        | Some s ->
            let store_hb_flush = s.Px86.Event.lclk <= Clockvec.get flush_cv s.Px86.Event.tid in
            let already =
              List.exists
                (fun (e : Exec_record.flush_entry) ->
                  e.Exec_record.fe_lclk <= Clockvec.get flush_cv e.Exec_record.fe_tid)
                (Exec_record.flushes_of r s.Px86.Event.seq)
            in
            if store_hb_flush && not already then begin
              t.counts.flush_records <- t.counts.flush_records + 1;
              Exec_record.add_flush r ~seq:s.Px86.Event.seq entry
            end)
      (Exec_record.line_addrs r line)

  let load_atomic t ~exec ~(store : Px86.Event.store) ~cv =
    match Hashtbl.find_opt t.records exec with
    | None -> ()
    | Some r ->
        t.counts.atomic_loads <- t.counts.atomic_loads + 1;
        t.counts.prefix_expansions <- t.counts.prefix_expansions + 1;
        let line = Px86.Addr.line store.Px86.Event.addr in
        Exec_record.join_lastflush r ~line cv;
        Exec_record.join_cvpre r cv

  (* [cv] is [store]'s clock in this model's representation. *)
  let load_non_atomic t ~exec ~(store : Px86.Event.store) ~cv ~load_addr ~load_size ~load_tid
      ~load_exec ~commit ~benign =
    let c = t.counts in
    let comparison () = c.cv_comparisons <- c.cv_comparisons + 1 in
    match Hashtbl.find_opt t.records exec with
    | None -> None
    | Some r ->
        if commit then c.committed_checks <- c.committed_checks + 1
        else c.candidate_checks <- c.candidate_checks + 1;
        let result =
          if Px86.Access.is_atomic store.Px86.Event.access then None
          else begin
            let line = Px86.Addr.line store.Px86.Event.addr in
            let lastflush = Exec_record.lastflush r ~line in
            let covered_by_coherence =
              t.dcoherence
              && begin
                   comparison ();
                   Clockvec.get cv store.Px86.Event.tid
                   <= Clockvec.get lastflush store.Px86.Event.tid
                 end
            in
            let flush_counts (e : Exec_record.flush_entry) =
              match t.dmode with
              | Baseline -> true
              | Prefix ->
                  comparison ();
                  e.Exec_record.fe_lclk <= Clockvec.get (Exec_record.cvpre r) e.Exec_record.fe_tid
            in
            let persisted =
              if t.deadr then (
                match t.dmode with
                | Baseline -> true
                | Prefix ->
                    comparison ();
                    store.Px86.Event.lclk <= Clockvec.get (Exec_record.cvpre r) store.Px86.Event.tid)
              else List.exists flush_counts (Exec_record.flushes_of r store.Px86.Event.seq)
            in
            if covered_by_coherence || persisted then begin
              if covered_by_coherence then c.pruned_coherence <- c.pruned_coherence + 1
              else c.pruned_persisted <- c.pruned_persisted + 1;
              None
            end
            else begin
              let race =
                {
                  Yashme.Race.store;
                  store_exec = exec;
                  load_addr;
                  load_size;
                  load_tid;
                  load_exec;
                  committed = commit;
                  benign;
                }
              in
              if benign then c.races_benign <- c.races_benign + 1
              else c.races_raised <- c.races_raised + 1;
              t.reported <- race :: t.reported;
              Some race
            end
          end
        in
        if commit then begin
          c.prefix_expansions <- c.prefix_expansions + 1;
          Exec_record.join_cvpre r cv
        end;
        result
end
