module Clockvec = Yashme_util.Clockvec

type flush_entry = { fe_tid : int; fe_lclk : int }

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

(* Only post-crash loads join [lastflush] and [cvpre]; a reset table has
   the bucket array [create] gave it, so a cleared record is the record
   its pre-crash run left. *)
let joins_empty t =
  Hashtbl.length t.lastflush = 0 && Clockvec.equal t.cvpre Clockvec.empty

let clear_joins t =
  Hashtbl.reset t.lastflush;
  t.cvpre <- Clockvec.empty
