module Clockvec = Yashme_util.Clockvec

type entry =
  | Store of Event.store
  | Clflush of Event.flush
  | Clwb_queued of Event.flush
  | Clwb_applied of Event.flush * Event.fence
  | Nt_persisted of Event.store * Event.fence
  | Fence of Event.fence

type t = { mutable items : entry list (* newest first *) }

let recorder () =
  let t = { items = [] } in
  let push e = t.items <- e :: t.items in
  let observer =
    {
      Observer.on_store_commit = (fun s -> push (Store s));
      on_clflush_commit = (fun f -> push (Clflush f));
      on_clwb_commit = (fun f -> push (Clwb_queued f));
      on_flush_applied = (fun f ~fence -> push (Clwb_applied (f, fence)));
      on_nt_persisted = (fun s ~fence -> push (Nt_persisted (s, fence)));
      on_fence = (fun k -> push (Fence k));
    }
  in
  (t, observer)

let entries t = List.rev t.items

let entry_clock = function
  | Store s -> (s.Event.tid, s.Event.lclk)
  | Clflush f | Clwb_queued f -> (f.Event.ftid, f.Event.flclk)
  | Clwb_applied (_, k) | Nt_persisted (_, k) | Fence k -> (k.Event.ktid, k.Event.klclk)

let prefix t ~cvpre =
  List.filter
    (fun e ->
      let tid, lclk = entry_clock e in
      lclk <= Clockvec.get cvpre tid)
    (entries t)

let pp_entry ppf = function
  | Store s -> Format.pp_print_string ppf (Event.store_to_string s)
  | Clflush f -> Event.pp_flush ppf f
  | Clwb_queued f -> Format.fprintf ppf "%a (queued)" Event.pp_flush f
  | Clwb_applied (f, k) ->
      Format.fprintf ppf "%a applied by %s[tid=%d lclk=%d]" Event.pp_flush f
        (match k.Event.kkind with Event.Sfence -> "sfence" | Event.Mfence -> "mfence")
        k.Event.ktid k.Event.klclk
  | Nt_persisted (s, k) ->
      Format.fprintf ppf "%s (movnt) persisted by %s[tid=%d lclk=%d]"
        (Event.store_to_string s)
        (match k.Event.kkind with Event.Sfence -> "sfence" | Event.Mfence -> "mfence")
        k.Event.ktid k.Event.klclk
  | Fence k ->
      Format.fprintf ppf "%s[tid=%d lclk=%d]"
        (match k.Event.kkind with Event.Sfence -> "sfence" | Event.Mfence -> "mfence")
        k.Event.ktid k.Event.klclk

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri (fun i e -> Format.fprintf ppf "%s%3d: %a" (if i > 0 then "\n" else "") i pp_entry e)
    (entries t);
  Format.fprintf ppf "@]"
