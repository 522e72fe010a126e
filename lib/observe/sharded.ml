(* Per-domain cells merged on read: the one sharding scheme of the
   observe layer.  Domain ids map to cells by masking, so two domains
   share a cell only modulo [shards]; cells that can be shared are
   atomics or carry their own lock. *)

type 'a t = 'a array

let shards = 64 (* power of two; domain ids map to cells by masking *)

let make f = Array.init shards (fun _ -> f ())
let local t = t.((Domain.self () :> int) land (shards - 1))
let fold = Array.fold_left
let iter = Array.iter

type counter = int Atomic.t t

let counter () = make (fun () -> Atomic.make 0)
let add c n = ignore (Atomic.fetch_and_add (local c) n)
let sum c = fold (fun acc cell -> acc + Atomic.get cell) 0 c
let zero c = iter (fun cell -> Atomic.set cell 0) c
