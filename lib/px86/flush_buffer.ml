type t = { mutable items : Event.flush list (* newest first *) }

let create () = { items = [] }
let is_empty t = t.items = []
let add t f = t.items <- f :: t.items

let drain t =
  let items = t.items in
  t.items <- [];
  List.rev items

let pending t = List.rev t.items
