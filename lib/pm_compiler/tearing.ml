open Pm_runtime

let store_paired ?label addr v =
  Pmem.store ?label ~size:4 addr (Int64.logand v 0xFFFFFFFFL);
  Pmem.store ?label ~size:4 (addr + 4) (Int64.shift_right_logical v 32)
