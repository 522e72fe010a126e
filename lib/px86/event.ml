type store = {
  mutable seq : int;
  tid : int;
  lclk : int;
  cv : Yashme_util.Clockvec.t;
  addr : Addr.t;
  size : int;
  value : int64;
  access : Access.t;
  nt : bool;
  label : string option;
}

type flush_kind = Clflush | Clwb

type flush = {
  mutable fseq : int;
  ftid : int;
  flclk : int;
  fcv : Yashme_util.Clockvec.t;
  faddr : Addr.t;
  kind : flush_kind;
}

type fence_kind = Sfence | Mfence

type fence = {
  ktid : int;
  klclk : int;
  kcv : Yashme_util.Clockvec.t;
  kkind : fence_kind;
}

let store_covers s a n = s.addr <= a && a + n <= s.addr + s.size
let store_overlaps s a n = s.addr < a + n && a < s.addr + s.size

let store_to_string s =
  String.concat ""
    [
      "store[";
      (match s.label with Some l -> l | None -> "?");
      " tid=";
      string_of_int s.tid;
      " lclk=";
      string_of_int s.lclk;
      " seq=";
      string_of_int s.seq;
      " ";
      Addr.to_string s.addr;
      "..+";
      string_of_int s.size;
      " = ";
      Int64.to_string s.value;
      " ";
      Access.to_string s.access;
      "]";
    ]

let pp_flush ppf f =
  Format.fprintf ppf "%s[tid=%d lclk=%d seq=%d line=%d]"
    (match f.kind with Clflush -> "clflush" | Clwb -> "clwb")
    f.ftid f.flclk f.fseq (Addr.line f.faddr)
