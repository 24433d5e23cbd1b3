module Tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  (* every word, not the first ten the polymorphic hash looks at: two
     processes' configurations often differ only in their last regions *)
  let hash (a : t) = Array.fold_left (fun h w -> (h * 31) + w) 0 a land max_int
end)

type 'a t = { key : int array; tbl : (int * 'a) Tbl.t; mutable next : int }

let capacity = 64
let create ~words = { key = Array.make words 0; tbl = Tbl.create 16; next = 0 }
let key t = t.key

let intern t derive =
  match Tbl.find_opt t.tbl t.key with
  | Some e -> e
  | None ->
    if Tbl.length t.tbl >= capacity then Tbl.reset t.tbl;
    let e = (t.next, derive ()) in
    t.next <- t.next + 1;
    Tbl.add t.tbl (Array.copy t.key) e;
    e
