(** FNV-1a 64-bit state fingerprints.

    Every snapshotable component folds its observable state into one of
    these; the snapshot layer combines them into a whole-board fingerprint
    the determinism tests compare. FNV-1a is not cryptographic — it only
    needs to make "same fingerprint" a trustworthy proxy for "byte-identical
    state" across a restore, and to be cheap enough to run after every
    round of a property suite.

    The fold is the textbook byte-at-a-time FNV-1a, computed a little-endian
    word at a time without allocating. Board pages are mostly zero words,
    and a zero byte only multiplies ([(h lxor 0) * prime]), so a run of [k]
    zero words folds as one multiply by [prime^(8k)]. *)

type t = int64

let seed = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* One byte step on byte [s/8] of the word [w]. *)
let[@inline] step h w s =
  Int64.mul (Int64.logxor h (Int64.logand (Int64.shift_right_logical w s) 0xffL)) prime

(* The eight byte steps of one little-endian word, least significant byte
   first. *)
let[@inline] word h w =
  step (step (step (step (step (step (step (step h w 0) w 8) w 16) w 24) w 32) w 40) w 48) w 56

let max_zero_run = 512

(* [zero_pow.(k)] = prime^(8k): the fold of [k] zero words. *)
let zero_pow =
  let p8 = word 1L 0L in
  let a = Array.make (max_zero_run + 1) 1L in
  for k = 1 to max_zero_run do
    a.(k) <- Int64.mul a.(k - 1) p8
  done;
  a

(* Full 63-bit OCaml ints are fed as 8 little-endian bytes of their
   sign-extended 64-bit value, so negative sentinels (-1 keys) and large
   words hash distinctly. *)
let int h v = word h (Int64.of_int v)
let int64 h v = word h v
let bool h v = byte h (if v then 1 else 0)

let fold_string h s =
  let len = String.length s in
  let words = len lsr 3 in
  let h = ref h and i = ref 0 in
  while !i < words do
    let w = String.get_int64_le s (!i lsl 3) in
    if Int64.equal w 0L then begin
      (* up to [max_zero_run] zero words in one multiply; a longer run
         continues on the next iteration *)
      let j = ref (!i + 1) in
      while
        !j < words
        && !j - !i < max_zero_run
        && Int64.equal (String.get_int64_le s (!j lsl 3)) 0L
      do
        incr j
      done;
      h := Int64.mul !h zero_pow.(!j - !i);
      i := !j
    end
    else begin
      h := word !h w;
      incr i
    end
  done;
  for k = words lsl 3 to len - 1 do
    h := byte !h (Char.code (String.unsafe_get s k))
  done;
  !h

let string h s = fold_string (int h (String.length s)) s
let bytes h b = string h (Bytes.unsafe_to_string b)
let ints h l = List.fold_left int (int h (List.length l)) l
let to_hex h = Printf.sprintf "%016Lx" h
