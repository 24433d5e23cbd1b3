(** Order statistics over sample values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** The median of the better half of [xs] (the lower half when [lower]),
    about its upper or lower quartile. Other tenants of a shared host
    only ever slow a sample down, and they do it in stretches that can
    cover most of a run, so this is the statistic that reads the same
    from run to run. *)
let better_half_median ~lower xs =
  let a = sorted xs in
  let n = Array.length a in
  let h = (n + 1) / 2 in
  median (Array.to_list (if lower then Array.sub a 0 h else Array.sub a (n - h) h))

(** Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
    default "exclusive" method), so the spread this benchmark reports is
    the one an outside check computes. Needs at least two values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

(** Inter-quartile range as a share of the median; 0 for fewer than two
    values. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
    let q1, _, q3 = quartiles xs in
    let med = median xs in
    if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(** Nearest-rank percentile [p] (0 < p <= 100) of a non-empty array. *)
let percentile (a : float array) p =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
