(** A GPIO bank model: pin directions, output latches, input levels and a
    per-pin toggle count (what an LED blink test observes). *)

type direction = Input | Output

type pin = {
  mutable dir : direction;
  mutable out_level : bool;
  mutable in_level : bool;
  mutable toggles : int;
}

type t = { pins : pin array }

let create n =
  { pins = Array.init n (fun _ -> { dir = Input; out_level = false; in_level = false; toggles = 0 }) }

let pin_count t = Array.length t.pins

let check t n = if n < 0 || n >= Array.length t.pins then invalid_arg "gpio: pin"

let set_direction t n dir =
  check t n;
  Cycles.tick ~n:Cycles.mpu_reg_write Cycles.global;
  t.pins.(n).dir <- dir

let write t n level =
  check t n;
  Cycles.tick ~n:Cycles.mpu_reg_write Cycles.global;
  let p = t.pins.(n) in
  if p.dir <> Output then invalid_arg "gpio: write to input pin";
  if p.out_level <> level then p.toggles <- p.toggles + 1;
  p.out_level <- level

let toggle t n =
  check t n;
  let p = t.pins.(n) in
  write t n (not p.out_level)

let level t n =
  check t n;
  let p = t.pins.(n) in
  match p.dir with Input -> p.in_level | Output -> p.out_level

let read t n =
  let v = level t n in
  Cycles.tick ~n:Cycles.mpu_reg_write Cycles.global;
  v

let set_input t n level =
  check t n;
  t.pins.(n).in_level <- level

let toggles t n =
  check t n;
  t.pins.(n).toggles

let out_level t n =
  check t n;
  t.pins.(n).out_level

(* --- whole-state capture (snapshot subsystem) --- *)

type pin_state = { s_dir : direction; s_out : bool; s_in : bool; s_toggles : int }
type state = pin_state array

let capture_state t =
  Array.map
    (fun p -> { s_dir = p.dir; s_out = p.out_level; s_in = p.in_level; s_toggles = p.toggles })
    t.pins

let restore_state t (s : state) =
  Array.iteri
    (fun i ps ->
      let p = t.pins.(i) in
      p.dir <- ps.s_dir;
      p.out_level <- ps.s_out;
      p.in_level <- ps.s_in;
      p.toggles <- ps.s_toggles)
    s

let fingerprint t =
  Array.fold_left
    (fun h p ->
      Fp.int (Fp.bool (Fp.bool (Fp.bool h (p.dir = Output)) p.out_level) p.in_level) p.toggles)
    Fp.seed t.pins
