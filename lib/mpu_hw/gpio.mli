(** A GPIO bank model: pin directions, output latches, input levels and a
    per-pin toggle count (what an LED blink test observes). *)

type direction = Input | Output
type t

val create : int -> t
val pin_count : t -> int
val set_direction : t -> int -> direction -> unit

val write : t -> int -> bool -> unit
(** Drive an output pin; [Invalid_argument] on an input pin. Level changes
    are counted as toggles. *)

val toggle : t -> int -> unit

val read : t -> int -> bool
(** Input pins read the external level; output pins read back the latch. *)

val level : t -> int -> bool
(** What {!read} returns, without charging a bus access: for a caller
    deciding whether a read would see anything new. *)

val set_input : t -> int -> bool -> unit
(** Model the external world driving an input pin. *)

val toggles : t -> int -> int
val out_level : t -> int -> bool

(** {1 Whole-state capture (snapshot subsystem)} *)

type state

val capture_state : t -> state
val restore_state : t -> state -> unit

val fingerprint : t -> int64
(** FNV-1a over the architecturally visible state (never host-side caches
    or generation counters). *)
