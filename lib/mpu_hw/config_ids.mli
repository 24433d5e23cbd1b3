(** Configuration ids: the bus decision-cache key of an MPU/PMP model.

    A model's access check is a pure function of (register contents,
    privilege, address, access kind), so a cached allow decision stays
    sound for as long as the register contents are the same — not merely
    until the next register write. Each model instance interns the exact
    contents of its register file (plus its enable bits) here and reports
    the resulting id as its generation: a context switch from process A to
    B and back to A returns A's id, and every decision cached under A
    validates again.

    The table is bounded and per instance (no globals, so models on
    different domains never share it). On overflow it is cleared, but ids
    keep coming from the instance's monotonic counter, so a dropped
    configuration comes back under a fresh id and one id never names two
    different contents. Each entry also carries the model's derived
    decode of those contents, so a revisited configuration is not decoded
    again. *)

type 'a t

val create : words:int -> 'a t
(** A table for register files flattened into [words] integers. *)

val capacity : int
(** Entries kept before the table is cleared. *)

val key : 'a t -> int array
(** The reusable lookup key, [words] long: the model writes its live
    register contents here before each {!intern}. *)

val intern : 'a t -> (unit -> 'a) -> int * 'a
(** The id and derived value of the contents currently in {!key}. A known
    configuration returns its stored pair; a new one gets the next id and
    [derive ()], and is remembered. *)
