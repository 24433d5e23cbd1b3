(** Register-level model of the ARMv8-M memory protection unit (PMSAv8).

    The successor MPU on Cortex-M23/M33 parts Tock also supports. PMSAv8
    drops PMSAv7's power-of-two sizes and subregions entirely: a region is
    a base/limit pair with 32-byte granularity on both ends —

    - MPU_RBAR: BASE\[31:5\] | SH\[4:3\] | AP\[2:1\] | XN\[0\]
    - MPU_RLAR: LIMIT\[31:5\] | AttrIndx\[3:1\] | EN\[0\]

    covering the inclusive byte range [\[BASE, LIMIT | 0x1F\]]. Unlike
    PMSAv7 there is {e no} priority between regions: an access matching
    more than one enabled region faults (the architecture makes overlap
    UNPREDICTABLE; real cores fault), which this model enforces — so a
    driver bug that overlaps regions is caught by the hardware semantics
    rather than silently resolved. *)

type t

val region_count : int
(** 8 on the Cortex-M33 configurations Tock targets. *)

val granule : int
(** 32 bytes. *)

val granule_bits : int
(** log2 {!granule}: the finest granularity a configuration can express. *)

val decision_granule_bits : t -> int
(** Granularity of the {e active} configuration — minimum alignment of the
    enabled regions' boundaries (>= {!granule_bits}, capped at 4 KiB).
    Handed to the bus decision cache; derived, with the configuration id,
    on the first query after a register change. *)

val create : unit -> t

(** {1 Register encoding} *)

val encode_rbar : base:Word32.t -> perms:Perms.t -> Word32.t
(** Requires [base] 32-byte aligned. AP/XN encode the given unprivileged
    permission set with full privileged access, as Tock configures it. *)

val encode_rlar : limit:Word32.t -> enable:bool -> Word32.t
(** [limit] is the address of the {e last} covered byte; requires
    [limit land 0x1F = 0x1F] (i.e. ranges end on a granule boundary). *)

val decode_rbar_base : Word32.t -> Word32.t
val decode_rbar_perms : Word32.t -> Perms.t option
(** Unprivileged view; [None] when AP encodes privileged-only. *)

val decode_rlar_limit : Word32.t -> Word32.t
(** Last covered byte (low 5 bits forced to 1). *)

val decode_rlar_enable : Word32.t -> bool

(** {1 Register file} *)

val write_region : t -> index:int -> rbar:Word32.t -> rasr:Word32.t -> unit
(** (The second operand is the RLAR; named [rasr] for uniformity with the
    v7 driver plumbing.) Raises [Invalid_argument] on malformed values. *)

val clear_region : t -> index:int -> unit
val read_region : t -> index:int -> Word32.t * Word32.t
val set_enabled : t -> bool -> unit
val enabled : t -> bool

val generation : t -> int
(** Configuration id, the bus decision-cache generation: interned from the
    exact RBAR/RLAR contents and CTRL.ENABLE (see {!Config_ids}); the same
    contents give the same id, any changed word a new one. *)

val set_obs : t -> Obs.Event.sink option -> unit
(** Attach an observability sink; every register write that changes a
    register emits one reconfiguration event. [None] detaches. *)

(** {1 Access semantics} *)

val check_access :
  t -> privileged:bool -> Word32.t -> Perms.access -> (unit, string) result
(** PMSAv8 check: no match → privileged background map only (PRIVDEFENA);
    one match → that region's permissions; multiple matches → fault. *)

val accessible_ranges : t -> Perms.access -> Range.t list

val checker : t -> cpu_privileged:(unit -> bool) -> Memory.checker
(** Adapter for {!Mach.Memory.set_checker}: consults the live CPU privilege
    state per access and exposes the configuration id and decision
    granularity for the bus decision cache. *)

val pp : Format.formatter -> t -> unit

(** {1 Whole-state capture (snapshot subsystem)} *)

type state

val capture_state : t -> state
val restore_state : t -> state -> unit

val fingerprint : t -> int64
(** FNV-1a over the architecturally visible state (never host-side caches
    or configuration ids). *)
