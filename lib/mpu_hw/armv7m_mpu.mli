(** Register-level model of the ARMv7-M memory protection unit (PMSAv7).

    This is the hardware the Cortex-M MPU drivers program. The model keeps
    the architectural register state — per-region RBAR/RASR pairs plus the
    CTRL register — and implements the PMSAv7 access-check semantics:

    - 8 regions, each a power-of-two-sized, size-aligned block of at least
      32 bytes, described by a base-address register (RBAR) and an
      attribute/size register (RASR);
    - each region of 256 bytes or more is split into 8 equal subregions that
      can be individually disabled through the RASR.SRD field;
    - on overlap, the {e highest-numbered} matching region wins;
    - unprivileged accesses with no matching region fault; privileged
      accesses fall back to the default memory map when CTRL.PRIVDEFENA is
      set (Tock's configuration).

    The constraints encoded here — power-of-two sizes, size alignment, the
    8-subregion split — are exactly the hardware requirements of §3.1 whose
    entanglement with kernel logic produced the grant-overlap bug. *)

type t

val region_count : int
(** 8 on every ARMv7-M part Tock supports. *)

val min_region_size : int
(** 32 bytes. *)

val min_subregion_region_size : int
(** 256 bytes: below this, SRD must be zero (no subregion support). *)

val granule_bits : int
(** log2 of the finest granularity at which an access decision can ever
    change: 5 (32 bytes), because regions are size-aligned powers of two
    >= 32 and subregions are size/8 >= 32. *)

val decision_granule_bits : t -> int
(** The granularity of the {e active} configuration — the minimum
    region/subregion step of the enabled regions (>= {!granule_bits},
    capped at 4 KiB). Handed to the bus decision cache; derived, with the
    configuration id, on the first query after a register change. *)

val create : unit -> t

(** {1 Register encoding helpers}

    Bit layouts follow the ARMv7-M ARM (B3.5.8 and B3.5.9). *)

val encode_rbar : addr:Word32.t -> region:int -> Word32.t
(** ADDR\[31:5\] | VALID (bit 4) | REGION\[3:0\]. Requires [addr] 32-byte
    aligned and [region < 8]. *)

val encode_rasr :
  enable:bool -> size:int -> srd:int -> perms:Perms.t -> Word32.t
(** [size] is the region size in bytes (power of two, >= 32); encoded as
    SIZE\[5:1\] with region size [2{^SIZE+1}]. [srd] is the 8-bit subregion
    disable mask. Permissions are translated to AP\[26:24\] and XN\[28\]
    for {e unprivileged} access with full privileged access, matching how
    Tock grants itself access while restricting processes. *)

val decode_rbar_addr : Word32.t -> Word32.t
val decode_rbar_region : Word32.t -> int
val decode_rasr_enable : Word32.t -> bool
val decode_rasr_size : Word32.t -> int
(** Region size in bytes. *)

val decode_rasr_srd : Word32.t -> int
val decode_rasr_perms : Word32.t -> Perms.t option
(** Unprivileged permission set implied by AP/XN; [None] when AP encodes
    "no unprivileged access". *)

(** {1 Register file} *)

val write_region : t -> index:int -> rbar:Word32.t -> rasr:Word32.t -> unit
(** Program one region's register pair. Charges
    2 × {!Mach.Cycles.mpu_reg_write} to the global counter, like two MMIO
    stores on hardware, whether or not the values change. Raises
    [Invalid_argument] on a malformed pair (unaligned base, SRD on a small
    region) — hardware behaviour is UNPREDICTABLE there, so the model
    refuses. *)

val clear_region : t -> index:int -> unit
(** Disable a region (RASR.ENABLE := 0). *)

val read_region : t -> index:int -> Word32.t * Word32.t

val set_enabled : t -> bool -> unit
(** CTRL.ENABLE, with CTRL.PRIVDEFENA fixed to 1 (Tock's setting). *)

val enabled : t -> bool

val generation : t -> int
(** Configuration id, the bus decision-cache generation: interned from the
    exact RBAR/RASR contents and CTRL.ENABLE (see {!Config_ids}). The same
    contents give the same id, so decisions cached under a configuration
    validate again when a context switch brings it back; any changed word
    gives a new id. *)

val set_obs : t -> Obs.Event.sink option -> unit
(** Attach an observability sink; every register write that changes a
    register emits one reconfiguration event (identical rewrites emit
    nothing). [None] detaches. *)

(** {1 Access semantics} *)

val check_access :
  t -> privileged:bool -> Word32.t -> Perms.access -> (unit, string) result
(** The PMSAv7 permission check for a single byte access. *)

val accessible_ranges : t -> Perms.access -> Range.t list
(** All maximal address ranges an {e unprivileged} access of the given kind
    may touch — derived by walking regions and subregions. Used by tests and
    the verifier to compare hardware-enforced layout against the kernel's
    logical view. *)

val checker : t -> cpu_privileged:(unit -> bool) -> Memory.checker
(** Adapter for {!Mach.Memory.set_checker}: consults the live CPU privilege
    state on each access, and exposes the configuration id and decision
    granularity so the bus may cache allow decisions. *)

val pp : Format.formatter -> t -> unit

(** {1 Whole-state capture (snapshot subsystem)} *)

type state

val capture_state : t -> state
val restore_state : t -> state -> unit

val fingerprint : t -> int64
(** FNV-1a over the architecturally visible state (never host-side caches
    or configuration ids). *)
