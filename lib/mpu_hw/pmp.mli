(** Register-level model of the RISC-V Physical Memory Protection unit.

    RV32 PMP is the "MPU" of the paper's three RISC-V targets. Each entry is
    an 8-bit configuration ([pmpNcfg]: R, W, X, address-matching mode A, lock
    L) plus an address CSR ([pmpaddrN], holding a physical address shifted
    right by 2). Compared with the Cortex-M MPU, PMP is far more flexible —
    TOR entries give byte-pair granularity with no power-of-two or alignment
    constraints — which is why the paper's [RegionDescriptor] for PMP simply
    reports the exact configured start and size (§3.5).

    Semantics implemented (RISC-V privileged spec §3.7):
    - matching modes OFF, TOR, NA4, NAPOT;
    - the {e lowest-numbered} matching entry decides; an entry matches only
      if it covers {e all} bytes of the access (we check per byte);
    - U-mode accesses with no matching entry are denied;
    - M-mode accesses are bound by an entry only when it is locked; with the
      ePMP machine-mode-whole-protection bit set (OpenTitan's earlgrey),
      M-mode accesses with no match are denied as well. *)

type chip = {
  chip_name : string;
  entry_count : int;
  granularity : int;  (** smallest supported region size, bytes *)
  epmp : bool;  (** implements Smepmp (mseccfg.MMWP model) *)
}

val sifive_e310 : chip
(** SiFive FE310 (HiFive1 rev B): 8 entries. *)

val earlgrey : chip
(** OpenTitan EarlGrey: 16 entries, ePMP. *)

val qemu_rv32_virt : chip
(** QEMU rv32 virt machine: 16 entries. *)

val chips : chip list

(** {1 Configuration byte encoding} *)

type mode = Off | Tor | Na4 | Napot

val encode_cfg : r:bool -> w:bool -> x:bool -> mode:mode -> lock:bool -> int
val decode_cfg_r : int -> bool
val decode_cfg_w : int -> bool
val decode_cfg_x : int -> bool
val decode_cfg_mode : int -> mode
val decode_cfg_lock : int -> bool

val cfg_of_perms : Perms.t -> mode:mode -> int
(** Unlocked entry granting the given user permissions. *)

val napot_addr : start:Word32.t -> size:int -> Word32.t
(** Encode a NAPOT [pmpaddr] value. Requires [size] a power of two >= 8 and
    [start] aligned to [size]. *)

(** {1 Register file} *)

type t

val create : chip -> t
val chip : t -> chip

val set_entry : t -> index:int -> cfg:int -> addr:Word32.t -> unit
(** Program one entry ([pmpaddr] value is the pre-shifted CSR encoding).
    Raises [Invalid_argument] when writing a locked entry — locked entries
    are immutable until reset, which is how ePMP kernels seal their own
    regions. Charges MPU-register-write cycles. *)

val clear_entry : t -> index:int -> unit
val read_entry : t -> index:int -> int * Word32.t

val set_mmwp : t -> bool -> unit
(** ePMP machine-mode whole-protection; [Invalid_argument] on non-ePMP
    chips. *)

val set_mml : t -> bool -> unit
(** Smepmp machine-mode lockdown: with MML set, {e locked} entries apply
    only to machine mode and {e unlocked} entries only to user mode — the
    rule OpenTitan uses to seal the kernel's own regions.
    [Invalid_argument] on non-ePMP chips. *)

val mml : t -> bool

val generation : t -> int
(** Configuration id, the bus decision-cache generation: interned from the
    exact pmpcfg/pmpaddr contents and the mseccfg MMWP/MML bits (see
    {!Config_ids}); the same contents give the same id, any changed word a
    new one. *)

val set_obs : t -> Obs.Event.sink option -> unit
(** Attach an observability sink; every CSR write that changes a value
    emits one reconfiguration event. [None] detaches. *)

val granule_bits : t -> int
(** log2 of the chip's PMP granularity (4 bytes on all modeled chips): the
    finest granularity a configuration can express. *)

val decision_granule_bits : t -> int
(** Granularity of the {e active} configuration — minimum boundary
    alignment of the programmed entries (>= {!granule_bits}, capped at
    4 KiB). Handed to the bus decision cache; derived, with the
    configuration id, on the first query after a CSR change. *)

val entry_range : t -> int -> Range.t option
(** Decoded address range an entry matches, [None] for OFF entries.
    Memoized per configuration, not recomputed per access. *)

val check_access :
  t -> machine_mode:bool -> Word32.t -> Perms.access -> (unit, string) result

val accessible_ranges : t -> Perms.access -> Range.t list
(** Maximal ranges a U-mode access of the given kind may touch. *)

val checker : t -> cpu_machine_mode:(unit -> bool) -> Memory.checker
(** Adapter for {!Mach.Memory.set_checker}: consults the live M/U mode per
    access and exposes the configuration id and decision granularity for
    the bus decision cache. *)

val pp : Format.formatter -> t -> unit

(** {1 Whole-state capture (snapshot subsystem)} *)

type state

val capture_state : t -> state
val restore_state : t -> state -> unit

val fingerprint : t -> int64
(** FNV-1a over the architecturally visible state (never host-side caches
    or configuration ids). *)
