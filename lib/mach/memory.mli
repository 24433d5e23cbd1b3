(** Sparse byte-addressable physical memory.

    Models the microcontroller's flat 32-bit physical address space (no MMU,
    no translation — exactly the setting that forces Tock onto MPUs). Memory
    is allocated lazily in pages so a 4 GiB space costs only what is written.

    An optional {e access checker} is consulted on every load/store/fetch;
    the MPU hardware models install themselves here, so every memory access
    made by emulated user code is subject to the live MPU configuration, the
    same way the hardware intercepts bus accesses.

    Two host-side fast paths keep the modeled bus close to host speed
    without changing observable behaviour:

    - aligned word accesses do a single page lookup (with a one-entry
      last-page cache) and a single 32-bit byte-string read/write;
    - access decisions are cached in a direct-mapped {e micro-TLB} keyed by
      (granule block, privilege, access kind) and guarded by the checker's
      generation, which MPU models report as an id of their register
      contents. Only {e allow} decisions are cached, so denials always
      reach the full checker (fault messages, fault-status latching). *)

type t

type fault = {
  fault_addr : Word32.t;
  fault_access : Perms.access;
  fault_reason : string;
}

exception Access_fault of fault
(** Raised by checked accesses that the installed checker denies — the model
    of the MemManage / PMP access fault exception. *)

type checker = {
  check : Word32.t -> Perms.access -> (unit, string) result;
      (** The authoritative decision function (the full MPU/PMP walk). *)
  generation : unit -> int;
      (** Current configuration generation. A cached decision is valid
          only while the generation it was taken under is current. MPU
          models report a configuration id: the same register contents
          always give the same id, different contents different ids, so
          decisions cached under a configuration survive a switch away and
          back. The generation is also mixed into the cache slot index. *)
  privilege : unit -> int;
      (** Current privilege level as a small integer (0/1). Part of the
          cache key, so a privilege transition (handler entry/exit,
          CONTROL writes) can never reuse a decision taken at the other
          level. *)
  granule_bits : unit -> int;
      (** log2 of the finest granularity (bytes) at which the {e active}
          configuration can change a decision — at least 5 for
          ARMv7-M/ARMv8-M (32-byte regions/subregions/granules) and 2 for
          PMP (NA4), but coarser when the configured region boundaries are
          more aligned than the architectural minimum. A cached decision
          for one byte of an aligned granule block is valid for the whole
          block. A granule change always comes with a generation change,
          so entries keyed under another granule can never false-hit. *)
}

val create : unit -> t

val set_checker : t -> checker option -> unit
(** Install or remove the access checker ([None] = all access allowed, i.e.
    MPU disabled / privileged execution). Installed after creation so the
    checker closure may capture the CPU whose privilege state it consults.
    Installing a checker flushes the decision cache. *)

val checker_of_fn : (Word32.t -> Perms.access -> (unit, string) result) -> checker
(** Wrap a bare checking function as an {e uncacheable} checker (its
    generation changes on every read, so no decision is ever reused). For
    tests and ad-hoc harnesses whose closures may be stateful. *)

val set_checker_fn :
  t -> (Word32.t -> Perms.access -> (unit, string) result) option -> unit
(** [set_checker] ∘ [checker_of_fn]: the legacy plain-function interface. *)

val checker_enabled : t -> bool

val set_obs : t -> Obs.Event.sink option -> unit
(** Attach (or detach) an observability sink. The bus emits only rare
    invalidation events — {!set_checker} (decision-cache flush) and a write
    landing in a registered code page (icache invalidation). The per-access
    fast paths never consult the sink, and with [None] attached the hook
    sites allocate nothing. *)

val cache_stats : t -> int * int
(** [(hits, misses)] of the access-decision cache since the last
    {!reset_cache_stats}. *)

val reset_cache_stats : t -> unit

(** {1 Raw (unchecked) accesses} — used by the kernel model and by DMA, which
    bypass the MPU on real ARMv7-M hardware. *)

val read8 : t -> Word32.t -> int
val write8 : t -> Word32.t -> int -> unit
val read32 : t -> Word32.t -> Word32.t
(** Little-endian, like ARMv7-M and RV32 in Tock's configurations. *)

val write32 : t -> Word32.t -> Word32.t -> unit
val blit_string : t -> Word32.t -> string -> unit
val read_bytes : t -> Word32.t -> int -> string

(** {1 Checked accesses} — used by emulated unprivileged code. *)

val load8 : t -> Word32.t -> int
val store8 : t -> Word32.t -> int -> unit
val load32 : t -> Word32.t -> Word32.t
val store32 : t -> Word32.t -> Word32.t -> unit
val fetch32 : t -> Word32.t -> Word32.t
(** Instruction fetch: checked with {!Perms.Execute}. *)

val fetch16 : t -> Word32.t -> int
(** Halfword instruction fetch (Thumb), checked with {!Perms.Execute} on
    both covered bytes. *)

(** {1 Hoisted access fast path}

    The superblock engine ({!Fluxarm.Mc}) executes chained blocks whose
    loads and stores would otherwise pay three checker closure calls
    (generation, privilege, granule) per decision-cache probe. {!hoist}
    snapshots those into plain ints; {!load32_fast}/{!store32_fast} then
    probe the cache with integer compares only. Behaviour — including the
    hit/miss counters, cache fills, fault addresses and unaligned
    handling — is identical to {!load32}/{!store32}: anything but an
    aligned-word probe hit falls into the full checked access. Sound only
    while generation, privilege and granule cannot change, which the
    engine guarantees by re-hoisting at every trace entry (none of the
    three can change inside a trace: MPU registers are not bus-mapped,
    and a privilege commit point terminates the trace). *)

val hoist : t -> unit
val load32_fast : t -> Word32.t -> Word32.t
val store32_fast : t -> Word32.t -> Word32.t -> unit

val check_fetch16 : t -> Word32.t -> unit
(** The checking half of {!fetch16} without the data read: raises
    {!Access_fault} exactly when (and how) a halfword fetch at this address
    would. Lets the decoded-instruction cache reproduce fetch fault
    behaviour without touching the bytes. *)

(** {1 Decoded-code ({e icache}) invalidation support}

    The machine-code engine caches decoded instructions; those caches are
    only sound while the underlying bytes are unchanged. [Memory] tracks
    which pages hold decoded code and bumps a {e code generation} counter
    when any raw or checked write lands in one — loader placement, process
    RAM zeroing and self-modifying stores all funnel through the same write
    paths, so every way of changing code invalidates. *)

val code_generation : t -> int
(** Current code generation. Any cached decode keyed under an older
    generation is stale. *)

val note_code_page : t -> Word32.t -> unit
(** Register the page containing [addr] as holding decoded code; called by
    the decoder when it caches an instruction fetched from there. *)

val code_page_registered : t -> Word32.t -> bool
(** Whether [addr]'s page is currently registered as code (for tests). *)

val get_checker : t -> checker option
(** The installed checker, if any — the block cache consults its
    generation/privilege/granularity to validate permission stamps. *)

val checker_epoch : t -> int
(** Bumped every {!set_checker}; distinguishes decisions taken under
    different checker instances whose generation counters may collide. *)

val check : t -> Word32.t -> Perms.access -> (unit, string) result
(** Ask the checker without performing an access. [Ok] when no checker is
    installed. Consults (and fills) the decision cache. *)

val touched_pages : t -> int
(** Number of 4 KiB pages materialised: written at least once, or carried
    in by a {!restore} (for tests and footprint reporting). Reads never
    materialise a page: an unwritten page reads as zeros from one shared
    page that no write path ever hands out. *)

(** {1 Snapshots}

    Copy-on-write page snapshots: {!capture} copies the page {e table}
    (pointer copies, O(pages touched)) and marks every page shared; a later
    write clones its page first, so the snapshot stays frozen while the
    live memory keeps near-native write speed. {!restore} points the live
    table back at the snapshot's pages (sharing them again — a snapshot can
    be restored any number of times) and invalidates every derived cache:
    the access-decision cache is flushed and the code generation is bumped
    {e forward} so no decoded block or cached MPU decision taken before (or
    after) the capture can survive the transition. *)

type snapshot

val capture : t -> snapshot

val restore : ?keep:Range.t -> t -> snapshot -> unit
(** Point the live memory back at a snapshot. With [~keep], the live pages
    inside the range stay as they are and the snapshot's pages inside it
    are ignored, so the range keeps its live bytes (a page absent live
    stays absent, i.e. zero); everything outside comes from the snapshot.
    This is how a board reboots with its flash intact. The caches are
    invalidated exactly as without [~keep]. Raises [Invalid_argument] if
    the range does not start and end on a page boundary. *)

val snapshot_pages : snapshot -> (int * string) list
(** The snapshot's materialised pages as [(page key, page bytes)] pairs in
    key order, all-zero pages elided — the portable form used by the
    on-disk board-snapshot format. *)

val snapshot_of_pages : (int * string) list -> snapshot
(** Rebuild a snapshot from {!snapshot_pages} output. Raises
    [Invalid_argument] on a malformed page. *)

val fingerprint : t -> int64
(** FNV-1a over (key, bytes) of all materialised pages in key order,
    skipping all-zero pages — so a page written back to zeros hashes
    identically to an untouched one. Host-side cache state (decision cache,
    memos, generations) is excluded: the fingerprint covers exactly the
    bytes an emulated program could observe. *)
