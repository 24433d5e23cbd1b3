(** Decoded-instruction cache, basic-block cache and trace links for the
    {!Mc} engine.

    App and kernel flash are immutable once the loader has placed them, so
    re-decoding the same Thumb-2 halfwords on every simulated instruction
    is pure host-side waste. Three layers remove it:

    - a direct-mapped {e decode cache} mapping halfword-aligned PC to the
      decoded [{instr; size}];
    - a {e basic-block cache} holding straight-line runs of decoded
      instructions up to the next control transfer, dispatched with one
      probe and one execute-permission stamp check per run;
    - {e trace links} (QEMU-TB-chaining style): once a block's terminator
      resolves, the successor block is linked directly into the
      predecessor — separate fall-through and taken slots — so hot loops
      execute as chained superblocks of compiled macro-ops with a single
      stamp check per {e trace entry} and per newly joined block, not per
      iteration.

    Soundness rests on two invalidation channels, both observable-behaviour
    preserving (see docs/VERIFICATION.md):

    - {e code changes}: every cached decode is keyed by
      {!Memory.code_generation}, which [Memory] bumps when any write lands
      in a page registered (via {!Memory.note_code_page}) as holding
      decoded code — loader placement, RAM zeroing on process restart,
      self-modifying stores and snapshot restore all go through the same
      counter;
    - {e permission changes}: each block carries a stamp of the (checker
      epoch, MPU generation, privilege) under which its halfwords were last
      execute-checked. MPU reprogramming or a privilege transition kills
      the stamp — the next dispatch re-checks before executing a single
      instruction — while the decoded bodies survive.

    Trace links add no third channel: a link is followed only if the
    successor's [built_gen] equals the trace's code generation {e and} its
    stamp triple equals the triple hoisted at trace entry, so anything
    that would have stopped a fresh dispatch (store into a linked block,
    MPU reprogramming, privilege flip, snapshot restore) makes the link
    validation fail and drops execution back to the full dispatcher.
    Links are host-side cache state only: no trace event, metric
    ({!Obs.Metrics.model_only}), snapshot byte or fingerprint depends on
    them. *)

(** Why execution stopped — returned by compiled micro-ops and re-exported
    (with constructors) as {!Mc.stop}. Defined here so blocks can store
    compiled ops without an [Mc] ↔ [Cpu] dependency cycle. *)
type stop =
  | Svc_taken of int
  | Exc_return of Word32.t
  | Bx_reg of Word32.t
  | Decode_error of string
  | Out_of_fuel

type entry = {
  eaddr : Word32.t;
  instr : Thumb.instr;
  isize : int;
  next_pc : Word32.t;  (** [eaddr + isize], precomputed for the dispatcher *)
}

(** How a block hands control onward, decided at publish time from its
    final instruction. [Term_exit] blocks (isb/svc/bx/pop-pc) are never
    linked: svc/bx stop the engine; isb is the commit point for pending
    CONTROL writes — the only place privilege can change inside a run —
    so the trace must re-enter the dispatcher and re-stamp; and a pop into
    pc has a dynamic target, which the dispatcher resolves. *)
type term = Term_fall | Term_cond | Term_exit

type block = {
  start : Word32.t;
  entries : entry array;
  byte_len : int;
  built_gen : int;  (** {!Memory.code_generation} when decoded *)
  mutable stamp_epoch : int;
  mutable stamp_gen : int;
  mutable stamp_priv : int;
  ops : (unit -> stop option) array;
      (** compiled macro-ops ({!Cpu.compile_block}), the execution form;
          [entries] are interpreted only when fuel runs out inside the
          block *)
  wmask : bool array;  (** macro-op may write memory (re-check code gen after) *)
  mcount : int array;  (** instructions per macro-op *)
  term : term;
  fall_pc : Word32.t;
  taken_pc : Word32.t;  (** B_cond target; meaningful only for [Term_cond] *)
  mutable link_next : block option;  (** fall-through successor *)
  mutable link_taken : block option;  (** taken-branch successor *)
}

val no_stamp : int
(** Sentinel meaning "never execute-checked". *)

type t

val create : unit -> t

val set_enabled : t -> bool -> unit
(** Disabled: {!Mc.run} decodes every instruction from scratch (the
    pre-cache slow path) — the lockstep reference for differential tests,
    and the cold side of the icache benchmark. *)

val enabled : t -> bool

(** {1 Coverage map}

    AFL-style (block-entry, edge) hit maps over the dispatch stream, for
    the coverage-guided fuzzer (see docs/FUZZING.md). Host-side cache
    observation only: maps are allocated lazily by {!set_coverage}, are
    never part of a snapshot or fingerprint, and surface in the unified
    metrics snapshot only as [host]-flagged entries — so model-visible
    behaviour is byte-identical with coverage on or off. *)

val cov_bits : int
(** Map size exponent: each of the two maps has [2^cov_bits] slots. *)

val cov_slots : int

val set_coverage : t -> bool -> unit
(** Enable (allocating the maps on first use) or disable (dropping them).
    Off by default; when off, {!cov_note} is a single [None] check. *)

val coverage : t -> bool

val cov_reset : t -> unit
(** Zero both maps, the edge-hash history and the hit totals — called at
    the top of every fuzz input so the per-input bitmap is a pure function
    of that input. Costs the slots lit since the last reset, not the map
    size: every slot is logged when it first lights. Independent of
    {!reset}: dropping cached blocks does not lose coverage, and vice
    versa. *)

val cov_note : t -> Word32.t -> unit
(** Record one block dispatch at [pc]: bump the block slot
    [hash pc] and the edge slot [hash pc lxor (prev lsr 1)], AFL-style.
    Called by {!Mc.run} once per block entry, identically on the cold
    (build) and warm (trace) paths. *)

val cov_classified : t -> (int * int) array
(** The bucketed coverage bitmap, sparse: [(slot, class)] pairs in
    ascending slot order for every lit slot, where block slots occupy
    [0, cov_slots) and edge slots [cov_slots, 2*cov_slots), and [class]
    is the count bucket (a power of two in [1, 256]): AFL's ladder made
    strictly power-of-two above 3 — 1, 2, 3, 4–7, 8–15, 16–31, 32–63,
    64–127, 128+ hits — so a schedule running twice as long always
    crosses a class boundary (what the evolutionary loop climbs on).
    Empty when coverage is off. Sorts the lit-slot log; never scans the
    map. *)

type cov_counts = {
  cc_blocks_lit : int;  (** distinct block slots hit since {!cov_reset} *)
  cc_edges_lit : int;  (** distinct edge slots hit since {!cov_reset} *)
  cc_block_hits : int;  (** exact total block dispatches noted *)
  cc_edge_hits : int;  (** exact total edges noted *)
}

val cov_counts : t -> cov_counts
(** Counted over the lit-slot log. All zero when coverage is off. *)

val reset : t -> unit
(** Drop every cached decode and block, sever every trace link, and zero
    the statistics. *)

type stats = {
  hits : int;  (** block dispatches served from the cache *)
  misses : int;  (** dispatches that had to (re)build a block *)
  cached : int;  (** instructions executed out of cached blocks *)
  total : int;  (** all instructions executed through {!Mc.run} *)
  link_hits : int;  (** block boundaries crossed via a valid trace link *)
  link_misses : int;  (** boundaries where no valid link existed *)
  link_flushes : int;  (** stale links discarded during validation *)
  traces : int;  (** trace entries (full dispatches) completed *)
  trace_blocks : int;  (** blocks executed across all traces *)
}

val stats : t -> stats

type trace_hist = {
  th_count : int;
  th_sum : int;
  th_min : int;
  th_max : int;
  th_buckets : (int * int) list;
      (** (inclusive upper bound, count) — log2 buckets, non-empty only,
          same convention as {!Obs.Metrics} histograms *)
}

val trace_len_summary : t -> trace_hist
(** Trace-length (blocks per trace) histogram for the metrics snapshot. *)

val record_hit : t -> int -> unit
(** A block dispatch served [n] instructions from the cache. *)

val record_miss : t -> unit
(** A dispatch found no valid block and fell back to building one. *)

val record_instrs : t -> int -> unit
(** [n] instructions executed outside cached blocks (cold path). *)

val record_link_hit : t -> unit
val record_link_miss : t -> unit
val record_link_flush : t -> unit

val record_trace : t -> blocks:int -> unit
(** A trace ended after executing [blocks] chained blocks. *)

(** {1 Decode cache} *)

val probe_decode : t -> gen:int -> Word32.t -> (Thumb.instr * int) option
val insert_decode : t -> gen:int -> Word32.t -> Thumb.instr -> int -> unit

(** {1 Block cache} *)

val find_block : t -> gen:int -> Word32.t -> block option
(** The cached block starting exactly at [pc], if its decode generation is
    current. The permission stamp is the caller's problem. *)

val publish_block :
  t ->
  gen:int ->
  Word32.t ->
  entry list ->
  compile:(entry array -> (unit -> stop option) array * bool array * int array) ->
  unit
(** Store a block decoded under generation [gen]; [entries] in reverse
    execution order (as accumulated). [compile] turns the (execution-order)
    entry array into macro-ops ({!Cpu.compile_block} partially applied).
    Empty lists are ignored. *)
