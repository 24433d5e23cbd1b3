(** The kernel: process loading, syscall dispatch, scheduling and context
    switching — generic over the memory manager ({!Mm.S}), so the very same
    code runs as "Tock" (monolithic manager) and as "TickTock" (granular
    manager), on ARMv7-M or ARMv8-M (with the full FluxArm context switch,
    method-level or assembled Thumb-2 machine code) or on RISC-V PMP (with
    a modeled machine-mode switch).

    Scheduling is Tock's: single-threaded and event-driven. Each runnable
    process runs until it syscalls, faults, exits or exhausts its quantum
    (SysTick-driven preemption on the ARM boards). Capsules extend the
    driver space behind mediated process handles; fault policies decide
    what a fault costs; every scheduler-visible event can be recorded
    into an {!Obs.Recorder} attached with [?obs]. *)

(** Scheduling policy — the subset of Tock's scheduler zoo we model.
    [Round_robin] gives every runnable process one quantum-bounded slice per
    tick; [Cooperative] never preempts (a process runs until it syscalls,
    exits or faults); [Priority] runs only the highest-priority runnable
    process each tick (smaller number = higher priority), starving the
    rest — exactly the sharp edge Tock documents for it. *)
type sched =
  | Round_robin
  | Cooperative
  | Priority of (int -> int)  (** pid -> priority *)

type switcher =
  | Arm_switch of Fluxarm.Cpu.t
  | Arm_mc_switch of Fluxarm.Cpu.t * Fluxarm.Handlers_mc.t
      (** context switch through assembled Thumb-2 machine code *)
  | Sim_switch of bool ref  (** RISC-V: [true] while the kernel runs *)

module Make (MM : Mm.S) : sig
  type proc = MM.alloc Process.t

  type t

  exception Panic of string
  (** Raised when a process with the {!Process.Panic} fault policy faults:
      the modeled analog of a Tock kernel panic (the whole board halts). *)

  val name : string
  (** The memory manager's name, e.g. ["ticktock:cortex-m"]. *)

  val create :
    mem:Memory.t ->
    hw:MM.hw ->
    switcher:switcher ->
    ?quantum:int ->
    ?capsules:Capsule_intf.t list ->
    ?sched:sched ->
    ?syscall_filter:(int -> Userland.call -> bool) ->
    ?systick:Mpu_hw.Systick.t ->
    ?obs:Obs.Recorder.t ->
    ?chaos:Chaos_intf.t ->
    ?scrub_every:int ->
    ?scrub_policy:[ `Repair | `Fault ] ->
    ?watchdog:int ->
    ?restart_decay_span:int ->
    unit ->
    t
  (** Build a kernel on a machine. [quantum] is the scheduling quantum
      (default 64 action-units; when [systick] is supplied the quantum is a
      cycle budget counted down by the timer model). [syscall_filter] is
      Tock 2.x's per-process syscall-filter policy.

      Robustness knobs (all off by default, and when off the kernel's
      behavior is byte-for-byte that of a kernel built without them):
      [chaos] attaches fault-injection hooks (see {!Chaos_intf});
      [scrub_every] runs the MPU config scrubber every N context switches —
      at slice end the live MPU registers are compared word-for-word
      against the configuration derived from the allocator at switch-in,
      and on disagreement an {!Obs.Event.Mpu_scrub} event is emitted and
      the registers are re-synced ([`Repair], the default) or the process
      is faulted ([`Fault]); [watchdog] faults any process that runs more
      than that many model cycles without making a syscall;
      [restart_decay_span] makes the plain {!Process.Restart} budget
      forgive one past fault per that many healthy ticks. *)

  (** {1 Observation} *)

  val hooks : t -> Hooks.t
  (** The Figure 11 per-method cycle rows. *)

  val metrics_snapshot : t -> Obs.Metrics.snapshot
  (** The unified metrics snapshot: the live registry (per-call-kind
      syscall-latency histograms in model cycles, fault/restart/syscall
      counters) plus polled values — {!hooks} rows, bus and icache cache
      counters (flagged host-observational), kernel tick/process gauges and
      per-process memory gauges including the high-water mark. *)

  val obs_recorder : t -> Obs.Recorder.t option
  (** The cross-layer event recorder passed at {!create}, if any. *)

  val obs_sink : t -> Obs.Event.sink option
  (** A sink writing into {!obs_recorder} stamped with this kernel's tick
      counter — what board constructors wire into the machine layers
      (memory bus, MPU model, CPU). [None] when tracing is absent. *)

  val processes : t -> proc list
  val ticks : t -> int
  val find_process : t -> int -> proc option

  val console_output : t -> string
  (** The kernel console: exit/fault logs and process status dumps. *)

  val ps : t -> string
  (** A process-console style listing. *)

  (** {1 Processes} *)

  val create_process :
    t ->
    name:string ->
    payload:string ->
    program:Userland.program ->
    min_ram:int ->
    ?grant_reserve:int ->
    ?heap_headroom:int ->
    ?fault_policy:Process.fault_policy ->
    ?program_factory:(unit -> Userland.program) ->
    unit ->
    (proc, Kerror.t) result
  (** The Figure 11 [create] path: place the app image in flash, allocate
      its memory block (sized for [min_ram] plus [heap_headroom], with
      [grant_reserve] for the kernel), zero its RAM, allocate the
      stored-state grant and synthesize the initial exception frame.
      [program_factory] supplies fresh program state for the
      {!Process.Restart} fault policy. *)

  val load_processes :
    t ->
    registry:(string -> Userland.program option) ->
    ?require_credentials:bool ->
    unit ->
    proc list
  (** Tock-style boot loading: walk the app-flash region parsing TBF-style
      headers until the first invalid one, creating a process for every
      image whose name the registry can supply a program for. With
      [require_credentials], images whose integrity footer does not verify
      are rejected (and logged). *)

  (** {1 Execution} *)

  val run : t -> max_ticks:int -> unit
  (** The scheduler loop: per tick — capsule bottom halves, alarm/upcall
      wake-ups, then slices per the scheduling policy. Returns when
      [max_ticks] elapse or no process can make progress. *)

  val step_process : t -> proc -> unit
  (** One slice of one process (context switch in, actions, preemption
      path out, syscall dispatch / fault policy). *)

  val handle_syscall : t -> proc -> Userland.call -> Word32.t
  (** Direct syscall dispatch (tests and capsule development). *)

  (** {1 Isolation checking} *)

  val isolation_ok : t -> proc -> bool
  (** Configure the MPU for the process and check, from the outside, that
      everything the {e hardware model} would let the process read or
      write lies inside the kernel's logical view — the §4.3 logical/MPU
      correspondence as a runtime check. (False, by design, for the
      monolithic ARM kernels: Figure 4a's [+1] subregion over-enables.) *)

  val mem_stats : proc -> Instance.mem_stats

  (** {1 Snapshot}

      The kernel component of the board snapshot subsystem (see
      {!Snapshot}). [restore] writes everything back {e in place} — the
      same process records, allocator objects and observability structures
      — so references held by capsules and harnesses stay valid. Programs
      are rebuilt from their [program_factory] by replaying the fed-input
      log; capsule state rides along through each capsule's
      [cap_snapshot] hook; the global model-cycle counter is captured and
      restored too. *)

  type snapshot

  val capture : t -> snapshot
  val restore : t -> snapshot -> unit

  val fingerprint : t -> int64
  (** Digest of the kernel's live logical state (processes, capsule state,
      console, cycle counter) — the roundtrip oracle for snapshot tests. *)

  val instance : t -> Instance.t
  (** The type-erased view used by the evaluation harnesses. *)
end
