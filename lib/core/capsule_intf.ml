(** The capsule interface: Tock's cooperatively-scheduled driver layer.

    Capsules in Tock are untrusted kernel components written in safe Rust;
    the kernel routes the syscall ABI's driver-addressed calls (command /
    allow / subscribe) to them and trusts the type system — not the MPU —
    to confine them. Our capsules are OCaml modules behind this narrow
    interface: they can only touch a process through the {!process_handle}
    the kernel passes in, which mediates buffer access, grant allocation and
    upcall scheduling exactly the way Tock's [Grant]/[ProcessBuffer] APIs
    do.

    The builtin drivers 0–3 (alarm, console, sensor, button) stay in the
    kernel for the evaluation suite; capsules registered here extend or
    override the driver space. *)

type process_handle = {
  ph_pid : int;
  ph_name : string;
  ph_memory_start : unit -> Word32.t;
  ph_allowed_ro : unit -> Range.t option;
      (** the buffer the process allowed this driver, read-only *)
  ph_allowed_rw : unit -> Range.t option;
  ph_read_byte : Word32.t -> (int, Kerror.t) result;
      (** kernel-mediated read of process memory: valid only inside a
          buffer the process allowed this driver *)
  ph_write_byte : Word32.t -> int -> (unit, Kerror.t) result;
      (** kernel-mediated write: valid only inside an allowed-rw buffer *)
  ph_grant : size:int -> align:int -> (Word32.t, Kerror.t) result;
      (** kernel-owned per-process driver state in the grant region —
          get-or-create like Tock's [Grant::enter]: the first call
          allocates, later calls return the same block *)
  ph_schedule_upcall : upcall_id:int -> arg:int -> unit;
      (** queue an upcall; delivered at the process's next yield *)
  ph_subscribed : unit -> int option;  (** upcall id the process subscribed *)
}

(** Kernel services a capsule may hold on to — the analog of the kernel
    references Tock capsules receive at board initialization. [svc_handle]
    lets cross-process capsules (IPC) reach their clients; every access
    still flows through the mediated handle. *)
type services = {
  svc_handle : pid:int -> driver:int -> process_handle option;
      (** handle of a live process, scoped to the given driver's allowed
          buffers/subscriptions *)
  svc_live_pids : unit -> int list;
  svc_now : unit -> int;
  svc_ps : unit -> string;  (** the kernel's process listing (for consoles) *)
}

(** {1 The snapshotable-state contract}

    One signature for every stateful layer of the board — memory, CPU,
    devices, MPU models, capsules, the kernel itself. [capture] produces an
    opaque state value sharing no {e mutable} data with the live object;
    [restore] writes a captured state back {e in place}, so every alias to
    the live object (capsule-held process handles, the kernel's device
    references) stays valid; [fingerprint] digests the live state to a
    64-bit value, equal iff the states are behaviourally equal — the
    snapshot test suite's roundtrip oracle. *)
module type SNAPSHOTABLE = sig
  type t

  type state
  (** Opaque captured state. Immutable by convention: capturing then
      mutating the live [t] must not change an already-captured [state]. *)

  val capture : t -> state
  val restore : t -> state -> unit
  val fingerprint : t -> int64
end

(** The first-class form of {!SNAPSHOTABLE}, for the record-shaped capsule
    layer and the board-level snapshot target: [sn_capture] closes over the
    live object and returns a restore thunk. *)
type snapshotter = {
  sn_name : string;
  sn_capture : unit -> (unit -> unit);
      (** capture now; the returned thunk restores that captured state *)
  sn_fingerprint : unit -> int64;
}

(** A capsule's quiet-tick declaration, for tickless idle. When a tick
    ends with no runnable process, the kernel jumps over the ticks on
    which nothing can act, as Tock's kernel loop sleeps until the next
    interrupt. It may skip a capsule's [cap_tick] only where the capsule
    declares the tick quiet: one whose only effects are the clocks
    [q_advance] applies, and over which [cap_has_work] keeps its answer
    (the contract in docs/VERIFICATION.md, on tickless idle). *)
type quiet = {
  q_next : now:int -> int;
      (** the first tick after [now] whose [cap_tick] may do more than
          advance clocks — schedule an upcall, change state a snapshot
          sees, or change [cap_has_work]; [max_int] when none will *)
  q_advance : from:int -> upto:int -> unit;
      (** apply, in one step, the clock effects of [cap_tick ~now:k] for
          every [k] in [from..upto], all of them quiet *)
}

(** The declaration of a capsule without a bottom half. *)
let always_quiet = { q_next = (fun ~now:_ -> max_int); q_advance = (fun ~from:_ ~upto:_ -> ()) }

(** One driver. The kernel calls these hooks with the {e calling} process's
    handle; [cap_tick] runs every scheduler tick (the bottom half). *)
type t = {
  driver_num : int;
  cap_name : string;
  cap_init : services -> unit;
  cap_command : process_handle -> cmd:int -> arg1:int -> arg2:int -> Word32.t;
  cap_allowed_ro : process_handle -> Range.t -> unit;
  cap_allowed_rw : process_handle -> Range.t -> unit;
  cap_subscribed : process_handle -> upcall_id:int -> unit;
  cap_tick : now:int -> unit;
  cap_has_work : unit -> bool;
      (** pending device work (e.g. UART RX) — keeps the scheduler awake
          even with no runnable process, like an interrupt source *)
  cap_proc_died : pid:int -> unit;
      (** the kernel notifies every capsule when a process faults or exits,
          so cross-process capsules (IPC) can unblock peers waiting on it
          instead of leaving them wedged *)
  cap_snapshot : snapshotter option;
      (** capture/restore hook for the board snapshot subsystem; [None]
          (the {!stub} default) marks a stateless capsule *)
  cap_quiet : quiet option;
      (** which ticks [cap_tick] spends only on clocks; [None] (the {!stub}
          default) declares nothing, so the kernel steps every tick while
          the capsule is registered *)
}

(** A do-nothing capsule to build real ones from. *)
let stub ~driver_num ~name =
  {
    driver_num;
    cap_name = name;
    cap_init = (fun _ -> ());
    cap_command = (fun _ ~cmd:_ ~arg1:_ ~arg2:_ -> 0);
    cap_allowed_ro = (fun _ _ -> ());
    cap_allowed_rw = (fun _ _ -> ());
    cap_subscribed = (fun _ ~upcall_id:_ -> ());
    cap_tick = (fun ~now:_ -> ());
    cap_has_work = (fun () -> false);
    cap_proc_died = (fun ~pid:_ -> ());
    cap_snapshot = None;
    cap_quiet = None;
  }
