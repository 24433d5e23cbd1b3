(** The kernel: process loading, syscall dispatch, scheduling and context
    switching — generic over the memory manager ({!Mm.S}), so the very same
    code runs as "Tock" (monolithic manager) and as "TickTock" (granular
    manager) in the evaluation, on ARM (with the full FluxArm context
    switch) or on RISC-V PMP (with a modeled machine-mode switch).

    Scheduling is Tock's: a single-threaded, event-driven round robin in
    which each process runs until it syscalls, faults, exits or exhausts its
    quantum (SysTick preemption). On ARM every switch goes through the real
    modeled assembly: [switch_to_user_part1], the process's checked memory
    accesses while the CPU is unprivileged, a hardware exception
    ([preempt]), and [switch_to_user_part2]. *)

(* Driver numbers of the modeled capsules. *)
let driver_alarm = 0
let driver_console = 1
let driver_sensor = 2
let driver_button = 3

let known_drivers = [ driver_alarm; driver_console; driver_sensor; driver_button ]

(* Initial-frame constants: xPSR with the Thumb bit, Tock's sentinel LR. *)
let initial_psr = 0x0100_0000
let initial_lr = 0xFFFF_FFFF

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

module Make (MM : Mm.S) = struct
  type proc = MM.alloc Process.t

  type t = {
    mem : Memory.t;
    hw : MM.hw;
    switcher : switcher;
    hooks : Hooks.t;
    quantum : int;
    mutable procs : proc list;
    mutable next_pid : int;
    mutable flash_cursor : Word32.t;
    mutable ram_cursor : Word32.t;
    mutable ticks : int;
    mutable console : Buffer.t;  (** kernel console (fault reports etc.) *)
    capsules : (int, Capsule_intf.t) Hashtbl.t;
    mutable capsules_initialized : bool;
    sched : sched;
    syscall_filter : (int -> Userland.call -> bool) option;
    systick : Mpu_hw.Systick.t option;
        (** when present (ARM boards), the scheduling quantum is driven by
            the modeled SysTick countdown over consumed cycles instead of
            an action budget *)
    obs : Obs.Recorder.t option;
        (** cross-layer event recorder; [None] = tracing absent, and every
            hook site is a single pattern match that allocates nothing *)
    metrics : Obs.Metrics.t;
    syscall_hists : Obs.Metrics.hist array;
        (** model-cycle syscall latency per call kind ({!syscall_kind}) *)
    chaos : Chaos_intf.t option;
        (** fault-injection hooks; [None] (the default) costs one pattern
            match per tick/slice and perturbs nothing *)
    scrub_every : int;
        (** MPU config scrubber cadence in context switches; 0 = off *)
    scrub_policy : [ `Repair | `Fault ];
        (** on detected register corruption: re-sync from the allocator, or
            fault the affected process *)
    watchdog : int;
        (** syscall-less run budget in model cycles; 0 = off *)
    restart_decay_span : int;
        (** healthy ticks that forgive one recent fault for the plain
            [Restart] policy; 0 = legacy behavior (never decays) *)
    mutable switch_count : int;  (** context switches, for scrub cadence *)
    mutable expected_mpu : int list;
        (** register snapshot taken right after [configure_mpu] — what the
            scrubber compares the live registers against *)
  }

  let name = MM.name

  let syscall_kind_names = [| "yield"; "subscribe"; "command"; "allow_rw"; "allow_ro"; "memop" |]

  let syscall_kind = function
    | Userland.Yield -> 0
    | Userland.Subscribe _ -> 1
    | Userland.Command _ -> 2
    | Userland.Allow_rw _ -> 3
    | Userland.Allow_ro _ -> 4
    | Userland.Memop _ -> 5

  let create ~mem ~hw ~switcher ?(quantum = 64) ?(capsules = []) ?(sched = Round_robin)
      ?syscall_filter ?systick ?obs ?chaos ?(scrub_every = 0)
      ?(scrub_policy = `Repair) ?(watchdog = 0) ?(restart_decay_span = 0) () =
    let metrics = Obs.Metrics.create () in
    let t =
      {
        mem;
        hw;
        switcher;
        hooks = Hooks.create ();
        quantum;
        procs = [];
        next_pid = 0;
        flash_cursor = Range.start Layout.app_flash;
        ram_cursor = Range.start Layout.app_sram;
        ticks = 0;
        console = Buffer.create 256;
        capsules = Hashtbl.create 8;
        capsules_initialized = false;
        sched;
        syscall_filter;
        systick;
        obs;
        metrics;
        syscall_hists =
          Array.map (fun k -> Obs.Metrics.hist metrics ("syscall_cycles/" ^ k)) syscall_kind_names;
        chaos;
        scrub_every;
        scrub_policy;
        watchdog;
        restart_decay_span;
        switch_count = 0;
        expected_mpu = [];
      }
    in
    List.iter (fun (c : Capsule_intf.t) -> Hashtbl.replace t.capsules c.driver_num c) capsules;
    t

  (* Call sites match on [t.obs] themselves so a disabled kernel never even
     constructs the event value. *)
  let obs_recorder t = t.obs

  let obs_sink t =
    match t.obs with
    | None -> None
    | Some r -> Some (Obs.Recorder.sink r ~now:(fun () -> t.ticks))


  let hooks t = t.hooks
  let processes t = t.procs
  let ticks t = t.ticks

  let find_process t pid = List.find_opt (fun (p : proc) -> p.Process.pid = pid) t.procs

  let log_console t msg =
    Buffer.add_string t.console msg;
    Buffer.add_char t.console '\n'

  let console_output t = Buffer.contents t.console

  (* --- process creation (Figure 11's [create]) --- *)

  let stored_state_size = 64

  exception Panic of string
  (** Raised when a process with the [Panic] fault policy faults: the
      modeled analog of Tock's kernel panic (the whole board halts). *)

  let create_process t ~name ~payload ~program ~min_ram ?(grant_reserve = 1024)
      ?(heap_headroom = 2048) ?(fault_policy = Process.Stop) ?program_factory () =
    Hooks.measure t.hooks "create" @@ fun () ->
    let ( let* ) = Result.bind in
    let img = { Loader.app_name = name; min_ram; payload } in
    (* Typed refusal for layouts no board of this memory map could ever
       satisfy (OTA hardening): a RAM request beyond the whole app-SRAM
       window is [Image_oversized], not a transient [Out_of_memory]. *)
    let* () =
      if min_ram < 0 || min_ram + grant_reserve + heap_headroom > Range.size Layout.app_sram
      then Error Kerror.Image_oversized
      else Ok ()
    in
    let* placed, flash_cursor = Loader.place t.mem ~cursor:t.flash_cursor img in
    t.flash_cursor <- flash_cursor;
    let unalloc_size = Range.end_ Layout.app_sram - t.ram_cursor in
    (* Size the block for the requested RAM plus brk headroom (the region
       geometry must be established for the largest break the process may
       ever request), then pull the initial break back down to the
       requested size. This mirrors Tock: the TBF's minimum RAM is the
       envelope; the initial break covers only stack + data. *)
    let* alloc =
      MM.allocate ~unalloc_start:t.ram_cursor ~unalloc_size
        ~min_size:(min_ram + heap_headroom) ~app_size:min_ram ~kernel_size:grant_reserve
        ~flash_start:placed.Loader.flash_start ~flash_size:placed.Loader.flash_size
    in
    (match obs_sink t with None -> () | Some _ as sink -> MM.set_obs alloc sink);
    (if heap_headroom > 0 then
       match MM.brk alloc t.hw ~new_app_break:(MM.memory_start alloc + min_ram) with
       | Ok _ -> ()
       | Error _ -> () (* keep the envelope break; growth simply isn't needed *));
    t.ram_cursor <- MM.memory_start alloc + MM.memory_size alloc;
    (* Zero the process RAM block, as Tock does before handing it out
       (identical cost on both kernels; with the flash copy this dominates
       the create row, which is why Figure 11 shows the two kernels within
       a percent of each other there). *)
    Cycles.tick ~n:(MM.memory_size alloc / 4 * Cycles.mem) Cycles.global;
    (* Stored-state block for r4-r11 lives in the kernel-owned grant
       region, like Tock's. *)
    let* regs_base =
      Hooks.measure t.hooks "allocate_grant" @@ fun () ->
      MM.allocate_grant alloc ~size:stored_state_size ~align:8
    in
    (* Synthesize the initial exception frame the first context switch will
       unstack: r0-r3, r12, lr, pc, xpsr. *)
    let psp = MM.app_break alloc - (4 * Fluxarm.Exn.frame_words) in
    Cycles.tick ~n:(Fluxarm.Exn.frame_words * Cycles.mem) Cycles.global;
    for i = 0 to 4 do
      Memory.write32 t.mem (psp + (4 * i)) 0
    done;
    Memory.write32 t.mem (psp + 20) initial_lr;
    Memory.write32 t.mem (psp + 24) placed.Loader.entry;
    Memory.write32 t.mem (psp + 28) initial_psr;
    let proc =
      {
        Process.pid = t.next_pid;
        name;
        alloc;
        flash = placed;
        regs_base;
        state = Process.Ready;
        program;
        fed_inputs = [];
        psp;
        last_result = 0;
        allowed_ro = [];
        allowed_rw = [];
        subscriptions = [];
        alarm_at = None;
        grants = [];
        pending_upcalls = Queue.create ();
        output = Buffer.create 128;
        fault_policy;
        program_factory;
        initial_break = MM.app_break alloc;
        restarts = 0;
        recent_faults = 0;
        healthy_since = 0;
        restart_at = None;
        run_since_syscall = 0;
        slices = 0;
        syscall_count = 0;
        mem_watermark = MM.app_break alloc - MM.memory_start alloc;
      }
    in
    t.next_pid <- t.next_pid + 1;
    t.procs <- t.procs @ [ proc ];
    (match t.obs with
    | None -> ()
    | Some r ->
      Obs.Recorder.record r ~tick:t.ticks
        (Obs.Event.Proc_created { pid = proc.Process.pid; name }));
    Ok proc

  (* Tock-style process loading: walk the app-flash region parsing TBF
     headers until the first invalid one, creating a process for each image
     whose name the [registry] can supply a program for. Returns the loaded
     processes. The images must already be in flash (e.g. written by a
     previous kernel's loader, or flashed by a test). *)
  let load_processes t ~registry ?(require_credentials = false) () =
    let rec walk cursor acc =
      if cursor + 24 > Range.end_ Layout.app_flash then List.rev acc
      else
        match Loader.read_image t.mem ~base:cursor with
        | Error _ -> List.rev acc
        | Ok img when require_credentials && not (Loader.verify_credentials t.mem ~base:cursor)
          ->
          log_console t
            (Printf.sprintf "rejecting %S: invalid credentials" img.Loader.app_name);
          let size = Loader.padded_size img in
          walk (Math32.align_up (cursor + size) ~align:size) acc
        | Ok img -> (
          let size = Loader.padded_size img in
          let next = Math32.align_up (cursor + size) ~align:size in
          match registry img.Loader.app_name with
          | None -> walk next acc
          | Some program -> (
            match
              create_process t ~name:img.Loader.app_name ~payload:img.Loader.payload ~program
                ~min_ram:img.Loader.min_ram ()
            with
            | Ok p -> walk next (p :: acc)
            | Error _ -> walk next acc))
    in
    walk (Range.start Layout.app_flash) []

  (* A Tock process-console style listing ("ps"). *)
  let ps t =
    let b = Buffer.create 256 in
    Printf.bprintf b " PID Name                Slices  Syscalls  Restarts  State\n";
    List.iter
      (fun (p : proc) ->
        Printf.bprintf b " %3d %-18s %6d %9d %9d  %s\n" p.Process.pid p.Process.name
          p.Process.slices p.Process.syscall_count p.Process.restarts
          (Process.state_to_string p.Process.state))
      t.procs;
    Buffer.contents b

  (* --- driver grants: entered on first use, like Tock's grant regions --- *)

  let driver_grant t (proc : proc) driver =
    match List.assoc_opt driver proc.grants with
    | Some g -> Ok g
    | None ->
      if not (List.mem driver known_drivers || Hashtbl.mem t.capsules driver) then
        Error Kerror.Not_supported
      else begin
        let result =
          Hooks.measure t.hooks "allocate_grant" @@ fun () ->
          MM.allocate_grant proc.alloc ~size:64 ~align:8
        in
        (match t.obs with
        | None -> ()
        | Some r ->
          Obs.Recorder.record r ~tick:t.ticks
            (Obs.Event.Grant
               {
                 pid = proc.Process.pid;
                 driver;
                 addr = Result.value result ~default:0;
                 ok = Result.is_ok result;
               }));
        Result.map
          (fun g ->
            proc.grants <- (driver, g) :: proc.grants;
            g)
          result
      end

  (* --- capsule support --- *)

  let schedule_upcall ?t (proc : proc) ~upcall_id ~arg =
    (match t with
    | Some t ->
      (match t.obs with
      | None -> ()
      | Some r ->
        Obs.Recorder.record r ~tick:t.ticks
          (Obs.Event.Upcall { pid = proc.Process.pid; upcall_id; arg }))
    | None -> ());
    match proc.Process.state with
    | Process.Yielded ->
      proc.Process.state <- Process.Ready;
      proc.Process.last_result <- arg;
      ignore upcall_id
    | Process.Ready | Process.Faulted _ | Process.Exited _ ->
      Queue.push (upcall_id, arg) proc.Process.pending_upcalls

  (* The mediated view of one process a capsule gets (§2.1: capsules are
     isolated by construction — they can only reach a process through these
     closures, which validate every address against allowed buffers). *)
  let make_handle t (proc : proc) driver : Capsule_intf.process_handle =
    let allowed_ro () = List.assoc_opt driver proc.Process.allowed_ro in
    let allowed_rw () = List.assoc_opt driver proc.Process.allowed_rw in
    let in_buffer get a =
      match get () with Some r when Range.contains r a -> true | Some _ | None -> false
    in
    {
      Capsule_intf.ph_pid = proc.Process.pid;
      ph_name = proc.Process.name;
      ph_memory_start = (fun () -> MM.memory_start proc.Process.alloc);
      ph_allowed_ro = allowed_ro;
      ph_allowed_rw = allowed_rw;
      ph_read_byte =
        (fun a ->
          Cycles.tick ~n:Cycles.mem Cycles.global;
          if in_buffer allowed_ro a || in_buffer allowed_rw a then Ok (Memory.read8 t.mem a)
          else Error Kerror.Invalid_buffer);
      ph_write_byte =
        (fun a v ->
          Cycles.tick ~n:Cycles.mem Cycles.global;
          if in_buffer allowed_rw a then Ok (Memory.write8 t.mem a v)
          else Error Kerror.Invalid_buffer);
      ph_grant =
        (fun ~size ~align ->
          (* get-or-create, like Tock's Grant::enter: one block per driver
             per process, allocated on first use *)
          match List.assoc_opt driver proc.Process.grants with
          | Some g -> Ok g
          | None ->
            let result =
              Hooks.measure t.hooks "allocate_grant" @@ fun () ->
              MM.allocate_grant proc.Process.alloc ~size ~align
            in
            Result.map
              (fun g ->
                proc.Process.grants <- (driver, g) :: proc.Process.grants;
                g)
              result);
      ph_schedule_upcall = (fun ~upcall_id ~arg -> schedule_upcall ~t proc ~upcall_id ~arg);
      ph_subscribed = (fun () -> List.assoc_opt driver proc.Process.subscriptions);
    }

  let services t : Capsule_intf.services =
    {
      Capsule_intf.svc_handle =
        (fun ~pid ~driver ->
          match find_process t pid with
          | Some p when Process.is_live p -> Some (make_handle t p driver)
          | Some _ | None -> None);
      svc_live_pids =
        (fun () ->
          List.filter_map
            (fun (p : proc) -> if Process.is_live p then Some p.Process.pid else None)
            t.procs);
      svc_now = (fun () -> t.ticks);
      svc_ps = (fun () -> ps t);
    }

  (* Capsules receive their kernel services lazily, at first dispatch. *)
  let ensure_capsules_initialized t =
    if not t.capsules_initialized then begin
      t.capsules_initialized <- true;
      Hashtbl.iter (fun _ (c : Capsule_intf.t) -> c.Capsule_intf.cap_init (services t)) t.capsules
    end

  (* --- syscall dispatch --- *)

  let sensor_reading (proc : proc) cmd =
    (* Deterministic "sensor": its value depends on the process's memory
       placement, the way uninitialized-ADC readings on hardware depend on
       the board's physical state. Layout-dependent on purpose: this is one
       of the §6.1 classes expected to differ between Tock and TickTock. *)
    (MM.memory_start proc.alloc lsr 4) land 0xffff lxor (cmd * 7)

  let signed_of_word w = if w land 0x8000_0000 <> 0 then w - (1 lsl 32) else w

  let note_watermark (proc : proc) =
    let w = MM.app_break proc.alloc - MM.memory_start proc.alloc in
    if w > proc.Process.mem_watermark then proc.Process.mem_watermark <- w

  let note_brk t (proc : proc) result =
    note_watermark proc;
    match t.obs with
    | None -> ()
    | Some r ->
      Obs.Recorder.record r ~tick:t.ticks
        (Obs.Event.Brk
           {
             pid = proc.Process.pid;
             app_break = MM.app_break proc.alloc;
             ok = Result.is_ok result;
           })

  let handle_memop t (proc : proc) ~op ~arg =
    if op = Userland.memop_brk then begin
      let result =
        Hooks.measure t.hooks "brk" @@ fun () -> MM.brk proc.alloc t.hw ~new_app_break:arg
      in
      note_brk t proc result;
      match result with
      | Ok b -> b
      | Error _ -> Userland.failure
    end
    else if op = Userland.memop_sbrk then begin
      let result =
        Hooks.measure t.hooks "brk" @@ fun () ->
        MM.sbrk proc.alloc t.hw ~delta:(signed_of_word arg)
      in
      note_brk t proc result;
      match result with
      | Ok b -> b
      | Error _ -> Userland.failure
    end
    else if op = Userland.memop_memory_start then MM.memory_start proc.alloc
    else if op = Userland.memop_memory_end then MM.app_break proc.alloc
    else if op = Userland.memop_flash_start then proc.flash.Loader.flash_start
    else if op = Userland.memop_flash_end then
      proc.flash.Loader.flash_start + proc.flash.Loader.flash_size
    else if op = Userland.memop_grant_begins then MM.kernel_break proc.alloc
    else Userland.failure

  let handle_command t (proc : proc) ~driver ~cmd ~arg1 ~arg2 =
    ignore arg2;
    match driver_grant t proc driver with
    | Error _ -> Userland.failure
    | Ok _ when Hashtbl.mem t.capsules driver ->
      ensure_capsules_initialized t;
      let capsule = Hashtbl.find t.capsules driver in
      capsule.Capsule_intf.cap_command (make_handle t proc driver) ~cmd ~arg1 ~arg2
    | Ok _ ->
      if driver = driver_alarm then begin
        if cmd = 0 then Userland.success (* driver exists *)
        else if cmd = 1 then begin
          (* set alarm in [arg1] ticks *)
          proc.alarm_at <- Some (t.ticks + max arg1 1);
          Userland.success
        end
        else if cmd = 2 then t.ticks (* read the "clock" *)
        else Userland.failure
      end
      else if driver = driver_console then Userland.success
      else if driver = driver_sensor then sensor_reading proc cmd
      else if driver = driver_button then if cmd = 0 then Userland.success else 0
      else Userland.failure

  let rec handle_syscall t (proc : proc) call =
    match t.syscall_filter with
    | Some allow when not (allow proc.Process.pid call) -> Userland.failure
    | Some _ | None -> handle_syscall_unfiltered t proc call

  and handle_syscall_unfiltered t (proc : proc) call =
    match call with
    | Userland.Yield -> (
      (* queued capsule upcalls deliver first; then the builtin alarm *)
      match Queue.take_opt proc.pending_upcalls with
      | Some (_upcall_id, arg) -> arg
      | None -> (
        match proc.alarm_at with
        | Some due when due <= t.ticks ->
          proc.alarm_at <- None;
          1
        | Some _ | None ->
          proc.state <- Process.Yielded;
          0))
    | Userland.Subscribe { driver; upcall_id } -> (
      match driver_grant t proc driver with
      | Error _ -> Userland.failure
      | Ok _ ->
        proc.subscriptions <- (driver, upcall_id) :: List.remove_assoc driver proc.subscriptions;
        (match Hashtbl.find_opt t.capsules driver with
        | Some capsule ->
          ensure_capsules_initialized t;
          capsule.Capsule_intf.cap_subscribed (make_handle t proc driver) ~upcall_id
        | None -> ());
        Userland.success)
    | Userland.Command { driver; cmd; arg1; arg2 } -> handle_command t proc ~driver ~cmd ~arg1 ~arg2
    | Userland.Allow_ro { driver; addr; len } -> (
      match
        Hooks.measure t.hooks "build_readonly_buffer" @@ fun () ->
        MM.build_readonly_buffer proc.alloc ~addr ~len
      with
      | Ok buf ->
        proc.allowed_ro <- (driver, buf) :: List.remove_assoc driver proc.allowed_ro;
        (match Hashtbl.find_opt t.capsules driver with
        | Some capsule ->
          ensure_capsules_initialized t;
          capsule.Capsule_intf.cap_allowed_ro (make_handle t proc driver) buf
        | None -> ());
        Userland.success
      | Error _ -> Userland.failure)
    | Userland.Allow_rw { driver; addr; len } -> (
      match
        Hooks.measure t.hooks "build_readwrite_buffer" @@ fun () ->
        MM.build_readwrite_buffer proc.alloc ~addr ~len
      with
      | Ok buf ->
        proc.allowed_rw <- (driver, buf) :: List.remove_assoc driver proc.allowed_rw;
        (match Hashtbl.find_opt t.capsules driver with
        | Some capsule ->
          ensure_capsules_initialized t;
          capsule.Capsule_intf.cap_allowed_rw (make_handle t proc driver) buf
        | None -> ());
        Userland.success
      | Error _ -> Userland.failure)
    | Userland.Memop { op; arg } -> handle_memop t proc ~op ~arg

  (* --- running one slice of a process --- *)

  type slice_end =
    | Slice_syscall of Userland.call
    | Slice_quantum
    | Slice_exit of int
    | Slice_fault of string

  let charge n = Cycles.tick ~n Cycles.global

  let exec_action t (proc : proc) action =
    match action with
    | Userland.Load8 a ->
      charge Cycles.mem;
      Memory.load8 t.mem a
    | Userland.Store8 (a, v) ->
      charge Cycles.mem;
      Memory.store8 t.mem a v;
      0
    | Userland.Load32 a ->
      charge Cycles.mem;
      Memory.load32 t.mem a
    | Userland.Store32 (a, v) ->
      charge Cycles.mem;
      Memory.store32 t.mem a v;
      0
    | Userland.Compute n ->
      charge (max n 1);
      0
    | Userland.Print s ->
      charge (String.length s);
      Process.print proc s;
      0
    | Userland.Syscall _ | Userland.Exit _ -> assert false

  let cycles_per_quantum_unit = 16

  let run_actions t (proc : proc) ~perturb =
    match perturb with
    | Chaos_intf.P_spurious_systick ->
      (* the timer fires the instant the process resumes: the slice ends
         after zero user actions — a lost quantum, otherwise benign *)
      charge Cycles.exception_entry;
      Slice_quantum
    | Chaos_intf.P_none | Chaos_intf.P_spurious_svc | Chaos_intf.P_drop_systick
    | Chaos_intf.P_corrupt_exc_return _ ->
      (* a spurious SVC is architecturally absorbed: it only costs the
         process an exception round-trip of its own time *)
      if perturb = Chaos_intf.P_spurious_svc then charge (2 * Cycles.exception_entry);
      let dropped = perturb = Chaos_intf.P_drop_systick in
      let cooperative = t.sched = Cooperative in
      (* With a SysTick present the quantum is a cycle budget counted by the
         timer hardware model; otherwise an action budget. A dropped SysTick
         means the timer never fires this slice: the process keeps the CPU
         until it syscalls or the (much larger) fallback budget runs out —
         the overrun the software watchdog exists to catch. *)
      let expired =
        match t.systick with
        | Some st when (not cooperative) && not dropped ->
          Mpu_hw.Systick.start st ~reload:(t.quantum * cycles_per_quantum_unit) ~tickint:true;
          let last = ref (Cycles.read Cycles.global) in
          fun _budget ->
            let now = Cycles.read Cycles.global in
            Mpu_hw.Systick.advance st (now - !last);
            last := now;
            Mpu_hw.Systick.take_pending st
        | Some _ | None ->
          fun budget -> (not cooperative) && budget <= 0
      in
      let rec loop budget =
        if expired budget then Slice_quantum
        else
          match
            proc.Process.fed_inputs <- proc.last_result :: proc.Process.fed_inputs;
            proc.program proc.last_result
          with
          | Userland.Exit code -> Slice_exit code
          | Userland.Syscall call -> Slice_syscall call
          | action -> (
            match exec_action t proc action with
            | result ->
              proc.last_result <- result;
              loop (budget - 1)
            | exception Memory.Access_fault f ->
              Slice_fault
                (Printf.sprintf "mpu fault: %s at %s (%s)"
                   (match f.Memory.fault_access with
                   | Perms.Read -> "read"
                   | Perms.Write -> "write"
                   | Perms.Execute -> "execute")
                   (Word32.to_hex f.Memory.fault_addr)
                   f.Memory.fault_reason))
      in
      loop (if dropped then t.quantum * 4 else t.quantum)

  (* Configure the MPU for this process and enter it, run its actions, and
     return through the preemption path matching how the slice ended. *)
  let exc_num_for = function
    | Slice_syscall _ | Slice_exit _ -> Fluxarm.Exn.exc_svc
    | Slice_quantum -> Fluxarm.Exn.exc_systick
    | Slice_fault _ -> 4 (* MemManage *)

  (* Fault inside the switch itself (e.g. a steered stack pointer):
     hardware would escalate; we restore a sane kernel context. *)
  let recover_cpu cpu ~recover_msp (f : Memory.fault) =
    Fluxarm.Cpu.set_mode cpu Fluxarm.Cpu.Thread;
    Fluxarm.Cpu.set_special_raw cpu Fluxarm.Regs.Control 0;
    Fluxarm.Cpu.set_special_raw cpu Fluxarm.Regs.Msp recover_msp;
    Slice_fault
      (Printf.sprintf "fault during context switch at %s" (Word32.to_hex f.Memory.fault_addr))

  let run_slice t (proc : proc) =
    (match t.obs with
    | None -> ()
    | Some r ->
      Obs.Recorder.record r ~tick:t.ticks (Obs.Event.Switch_to_user { pid = proc.Process.pid }));
    Hooks.measure t.hooks "setup_mpu" (fun () -> MM.configure_mpu t.hw proc.alloc);
    (* The scrubber's reference: the configuration just derived from the
       allocator, retained by the kernel (no modeled register reads). Any
       later disagreement of the live registers with this snapshot is
       out-of-band corruption. *)
    if t.scrub_every > 0 then t.expected_mpu <- MM.mpu_snapshot t.hw;
    (* Chaos injection point: mid-slice SEU faults land after the registers
       were programmed and before/while the process runs. *)
    let perturb =
      match t.chaos with
      | None -> Chaos_intf.P_none
      | Some ch -> ch.Chaos_intf.ch_pre_slice ~pid:proc.Process.pid ~tick:t.ticks
    in
    match perturb with
    | Chaos_intf.P_corrupt_exc_return v ->
      (* the exception return cannot complete: hardware escalates before any
         user action runs, and the kernel faults the process *)
      charge (2 * Cycles.exception_entry);
      Slice_fault (Printf.sprintf "chaos: corrupted EXC_RETURN %s" (Word32.to_hex v))
    | Chaos_intf.P_none | Chaos_intf.P_spurious_systick | Chaos_intf.P_spurious_svc
    | Chaos_intf.P_drop_systick -> (
      match t.switcher with
      | Arm_switch cpu ->
        let recover_msp = Fluxarm.Cpu.get_special cpu Fluxarm.Regs.Msp in
        let finish reason =
          Fluxarm.Handlers.preempt_process cpu ~exc_num:(exc_num_for reason);
          Fluxarm.Handlers.switch_to_user_part2 cpu ~regs_base:proc.regs_base;
          proc.psp <- Fluxarm.Cpu.get_special cpu Fluxarm.Regs.Psp;
          reason
        in
        (try
           Fluxarm.Handlers.switch_to_user_part1 cpu ~process_sp:proc.psp
             ~regs_base:proc.regs_base;
           finish (run_actions t proc ~perturb)
         with Memory.Access_fault f -> recover_cpu cpu ~recover_msp f)
      | Arm_mc_switch (cpu, code) ->
        let recover_msp = Fluxarm.Cpu.get_special cpu Fluxarm.Regs.Msp in
        let finish reason =
          Fluxarm.Handlers_mc.preempt_process code cpu ~exc_num:(exc_num_for reason);
          Fluxarm.Handlers_mc.switch_to_user_part2 code cpu;
          proc.psp <- Fluxarm.Cpu.get_special cpu Fluxarm.Regs.Psp;
          reason
        in
        (try
           Fluxarm.Handlers_mc.switch_to_user_part1 code cpu ~process_sp:proc.psp
             ~regs_base:proc.regs_base;
           finish (run_actions t proc ~perturb)
         with Memory.Access_fault f -> recover_cpu cpu ~recover_msp f)
      | Sim_switch machine_mode ->
        charge (2 * Cycles.exception_entry);
        machine_mode := false;
        let reason = run_actions t proc ~perturb in
        machine_mode := true;
        charge (2 * Cycles.exception_entry);
        reason)

  (* A Tock-style process status dump, printed to the kernel console when a
     process faults (upstream prints this from the panic handler). *)
  let print_process_status t (proc : proc) =
    let b = Buffer.create 256 in
    Printf.bprintf b "App: %s   -   [%s]\n" proc.name (Process.state_to_string proc.state);
    Printf.bprintf b " Restart count: %d\n" proc.restarts;
    let row addr label = Printf.bprintf b "  %s | %-24s\n" (Word32.to_hex addr) label in
    row (MM.memory_start proc.alloc + MM.memory_size proc.alloc) "block end";
    row (MM.kernel_break proc.alloc) "kernel break (grants)";
    row (MM.app_break proc.alloc) "app break";
    row proc.psp "process stack pointer";
    row (MM.memory_start proc.alloc) "memory start";
    row (proc.flash.Loader.flash_start + proc.flash.Loader.flash_size) "flash end";
    row proc.flash.Loader.flash_start "flash start";
    log_console t (Buffer.contents b)

  (* Restart a faulted process: reset the break to its creation value,
     re-zero its RAM, synthesize a fresh initial frame, and run the program
     again from the top. Grants are kernel state and survive (Tock reuses
     the process's grant region on restart too). *)
  let restart_process t (proc : proc) factory =
    proc.restarts <- proc.restarts + 1;
    proc.recent_faults <- proc.recent_faults + 1;
    proc.healthy_since <- t.ticks;
    proc.run_since_syscall <- 0;
    (match MM.brk proc.alloc t.hw ~new_app_break:proc.initial_break with
    | Ok _ | Error _ -> ());
    let start = MM.memory_start proc.alloc in
    Cycles.tick ~n:((proc.initial_break - start) / 4 * Cycles.mem) Cycles.global;
    let a = ref start in
    while !a < proc.initial_break do
      Memory.write32 t.mem !a 0;
      a := !a + 4
    done;
    let psp = proc.initial_break - (4 * Fluxarm.Exn.frame_words) in
    Memory.write32 t.mem (psp + 20) initial_lr;
    Memory.write32 t.mem (psp + 24) proc.flash.Loader.entry;
    Memory.write32 t.mem (psp + 28) initial_psr;
    proc.psp <- psp;
    proc.program <- factory ();
    proc.fed_inputs <- [];
    proc.last_result <- 0;
    proc.allowed_ro <- [];
    proc.allowed_rw <- [];
    proc.subscriptions <- [];
    proc.alarm_at <- None;
    Queue.clear proc.pending_upcalls;
    proc.state <- Process.Ready;
    Obs.Metrics.incr t.metrics "kernel/restarts";
    (match t.obs with
    | None -> ()
    | Some r ->
      Obs.Recorder.record r ~tick:t.ticks (Obs.Event.Restarted { pid = proc.Process.pid }));
    log_console t (Printf.sprintf "process %s restarted (attempt %d)" proc.name proc.restarts)

  let handle_fault t (proc : proc) msg =
    Obs.Metrics.incr t.metrics "kernel/faults";
    (match t.obs with
    | None -> ()
    | Some r ->
      Obs.Recorder.record r ~tick:t.ticks
        (Obs.Event.Faulted { pid = proc.Process.pid; reason = msg }));
    proc.state <- Process.Faulted msg;
    log_console t (Printf.sprintf "process %s faulted: %s" proc.name msg);
    print_process_status t proc;
    (* Tell every capsule before the fault policy runs: a peer blocked on
       this process (IPC) must be woken with an error, not left wedged. *)
    Hashtbl.iter
      (fun _ (c : Capsule_intf.t) -> c.Capsule_intf.cap_proc_died ~pid:proc.Process.pid)
      t.capsules;
    (* Forgive one recent fault per [span] healthy ticks since the last
       fault accounting, so a long-lived process that faults rarely never
       exhausts its budget. Lazy: runs only when a fault needs the count. *)
    let decay span =
      if span > 0 && proc.recent_faults > 0 then begin
        let d = min proc.recent_faults ((t.ticks - proc.healthy_since) / span) in
        if d > 0 then begin
          proc.recent_faults <- proc.recent_faults - d;
          proc.healthy_since <- proc.healthy_since + (d * span)
        end
      end
    in
    let exhausted () =
      log_console t (Printf.sprintf "process %s: restart budget exhausted" proc.name)
    in
    match (proc.fault_policy, proc.program_factory) with
    | Process.Panic, _ -> raise (Panic (Printf.sprintf "process %s: %s" proc.name msg))
    | Process.Stop, _ -> ()
    | Process.Restart { max_restarts }, Some factory ->
      decay t.restart_decay_span;
      if proc.recent_faults < max_restarts then restart_process t proc factory
      else exhausted ()
    | Process.Restart_backoff { max_restarts; base_delay; max_delay; decay_span }, Some factory
      ->
      ignore factory;
      decay decay_span;
      if proc.recent_faults < max_restarts then begin
        (* deterministic exponential backoff: base, 2*base, 4*base, ...
           capped at [max_delay]; the restart itself runs from [wake_alarms]
           when the delay elapses *)
        let delay = min max_delay (base_delay * (1 lsl min proc.recent_faults 20)) in
        proc.restart_at <- Some (t.ticks + max delay 1);
        log_console t
          (Printf.sprintf "process %s: restart scheduled in %d ticks (backoff)" proc.name
             (max delay 1))
      end
      else exhausted ()
    | (Process.Restart _ | Process.Restart_backoff _), None -> exhausted ()

  (* The MPU config scrubber (every [scrub_every] context switches): read
     the live registers back and compare them word-for-word against the
     snapshot taken right after [configure_mpu]. Any disagreement is
     out-of-band corruption — the allocator's view and the hardware have
     diverged without the kernel writing anything. Runs at slice end,
     {e before} [disable_mpu] and before the next switch would silently
     rewrite (and thus heal) every slot. *)
  let scrub_check t (proc : proc) slice =
    t.switch_count <- t.switch_count + 1;
    if t.switch_count mod t.scrub_every <> 0 then slice
    else begin
      Obs.Metrics.incr t.metrics "scrub/checks";
      let live = MM.mpu_snapshot t.hw in
      (* the scrubber's modeled cost: one register read per snapshot word *)
      charge (List.length live * Cycles.mem);
      if live = t.expected_mpu then slice
      else begin
        let mismatched =
          List.fold_left2 (fun n a b -> if a = b then n else n + 1) 0 live t.expected_mpu
        in
        Obs.Metrics.incr t.metrics "scrub/detections";
        let latency =
          match t.chaos with
          | Some ({ Chaos_intf.ch_mpu_injected_at = Some at; _ } as ch) ->
            ch.Chaos_intf.ch_mpu_injected_at <- None;
            Cycles.read Cycles.global - at
          | Some _ | None -> 0
        in
        Obs.Metrics.observe (Obs.Metrics.hist t.metrics "scrub/detect_latency_cycles") latency;
        let repaired = t.scrub_policy = `Repair in
        (match t.obs with
        | None -> ()
        | Some r ->
          Obs.Recorder.record r ~tick:t.ticks
            (Obs.Event.Mpu_scrub { pid = proc.Process.pid; mismatched; repaired; latency }));
        if repaired then begin
          Obs.Metrics.incr t.metrics "scrub/repairs";
          (* Repair through the generic register-file restore hook: only
             the mismatched words are rewritten, so one corrupted register
             costs one register write — not a full reconfiguration. *)
          Hooks.measure t.hooks "mpu_repair" (fun () -> MM.mpu_restore t.hw t.expected_mpu);
          slice
        end
        else
          match slice with
          | Slice_fault _ -> slice (* the genuine fault takes precedence *)
          | Slice_syscall _ | Slice_quantum | Slice_exit _ ->
            Slice_fault
              (Printf.sprintf "mpu register corruption detected by scrubber (%d words)"
                 mismatched)
      end
    end

  (* The software watchdog: account model cycles a process runs without
     making a syscall; past the budget, fault it. Catches the runaway the
     dropped-SysTick fault creates — a process that never yields back. *)
  let watchdog_check t (proc : proc) slice ~ran =
    (match slice with
    | Slice_syscall _ -> proc.Process.run_since_syscall <- 0
    | Slice_quantum | Slice_exit _ | Slice_fault _ ->
      proc.Process.run_since_syscall <- proc.Process.run_since_syscall + ran);
    match slice with
    | Slice_quantum when proc.Process.run_since_syscall > t.watchdog ->
      let ran_total = proc.Process.run_since_syscall in
      proc.Process.run_since_syscall <- 0;
      Obs.Metrics.incr t.metrics "watchdog/fired";
      (match t.obs with
      | None -> ()
      | Some r ->
        Obs.Recorder.record r ~tick:t.ticks
          (Obs.Event.Watchdog_fired { pid = proc.Process.pid; ran = ran_total }));
      Slice_fault
        (Printf.sprintf "watchdog: %d syscall-less cycles exceed budget %d" ran_total
           t.watchdog)
    | Slice_syscall _ | Slice_quantum | Slice_exit _ | Slice_fault _ -> slice

  let step_process t (proc : proc) =
    (match t.obs with
    | None -> ()
    | Some r ->
      Obs.Recorder.record r ~tick:t.ticks (Obs.Event.Scheduled { pid = proc.Process.pid }));
    proc.Process.slices <- proc.Process.slices + 1;
    let slice, ran =
      if t.watchdog > 0 then Cycles.measure Cycles.global (fun () -> run_slice t proc)
      else (run_slice t proc, 0)
    in
    let slice = if t.scrub_every > 0 then scrub_check t proc slice else slice in
    (* back in the kernel: enforcement off until the next switch (§2.1) *)
    MM.disable_mpu t.hw;
    let slice = if t.watchdog > 0 then watchdog_check t proc slice ~ran else slice in
    match slice with
    | Slice_syscall call ->
      proc.Process.syscall_count <- proc.Process.syscall_count + 1;
      Obs.Metrics.incr t.metrics "kernel/syscalls";
      let result, latency = Cycles.measure Cycles.global (fun () -> handle_syscall t proc call) in
      Obs.Metrics.observe t.syscall_hists.(syscall_kind call) latency;
      (match t.obs with
      | None -> ()
      | Some r ->
        Obs.Recorder.record r ~tick:t.ticks
          (Obs.Event.Syscall
             { pid = proc.Process.pid; call = syscall_kind_names.(syscall_kind call); result }));
      proc.last_result <- result
    | Slice_quantum -> ()
    | Slice_exit code ->
      proc.state <- Process.Exited code;
      (match t.obs with
      | None -> ()
      | Some r ->
        Obs.Recorder.record r ~tick:t.ticks (Obs.Event.Exited { pid = proc.Process.pid; code }));
      log_console t (Printf.sprintf "process %s exited with %d" proc.name code);
      Hashtbl.iter
        (fun _ (c : Capsule_intf.t) -> c.Capsule_intf.cap_proc_died ~pid:proc.Process.pid)
        t.capsules
    | Slice_fault msg -> handle_fault t proc msg

  (* --- the main scheduler loop --- *)

  let wake_alarms t =
    (* deferred (backoff) restarts whose delay has elapsed *)
    List.iter
      (fun (p : proc) ->
        match (p.Process.restart_at, p.Process.program_factory) with
        | Some due, Some factory when due <= t.ticks ->
          p.Process.restart_at <- None;
          restart_process t p factory
        | Some due, None when due <= t.ticks -> p.Process.restart_at <- None
        | (Some _ | None), _ -> ())
      t.procs;
    List.iter
      (fun (p : proc) ->
        (match Queue.take_opt p.Process.pending_upcalls with
        | Some (_id, arg) when p.Process.state = Process.Yielded ->
          p.Process.state <- Process.Ready;
          p.Process.last_result <- arg
        | Some pending -> Queue.push pending p.Process.pending_upcalls
        | None -> ());
        match (p.Process.state, p.Process.alarm_at) with
        | Process.Yielded, Some due when due <= t.ticks ->
          p.Process.state <- Process.Ready;
          p.Process.alarm_at <- None;
          p.Process.last_result <- 1
        | (Process.Ready | Process.Yielded | Process.Faulted _ | Process.Exited _), _ -> ())
      t.procs

  let has_future_work t =
    List.exists
      (fun (p : proc) ->
        Process.is_runnable p
        || p.Process.restart_at <> None
        || p.Process.state = Process.Yielded
           && (p.Process.alarm_at <> None
              || (not (Queue.is_empty p.Process.pending_upcalls))
              || Hashtbl.length t.capsules > 0))
      t.procs
    || Hashtbl.fold
         (fun _ (c : Capsule_intf.t) acc -> acc || c.Capsule_intf.cap_has_work ())
         t.capsules false

  (* Tickless idle. With no process runnable, the first tick after
     [t.ticks] at which anything but a clock may change: a yielded
     process's alarm, a backoff restart, or a capsule's declared next
     action. An attached chaos engine, a capsule that declares nothing,
     or a pending-upcall queue of two or more entries (which [wake_alarms]
     rotates) pins it to the next tick. A yielded process never holds a
     queued upcall, so a queue of one stays as it is. *)
  let next_event t =
    let next = t.ticks + 1 in
    if t.chaos <> None then next
    else
      let ev =
        List.fold_left
          (fun ev (p : proc) ->
            if Queue.length p.Process.pending_upcalls >= 2 then next
            else
              let ev = match p.Process.restart_at with Some due -> min ev due | None -> ev in
              match (p.Process.state, p.Process.alarm_at) with
              | Process.Yielded, Some due -> min ev due
              | (Process.Ready | Process.Yielded | Process.Faulted _ | Process.Exited _), _ -> ev)
          max_int t.procs
      in
      Hashtbl.fold
        (fun _ (c : Capsule_intf.t) ev ->
          match c.Capsule_intf.cap_quiet with
          | None -> next
          | Some q -> min ev (q.Capsule_intf.q_next ~now:t.ticks))
        t.capsules ev

  (* Jump over the idle ticks before [next_event] in one step. On them
     only the kernel tick and the capsules' declared clocks change, and
     [has_future_work] keeps its answer, so the loop below would have
     spun through exactly these ticks. A run that has reached its
     deadline (every one-tick step) looks no further. *)
  let skip_idle t ~deadline =
    if t.ticks < deadline then
      let upto = min deadline (next_event t - 1) in
      if upto > t.ticks && has_future_work t then begin
        let from = t.ticks + 1 in
        Hashtbl.iter
          (fun _ (c : Capsule_intf.t) ->
            Option.iter (fun q -> q.Capsule_intf.q_advance ~from ~upto) c.Capsule_intf.cap_quiet)
          t.capsules;
        t.ticks <- upto
      end

  let run t ~max_ticks =
    let deadline = t.ticks + max_ticks in
    ensure_capsules_initialized t;
    while t.ticks < deadline && has_future_work t do
      t.ticks <- t.ticks + 1;
      (match t.chaos with None -> () | Some ch -> ch.Chaos_intf.ch_tick ~tick:t.ticks);
      Hashtbl.iter (fun _ (c : Capsule_intf.t) -> c.Capsule_intf.cap_tick ~now:t.ticks) t.capsules;
      wake_alarms t;
      let runnable = List.filter Process.is_runnable t.procs in
      (match (t.sched, runnable) with
      | _, [] -> skip_idle t ~deadline (* idle tick: sleep until the next event *)
      | (Round_robin | Cooperative), _ ->
        List.iter (fun p -> if Process.is_runnable p then step_process t p) runnable
      | Priority prio, p0 :: rest ->
        (* only the highest-priority runnable process gets the CPU *)
        let best =
          List.fold_left
            (fun best p ->
              if prio p.Process.pid < prio best.Process.pid then p else best)
            p0 rest
        in
        step_process t best);
      ()
    done

  (* --- end-to-end isolation checking (§4.3 correspondence, from outside) --- *)

  let normalize ranges =
    let nonempty = List.filter (fun r -> not (Range.is_empty r)) ranges in
    let sorted = List.sort (fun a b -> compare (Range.start a) (Range.start b)) nonempty in
    List.fold_left
      (fun acc r ->
        match acc with
        | prev :: rest when Range.start r <= Range.end_ prev ->
          Range.of_bounds ~lo:(Range.start prev) ~hi:(max (Range.end_ prev) (Range.end_ r))
          :: rest
        | _ -> r :: acc)
      [] sorted
    |> List.rev

  let ranges_subset sub super =
    let super = normalize super in
    List.for_all
      (fun r ->
        Range.is_empty r || List.exists (fun s -> Range.contains_range s r) super)
      (normalize sub)

  (** Check that what the hardware currently enforces for this process is
      exactly bounded by the kernel's logical view: every hardware-readable
      or writable byte lies inside the process's accessible ranges. Call
      after [configure_mpu] (tests do). *)
  let isolation_ok t (proc : proc) =
    MM.configure_mpu t.hw proc.alloc;
    let logical = MM.accessible proc.alloc in
    let hw_r = MM.hw_accessible t.hw Perms.Read in
    let hw_w = MM.hw_accessible t.hw Perms.Write in
    let ram = MM.accessible proc.alloc |> List.filter (fun r -> Layout.in_sram (Range.start r)) in
    ranges_subset hw_r logical && ranges_subset hw_w ram

  let mem_stats (proc : proc) =
    let total = MM.memory_size proc.alloc in
    let app = MM.app_break proc.alloc - MM.memory_start proc.alloc in
    let grant = MM.memory_start proc.alloc + total - MM.kernel_break proc.alloc in
    { Instance.total; app; grant; unused = total - app - grant }

  (* One snapshot subsuming every scattered [*_stats] accessor: the live
     registry (syscall-latency histograms, fault/restart/syscall counters),
     the Figure 11 per-method cycle rows, the bus and instruction caches
     (flagged [host] — they describe the simulator, not the simulated
     machine, so determinism comparisons exclude them via
     [Obs.Metrics.model_only]) and per-process memory gauges including the
     high-water mark. *)
  let metrics_snapshot t =
    let open Obs.Metrics in
    let hooks_rows =
      List.concat_map
        (fun (m, calls, cycles) ->
          [ c ("hooks/" ^ m ^ "/calls") calls; c ("hooks/" ^ m ^ "/cycles") cycles ])
        (Hooks.rows t.hooks)
    in
    let dc_hits, dc_misses = Memory.cache_stats t.mem in
    let bus =
      [
        c ~host:true "bus/decision_cache/hits" dc_hits;
        c ~host:true "bus/decision_cache/misses" dc_misses;
      ]
    in
    let icache =
      match t.switcher with
      | Arm_switch cpu | Arm_mc_switch (cpu, _) ->
        let ic = Fluxarm.Cpu.icache cpu in
        let s = Fluxarm.Icache.stats ic in
        let th = Fluxarm.Icache.trace_len_summary ic in
        [
          c ~host:true "icache/hits" s.Fluxarm.Icache.hits;
          c ~host:true "icache/misses" s.Fluxarm.Icache.misses;
          c ~host:true "icache/cached_instructions" s.Fluxarm.Icache.cached;
          c ~host:true "icache/total_instructions" s.Fluxarm.Icache.total;
          c ~host:true "icache/link_hits" s.Fluxarm.Icache.link_hits;
          c ~host:true "icache/link_flushes" s.Fluxarm.Icache.link_flushes;
          c ~host:true "icache/traces_entered" s.Fluxarm.Icache.traces;
          g ~host:true "icache/avg_trace_len_x100"
            (if s.Fluxarm.Icache.traces = 0 then 0
             else 100 * s.Fluxarm.Icache.trace_blocks / s.Fluxarm.Icache.traces);
          Obs.Metrics.h ~host:true "icache/trace_len" ~count:th.Fluxarm.Icache.th_count
            ~sum:th.Fluxarm.Icache.th_sum ~vmin:th.Fluxarm.Icache.th_min
            ~vmax:th.Fluxarm.Icache.th_max ~buckets:th.Fluxarm.Icache.th_buckets;
        ]
        @
        (* the fuzzer's coverage bitmap, host-flagged like every other
           cache observation: all zero unless [Icache.set_coverage] *)
        (let cc = Fluxarm.Icache.cov_counts ic in
         [
           c ~host:true "cov/blocks_lit" cc.Fluxarm.Icache.cc_blocks_lit;
           c ~host:true "cov/edges_lit" cc.Fluxarm.Icache.cc_edges_lit;
           c ~host:true "cov/block_hits" cc.Fluxarm.Icache.cc_block_hits;
           c ~host:true "cov/edge_hits" cc.Fluxarm.Icache.cc_edge_hits;
         ])
      | Sim_switch _ -> []
    in
    let obs_rows =
      match t.obs with
      | None -> []
      | Some r ->
        [
          c ~host:true "obs/recorder/recorded" (Obs.Recorder.recorded r);
          c ~host:true "obs/recorder/dropped" (Obs.Recorder.dropped r);
        ]
    in
    let chaos_rows =
      match t.chaos with
      | None -> []
      | Some ch -> [ c ~host:true "chaos/injected" ch.Chaos_intf.ch_injected ]
    in
    let kernel = [ g "kernel/ticks" t.ticks; g "kernel/processes" (List.length t.procs) ] in
    let per_proc =
      List.concat_map
        (fun (p : proc) ->
          let s = mem_stats p in
          let pre = Printf.sprintf "proc/%d/" p.Process.pid in
          [
            c (pre ^ "slices") p.Process.slices;
            c (pre ^ "syscalls") p.Process.syscall_count;
            c (pre ^ "restarts") p.Process.restarts;
            g (pre ^ "mem_total") s.Instance.total;
            g (pre ^ "mem_app") s.Instance.app;
            g (pre ^ "mem_grant") s.Instance.grant;
            g (pre ^ "mem_unused") s.Instance.unused;
            g (pre ^ "mem_watermark") p.Process.mem_watermark;
          ])
        t.procs
    in
    sorted
      (snapshot t.metrics @ hooks_rows @ bus @ icache @ obs_rows @ chaos_rows @ kernel
     @ per_proc
      @ Obs.Metrics.host_entries () (* process-global host counters (fleet) *))

  (* --- whole-kernel snapshot (the board snapshot subsystem's kernel
     component) ---

     Everything restores {e in place}: the same [proc] records, the same
     allocator objects, the same hooks/metrics/recorder structures —
     so process handles held inside capsule state (alarm queues, button
     listeners) remain valid across a restore, and the capsules' own state
     rides along through their [cap_snapshot] hooks. Programs are
     deterministic closures; they are rebuilt from [program_factory] by
     replaying the fed-input log. *)

  type proc_snapshot = {
    ps_proc : proc;
    ps_state : Process.state;
    ps_program : Userland.program;
    ps_fed_inputs : int list;
    ps_psp : Word32.t;
    ps_last_result : Word32.t;
    ps_allowed_ro : (int * Range.t) list;
    ps_allowed_rw : (int * Range.t) list;
    ps_subscriptions : (int * int) list;
    ps_alarm_at : int option;
    ps_grants : (int * Word32.t) list;
    ps_pending : (int * int) Queue.t;
    ps_output : string;
    ps_alloc : MM.alloc_snapshot;
    ps_restarts : int;
    ps_recent_faults : int;
    ps_healthy_since : int;
    ps_restart_at : int option;
    ps_run_since_syscall : int;
    ps_slices : int;
    ps_syscall_count : int;
    ps_mem_watermark : int;
  }

  type snapshot = {
    k_procs : proc_snapshot list;
    k_next_pid : int;
    k_flash_cursor : Word32.t;
    k_ram_cursor : Word32.t;
    k_ticks : int;
    k_console : string;
    k_capsules_initialized : bool;
    k_switch_count : int;
    k_expected_mpu : int list;
    k_hooks : (string * int * int) list;
    k_metrics : Obs.Metrics.captured;
    k_obs : Obs.Recorder.captured option;
    k_capsules : (string * (unit -> unit)) list;  (** capsule restore thunks *)
    k_chaos : (int option * int) option;  (** (ch_mpu_injected_at, ch_injected) *)
    k_cycles : int;  (** the global model-cycle counter *)
  }

  let capture_proc (proc : proc) =
    {
      ps_proc = proc;
      ps_state = proc.Process.state;
      ps_program = proc.Process.program;
      ps_fed_inputs = proc.Process.fed_inputs;
      ps_psp = proc.Process.psp;
      ps_last_result = proc.Process.last_result;
      ps_allowed_ro = proc.Process.allowed_ro;
      ps_allowed_rw = proc.Process.allowed_rw;
      ps_subscriptions = proc.Process.subscriptions;
      ps_alarm_at = proc.Process.alarm_at;
      ps_grants = proc.Process.grants;
      ps_pending = Queue.copy proc.Process.pending_upcalls;
      ps_output = Buffer.contents proc.Process.output;
      ps_alloc = MM.capture_alloc proc.Process.alloc;
      ps_restarts = proc.Process.restarts;
      ps_recent_faults = proc.Process.recent_faults;
      ps_healthy_since = proc.Process.healthy_since;
      ps_restart_at = proc.Process.restart_at;
      ps_run_since_syscall = proc.Process.run_since_syscall;
      ps_slices = proc.Process.slices;
      ps_syscall_count = proc.Process.syscall_count;
      ps_mem_watermark = proc.Process.mem_watermark;
    }

  let restore_proc ps =
    let proc = ps.ps_proc in
    proc.Process.state <- ps.ps_state;
    (match proc.Process.program_factory with
    | Some factory ->
      (* rebuild the program closure at its captured point: fresh closure,
         replay the captured input log oldest-first *)
      let p = factory () in
      List.iter (fun input -> ignore (p input)) (List.rev ps.ps_fed_inputs);
      proc.Process.program <- p
    | None ->
      (* no factory to rebuild from: share the captured closure. Exact as
         long as the program was never stepped between capture and restore
         (the pristine post-boot snapshots campaigns fork from); campaign
         workloads always load with factories. *)
      proc.Process.program <- ps.ps_program);
    proc.Process.fed_inputs <- ps.ps_fed_inputs;
    proc.Process.psp <- ps.ps_psp;
    proc.Process.last_result <- ps.ps_last_result;
    proc.Process.allowed_ro <- ps.ps_allowed_ro;
    proc.Process.allowed_rw <- ps.ps_allowed_rw;
    proc.Process.subscriptions <- ps.ps_subscriptions;
    proc.Process.alarm_at <- ps.ps_alarm_at;
    proc.Process.grants <- ps.ps_grants;
    Queue.clear proc.Process.pending_upcalls;
    Queue.iter (fun e -> Queue.push e proc.Process.pending_upcalls) ps.ps_pending;
    Buffer.clear proc.Process.output;
    Buffer.add_string proc.Process.output ps.ps_output;
    MM.restore_alloc proc.Process.alloc ps.ps_alloc;
    proc.Process.restarts <- ps.ps_restarts;
    proc.Process.recent_faults <- ps.ps_recent_faults;
    proc.Process.healthy_since <- ps.ps_healthy_since;
    proc.Process.restart_at <- ps.ps_restart_at;
    proc.Process.run_since_syscall <- ps.ps_run_since_syscall;
    proc.Process.slices <- ps.ps_slices;
    proc.Process.syscall_count <- ps.ps_syscall_count;
    proc.Process.mem_watermark <- ps.ps_mem_watermark

  let capture t =
    {
      k_procs = List.map capture_proc t.procs;
      k_next_pid = t.next_pid;
      k_flash_cursor = t.flash_cursor;
      k_ram_cursor = t.ram_cursor;
      k_ticks = t.ticks;
      k_console = Buffer.contents t.console;
      k_capsules_initialized = t.capsules_initialized;
      k_switch_count = t.switch_count;
      k_expected_mpu = t.expected_mpu;
      k_hooks = Hooks.capture t.hooks;
      k_metrics = Obs.Metrics.capture t.metrics;
      k_obs = Option.map Obs.Recorder.capture t.obs;
      k_capsules =
        Hashtbl.fold
          (fun _ (c : Capsule_intf.t) acc ->
            match c.Capsule_intf.cap_snapshot with
            | None -> acc
            | Some s -> (s.Capsule_intf.sn_name, s.Capsule_intf.sn_capture ()) :: acc)
          t.capsules []
        |> List.sort (fun (a, _) (b, _) -> compare a b);
      k_chaos =
        Option.map
          (fun ch -> (ch.Chaos_intf.ch_mpu_injected_at, ch.Chaos_intf.ch_injected))
          t.chaos;
      k_cycles = Cycles.read Cycles.global;
    }

  let restore t s =
    List.iter restore_proc s.k_procs;
    (* processes created after the capture are dropped; the captured ones
       are the same records, restored in place above *)
    t.procs <- List.map (fun ps -> ps.ps_proc) s.k_procs;
    t.next_pid <- s.k_next_pid;
    t.flash_cursor <- s.k_flash_cursor;
    t.ram_cursor <- s.k_ram_cursor;
    t.ticks <- s.k_ticks;
    Buffer.clear t.console;
    Buffer.add_string t.console s.k_console;
    t.capsules_initialized <- s.k_capsules_initialized;
    t.switch_count <- s.k_switch_count;
    t.expected_mpu <- s.k_expected_mpu;
    Hooks.restore t.hooks s.k_hooks;
    Obs.Metrics.restore t.metrics s.k_metrics;
    (match (t.obs, s.k_obs) with
    | Some r, Some c -> Obs.Recorder.restore r c
    | (Some _ | None), _ -> ());
    List.iter (fun (_, thunk) -> thunk ()) s.k_capsules;
    (match (t.chaos, s.k_chaos) with
    | Some ch, Some (at, injected) ->
      ch.Chaos_intf.ch_mpu_injected_at <- at;
      ch.Chaos_intf.ch_injected <- injected
    | (Some _ | None), _ -> ());
    Cycles.set Cycles.global s.k_cycles

  let fingerprint t =
    let h = Fp.seed in
    let h = Fp.int h t.ticks in
    let h = Fp.int h t.next_pid in
    let h = Fp.int h t.flash_cursor in
    let h = Fp.int h t.ram_cursor in
    let h = Fp.int h t.switch_count in
    let h = Fp.string h (Buffer.contents t.console) in
    let h = Fp.ints h t.expected_mpu in
    let h =
      List.fold_left
        (fun h (proc : proc) ->
          let h = Fp.int h proc.Process.pid in
          let h = Fp.string h (Process.state_to_string proc.Process.state) in
          let h = Fp.int h proc.Process.psp in
          let h = Fp.int h proc.Process.last_result in
          let h = Fp.int h (List.length proc.Process.fed_inputs) in
          let h =
            List.fold_left
              (fun h (d, r) -> Fp.int (Fp.int (Fp.int h d) (Range.start r)) (Range.size r))
              h
              (proc.Process.allowed_ro @ proc.Process.allowed_rw)
          in
          let h =
            List.fold_left (fun h (d, v) -> Fp.int (Fp.int h d) v) h
              (proc.Process.subscriptions @ proc.Process.grants)
          in
          let h = Fp.int h (Option.value proc.Process.alarm_at ~default:(-1)) in
          let h = Fp.int h (Option.value proc.Process.restart_at ~default:(-1)) in
          let h =
            Queue.fold (fun h (id, arg) -> Fp.int (Fp.int h id) arg) h
              proc.Process.pending_upcalls
          in
          let h = Fp.string h (Buffer.contents proc.Process.output) in
          let h = Fp.int h proc.Process.restarts in
          let h = Fp.int h proc.Process.slices in
          Fp.int h proc.Process.syscall_count)
        (Fp.int h (List.length t.procs))
        t.procs
    in
    let h =
      Hashtbl.fold
        (fun _ (c : Capsule_intf.t) acc ->
          match c.Capsule_intf.cap_snapshot with
          | None -> acc
          | Some s -> (s.Capsule_intf.sn_name, s.Capsule_intf.sn_fingerprint) :: acc)
        t.capsules []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.fold_left (fun h (name, fp) -> Fp.int64 (Fp.string h name) (fp ())) h
    in
    Fp.int h (Cycles.read Cycles.global)

  (* --- the type-erased view --- *)

  let instance t : Instance.t =
    let with_proc pid f = Option.map f (find_process t pid) in
    {
      Instance.kernel_name = name;
      load =
        (fun ~name ~payload ~program ~min_ram ~grant_reserve ~heap_headroom ->
          Result.map
            (fun (p : proc) -> p.Process.pid)
            (create_process t ~name ~payload ~program ~min_ram ~grant_reserve ~heap_headroom
               ()));
      load_factory =
        (fun ~name ~payload ~factory ~min_ram ->
          Result.map
            (fun (p : proc) -> p.Process.pid)
            (create_process t ~name ~payload ~program:(factory ()) ~min_ram
               ~program_factory:factory ()));
      procs = (fun () -> List.map (fun (p : proc) -> (p.Process.pid, p.Process.name)) t.procs);
      boot_load =
        (fun ~registry ~require_credentials ->
          List.length (load_processes t ~registry ~require_credentials ()));
      run = (fun ~max_ticks -> run t ~max_ticks);
      proc_output = (fun pid -> with_proc pid Process.output);
      proc_state = (fun pid -> with_proc pid (fun p -> Process.state_to_string p.Process.state));
      proc_exit =
        (fun pid ->
          Option.join
            (with_proc pid (fun (p : proc) ->
                 match p.Process.state with Process.Exited c -> Some c | _ -> None)));
      proc_faulted =
        (fun pid ->
          Option.value ~default:false
            (with_proc pid (fun (p : proc) ->
                 match p.Process.state with Process.Faulted _ -> true | _ -> false)));
      proc_mem_stats = (fun pid -> with_proc pid mem_stats);
      proc_isolation_ok =
        (fun pid -> Option.value ~default:false (with_proc pid (isolation_ok t)));
      proc_sbrk =
        (fun pid delta ->
          match find_process t pid with
          | None -> Error Kerror.No_such_process
          | Some p ->
            Hooks.measure t.hooks "brk" @@ fun () -> MM.sbrk p.Process.alloc t.hw ~delta);
      hooks = (fun () -> t.hooks);
      console = (fun () -> console_output t);
      ticks = (fun () -> t.ticks);
      icache_stats =
        (fun () ->
          match t.switcher with
          | Arm_switch cpu | Arm_mc_switch (cpu, _) ->
            Some (Fluxarm.Icache.stats (Fluxarm.Cpu.icache cpu))
          | Sim_switch _ -> None);
      icache =
        (fun () ->
          match t.switcher with
          | Arm_switch cpu | Arm_mc_switch (cpu, _) -> Some (Fluxarm.Cpu.icache cpu)
          | Sim_switch _ -> None);
      buscache_stats = (fun () -> Memory.cache_stats t.mem);
      metrics = (fun () -> metrics_snapshot t);
      obs = (fun () -> t.obs);
      reseed = (fun _ -> ()) (* only the board knows its seeded devices *);
      snap_target = None (* only the board knows its device complement *);
      regs =
        (fun () ->
          match t.switcher with
          | Arm_switch cpu | Arm_mc_switch (cpu, _) ->
            List.map
              (fun r ->
                (Format.asprintf "%a" Fluxarm.Regs.pp_gpr r,
                 Word32.to_hex (Fluxarm.Cpu.get cpu r)))
              Fluxarm.Regs.all_gprs
            @ [
                ("sp", Word32.to_hex (Fluxarm.Cpu.sp cpu));
                ("pc", Word32.to_hex (Fluxarm.Cpu.pc cpu));
              ]
          | Sim_switch _ -> []);
      mem_read = (fun ~addr ~len -> Memory.read_bytes t.mem addr len);
      mpu_describe = (fun () -> "") (* only the board knows the MPU model *);
    }
end
