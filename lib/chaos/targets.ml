(** Concrete boards the chaos campaign injects into.

    One target per MPU architecture — ARMv7-M PMSA, ARMv8-M PMSA and RISC-V
    PMP — each a TickTock kernel built through {!Ticktock.Boards} with the
    standard capsule set and the robustness knobs (scrubber, watchdog,
    restart backoff) threaded through. A target erases the per-functor
    kernel behind the closures the engine and campaign need: the
    type-erased {!Ticktock.Instance}, the live process blocks for memory
    flips, an architecture-specific MPU register corruptor, and the device
    fault-injection levers of the board's capsules.

    The corruptors flip one bit of one live register {e through the
    hardware model's write path}, so the configuration id moves exactly as
    on reconfiguration (access decisions cached under the old contents stop
    validating) and malformed encodings are rejected the way real register
    files reject reserved values — a rejected write is a masked fault. *)

open Ticktock

type setup = {
  st_chaos : Chaos_intf.t option;
  st_scrub_every : int;
  st_scrub_policy : [ `Repair | `Fault ];
  st_watchdog : int;
  st_restart_decay_span : int;
  st_rng_seed : int;  (** seed of the RNG capsule's xorshift stream *)
}

let plain_setup ~rng_seed =
  {
    st_chaos = None;
    st_scrub_every = 0;
    st_scrub_policy = `Repair;
    st_watchdog = 0;
    st_restart_decay_span = 0;
    st_rng_seed = rng_seed;
  }

(** A built board, ready for a campaign round. *)
type made = {
  bd_instance : Instance.t;
  bd_devices : Capsules.Board_set.devices;
  bd_hooks : Engine.hooks;
  bd_load :
    name:string ->
    program:(unit -> Userland.program) ->
    min_ram:int ->
    policy:Process.fault_policy ->
    (int, Kerror.t) result;
      (** load a companion app under an explicit fault policy (with a
          program factory, so [Restart] policies can resurrect it) *)
  bd_dma : Dma.Engine.t;
      (** a scratch DMA engine over the board's memory, for the transient
          bus-NACK demonstration *)
}

type board = {
  tb_name : string;
  tb_make : setup -> made;
}

(* --- the generic register corruptor ---

   One corruptor for every architecture, built on the register-file
   snapshot/restore pair every {!Mm.S} now exposes (the same hook the
   scrubber's repair path and the board snapshot subsystem use): read the
   live word list, flip one random bit of one random word, write the list
   back. [mpu_restore] is diff-only through the model's register-write
   front door, so exactly one register write happens, the configuration
   id moves as on a real reconfiguration, and a value the hardware
   would reject (reserved encodings, locked PMP entries) raises — a masked
   fault, reported as [Error]. The per-architecture corruptors this
   replaces each hand-picked field offsets; the word-level flip covers the
   same registers uniformly and the scrubber's word-for-word comparison
   detects any landed flip regardless of which field it hit.

   Some flips have no architectural effect: the snapshot encodes global
   enable as a whole word but the hardware only has the bit, so flipping
   bit 5 of an enabled MPU's enable word writes nothing back. Re-reading
   the registers after the write-back tells landed from normalized-away —
   the latter is a masked fault (the campaign must not expect the scrubber
   to detect a corruption the register file never held). *)

let corrupt_mpu ~arch ~snapshot ~restore hw rng =
  let words = snapshot hw in
  let index = Random.State.int rng (List.length words) in
  let bit = Random.State.int rng 32 in
  let words' = List.mapi (fun i w -> if i = index then w lxor (1 lsl bit) else w) words in
  try
    restore hw words';
    if snapshot hw = words then
      Error (Printf.sprintf "%s word %d bit %d normalized away by the register file" arch index bit)
    else Ok (Printf.sprintf "%s word %d bit %d" arch index bit)
  with Invalid_argument why -> Error why

(* --- boards --- *)

let payload_of name = name ^ "-image"

let make_arm (s : setup) =
  let rng_stall = ref 0 and ipc_nack = ref 0 in
  let capsules, devices =
    Capsules.Board_set.standard ~rng_seed:s.st_rng_seed ~rng_stall ~ipc_nack ()
  in
  let m, k =
    Boards.make_ticktock_arm ~capsules ?chaos:s.st_chaos ~scrub_every:s.st_scrub_every
      ~scrub_policy:s.st_scrub_policy ~watchdog:s.st_watchdog
      ~restart_decay_span:s.st_restart_decay_span ()
  in
  let mem = m.Machine.arm_mem in
  let dma = Dma.Engine.create mem in
  let blocks () =
    List.filter_map
      (fun p ->
        if Process.is_live p then
          Some
            ( p.Process.pid,
              Boards.Ticktock_arm_mm.memory_start p.Process.alloc,
              Boards.Ticktock_arm_mm.memory_size p.Process.alloc )
        else None)
      (Boards.Ticktock_arm.processes k)
  in
  let load ~name ~program ~min_ram ~policy =
    Result.map
      (fun p -> p.Process.pid)
      (Boards.Ticktock_arm.create_process k ~name ~payload:(payload_of name)
         ~program:(program ()) ~min_ram ~fault_policy:policy ~program_factory:program ())
  in
  {
    bd_instance =
      { (Boards.Ticktock_arm.instance k) with
        Instance.snap_target =
          Some
            (Snapshot.add_components
               (Boards.target ~arch:"armv7m" ~board:"ticktock-arm" ~mem
                  ~devices:(Boards.arm_components m)
                  ~kernel:
                    (Boards.comp "kernel" ~capture:Boards.Ticktock_arm.capture
                       ~restore:Boards.Ticktock_arm.restore
                       ~fingerprint:Boards.Ticktock_arm.fingerprint k)
                  ~procs:(fun () -> List.length (Boards.Ticktock_arm.processes k)))
               (Capsules.Board_set.components devices))
      };
    bd_devices = devices;
    bd_hooks =
      {
        Engine.hk_mem = mem;
        hk_blocks = blocks;
        hk_kernel_sram = Layout.kernel_sram;
        hk_corrupt_mpu =
          corrupt_mpu ~arch:"v7" ~snapshot:Boards.Ticktock_arm_mm.mpu_snapshot
            ~restore:Boards.Ticktock_arm_mm.mpu_restore m.Machine.arm_mpu;
        hk_uart_busy =
          (fun ~cycles ->
            Mpu_hw.Uart.inject_busy devices.Capsules.Board_set.uart ~cycles);
        hk_rng_stall = rng_stall;
        hk_ipc_nack = ipc_nack;
        hk_dma_nack = Some (fun () -> Dma.Engine.inject_nack dma);
        hk_obs = Boards.Ticktock_arm.obs_sink k;
      };
    bd_load = load;
    bd_dma = dma;
  }

let make_arm_v8 (s : setup) =
  let rng_stall = ref 0 and ipc_nack = ref 0 in
  let capsules, devices =
    Capsules.Board_set.standard ~rng_seed:s.st_rng_seed ~rng_stall ~ipc_nack ()
  in
  let m, k =
    Boards.make_ticktock_arm_v8 ~capsules ?chaos:s.st_chaos ~scrub_every:s.st_scrub_every
      ~scrub_policy:s.st_scrub_policy ~watchdog:s.st_watchdog
      ~restart_decay_span:s.st_restart_decay_span ()
  in
  let mem = m.Machine.v8_mem in
  let dma = Dma.Engine.create mem in
  let blocks () =
    List.filter_map
      (fun p ->
        if Process.is_live p then
          Some
            ( p.Process.pid,
              Boards.Ticktock_arm_v8_mm.memory_start p.Process.alloc,
              Boards.Ticktock_arm_v8_mm.memory_size p.Process.alloc )
        else None)
      (Boards.Ticktock_arm_v8.processes k)
  in
  let load ~name ~program ~min_ram ~policy =
    Result.map
      (fun p -> p.Process.pid)
      (Boards.Ticktock_arm_v8.create_process k ~name ~payload:(payload_of name)
         ~program:(program ()) ~min_ram ~fault_policy:policy ~program_factory:program ())
  in
  {
    bd_instance =
      { (Boards.Ticktock_arm_v8.instance k) with
        Instance.snap_target =
          Some
            (Snapshot.add_components
               (Boards.target ~arch:"armv8m" ~board:"ticktock-arm-v8" ~mem
                  ~devices:(Boards.v8_components m)
                  ~kernel:
                    (Boards.comp "kernel" ~capture:Boards.Ticktock_arm_v8.capture
                       ~restore:Boards.Ticktock_arm_v8.restore
                       ~fingerprint:Boards.Ticktock_arm_v8.fingerprint k)
                  ~procs:(fun () -> List.length (Boards.Ticktock_arm_v8.processes k)))
               (Capsules.Board_set.components devices))
      };
    bd_devices = devices;
    bd_hooks =
      {
        Engine.hk_mem = mem;
        hk_blocks = blocks;
        hk_kernel_sram = Layout.kernel_sram;
        hk_corrupt_mpu =
          corrupt_mpu ~arch:"v8" ~snapshot:Boards.Ticktock_arm_v8_mm.mpu_snapshot
            ~restore:Boards.Ticktock_arm_v8_mm.mpu_restore m.Machine.v8_mpu;
        hk_uart_busy =
          (fun ~cycles ->
            Mpu_hw.Uart.inject_busy devices.Capsules.Board_set.uart ~cycles);
        hk_rng_stall = rng_stall;
        hk_ipc_nack = ipc_nack;
        hk_dma_nack = Some (fun () -> Dma.Engine.inject_nack dma);
        hk_obs = Boards.Ticktock_arm_v8.obs_sink k;
      };
    bd_load = load;
    bd_dma = dma;
  }

let make_e310 (s : setup) =
  let rng_stall = ref 0 and ipc_nack = ref 0 in
  let capsules, devices =
    Capsules.Board_set.standard ~rng_seed:s.st_rng_seed ~rng_stall ~ipc_nack ()
  in
  let m, k =
    Boards.make_ticktock_e310 ~capsules ?chaos:s.st_chaos ~scrub_every:s.st_scrub_every
      ~scrub_policy:s.st_scrub_policy ~watchdog:s.st_watchdog
      ~restart_decay_span:s.st_restart_decay_span ()
  in
  let mem = m.Machine.rv_mem in
  let dma = Dma.Engine.create mem in
  let blocks () =
    List.filter_map
      (fun p ->
        if Process.is_live p then
          Some
            ( p.Process.pid,
              Boards.Ticktock_e310_mm.memory_start p.Process.alloc,
              Boards.Ticktock_e310_mm.memory_size p.Process.alloc )
        else None)
      (Boards.Ticktock_e310.processes k)
  in
  let load ~name ~program ~min_ram ~policy =
    Result.map
      (fun p -> p.Process.pid)
      (Boards.Ticktock_e310.create_process k ~name ~payload:(payload_of name)
         ~program:(program ()) ~min_ram ~fault_policy:policy ~program_factory:program ())
  in
  {
    bd_instance =
      { (Boards.Ticktock_e310.instance k) with
        Instance.snap_target =
          Some
            (Snapshot.add_components
               (Boards.target ~arch:"rv32-pmp" ~board:"ticktock-e310" ~mem
                  ~devices:(Boards.rv_components m)
                  ~kernel:
                    (Boards.comp "kernel" ~capture:Boards.Ticktock_e310.capture
                       ~restore:Boards.Ticktock_e310.restore
                       ~fingerprint:Boards.Ticktock_e310.fingerprint k)
                  ~procs:(fun () -> List.length (Boards.Ticktock_e310.processes k)))
               (Capsules.Board_set.components devices))
      };
    bd_devices = devices;
    bd_hooks =
      {
        Engine.hk_mem = mem;
        hk_blocks = blocks;
        hk_kernel_sram = Layout.kernel_sram;
        hk_corrupt_mpu =
          corrupt_mpu ~arch:"pmp" ~snapshot:Boards.Ticktock_e310_mm.mpu_snapshot
            ~restore:Boards.Ticktock_e310_mm.mpu_restore m.Machine.rv_pmp;
        hk_uart_busy =
          (fun ~cycles ->
            Mpu_hw.Uart.inject_busy devices.Capsules.Board_set.uart ~cycles);
        hk_rng_stall = rng_stall;
        hk_ipc_nack = ipc_nack;
        hk_dma_nack = Some (fun () -> Dma.Engine.inject_nack dma);
        hk_obs = Boards.Ticktock_e310.obs_sink k;
      };
    bd_load = load;
    bd_dma = dma;
  }

let boards =
  [
    { tb_name = "ticktock-arm"; tb_make = make_arm };
    { tb_name = "ticktock-arm-v8"; tb_make = make_arm_v8 };
    { tb_name = "ticktock-e310"; tb_make = make_e310 };
  ]

let find name = List.find_opt (fun b -> b.tb_name = name) boards
