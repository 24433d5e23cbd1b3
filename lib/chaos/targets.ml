(** Concrete boards the chaos campaign injects into.

    One target per MPU architecture — ARMv7-M PMSA, ARMv8-M PMSA and RISC-V
    PMP — each a TickTock kernel built by one constructor, {!Target}, over
    the board's {!Ticktock.Boards.Board} module, with the standard capsule
    set and the robustness knobs (scrubber, watchdog, restart backoff)
    threaded through. A target erases the per-functor
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

(* One constructor for every target: the standard board, built through
   its {!Boards.Board} module, plus the fault levers. [tag] names the
   register file in corruption details. *)
module Target (MM : Mm.S) (B : module type of Boards.Board (MM)) = struct
  let make ~board ~tag machine (s : setup) =
    let rng_stall = ref 0 and ipc_nack = ref 0 in
    let capsules, devices =
      Capsules.Board_set.standard ~rng_seed:s.st_rng_seed ~rng_stall ~ipc_nack ()
    in
    let md = machine () in
    let k =
      B.build md ~capsules ?chaos:s.st_chaos ~scrub_every:s.st_scrub_every
        ~scrub_policy:s.st_scrub_policy ~watchdog:s.st_watchdog
        ~restart_decay_span:s.st_restart_decay_span ()
    in
    let mem = md.Boards.md_mem in
    let dma = Dma.Engine.create mem in
    let blocks () =
      List.filter_map
        (fun p ->
          if Process.is_live p then
            Some (p.Process.pid, MM.memory_start p.Process.alloc, MM.memory_size p.Process.alloc)
          else None)
        (B.K.processes k)
    in
    let load ~name ~program ~min_ram ~policy =
      Result.map
        (fun p -> p.Process.pid)
        (B.K.create_process k ~name ~payload:(payload_of name) ~program:(program ()) ~min_ram
           ~fault_policy:policy ~program_factory:program ())
    in
    let inst = B.erase ~board md k in
    {
      bd_instance =
        { inst with
          Instance.snap_target =
            Option.map
              (fun tgt -> Snapshot.add_components tgt (Capsules.Board_set.components devices))
              inst.Instance.snap_target
        };
      bd_devices = devices;
      bd_hooks =
        {
          Engine.hk_mem = mem;
          hk_blocks = blocks;
          hk_kernel_sram = Layout.kernel_sram;
          hk_corrupt_mpu =
            corrupt_mpu ~arch:tag ~snapshot:MM.mpu_snapshot ~restore:MM.mpu_restore md.Boards.md_hw;
          hk_uart_busy =
            (fun ~cycles -> Mpu_hw.Uart.inject_busy devices.Capsules.Board_set.uart ~cycles);
          hk_rng_stall = rng_stall;
          hk_ipc_nack = ipc_nack;
          hk_dma_nack = Some (fun () -> Dma.Engine.inject_nack dma);
          hk_obs = B.K.obs_sink k;
        };
      bd_load = load;
      bd_dma = dma;
    }
end

module Arm = Target (Boards.Ticktock_arm_mm) (Boards.Ticktock_arm_b)
module Arm_v8 = Target (Boards.Ticktock_arm_v8_mm) (Boards.Ticktock_arm_v8_b)
module E310 = Target (Boards.Ticktock_e310_mm) (Boards.Ticktock_e310_b)

let boards =
  let row name make = { tb_name = name; tb_make = make ~board:name } in
  [
    row "ticktock-arm" (Arm.make ~tag:"v7" Boards.arm_plain);
    row "ticktock-arm-v8" (Arm_v8.make ~tag:"v8" Boards.arm_v8);
    row "ticktock-e310" (E310.make ~tag:"pmp" Boards.e310);
  ]

let find name = List.find_opt (fun b -> b.tb_name = name) boards
