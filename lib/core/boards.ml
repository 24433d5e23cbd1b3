(** Pre-instantiated kernels: the configurations the evaluation uses.

    - TickTock (granular) and Tock (monolithic, upstream bugs present, and
      patched) on the ARM Cortex-M board;
    - TickTock on the three RISC-V PMP chips;
    - Tock (monolithic) on PMP for the PMP bug reproductions.

    A configuration is a memory manager and a machine description. Each
    machine family (ARMv7-M, ARMv8-M, RISC-V PMP) is described once below,
    and {!Board} builds every configuration around its kernel the same
    way, so a configuration is one row at the end of this file. *)

module Ticktock_arm_mm = Mm.Ticktock (Cortexm_mpu)
module Tock_arm_mm = Mm.Tock (Tock_cortexm_mpu.Upstream)
module Tock_arm_patched_mm = Mm.Tock (Tock_cortexm_mpu.Patched)
module Ticktock_arm_v8_mm = Mm.Ticktock (Armv8m_mpu_drv)
module Ticktock_e310_mm = Mm.Ticktock (Pmp_mpu.E310)
module Ticktock_earlgrey_mm = Mm.Ticktock (Pmp_mpu.Earlgrey)
module Ticktock_qemu_mm = Mm.Ticktock (Pmp_mpu.QemuRv32)
module Tock_pmp_mm = Mm.Tock (Tock_pmp_mpu.Upstream_e310)
module Tock_pmp_patched_mm = Mm.Tock (Tock_pmp_mpu.Patched_e310)

(* --- observability wiring ---

   A board attaches one recorder to every emitting layer: the kernel (which
   stamps events with its tick counter), the memory bus, the MPU model and
   the CPU. The recorder is the caller's, or — when the caller passed none —
   one implied by the ambient {!Obs.Config} mode, so harnesses that build
   instances through opaque closures (difftest, fuzz) still trace when
   TICKTOCK_OBS is set. *)

let resolve_obs = function
  | Some _ as obs -> obs
  | None -> (
    match Obs.Config.auto_mode () with
    | Obs.Config.Off -> None
    | Obs.Config.On -> Some (Obs.Recorder.create ())
    | Obs.Config.Disabled ->
      let r = Obs.Recorder.create () in
      Obs.Recorder.set_enabled r false;
      Some r)

(* --- machine descriptions ---

   What the board assembly needs from a machine family: the parts the
   kernel takes, how to attach a recorder to the machine's emitting layers,
   its stateful devices as snapshot components, and the replay navigator's
   MPU view (the concrete hardware model's own pretty-printer, which only
   the board can reach). The component order is the restore order; the
   kernel's component is appended last by {!Board.erase}. *)

type ('raw, 'hw) machine = {
  md_raw : 'raw;  (** the concrete machine, as [make] returns it *)
  md_arch : string;  (** the snapshot target's architecture tag *)
  md_mem : Memory.t;
  md_hw : 'hw;
  md_switcher : Kernel.switcher;
  md_systick : Mpu_hw.Systick.t option;
  md_wire : Obs.Event.sink option -> unit;
  md_devices : Snapshot.component list;
  md_mpu : unit -> string;
}

let comp name ~capture ~restore ~fingerprint obj =
  {
    Snapshot.co_name = name;
    co_capture =
      (fun () ->
        let s = capture obj in
        fun () -> restore obj s);
    co_fingerprint = (fun () -> fingerprint obj);
  }

(** An ARMv7-M (NRF52840-style) machine. With [~mc:true] the context
    switch runs assembled Thumb-2 machine code through the
    fetch-decode-execute engine. *)
let arm ~mc () =
  let m = Machine.create_arm () in
  let mem = m.Machine.arm_mem and cpu = m.Machine.arm_cpu and mpu = m.Machine.arm_mpu in
  {
    md_raw = m;
    md_arch = "armv7m";
    md_mem = mem;
    md_hw = mpu;
    md_switcher =
      (if mc then Kernel.Arm_mc_switch (cpu, Fluxarm.Handlers_mc.install mem)
       else Kernel.Arm_switch cpu);
    md_systick = Some m.Machine.arm_systick;
    md_wire =
      (fun sink ->
        Memory.set_obs mem sink;
        Mpu_hw.Armv7m_mpu.set_obs mpu sink;
        Fluxarm.Cpu.set_obs cpu sink);
    md_devices =
      [
        comp "cpu" ~capture:Fluxarm.Cpu.capture_state ~restore:Fluxarm.Cpu.restore_state
          ~fingerprint:Fluxarm.Cpu.fingerprint cpu;
        comp "mpu" ~capture:Mpu_hw.Armv7m_mpu.capture_state
          ~restore:Mpu_hw.Armv7m_mpu.restore_state ~fingerprint:Mpu_hw.Armv7m_mpu.fingerprint mpu;
        comp "systick" ~capture:Mpu_hw.Systick.capture_state
          ~restore:Mpu_hw.Systick.restore_state ~fingerprint:Mpu_hw.Systick.fingerprint
          m.Machine.arm_systick;
        comp "nvic" ~capture:Mpu_hw.Nvic.capture_state ~restore:Mpu_hw.Nvic.restore_state
          ~fingerprint:Mpu_hw.Nvic.fingerprint m.Machine.arm_nvic;
        comp "scb" ~capture:Mpu_hw.Scb.capture_state ~restore:Mpu_hw.Scb.restore_state
          ~fingerprint:Mpu_hw.Scb.fingerprint m.Machine.arm_scb;
      ];
    md_mpu = (fun () -> Format.asprintf "%a" Mpu_hw.Armv7m_mpu.pp mpu);
  }

(** An ARMv8-M (Cortex-M33-style, PMSAv8) machine. *)
let arm_v8 () =
  let m = Machine.create_arm_v8 () in
  let mem = m.Machine.v8_mem and cpu = m.Machine.v8_cpu and mpu = m.Machine.v8_mpu in
  {
    md_raw = m;
    md_arch = "armv8m";
    md_mem = mem;
    md_hw = mpu;
    md_switcher = Kernel.Arm_switch cpu;
    md_systick = Some m.Machine.v8_systick;
    md_wire =
      (fun sink ->
        Memory.set_obs mem sink;
        Mpu_hw.Armv8m_mpu.set_obs mpu sink;
        Fluxarm.Cpu.set_obs cpu sink);
    md_devices =
      [
        comp "cpu" ~capture:Fluxarm.Cpu.capture_state ~restore:Fluxarm.Cpu.restore_state
          ~fingerprint:Fluxarm.Cpu.fingerprint cpu;
        comp "mpu" ~capture:Mpu_hw.Armv8m_mpu.capture_state
          ~restore:Mpu_hw.Armv8m_mpu.restore_state ~fingerprint:Mpu_hw.Armv8m_mpu.fingerprint mpu;
        comp "systick" ~capture:Mpu_hw.Systick.capture_state
          ~restore:Mpu_hw.Systick.restore_state ~fingerprint:Mpu_hw.Systick.fingerprint
          m.Machine.v8_systick;
      ];
    md_mpu = (fun () -> Format.asprintf "%a" Mpu_hw.Armv8m_mpu.pp mpu);
  }

(** A RISC-V machine on a PMP chip. [seal] programs the PMP before the
    kernel boots: EarlGrey's kernel seals its own regions with locked
    Smepmp entries first. *)
let riscv ~seal chip () =
  let m = Machine.create_riscv chip in
  let mem = m.Machine.rv_mem and pmp = m.Machine.rv_pmp in
  seal pmp;
  {
    md_raw = m;
    md_arch = "rv32-pmp";
    md_mem = mem;
    md_hw = pmp;
    md_switcher = Kernel.Sim_switch m.Machine.rv_machine_mode;
    md_systick = None;
    md_wire =
      (fun sink ->
        Memory.set_obs mem sink;
        Mpu_hw.Pmp.set_obs pmp sink);
    md_devices =
      [
        comp "pmp" ~capture:Mpu_hw.Pmp.capture_state ~restore:Mpu_hw.Pmp.restore_state
          ~fingerprint:Mpu_hw.Pmp.fingerprint pmp;
        comp "machine-mode"
          ~capture:(fun r -> !r)
          ~restore:(fun r v -> r := v)
          ~fingerprint:(fun r -> Fp.bool Fp.seed !r)
          m.Machine.rv_machine_mode;
      ];
    md_mpu = (fun () -> Format.asprintf "%a" Mpu_hw.Pmp.pp pmp);
  }

(* --- the board assembly --- *)

module Board (MM : Mm.S) = struct
  module K = Kernel.Make (MM)

  (** Boot a kernel on a described machine and wire its recorder into the
      machine's emitting layers. *)
  let build md ?quantum ?capsules ?obs ?chaos ?scrub_every ?scrub_policy ?watchdog
      ?restart_decay_span () =
    let k =
      K.create ~mem:md.md_mem ~hw:md.md_hw ~switcher:md.md_switcher ?systick:md.md_systick
        ?quantum ?capsules ?obs:(resolve_obs obs) ?chaos ?scrub_every ?scrub_policy ?watchdog
        ?restart_decay_span ()
    in
    let sink = K.obs_sink k in
    if sink <> None then md.md_wire sink;
    k

  (** The type-erased instance, carrying the board's snapshot target and
      MPU view. The kernel goes LAST in the restore order — its thunk
      rewrites the obs recorder ring (erasing the [Buscache_flush] the
      memory restore just emitted) and re-pins the global cycle counter,
      which is what makes a forked round byte-identical to a booted one. *)
  let erase ~board md k =
    let kernel = comp "kernel" ~capture:K.capture ~restore:K.restore ~fingerprint:K.fingerprint k in
    let target =
      {
        Snapshot.tg_arch = md.md_arch;
        tg_board = board;
        tg_mem = md.md_mem;
        tg_components = md.md_devices @ [ kernel ];
        tg_proc_count = (fun () -> List.length (K.processes k));
      }
    in
    { (K.instance k) with Instance.snap_target = Some target; mpu_describe = md.md_mpu }

  (** A fresh machine and its kernel. *)
  let make machine ?quantum ?capsules ?obs ?chaos ?scrub_every ?scrub_policy ?watchdog
      ?restart_decay_span () =
    let md = machine () in
    ( md.md_raw,
      build md ?quantum ?capsules ?obs ?chaos ?scrub_every ?scrub_policy ?watchdog
        ?restart_decay_span () )

  (** A fresh machine and its kernel, type-erased for the evaluation
      harness. *)
  let instance ~board machine ?quantum ?capsules ?obs () =
    let md = machine () in
    erase ~board md (build md ?quantum ?capsules ?obs ())
end

module Ticktock_arm_b = Board (Ticktock_arm_mm)
module Tock_arm_b = Board (Tock_arm_mm)
module Tock_arm_patched_b = Board (Tock_arm_patched_mm)
module Ticktock_arm_v8_b = Board (Ticktock_arm_v8_mm)
module Ticktock_e310_b = Board (Ticktock_e310_mm)
module Ticktock_earlgrey_b = Board (Ticktock_earlgrey_mm)
module Ticktock_qemu_b = Board (Ticktock_qemu_mm)
module Tock_pmp_b = Board (Tock_pmp_mm)
module Tock_pmp_patched_b = Board (Tock_pmp_patched_mm)

module Ticktock_arm = Ticktock_arm_b.K
module Tock_arm = Tock_arm_b.K
module Tock_arm_patched = Tock_arm_patched_b.K
module Ticktock_arm_v8 = Ticktock_arm_v8_b.K
module Ticktock_e310 = Ticktock_e310_b.K
module Ticktock_earlgrey = Ticktock_earlgrey_b.K
module Ticktock_qemu = Ticktock_qemu_b.K
module Tock_pmp = Tock_pmp_b.K
module Tock_pmp_patched = Tock_pmp_patched_b.K

let arm_plain = arm ~mc:false
let arm_mc = arm ~mc:true
let e310 = riscv ~seal:ignore Mpu_hw.Pmp.sifive_e310
let earlgrey = riscv ~seal:Epmp.protect_kernel Mpu_hw.Pmp.earlgrey
let qemu_rv32 = riscv ~seal:ignore Mpu_hw.Pmp.qemu_rv32_virt

(* --- the configurations: a fresh machine and kernel, and its erased
   instance --- *)

let make_ticktock_arm = Ticktock_arm_b.make arm_plain
let make_ticktock_arm_mc = Ticktock_arm_b.make arm_mc
let make_ticktock_arm_v8 = Ticktock_arm_v8_b.make arm_v8
let make_tock_arm = Tock_arm_b.make arm_plain
let make_tock_arm_patched = Tock_arm_patched_b.make arm_plain
let make_ticktock_e310 = Ticktock_e310_b.make e310
let make_ticktock_earlgrey = Ticktock_earlgrey_b.make earlgrey
let make_ticktock_qemu = Ticktock_qemu_b.make qemu_rv32
let make_tock_pmp = Tock_pmp_b.make e310
let make_tock_pmp_patched = Tock_pmp_patched_b.make e310

let instance_ticktock_arm = Ticktock_arm_b.instance ~board:"ticktock-arm" arm_plain
let instance_ticktock_arm_mc = Ticktock_arm_b.instance ~board:"ticktock-arm-mc" arm_mc
let instance_ticktock_arm_v8 = Ticktock_arm_v8_b.instance ~board:"ticktock-arm-v8" arm_v8
let instance_tock_arm = Tock_arm_b.instance ~board:"tock-arm-upstream" arm_plain
let instance_tock_arm_patched = Tock_arm_patched_b.instance ~board:"tock-arm-patched" arm_plain
let instance_ticktock_e310 = Ticktock_e310_b.instance ~board:"ticktock-e310" e310
let instance_ticktock_earlgrey = Ticktock_earlgrey_b.instance ~board:"ticktock-earlgrey" earlgrey
let instance_ticktock_qemu = Ticktock_qemu_b.instance ~board:"ticktock-qemu-rv32" qemu_rv32
let instance_tock_pmp = Tock_pmp_b.instance ~board:"tock-pmp-upstream" e310
let instance_tock_pmp_patched = Tock_pmp_patched_b.instance ~board:"tock-pmp-patched" e310

(** Every kernel configuration, for harnesses that sweep all of them. *)
let all_instances : (string * (unit -> Instance.t)) list =
  [
    ("ticktock-arm", fun () -> instance_ticktock_arm ());
    ("ticktock-arm-mc", fun () -> instance_ticktock_arm_mc ());
    ("ticktock-arm-v8", fun () -> instance_ticktock_arm_v8 ());
    ("tock-arm-upstream", fun () -> instance_tock_arm ());
    ("tock-arm-patched", fun () -> instance_tock_arm_patched ());
    ("ticktock-e310", fun () -> instance_ticktock_e310 ());
    ("ticktock-earlgrey", fun () -> instance_ticktock_earlgrey ());
    ("ticktock-qemu-rv32", fun () -> instance_ticktock_qemu ());
    ("tock-pmp-upstream", fun () -> instance_tock_pmp ());
    ("tock-pmp-patched", fun () -> instance_tock_pmp_patched ());
  ]
