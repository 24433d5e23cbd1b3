type faults = { skip_mode_switch : bool }

let no_faults = { skip_mode_switch = false }

(* Failure messages (here the site string) are built only on failure: the
   ISRs and switch_to_user_part2 run on every context switch. *)
let require_handler site cpu =
  if Cpu.mode cpu <> Cpu.Handler then Verify.Violation.require (site ^ ": mode_is_handler") false

let sys_tick_isr cpu =
  require_handler "sys_tick_isr" cpu;
  (* movw r0, #0; msr CONTROL, r0; isb; ldr lr, =0xFFFF_FFF9; bx lr *)
  Cpu.movw_imm cpu Regs.R0 0;
  Cpu.msr cpu Regs.Control Regs.R0;
  Cpu.isb cpu;
  Cpu.pseudo_ldr_special cpu Regs.Lr Exn.exc_return_thread_msp;
  Cpu.get_special cpu Regs.Lr

let svc_isr ?(faults = no_faults) cpu =
  require_handler "svc_isr" cpu;
  let came_from = Cpu.get_special cpu Regs.Lr in
  if came_from = Exn.exc_return_thread_msp then begin
    (* Kernel executed svc: branch to the process. The CONTROL write below
       is the critical step upstream Tock omitted (issue #4246). *)
    if not faults.skip_mode_switch then begin
      Cpu.movw_imm cpu Regs.R1 1;
      Cpu.msr cpu Regs.Control Regs.R1;
      Cpu.isb cpu
    end;
    Cpu.pseudo_ldr_special cpu Regs.Lr Exn.exc_return_thread_psp;
    Cpu.get_special cpu Regs.Lr
  end
  else begin
    (* Process executed svc (a syscall): resume the kernel, privileged. *)
    Cpu.movw_imm cpu Regs.R1 0;
    Cpu.msr cpu Regs.Control Regs.R1;
    Cpu.isb cpu;
    Cpu.pseudo_ldr_special cpu Regs.Lr Exn.exc_return_thread_msp;
    Cpu.get_special cpu Regs.Lr
  end

let generic_irq_isr cpu =
  require_handler "generic_irq_isr" cpu;
  Cpu.movw_imm cpu Regs.R0 0;
  Cpu.msr cpu Regs.Control Regs.R0;
  Cpu.isb cpu;
  Cpu.pseudo_ldr_special cpu Regs.Lr Exn.exc_return_thread_msp;
  Cpu.get_special cpu Regs.Lr

let isr_for ~exc_num cpu =
  if exc_num = Exn.exc_svc then svc_isr cpu
  else if exc_num = Exn.exc_systick then sys_tick_isr cpu
  else generic_irq_isr cpu

let kernel_saved = Regs.callee_saved

let switch_to_user_part1 ?(faults = no_faults) cpu ~process_sp ~regs_base =
  Verify.Violation.require "switch_to_user_part1: thread privileged"
    (Cpu.mode cpu = Cpu.Thread && Cpu.privileged cpu);
  (* mov r0, <process_sp>; mov r1, <regs_base> — set up by the kernel. *)
  Cpu.set cpu Regs.R0 process_sp;
  Cpu.set cpu Regs.R1 regs_base;
  (* stmdb sp!, {r4-r11, lr} — save kernel state on MSP. *)
  Cpu.push_special cpu Regs.Lr;
  Cpu.stmdb_sp cpu kernel_saved;
  (* msr psp, r0 — install the process stack. *)
  Cpu.msr cpu Regs.Psp Regs.R0;
  (* ldmia r1, {r4-r11} — load the process's callee-saved registers. *)
  Cpu.ldmia cpu ~base:Regs.R1 kernel_saved;
  (* svc 0xff — exception entry stacks the kernel frame on MSP; the SVC
     handler returns onto PSP, popping the process frame. *)
  Exn.entry cpu ~exc_num:Exn.exc_svc;
  let exc_return = svc_isr ~faults cpu in
  Exn.return cpu exc_return;
  Verify.Violation.ensure "switch_to_user_part1: thread mode on psp"
    (Cpu.mode cpu = Cpu.Thread && Word32.bit (Cpu.control_committed cpu) 1);
  Verify.Violation.ensure "switch_to_user_part1: process runs unprivileged"
    (not (Cpu.privileged cpu))

let process cpu ~seed ~steps ~accessible =
  let rng = Random.State.make [| seed |] in
  let word () = (Random.State.bits rng lsl 15 lxor Random.State.bits rng) land Word32.mask in
  List.iter (fun r -> Cpu.set cpu r (word ())) Regs.all_gprs;
  let in_accessible a = List.exists (fun r -> Range.contains r a) accessible in
  let pick_addr () =
    if Random.State.bool rng && accessible <> [] then begin
      let r = List.nth accessible (Random.State.int rng (List.length accessible)) in
      if Range.is_empty r then word ()
      else Range.start r + Random.State.int rng (Range.size r)
    end
    else word ()
  in
  let mem = Cpu.memory cpu in
  for _ = 1 to steps do
    let a = pick_addr () in
    match
      if Random.State.bool rng then ignore (Memory.load8 mem a) else Memory.store8 mem a 0xAB
    with
    | () ->
      (* The access went through: isolation demands it was inside the
         process-accessible ranges. *)
      Verify.Violation.ensuref "process: access stays in sandbox" (in_accessible a)
        "access to %s allowed by MPU but outside process memory" (Word32.to_hex a)
    | exception Memory.Access_fault _ -> ()
  done

let preempt_process cpu ~exc_num = Exn.preempt cpu ~exc_num ~isr:(isr_for ~exc_num)

let switch_to_user_part2 cpu ~regs_base =
  Verify.Violation.require "switch_to_user_part2: thread privileged"
    (Cpu.mode cpu = Cpu.Thread && Cpu.privileged cpu);
  if Cpu.get cpu Regs.R1 <> regs_base then
    Verify.Violation.ensuref "switch_to_user_part2: r1 restored by exception return" false
      "r1=%s" (Word32.to_hex (Cpu.get cpu Regs.R1));
  (* stmia r1, {r4-r11} — save the process's callee-saved registers. *)
  Cpu.stmia cpu ~base:Regs.R1 kernel_saved;
  (* ldmia sp!, {r4-r11, lr} — restore the kernel's state from MSP. *)
  Cpu.ldmia_sp cpu kernel_saved;
  Cpu.pop_special cpu Regs.Lr

let control_flow_kernel_to_kernel ?(faults = no_faults) cpu ~exc_num ~process_sp ~regs_base
    ~process_accessible ~seed =
  Verify.Violation.requiref "control_flow_kernel_to_kernel: 15 <= exception_num"
    (exc_num >= 15) "exc_num=%d" exc_num;
  Verify.Violation.require "control_flow_kernel_to_kernel: thread privileged"
    (Cpu.mode cpu = Cpu.Thread && Cpu.privileged cpu);
  let old = Cpu.snapshot cpu in
  switch_to_user_part1 ~faults cpu ~process_sp ~regs_base;
  process cpu ~seed ~steps:32 ~accessible:process_accessible;
  preempt_process cpu ~exc_num;
  switch_to_user_part2 cpu ~regs_base;
  Cpu.cpu_state_correct ~old cpu
