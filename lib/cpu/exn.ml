let exc_svc = 11
let exc_pendsv = 14
let exc_systick = 15
let exc_return_handler_msp = 0xFFFF_FFF1
let exc_return_thread_msp = 0xFFFF_FFF9
let exc_return_thread_psp = 0xFFFF_FFFD

let is_exc_return v =
  v = exc_return_handler_msp || v = exc_return_thread_msp || v = exc_return_thread_psp

let frame_words = 8

type isr = Cpu.t -> Word32.t

(* Contract failure messages are built only on failure: entry and return
   run on every context switch. *)
let entry cpu ~exc_num =
  if exc_num < 2 || exc_num > 255 then
    Verify.Violation.requiref "exn.entry: exception number" false "exc_num=%d" exc_num;
  Verify.Violation.require "exn.entry: no nesting" (Cpu.mode cpu = Cpu.Thread);
  Cycles.tick ~n:Cycles.exception_entry Cycles.global;
  let exc_return =
    if Word32.bit (Cpu.control_committed cpu) 1 then exc_return_thread_psp
    else exc_return_thread_msp
  in
  (* Stack the 8-word frame on the active stack, with the privilege of the
     preempted context (an unprivileged context cannot stack into memory the
     MPU denies it). *)
  let mem = Cpu.memory cpu in
  let frame = Word32.sub (Cpu.sp cpu) (4 * frame_words) in
  let store i v = Memory.store32 mem (Word32.add frame (4 * i)) v in
  store 0 (Cpu.get cpu Regs.R0);
  store 1 (Cpu.get cpu Regs.R1);
  store 2 (Cpu.get cpu Regs.R2);
  store 3 (Cpu.get cpu Regs.R3);
  store 4 (Cpu.get cpu Regs.R12);
  store 5 (Cpu.get_special cpu Regs.Lr);
  store 6 (Cpu.get_special cpu Regs.Pc);
  store 7 (Cpu.get_special cpu Regs.Psr);
  Cpu.set_sp cpu frame;
  (* Enter handler mode. *)
  Cpu.set_mode cpu Cpu.Handler;
  Cpu.set_special_raw cpu Regs.Psr
    (Word32.set_bits (Cpu.get_special cpu Regs.Psr) ~hi:8 ~lo:0 exc_num);
  Cpu.set_special_raw cpu Regs.Lr exc_return;
  match Cpu.obs cpu with
  | None -> ()
  | Some emit -> emit (Obs.Event.Exc_entry { exc = exc_num })

let return cpu exc_return =
  Verify.Violation.require "exn.return: handler mode" (Cpu.mode cpu = Cpu.Handler);
  if not (is_exc_return exc_return) then
    Verify.Violation.requiref "exn.return: valid EXC_RETURN" false "lr=%s"
      (Word32.to_hex exc_return);
  Cycles.tick ~n:Cycles.exception_entry Cycles.global;
  let mem = Cpu.memory cpu in
  let use_psp = exc_return = exc_return_thread_psp in
  let frame = Cpu.get_special cpu (if use_psp then Regs.Psp else Regs.Msp) in
  let load i = Memory.read32 mem (Word32.add frame (4 * i)) in
  Cpu.set cpu Regs.R0 (load 0);
  Cpu.set cpu Regs.R1 (load 1);
  Cpu.set cpu Regs.R2 (load 2);
  Cpu.set cpu Regs.R3 (load 3);
  Cpu.set cpu Regs.R12 (load 4);
  Cpu.set_special_raw cpu Regs.Lr (load 5);
  Cpu.set_special_raw cpu Regs.Pc (load 6);
  (* Restore xPSR but clear IPSR: we are leaving handler mode. *)
  Cpu.set_special_raw cpu Regs.Psr (Word32.set_bits (load 7) ~hi:8 ~lo:0 0);
  let new_sp = Word32.add frame (4 * frame_words) in
  if exc_return = exc_return_handler_msp then Cpu.set_mode cpu Cpu.Handler
  else begin
    Cpu.set_mode cpu Cpu.Thread;
    (* Hardware updates CONTROL.SPSEL to match the returned-to stack. *)
    let control = Cpu.control_committed cpu in
    Cpu.set_special_raw cpu Regs.Control (Word32.set_bit control 1 use_psp)
  end;
  Cpu.set_special_raw cpu (if use_psp then Regs.Psp else Regs.Msp) new_sp;
  match Cpu.obs cpu with
  | None -> ()
  | Some emit -> emit (Obs.Event.Exc_return { to_handler = exc_return = exc_return_handler_msp })

let preempt cpu ~exc_num ~isr =
  entry cpu ~exc_num;
  let exc_return = isr cpu in
  if exc_return <> exc_return_thread_msp then
    Verify.Violation.ensuref "preempt: isr yields control to kernel" false "lr=%s"
      (Word32.to_hex exc_return);
  return cpu exc_return
