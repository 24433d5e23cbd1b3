(** A UART-backed console capsule.

    Transmit: the process allows a read-only buffer and commands a write of
    [len] bytes; the capsule pulls the bytes through the mediated handle
    (every address validated against the allowed buffer) and pushes them to
    the UART device with a polling driver, then schedules the write-done
    upcall. Receive: with an allowed read-write buffer, a read command
    drains the UART RX FIFO into process memory.

    Driver number 5 (the builtin lightweight console keeps 1). *)

open Ticktock

let driver_num = 5

let capsule uart =
  let command (ph : Capsule_intf.process_handle) ~cmd ~arg1 ~arg2 =
    ignore arg2;
    if cmd = 0 then Userland.success
    else if cmd = 1 then begin
      (* write [arg1] bytes from the allowed-ro buffer *)
      match ph.Capsule_intf.ph_allowed_ro () with
      | None -> Userland.failure
      | Some buf ->
        let len = min arg1 (Range.size buf) in
        let wrote = ref 0 in
        (try
           for i = 0 to len - 1 do
             match ph.Capsule_intf.ph_read_byte (Range.start buf + i) with
             | Ok b ->
               Mpu_hw.Uart.write_byte_blocking uart b;
               incr wrote
             | Error _ -> raise Exit
           done
         with Exit -> ());
        ph.Capsule_intf.ph_schedule_upcall ~upcall_id:1 ~arg:!wrote;
        !wrote
    end
    else if cmd = 2 then begin
      (* read up to [arg1] bytes from the RX FIFO into the rw buffer *)
      match ph.Capsule_intf.ph_allowed_rw () with
      | None -> Userland.failure
      | Some buf ->
        let len = min arg1 (Range.size buf) in
        let got = ref 0 in
        (try
           while !got < len && Mpu_hw.Uart.rx_available uart do
             match Mpu_hw.Uart.read_byte uart with
             | Some b -> (
               match ph.Capsule_intf.ph_write_byte (Range.start buf + !got) b with
               | Ok () -> incr got
               | Error _ -> raise Exit)
             | None -> raise Exit
           done
         with Exit -> ());
        !got
    end
    else Userland.failure
  in
  let tick ~now = Mpu_hw.Uart.step uart (max (now land 0xf) 1) in
  (* Every tick is quiet: it only advances the UART clock. Ticks [0, n)
     advance it by [uart_steps n], summed in closed form per 16 ticks. *)
  let uart_steps n =
    let r = n land 0xf in
    ((n lsr 4) * 121) + if r = 0 then 0 else 1 + (r * (r - 1) / 2)
  in
  let quiet =
    {
      Capsule_intf.q_next = (fun ~now:_ -> max_int);
      q_advance =
        (fun ~from ~upto -> Mpu_hw.Uart.step uart (uart_steps (upto + 1) - uart_steps from));
    }
  in
  { (Capsule_intf.stub ~driver_num ~name:"uart-console") with
    Capsule_intf.cap_command = command;
    cap_tick = tick;
    cap_quiet = Some quiet;
  }
