(** The process console — Tock's interactive kernel shell over UART.

    The capsule's bottom half drains the UART receive FIFO; on a newline it
    interprets the accumulated line as a command and writes the response
    back out the transmitter:

    - [ps]     — the kernel's process listing
    - [uptime] — current kernel tick
    - [help]   — command list

    No process is involved at all: this is a kernel-side diagnostic surface
    (driver number {!driver_num} is claimed only so the capsule gets its
    [cap_init] services and tick). *)

open Ticktock

let driver_num = 11

let capsule uart =
  let svc : Capsule_intf.services option ref = ref None in
  let line = Buffer.create 32 in
  let respond s = Mpu_hw.Uart.write_string_blocking uart s in
  let run_command cmd =
    match String.trim cmd with
    | "" -> ()
    | "ps" -> (
      match !svc with
      | Some services -> respond (services.Capsule_intf.svc_ps ())
      | None -> respond "console not initialized\n")
    | "uptime" -> (
      match !svc with
      | Some services ->
        respond (Printf.sprintf "up %d ticks\n" (services.Capsule_intf.svc_now ()))
      | None -> respond "console not initialized\n")
    | "help" -> respond "commands: ps uptime help\n"
    | other -> respond (Printf.sprintf "unknown command %S (try help)\n" other)
  in
  let tick ~now =
    ignore now;
    let rec drain () =
      match Mpu_hw.Uart.read_byte uart with
      | None -> ()
      | Some b ->
        if b = Char.code '\n' then begin
          run_command (Buffer.contents line);
          Buffer.clear line
        end
        else Buffer.add_char line (Char.chr b);
        drain ()
    in
    drain ()
  in
  let snapshotter =
    {
      Capsule_intf.sn_name = "process-console";
      sn_capture =
        (fun () ->
          (* the UART itself is captured at the machine layer; the capsule
             only owns the partial input line *)
          let pending = Buffer.contents line in
          fun () ->
            Buffer.clear line;
            Buffer.add_string line pending);
      sn_fingerprint = (fun () -> Fp.string Fp.seed (Buffer.contents line));
    }
  in
  (* quiet while the receive queue is empty; a quiet tick still charges
     the one empty UART read of [drain] *)
  let quiet =
    {
      Capsule_intf.q_next =
        (fun ~now -> if Mpu_hw.Uart.rx_available uart then now + 1 else max_int);
      q_advance =
        (fun ~from ~upto ->
          Cycles.tick ~n:((upto - from + 1) * Cycles.mpu_reg_write) Cycles.global);
    }
  in
  { (Capsule_intf.stub ~driver_num ~name:"process-console") with
    Capsule_intf.cap_init = (fun s -> svc := Some s);
    cap_tick = tick;
    cap_has_work = (fun () -> Mpu_hw.Uart.rx_available uart);
    cap_snapshot = Some snapshotter;
    cap_quiet = Some quiet;
  }
