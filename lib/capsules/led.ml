(** LED capsule over a GPIO bank (Tock's [led] driver, number 6 here).

    Commands: 0 = number of LEDs; 1 = on; 2 = off; 3 = toggle, each taking
    the LED index in [arg1]. *)

open Ticktock

let driver_num = 6

let capsule ?(pins = [ 0; 1; 2; 3 ]) gpio =
  List.iter (fun p -> Mpu_hw.Gpio.set_direction gpio p Mpu_hw.Gpio.Output) pins;
  let led n = List.nth_opt pins n in
  let command _ph ~cmd ~arg1 ~arg2 =
    ignore arg2;
    if cmd = 0 then List.length pins
    else
      match led arg1 with
      | None -> Userland.failure
      | Some pin ->
        if cmd = 1 then begin
          Mpu_hw.Gpio.write gpio pin true;
          Userland.success
        end
        else if cmd = 2 then begin
          Mpu_hw.Gpio.write gpio pin false;
          Userland.success
        end
        else if cmd = 3 then begin
          Mpu_hw.Gpio.toggle gpio pin;
          Userland.success
        end
        else Userland.failure
  in
  { (Capsule_intf.stub ~driver_num ~name:"led") with
    Capsule_intf.cap_command = command;
    cap_quiet = Some Capsule_intf.always_quiet;
  }
