(** Button capsule over GPIO inputs, with edge-triggered upcalls.

    Commands: 0 = number of buttons; 1 = read level of button [arg1];
    2 = enable interrupts for button [arg1]; 3 = disable. The capsule's
    bottom half polls the pins each tick and schedules an upcall (argument:
    [button_index * 2 + level]) to every subscribed process when a level
    changes — the pattern of Tock's button capsule.

    Driver number 7. *)

open Ticktock

let driver_num = 7

type listener = { l_ph : Capsule_intf.process_handle; mutable l_enabled : int list }

let capsule ?(pins = [ 8; 9 ]) gpio =
  List.iter (fun p -> Mpu_hw.Gpio.set_direction gpio p Mpu_hw.Gpio.Input) pins;
  let last_levels = Array.make (List.length pins) false in
  let listeners : (int, listener) Hashtbl.t = Hashtbl.create 4 in
  let command (ph : Capsule_intf.process_handle) ~cmd ~arg1 ~arg2 =
    ignore arg2;
    if cmd = 0 then List.length pins
    else
      match List.nth_opt pins arg1 with
      | None -> Userland.failure
      | Some pin ->
        if cmd = 1 then if Mpu_hw.Gpio.read gpio pin then 1 else 0
        else if cmd = 2 then begin
          let l =
            match Hashtbl.find_opt listeners ph.Capsule_intf.ph_pid with
            | Some l -> l
            | None ->
              let l = { l_ph = ph; l_enabled = [] } in
              Hashtbl.replace listeners ph.Capsule_intf.ph_pid l;
              l
          in
          if not (List.mem arg1 l.l_enabled) then l.l_enabled <- arg1 :: l.l_enabled;
          Userland.success
        end
        else if cmd = 3 then begin
          (match Hashtbl.find_opt listeners ph.Capsule_intf.ph_pid with
          | Some l -> l.l_enabled <- List.filter (fun i -> i <> arg1) l.l_enabled
          | None -> ());
          Userland.success
        end
        else Userland.failure
  in
  let tick ~now =
    ignore now;
    List.iteri
      (fun i pin ->
        let level = Mpu_hw.Gpio.read gpio pin in
        if level <> last_levels.(i) then begin
          last_levels.(i) <- level;
          Hashtbl.iter
            (fun _ l ->
              if List.mem i l.l_enabled then
                l.l_ph.Capsule_intf.ph_schedule_upcall ~upcall_id:0
                  ~arg:((i * 2) + if level then 1 else 0))
            listeners
        end)
      pins
  in
  let snapshotter =
    {
      Capsule_intf.sn_name = "button";
      sn_capture =
        (fun () ->
          (* listeners hold process handles (valid across restore: procs
             restore in place) plus a mutable enabled list, so capture the
             table shape and each listener's list *)
          let levels = Array.copy last_levels in
          let subs =
            Hashtbl.fold (fun pid l acc -> (pid, l, l.l_enabled) :: acc) listeners []
          in
          fun () ->
            Array.blit levels 0 last_levels 0 (Array.length last_levels);
            Hashtbl.reset listeners;
            List.iter
              (fun (pid, l, enabled) ->
                l.l_enabled <- enabled;
                Hashtbl.replace listeners pid l)
              subs);
      sn_fingerprint =
        (fun () ->
          let h = Array.fold_left (fun h b -> Fp.bool h b) Fp.seed last_levels in
          let subs =
            Hashtbl.fold (fun pid l acc -> (pid, List.sort compare l.l_enabled) :: acc)
              listeners []
            |> List.sort compare
          in
          List.fold_left
            (fun h (pid, enabled) -> Fp.ints (Fp.int h pid) enabled)
            (Fp.int h (List.length subs))
            subs);
    }
  in
  (* quiet while every pin reads the level it last saw; a quiet tick
     still charges one GPIO read per pin *)
  let quiet =
    {
      Capsule_intf.q_next =
        (fun ~now ->
          let moved = ref false in
          List.iteri
            (fun i pin -> if Mpu_hw.Gpio.level gpio pin <> last_levels.(i) then moved := true)
            pins;
          if !moved then now + 1 else max_int);
      q_advance =
        (fun ~from ~upto ->
          Cycles.tick
            ~n:((upto - from + 1) * List.length pins * Cycles.mpu_reg_write)
            Cycles.global);
    }
  in
  { (Capsule_intf.stub ~driver_num ~name:"button") with
    Capsule_intf.cap_command = command;
    cap_tick = tick;
    cap_snapshot = Some snapshotter;
    cap_quiet = Some quiet;
  }
