(* Resilience: fault policies and the kernel event trace.

     dune exec examples/resilience.exe

   Three processes with three different fault responses crash in the same
   way (an MPU violation); what happens next is policy:
   - `stop`   stays quarantined (the default),
   - `phoenix` is restarted with re-zeroed memory and recovers,
   - a `panic` process would halt the whole board (demonstrated last,
     caught). The kernel's event recorder (Obs.Recorder) shows the
     scheduler's view of all of it. *)

open Ticktock
open Apps.App_dsl
module K = Boards.Ticktock_arm

let crash_once_then_work = ref 0

let crashing_script () =
  incr crash_once_then_work;
  if !crash_once_then_work <= 1 then
    to_program
      (let* () = print "phoenix: first run, about to crash\n" in
       let* _ = load8 0 in
       return 1)
  else
    to_program
      (let* () = print "phoenix: reborn and healthy\n" in
       return 0)

let () =
  let m = Machine.create_arm () in
  let obs = Obs.Recorder.create () in
  let k =
    K.create ~mem:m.Machine.arm_mem ~hw:m.Machine.arm_mpu
      ~switcher:(Kernel.Arm_switch m.Machine.arm_cpu) ~systick:m.Machine.arm_systick ~obs ()
  in
  let create name ?fault_policy ?program_factory program =
    Result.get_ok
      (K.create_process k ~name ~payload:name ~program ~min_ram:2048 ?fault_policy
         ?program_factory ())
  in
  let stopper =
    create "stop"
      (to_program
         (let* () = print "stop: crashing\n" in
          let* _ = store8 0 1 in
          return 1))
  in
  let phoenix =
    create "phoenix"
      ~fault_policy:(Process.Restart { max_restarts = 3 })
      ~program_factory:crashing_script (crashing_script ())
  in
  K.run k ~max_ticks:200;

  List.iter
    (fun (p : _ Process.t) ->
      Printf.printf "=== %s [%s] restarts=%d\n%s" p.Process.name
        (Process.state_to_string p.Process.state)
        p.Process.restarts (Process.output p))
    [ stopper; phoenix ];

  print_endline "\n--- kernel trace ---";
  print_string (Obs.Recorder.to_string obs);

  print_endline "--- kernel console (status dumps) ---";
  print_string (K.console_output k);

  (* the Panic policy halts the system *)
  let m2 = Machine.create_arm () in
  let k2 =
    K.create ~mem:m2.Machine.arm_mem ~hw:m2.Machine.arm_mpu
      ~switcher:(Kernel.Arm_switch m2.Machine.arm_cpu) ()
  in
  let _ =
    create "unused" (to_program (return 0))
  and _ =
    Result.get_ok
      (K.create_process k2 ~name:"critical" ~payload:"critical"
         ~program:(to_program (let* _ = load8 0 in return 0))
         ~min_ram:2048 ~fault_policy:Process.Panic ())
  in
  match K.run k2 ~max_ticks:50 with
  | () -> print_endline "panic policy did not fire?"
  | exception K.Panic msg -> Printf.printf "\nPanic policy halts the board: %s\n" msg
