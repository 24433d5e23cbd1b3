(* Tickless idle is invisible. When a tick ends with no runnable process,
   [Kernel.run] jumps to the last tick before a process alarm, a backoff
   restart or a capsule can act, applying the skipped ticks' clock effects
   in one step. So one [run ~max_ticks:n] must leave exactly what n calls
   of [run ~max_ticks:1] leave (a one-tick budget never skips): the tick
   count, the whole-board fingerprint (which folds in the model cycle
   counter), the console and UART transcripts, every process's output and
   state, the model-only metrics and the Obs event log. Checked on every
   standard board, over hand-written scenarios and over random fuzzcov
   genomes. *)

open Ticktock
open Apps.App_dsl

(* What happens to a board between the phases of a scenario. *)
type phase = Run of int | Poke of (Capsules.Board_set.devices -> unit)

type scenario = {
  sc_name : string;
  sc_extra : unit -> Capsule_intf.t list;  (* capsules registered before the standard set *)
  sc_load : Instance.t -> int list;  (* the processes, loaded; their pids *)
  sc_phases : phase list;
}

(* The standard board and its devices, with an Obs recorder attached
   through the ambient mode. *)
let board ~extra name =
  let prev = Obs.Config.auto_mode () in
  Obs.Config.set_auto Obs.Config.On;
  Fun.protect
    ~finally:(fun () -> Obs.Config.set_auto prev)
    (fun () -> Capsules.Std_board.assemble ~what:"Test" ~extra name)

let load (k : Instance.t) ~name script =
  match
    k.Instance.load ~name ~payload:name ~program:(to_program script) ~min_ram:2048
      ~grant_reserve:1024 ~heap_headroom:2048
  with
  | Ok pid -> pid
  | Error e -> Alcotest.failf "load %s: %a" name Kerror.pp e

(* Everything a run leaves that the model can see. *)
let observe (k : Instance.t) (devs : Capsules.Board_set.devices) pids =
  let opt = Option.value ~default:"-" in
  String.concat "\n"
    ([
       Printf.sprintf "ticks %d" (k.Instance.ticks ());
       Printf.sprintf "fingerprint %Lx" (Snapshot.fingerprint (Option.get k.Instance.snap_target));
       "console " ^ k.Instance.console ();
       "uart " ^ Mpu_hw.Uart.transcript devs.Capsules.Board_set.uart;
       "debug-uart " ^ Mpu_hw.Uart.transcript devs.Capsules.Board_set.debug_uart;
       Obs.Metrics.to_text (Obs.Metrics.model_only (k.Instance.metrics ()));
       (match k.Instance.obs () with Some r -> Obs.Recorder.to_string r | None -> "no recorder");
     ]
    @ List.map
        (fun pid ->
          Printf.sprintf "pid %d: %s %s" pid (opt (k.Instance.proc_state pid))
            (opt (k.Instance.proc_output pid)))
        pids)

(* Play a scenario with each [Run n] as one call, or as n one-tick calls;
   what the board shows after every run. *)
let play ~per_tick name sc =
  Cycles.set Cycles.global 0;
  let k, devs = board ~extra:(sc.sc_extra ()) name in
  let pids = sc.sc_load k in
  List.filter_map
    (function
      | Poke f ->
        f devs;
        None
      | Run n ->
        if per_tick then
          for _ = 1 to n do
            k.Instance.run ~max_ticks:1
          done
        else k.Instance.run ~max_ticks:n;
        Some (observe k devs pids))
    sc.sc_phases
  |> String.concat "\n--\n"

let no_extra () = []

(* --- scenarios --- *)

let virtual_alarm_sleep =
  {
    sc_name = "virtual-alarm sleep";
    sc_extra = no_extra;
    sc_load =
      (fun k ->
        [
          load k ~name:"va"
            (let* _ = subscribe ~driver:4 ~upcall_id:0 in
             let* () =
               repeat 3 (fun () ->
                   let* d = command ~driver:4 ~cmd:1 ~arg1:170 () in
                   let* woke = yield in
                   let* now = command ~driver:4 ~cmd:2 () in
                   printf "%d@%d " (woke - d) now)
             in
             return 0);
        ]);
    sc_phases = [ Run 700 ];
  }

let builtin_alarm_sleep =
  {
    sc_name = "builtin-alarm sleep";
    sc_extra = no_extra;
    sc_load =
      (fun k ->
        [
          load k ~name:"ba"
            (let* () =
               repeat 3 (fun () ->
                   let* _ = command ~driver:0 ~cmd:1 ~arg1:130 () in
                   let* r = yield in
                   let* now = command ~driver:0 ~cmd:2 () in
                   printf "%d@%d " r now)
             in
             return 0);
        ]);
    sc_phases = [ Run 600 ];
  }

let yield_forever =
  {
    sc_name = "yield with no alarm";
    sc_extra = no_extra;
    sc_load =
      (fun k ->
        [
          load k ~name:"idle"
            (let* _ = command ~driver:1 ~cmd:0 () in
             let* r = yield in
             let* () = printf "woke %d" r in
             return 0);
        ]);
    sc_phases = [ Run 900 ];
  }

let button_and_debug_uart =
  {
    sc_name = "button press and debug-UART bytes between runs";
    sc_extra = no_extra;
    sc_load =
      (fun k ->
        [
          load k ~name:"btn"
            (let* _ = subscribe ~driver:7 ~upcall_id:0 in
             let* _ = command ~driver:7 ~cmd:2 ~arg1:0 () in
             let* ev = yield in
             let* () = printf "edge %d " ev in
             let* ev = yield in
             let* () = printf "edge %d" ev in
             return 0);
        ]);
    sc_phases =
      [
        Run 150;
        Poke (fun d -> Mpu_hw.Gpio.set_input d.Capsules.Board_set.gpio 8 true);
        Run 120;
        Poke
          (fun d ->
            String.iter
              (fun c -> Mpu_hw.Uart.rx_push d.Capsules.Board_set.debug_uart (Char.code c))
              "uptime\n");
        Run 200;
        Poke (fun d -> Mpu_hw.Gpio.set_input d.Capsules.Board_set.gpio 8 false);
        Run 90;
      ];
  }

(* An exited process still has a button listener and a virtual alarm:
   the press and the alarm queue two upcalls on it, then a second press a
   third, and [wake_alarms] rotates the queue every tick. The runs are
   sized so that neither stretch rotates it back to where it started. A
   sleeper keeps the scheduler awake. *)
let exited_with_two_upcalls =
  {
    sc_name = "exited process holding two pending upcalls";
    sc_extra = no_extra;
    sc_load =
      (fun k ->
        let ghost =
          load k ~name:"ghost"
            (let* _ = subscribe ~driver:7 ~upcall_id:0 in
             let* _ = command ~driver:7 ~cmd:2 ~arg1:0 () in
             let* _ = command ~driver:7 ~cmd:2 ~arg1:1 () in
             let* _ = command ~driver:4 ~cmd:1 ~arg1:60 () in
             return 0)
        in
        let sleeper =
          load k ~name:"sleeper"
            (let* _ = command ~driver:0 ~cmd:1 ~arg1:400 () in
             let* _ = yield in
             return 0)
        in
        [ ghost; sleeper ]);
    sc_phases =
      [
        Run 20;
        Poke (fun d -> Mpu_hw.Gpio.set_input d.Capsules.Board_set.gpio 8 true);
        Run 101;
        Poke (fun d -> Mpu_hw.Gpio.set_input d.Capsules.Board_set.gpio 9 true);
        Run 500;
      ];
  }

(* A capsule that declares no quiet ticks must see every one. *)
let tick_counter () =
  let seen = ref 0 in
  let cap =
    {
      (Capsule_intf.stub ~driver_num:20 ~name:"tick-counter") with
      Capsule_intf.cap_tick = (fun ~now:_ -> incr seen);
      cap_command = (fun _ ~cmd:_ ~arg1:_ ~arg2:_ -> !seen);
    }
  in
  (cap, seen)

let undeclared_capsule =
  {
    sc_name = "undeclared capsule sees every tick";
    sc_extra = (fun () -> [ fst (tick_counter ()) ]);
    sc_load =
      (fun k ->
        [
          load k ~name:"count"
            (let* _ = command ~driver:0 ~cmd:1 ~arg1:300 () in
             let* _ = yield in
             let* seen = command ~driver:20 ~cmd:0 () in
             let* () = printf "seen %d" seen in
             return 0);
        ]);
    sc_phases = [ Run 800 ];
  }

let scenarios =
  [
    virtual_alarm_sleep;
    builtin_alarm_sleep;
    yield_forever;
    button_and_debug_uart;
    exited_with_two_upcalls;
    undeclared_capsule;
  ]

let test_scenario sc () =
  List.iter
    (fun name ->
      let once = play ~per_tick:false name sc in
      let stepped = play ~per_tick:true name sc in
      Alcotest.(check string) (Printf.sprintf "%s on %s" sc.sc_name name) stepped once)
    Capsules.Std_board.board_names

(* A backoff restart is the third kind of event an idle stretch ends at:
   a process that faults under [Restart_backoff] sits out its delay with
   nothing runnable. The typed kernel, because [Instance.load] takes no
   fault policy. *)
let test_backoff_restart () =
  let module K = Boards.Ticktock_arm in
  let play ~per_tick =
    Cycles.set Cycles.global 0;
    let caps, _ = Capsules.Board_set.standard ~rng_seed:0x5EED () in
    let _, k = Boards.make_ticktock_arm ~capsules:caps () in
    let faulty = to_program (let* _ = load8 (Range.start Layout.kernel_sram) in return 0) in
    let p =
      match
        K.create_process k ~name:"faulty" ~payload:"f" ~program:faulty ~min_ram:2048
          ~fault_policy:
            (Process.Restart_backoff
               { max_restarts = 3; base_delay = 40; max_delay = 160; decay_span = 0 })
          ~program_factory:(fun () -> faulty)
          ()
      with
      | Ok p -> p
      | Error e -> Alcotest.failf "create: %a" Kerror.pp e
    in
    if per_tick then
      for _ = 1 to 600 do
        K.run k ~max_ticks:1
      done
    else K.run k ~max_ticks:600;
    Printf.sprintf "ticks %d restarts %d fingerprint %Lx\n%s" (K.ticks k) p.Process.restarts
      (K.fingerprint k) (K.console_output k)
  in
  Alcotest.(check string) "one run = per-tick runs" (play ~per_tick:true) (play ~per_tick:false)

(* The stub capsule's count is exact on a single long run, and so is an
   attached chaos engine's, whose [ch_tick] may inject at any tick. The
   skip really engages when every capsule declares its quiet ticks: a
   quiet capsule's bottom half runs on far fewer ticks than elapse. *)
let test_skip_engages () =
  let cap, seen = tick_counter () in
  let k, _ = board ~extra:[ cap ] "ticktock-arm" in
  ignore (load k ~name:"idle" (let* _ = yield in return 0));
  k.Instance.run ~max_ticks:500;
  Alcotest.(check int) "undeclared capsule ticked every tick" 500 !seen;
  let chaos = Chaos_intf.create () in
  let chaos_seen = ref 0 in
  chaos.Chaos_intf.ch_tick <- (fun ~tick:_ -> incr chaos_seen);
  let caps, _ = Capsules.Board_set.standard ~rng_seed:0x5EED () in
  let _, k = Boards.make_ticktock_arm ~capsules:caps ~chaos () in
  (match
     Boards.Ticktock_arm.create_process k ~name:"idle" ~payload:"i"
       ~program:(to_program (let* _ = yield in return 0))
       ~min_ram:2048 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "create: %a" Kerror.pp e);
  Boards.Ticktock_arm.run k ~max_ticks:500;
  Alcotest.(check int) "chaos engine ticked every tick" 500 !chaos_seen;
  let quiet_seen = ref 0 in
  let quiet =
    {
      (Capsule_intf.stub ~driver_num:20 ~name:"quiet-counter") with
      Capsule_intf.cap_tick = (fun ~now:_ -> incr quiet_seen);
      cap_quiet = Some Capsule_intf.always_quiet;
    }
  in
  let k, _ = board ~extra:[ quiet ] "ticktock-arm" in
  ignore (load k ~name:"idle" (let* _ = yield in return 0));
  k.Instance.run ~max_ticks:500;
  Alcotest.(check int) "the run still reaches its deadline" 500 (k.Instance.ticks ());
  Alcotest.(check bool)
    (Printf.sprintf "idle ticks skipped (%d bottom halves ran)" !quiet_seen)
    true (!quiet_seen < 10)

(* Random genomes: the witness and a hostile genome app, as a fuzzcov exec
   loads them, on the board whose switch runs through the Thumb engine. *)
let genome_run ~per_tick (g : Fuzzcov.Input.t) =
  play ~per_tick "ticktock-arm-mc"
    {
      sc_name = "genome";
      sc_extra = no_extra;
      sc_load =
        (fun k ->
          [
            load k ~name:"witness" Apps.Fuzz.witness_script;
            load k ~name:"gen" (Fuzzcov.Input.script g);
          ]);
      sc_phases = [ Run g.Fuzzcov.Input.in_ticks ];
    }

let prop_genomes =
  QCheck.Test.make ~name:"random genomes: one run = per-tick runs" ~count:15
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let rng = Random.State.make [| seed; 0x71C4 |] in
      let g = Fuzzcov.Input.fresh ~rng ~steps_max:64 ~ticks_max:1500 in
      let outcome per_tick =
        try genome_run ~per_tick g with
        | Tock_cortexm_mpu.Kernel_panic msg -> "panic " ^ msg
        | Verify.Violation.Violation v -> "violation " ^ v.Verify.Violation.site
      in
      String.equal (outcome false) (outcome true))

let suite =
  List.map (fun sc -> Alcotest.test_case sc.sc_name `Quick (test_scenario sc)) scenarios
  @ [
      Alcotest.test_case "backoff restart" `Quick test_backoff_restart;
      Alcotest.test_case "skip engages; undeclared capsules and chaos pin it" `Quick
        test_skip_engages;
      QCheck_alcotest.to_alcotest prop_genomes;
    ]
