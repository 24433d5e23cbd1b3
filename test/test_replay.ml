(* Conformance suite for the Replayable execution API and the TICKRPL
   record/replay stack: the --exec spec, the schedule encoding, and the
   time-travel identities the navigator promises — goto-T equals a
   straight run to T, a backward step equals a fresh forward run, bundles
   round-trip through disk and refuse loudly when they no longer
   reproduce their recording. *)

open Ticktock

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let fp = Alcotest.testable (fun ppf v -> Fmt.string ppf (Fp.to_hex v)) Int64.equal

(* Every board-session test runs with contracts armed, like the fleet. *)
let with_contracts f = Verify.Violation.with_enabled true f

let cell_schedule = Replay.Schedule.fleet_cell ~seed:3 ~fuzzers:4 ~steps:400

let record_cell ?(interval = 4) board =
  let lv = Replay.Record.board_live ~what:"Test" ~board ~horizon:10_000 cell_schedule in
  Replay.Record.record ~interval lv

(* --- the execution spec --- *)

let test_exec_parse () =
  check_bool "boot" true (Replayable.Exec.parse "boot" = Ok Replayable.Exec.Boot);
  check_bool "fork" true (Replayable.Exec.parse "fork" = Ok Replayable.Exec.Fork);
  check_bool "snapshot:FILE" true
    (Replayable.Exec.parse "snapshot:/tmp/x.snap"
    = Ok (Replayable.Exec.Snapshot_file "/tmp/x.snap"));
  check_bool "empty snapshot path refused" true
    (Result.is_error (Replayable.Exec.parse "snapshot:"));
  check_bool "junk refused" true (Result.is_error (Replayable.Exec.parse "warp"));
  List.iter
    (fun s ->
      match Replayable.Exec.parse s with
      | Ok spec -> check_string "to_string round-trips" s (Replayable.Exec.to_string spec)
      | Error _ -> Alcotest.fail ("parse failed on " ^ s))
    [ "boot"; "fork"; "snapshot:/tmp/x.snap" ]

(* Boot and fork cells are byte-identical through the shared runner: the
   admissibility check that let the six campaigns collapse onto it. *)
let test_boot_fork_identical () =
  let make () = Boards.instance_ticktock_arm () in
  let run exec =
    with_contracts (fun () -> Apps.Fuzz.campaign ~exec ~seeds:4 ~fuzzers:2 ~steps:40 make)
  in
  check_bool "boot == fork over the campaign protocol" true
    (run Replayable.Exec.Boot = run Replayable.Exec.Fork)

(* --- schedules --- *)

let test_schedule_roundtrip () =
  let sched = Replay.Schedule.fleet_cell ~seed:11 ~fuzzers:3 ~steps:70 in
  check_bool "encode/decode round-trips" true
    (Replay.Schedule.decode (Replay.Schedule.encode sched) = sched);
  check_bool "bad op refused" true
    (try
       ignore (Replay.Schedule.decode "warp 3\n");
       false
     with Invalid_argument _ -> true)

(* --- the navigator identities, on all three MPU architectures --- *)

let nav_identity board () =
  with_contracts (fun () ->
      let b = record_cell board in
      let horizon = b.Replay.Bundle.bu_header.Replay.Bundle.hd_horizon in
      check_bool "recording long enough to navigate" true (horizon > 6);
      let mid = horizon / 2 in
      (* goto T == a fresh forward run to T *)
      let nav = Replay.Record.navigator b in
      Replay.Navigator.goto nav mid;
      let nav2 = Replay.Record.navigator b in
      Replay.Navigator.goto nav2 mid;
      Alcotest.check fp "goto T is reproducible" (Replay.Navigator.fingerprint nav)
        (Replay.Navigator.fingerprint nav2);
      (* run past T, step backward to T: identical machine state *)
      Replay.Navigator.goto nav horizon;
      Replay.Navigator.back nav (horizon - mid);
      check_int "back lands on T" mid (Replay.Navigator.tick nav);
      Alcotest.check fp "backward step == fresh forward run" (Replay.Navigator.fingerprint nav2)
        (Replay.Navigator.fingerprint nav);
      check_bool "registers identical" true
        (Replay.Navigator.regs nav = Replay.Navigator.regs nav2);
      check_string "MPU view identical" (Replay.Navigator.mpu nav2) (Replay.Navigator.mpu nav);
      check_string "memory identical"
        (Replay.Navigator.mem_read nav2 ~addr:0x2000_0000 ~len:256)
        (Replay.Navigator.mem_read nav ~addr:0x2000_0000 ~len:256);
      (* the recording's own final state reproduces *)
      check_bool "bundle reproduces" true (Replay.Record.reproduces b))

(* --- the log-spaced trail: invisible and bounded --- *)

(* A navigator on [b] whose session counts its single-tick steps, with
   the model-cycle counter it runs on: the counter is global to the domain
   and every fingerprint hashes it, so two navigators driven in turn each
   keep their own, as if each ran in its own process. *)
type counted = { cn_nav : Replay.Navigator.t; cn_steps : int ref; mutable cn_cycles : int }

let counted_navigator ~snapshots (b : Replay.Bundle.t) =
  let lv = Replay.Record.live_of_bundle b in
  let steps = ref 0 in
  let count (s : Replayable.t) =
    {
      s with
      Replayable.rp_step =
        (fun ~ticks ->
          incr steps;
          s.Replayable.rp_step ~ticks);
    }
  in
  let nav =
    Replay.Navigator.create ~interval:b.Replay.Bundle.bu_header.Replay.Bundle.hd_interval
      ~snapshots ~marks:b.Replay.Bundle.bu_marks
      ~restart:(fun () -> count (lv.Replay.Record.lv_restart ()))
      (count lv.Replay.Record.lv_session)
  in
  { cn_nav = nav; cn_steps = steps; cn_cycles = Cycles.read Cycles.global }

let on c f =
  Cycles.set Cycles.global c.cn_cycles;
  Fun.protect ~finally:(fun () -> c.cn_cycles <- Cycles.read Cycles.global) f

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* A random deck of [back 1], [goto T] and one-step commands, on a
   navigator with ladder and trail and on one with [~snapshots:false]
   (which restarts and re-executes every backward jump). After every
   command both show the same tick, fingerprint, registers, MPU and
   memory; the held checkpoints never exceed the ladder plus
   floor(log2 tick)+1; and a [back 1] right after a command that stepped
   to its tick is a restore, with no step re-executed. *)
let trail_lockstep b =
  with_contracts (fun () ->
      let horizon = b.Replay.Bundle.bu_header.Replay.Bundle.hd_horizon in
      let interval = b.Replay.Bundle.bu_header.Replay.Bundle.hd_interval in
      check_bool "recording long enough to navigate" true (horizon > 8);
      let nav = counted_navigator ~snapshots:true b in
      let reference = counted_navigator ~snapshots:false b in
      let tick x = on x (fun () -> Replay.Navigator.tick x.cn_nav) in
      let view x =
        on x (fun () ->
            let n = x.cn_nav in
            ( Replay.Navigator.fingerprint n,
              Replay.Navigator.regs n,
              Replay.Navigator.mpu n,
              Replay.Navigator.mem_read n ~addr:(Range.start Layout.kernel_sram) ~len:256,
              Replay.Navigator.mem_read n ~addr:(Range.start Layout.app_sram) ~len:1024 ))
      in
      let rng = Random.State.make [| horizon; 0x7A11 |] in
      let reached = ref 0 and stepped = ref false and free_backs = ref 0 in
      for c = 1 to 80 do
        let now = tick nav in
        let roll = Random.State.int rng 10 in
        let back = roll < 5 in
        let target =
          if back then max 0 (now - 1)
          else if roll < 8 then Random.State.int rng (horizon + 1)
          else min horizon (now + 1)
        in
        let go x =
          on x (fun () ->
              if back then Replay.Navigator.back x.cn_nav 1
              else Replay.Navigator.goto x.cn_nav target)
        in
        let what =
          Printf.sprintf "command %d (%s from %d)" c
            (if back then "back 1" else Printf.sprintf "goto %d" target)
            now
        in
        let steps0 = !(nav.cn_steps) in
        go nav;
        go reference;
        let steps = !(nav.cn_steps) - steps0 in
        let p = tick nav in
        if back && !stepped then begin
          check_int (what ^ ": a restore, nothing re-executed") 0 steps;
          incr free_backs
        end;
        check_int (what ^ ": tick") (tick reference) p;
        let fp_n, regs_n, mpu_n, kmem_n, amem_n = view nav
        and fp_r, regs_r, mpu_r, kmem_r, amem_r = view reference in
        Alcotest.check fp (what ^ ": fingerprint") fp_r fp_n;
        check_bool (what ^ ": registers") true (regs_n = regs_r);
        check_string (what ^ ": MPU") mpu_r mpu_n;
        check_string (what ^ ": kernel memory") kmem_r kmem_n;
        check_string (what ^ ": app memory") amem_r amem_n;
        reached := max !reached p;
        let held = Replay.Navigator.snapshots_held nav.cn_nav in
        let ladder = (!reached / interval) + 1 and trail = if p > 0 then log2 p + 1 else 0 in
        check_bool
          (Printf.sprintf "%s: %d held <= ladder %d + trail %d" what held ladder trail)
          true
          (held <= ladder + trail);
        check_int (what ^ ": no checkpoints without snapshots") 0
          (Replay.Navigator.snapshots_held reference.cn_nav);
        stepped := steps > 0 && p = target
      done;
      check_bool "some back 1 followed a stepped landing" true (!free_backs > 0))

let workload_bundle () =
  with_contracts (fun () ->
      let sched = Replay.Schedule.fleet_cell ~seed:1 ~fuzzers:16 ~steps:20000 in
      let lv = Replay.Record.board_live ~what:"Test" ~board:"ticktock-arm" ~horizon:1500 sched in
      Replay.Record.record ~interval:32 lv)

(* --- the on-disk bundle --- *)

let test_bundle_roundtrip () =
  with_contracts (fun () ->
      let b = record_cell "ticktock-arm" in
      let path = Filename.temp_file "ticktock" ".tickrpl" in
      Replay.Bundle.save b path;
      let b' = Replay.Bundle.load path in
      Sys.remove path;
      check_bool "header round-trips" true (b'.Replay.Bundle.bu_header = b.Replay.Bundle.bu_header);
      check_bool "marks round-trip" true (b'.Replay.Bundle.bu_marks = b.Replay.Bundle.bu_marks);
      check_int "events round-trip"
        (List.length b.Replay.Bundle.bu_events)
        (List.length b'.Replay.Bundle.bu_events);
      check_bool "loaded bundle reproduces" true (Replay.Record.reproduces b'))

let test_bundle_refusals () =
  with_contracts (fun () ->
      let b = record_cell "ticktock-arm" in
      (* truncated / wrong magic *)
      let path = Filename.temp_file "ticktock" ".tickrpl" in
      let oc = open_out_bin path in
      output_string oc "TICKSNAP";
      close_out oc;
      check_bool "wrong magic refused" true
        (try
           ignore (Replay.Bundle.load path);
           false
         with Replay.Bundle.Refused _ -> true);
      Sys.remove path;
      (* a tampered mark: the bundle loads, but navigation refuses the
         divergence instead of silently showing a different execution *)
      let marks = Array.copy b.Replay.Bundle.bu_marks in
      let last = Array.length marks - 1 in
      let tick, _ = marks.(last) in
      marks.(last) <- (tick, 0xBAD_F00DL);
      let tampered = { b with Replay.Bundle.bu_marks = marks } in
      check_bool "tampered recording does not reproduce" false
        (Replay.Record.reproduces tampered);
      let nav = Replay.Record.navigator tampered in
      check_bool "navigation refuses the divergence" true
        (try
           Replay.Navigator.goto nav tick;
           false
         with Replay.Bundle.Refused _ -> true))

(* A bundle cut short anywhere is a typed refusal, never a stray
   exception out of the channel readers. *)
let test_bundle_truncated () =
  let b = with_contracts (fun () -> record_cell "ticktock-arm") in
  let path = Filename.temp_file "ticktock" ".tickrpl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Replay.Bundle.save b path;
      let whole = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun len ->
          Out_channel.with_open_bin path (fun oc -> output_string oc (String.sub whole 0 len));
          match Replay.Bundle.load path with
          | exception Replay.Bundle.Refused _ -> ()
          | _ -> Alcotest.failf "a %d-byte prefix of the bundle was accepted" len)
        (Test_snapshot.truncations ~magic:Replay.Bundle.magic whole))

(* Recorded sessions carry the obs ring: violation sites are inspectable
   and any tick window exports as a Chrome trace without re-execution. A
   window past the horizon holds no events and still exports valid JSON
   carrying only the lane metadata. *)
let test_events_and_trace () =
  with_contracts (fun () ->
      let b = record_cell "ticktock-arm" in
      check_bool "events recorded" true (List.length b.Replay.Bundle.bu_events > 0);
      let nav = Replay.Record.navigator b in
      let horizon = b.Replay.Bundle.bu_header.Replay.Bundle.hd_horizon in
      Replay.Navigator.goto nav horizon;
      let instants window =
        match Replay.Navigator.trace nav ~window with
        | None -> Alcotest.fail "recorded session has no trace"
        | Some json -> (
          match Test_obs.parse_json json with
          | Test_obs.J_obj fields -> (
            match List.assoc_opt "traceEvents" fields with
            | Some (Test_obs.J_arr events) ->
              List.length
                (List.filter
                   (function
                     | Test_obs.J_obj o -> List.assoc_opt "ph" o = Some (Test_obs.J_str "i")
                     | _ -> false)
                   events)
            | _ -> Alcotest.fail "traceEvents must be an array")
          | _ -> Alcotest.fail "a trace must be a JSON object"
          | exception Test_obs.Bad_json msg -> Alcotest.failf "trace is not JSON: %s" msg)
      in
      check_bool "window (0, 5) holds events" true (instants (0, 5) > 0);
      check_int "a window past the horizon holds none" 0
        (instants (horizon + 100_000, horizon + 100_001)))

(* --- campaign emitters --- *)

let test_fuzzcov_crasher_bundle () =
  let spec =
    {
      Fuzzcov.Engine.default_spec with
      Fuzzcov.Engine.fc_board = "tock-arm-upstream";
      fc_gens = 4;
      fc_pop = 6;
    }
  in
  let r = Fuzzcov.Engine.run ~jobs:2 spec in
  match r.Fuzzcov.Engine.fz_crashers with
  | [] -> Alcotest.fail "upstream board found no crasher"
  | c :: _ ->
    check_bool "crasher class is in the taxonomy" true
      (List.mem c.Fuzzcov.Engine.cr_class Verify.Taxonomy.all);
    let b = Replay.Record.of_fuzzcov spec c in
    check_bool "crasher bundle reproduces" true (Replay.Record.reproduces b);
    (* the replayed crash is the crasher's own: a panic carries the
       crasher's message, a violation names its site, which classifies
       to its class *)
    match b.Replay.Bundle.bu_header.Replay.Bundle.hd_crash with
    | None -> Alcotest.fail "crash not recorded"
    | Some (_, reason) ->
      if c.Fuzzcov.Engine.cr_class = Verify.Taxonomy.Kernel_panic then begin
        check_string "panic site" "kernel" c.Fuzzcov.Engine.cr_site;
        check_string "reason is the crasher's panic" ("panic: " ^ c.Fuzzcov.Engine.cr_detail)
          reason
      end
      else begin
        check_string "reason names the crasher's site"
          ("violation: " ^ c.Fuzzcov.Engine.cr_site) reason;
        check_bool "and the site classifies to the crasher's class" true
          (Verify.Taxonomy.class_of_site c.Fuzzcov.Engine.cr_site = c.Fuzzcov.Engine.cr_class)
      end

let test_fabric_cell_bundle () =
  let spec =
    { Fabric.Campaign.default_spec with Fabric.Campaign.fb_plans = [ "storm" ]; fb_cuts = 5 }
  in
  let r = Fabric.Campaign.run ~jobs:2 spec in
  let cell = Option.get r.Fabric.Campaign.fb_cells.(3) in
  (* of_fabric_cell refuses unless its oracle fingerprint matches the
     campaign's, so a successful emission IS the byte-identity check *)
  let b = Replay.Record.of_fabric_cell spec cell in
  check_bool "fabric bundle reproduces" true (Replay.Record.reproduces b);
  (* restart-and-replay navigation: a backward jump on a fabric session *)
  let nav = Replay.Record.navigator b in
  Replay.Navigator.goto nav 30;
  let fp30 = Replay.Navigator.fingerprint nav in
  Replay.Navigator.goto nav 50;
  Replay.Navigator.back nav 20;
  Alcotest.check fp "fabric backward jump == fresh forward run" fp30
    (Replay.Navigator.fingerprint nav)

(* Recording is fingerprint-invisible: the recorded marks equal the
   fingerprints of the same cell run with observability off. *)
let test_replay_invisibility () =
  with_contracts (fun () ->
      let b = record_cell "ticktock-arm" in
      let old = Obs.Config.auto_mode () in
      Obs.Config.set_auto Obs.Config.Off;
      Fun.protect
        ~finally:(fun () -> Obs.Config.set_auto old)
        (fun () ->
          Cycles.set Cycles.global 0;
          let k = Capsules.Std_board.make ~what:"Test" "ticktock-arm" in
          Replay.Schedule.apply k cell_schedule;
          let s = Replayable.of_instance ~name:"ticktock-arm" k in
          let marks = Hashtbl.create 16 in
          Array.iter
            (fun (tk, v) -> Hashtbl.replace marks tk v)
            b.Replay.Bundle.bu_marks;
          let rec go () =
            let now = s.Replayable.rp_tick () in
            (match Hashtbl.find_opt marks now with
            | Some expected ->
              Alcotest.check fp
                (Printf.sprintf "obs-off fingerprint at tick %d" now)
                expected
                (s.Replayable.rp_fingerprint ())
            | None -> ());
            if s.Replayable.rp_crash () = None then begin
              s.Replayable.rp_step ~ticks:1;
              if s.Replayable.rp_tick () > now then go ()
            end
          in
          go ()))

let suite =
  [
    Alcotest.test_case "exec spec parses" `Quick test_exec_parse;
    Alcotest.test_case "boot and fork cells identical" `Quick test_boot_fork_identical;
    Alcotest.test_case "schedule round-trips" `Quick test_schedule_roundtrip;
    Alcotest.test_case "navigator identity (ticktock-arm)" `Quick (nav_identity "ticktock-arm");
    Alcotest.test_case "navigator identity (ticktock-arm-v8)" `Quick
      (nav_identity "ticktock-arm-v8");
    Alcotest.test_case "navigator identity (ticktock-e310)" `Quick
      (nav_identity "ticktock-e310");
    Alcotest.test_case "bundle round-trips through disk" `Quick test_bundle_roundtrip;
    Alcotest.test_case "bundle refusals" `Quick test_bundle_refusals;
    Alcotest.test_case "truncated bundles refused" `Quick test_bundle_truncated;
    Alcotest.test_case "events and windowed trace" `Quick test_events_and_trace;
    Alcotest.test_case "fuzzcov crasher bundle reproduces" `Quick test_fuzzcov_crasher_bundle;
    Alcotest.test_case "fabric cell bundle reproduces" `Quick test_fabric_cell_bundle;
    Alcotest.test_case "recording is fingerprint-invisible" `Quick test_replay_invisibility;
    Alcotest.test_case "trail lockstep, fleet cell" `Quick (fun () ->
        trail_lockstep (workload_bundle ()));
    Alcotest.test_case "trail lockstep, ticktock-arm-v8" `Quick (fun () ->
        trail_lockstep (record_cell "ticktock-arm-v8"));
    Alcotest.test_case "trail lockstep, ticktock-e310" `Quick (fun () ->
        trail_lockstep (record_cell "ticktock-e310"));
  ]
