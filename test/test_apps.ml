(* The §6.1 differential-testing result and the full attack matrix. *)

open Ticktock

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_suite_has_21_apps () =
  check_int "21 release tests" 21 (List.length Apps.Suite.all);
  check_int "5 layout-sensitive" 5 (List.length Apps.Suite.expected_differing)

(* A payload is the app's name repeated up to its per-app size: flash
   placement, and so every golden output, depends on these bytes. *)
let test_payload_bytes () =
  List.iter
    (fun (a : Apps.Suite.app) ->
      let name = a.Apps.Suite.app_name in
      let n = String.length name in
      let want = 256 + (n * 37 mod 700) in
      Alcotest.(check string) name
        (String.init want (fun i -> name.[i mod n]))
        (Apps.Suite.payload_of a))
    Apps.Suite.all

let difftest () =
  let left = Apps.Difftest.run_suite (Boards.instance_ticktock_arm ()) in
  let right = Apps.Difftest.run_suite (Boards.instance_tock_arm ()) in
  Apps.Difftest.compare_suites ~left ~right

let test_five_of_21_differ () =
  let rows = difftest () in
  let differing = List.filter (fun c -> c.Apps.Difftest.differs) rows in
  check_int "exactly 5 of 21 differ (the paper's result)" 5 (List.length differing);
  List.iter
    (fun c ->
      check_bool
        (c.Apps.Difftest.test_name ^ ": differing test is layout-sensitive")
        true c.Apps.Difftest.layout_sensitive)
    differing

let test_all_tests_complete () =
  List.iter
    (fun c ->
      check_bool (c.Apps.Difftest.test_name ^ " completed on both kernels") true
        c.Apps.Difftest.both_completed)
    (difftest ())

let test_fault_expectations () =
  let results = Apps.Difftest.run_suite (Boards.instance_ticktock_arm ()) in
  List.iter
    (fun (r : Apps.Difftest.app_result) ->
      check_bool
        (r.app.Apps.Suite.app_name ^ ": faulted iff expected")
        r.app.Apps.Suite.expect_fault r.faulted)
    results

let test_suite_deterministic () =
  let a = Apps.Difftest.run_suite (Boards.instance_ticktock_arm ()) in
  let b = Apps.Difftest.run_suite (Boards.instance_ticktock_arm ()) in
  List.iter2
    (fun (x : Apps.Difftest.app_result) (y : Apps.Difftest.app_result) ->
      Alcotest.(check string) (x.app.Apps.Suite.app_name ^ " deterministic") x.output y.output)
    a b

let test_riscv_suite_runs () =
  (* the paper ran RISC-V under QEMU: every app must run to completion *)
  let results = Apps.Difftest.run_suite (Boards.instance_ticktock_qemu ()) in
  List.iter
    (fun (r : Apps.Difftest.app_result) ->
      check_bool (r.app.Apps.Suite.app_name ^ " completed on qemu-rv32") true
        (r.load_error = None && (r.exit_code <> None || r.faulted)))
    results

let test_mc_switch_equivalent () =
  (* the machine-code context switch must be observationally identical to
     the method-level model: every app output matches exactly *)
  let a = Apps.Difftest.run_suite (Boards.instance_ticktock_arm ()) in
  let b = Apps.Difftest.run_suite (Boards.instance_ticktock_arm_mc ()) in
  List.iter2
    (fun (x : Apps.Difftest.app_result) (y : Apps.Difftest.app_result) ->
      Alcotest.(check string)
        (x.app.Apps.Suite.app_name ^ ": mc switch = model switch")
        x.output y.output;
      Alcotest.(check string) (x.app.Apps.Suite.app_name ^ " state") x.state y.state)
    a b

(* --- attacks --- *)

let outcome kernel attack =
  Verify.Violation.with_enabled false (fun () -> Apps.Attacks.run_attack kernel attack)

let find name = List.find (fun (a : Apps.Attacks.attack) -> a.attack_name = name) Apps.Attacks.all

let test_grant_overlap_matrix () =
  let a = find "grant_overlap" in
  check_bool "lands on upstream tock-arm" true
    (outcome (fun () -> Boards.instance_tock_arm ()) a = Apps.Attacks.Broken_isolation);
  check_bool "contained by patched tock-arm" true
    (outcome (fun () -> Boards.instance_tock_arm_patched ()) a = Apps.Attacks.Contained_fault);
  check_bool "contained by ticktock" true
    (outcome (fun () -> Boards.instance_ticktock_arm ()) a = Apps.Attacks.Contained_fault)

let test_brk_underflow_matrix () =
  let a = find "brk_underflow" in
  (match outcome (fun () -> Boards.instance_tock_arm ()) a with
  | Apps.Attacks.Kernel_dos _ -> ()
  | o -> Alcotest.failf "expected DoS on upstream, got %s" (Apps.Attacks.outcome_to_string o));
  check_bool "patched contains" true
    (outcome (fun () -> Boards.instance_tock_arm_patched ()) a = Apps.Attacks.Contained);
  check_bool "ticktock contains" true
    (outcome (fun () -> Boards.instance_ticktock_arm ()) a = Apps.Attacks.Contained)

let test_pmp_above_brk_matrix () =
  let a = find "pmp_above_brk" in
  check_bool "lands on upstream tock-pmp" true
    (outcome (fun () -> Boards.instance_tock_pmp ()) a = Apps.Attacks.Broken_isolation);
  check_bool "contained by patched tock-pmp" true
    (outcome (fun () -> Boards.instance_tock_pmp_patched ()) a = Apps.Attacks.Contained_fault);
  check_bool "contained by ticktock-e310" true
    (outcome (fun () -> Boards.instance_ticktock_e310 ()) a = Apps.Attacks.Contained_fault)

let test_universal_attacks_contained_everywhere () =
  List.iter
    (fun name ->
      let a = find name in
      List.iter
        (fun (kname, make) ->
          match outcome make a with
          | Apps.Attacks.Contained | Apps.Attacks.Contained_fault -> ()
          | o ->
            Alcotest.failf "%s on %s: %s" name kname (Apps.Attacks.outcome_to_string o))
        Boards.all_instances)
    [ "kernel_reader"; "flash_writer"; "neighbour_reader" ]

let test_ticktock_contains_every_attack () =
  List.iter
    (fun (a : Apps.Attacks.attack) ->
      match outcome (fun () -> Boards.instance_ticktock_arm ()) a with
      | Apps.Attacks.Contained | Apps.Attacks.Contained_fault -> ()
      | o ->
        Alcotest.failf "ticktock-arm vs %s: %s" a.attack_name
          (Apps.Attacks.outcome_to_string o))
    Apps.Attacks.all

let suite =
  [
    Alcotest.test_case "suite inventory" `Quick test_suite_has_21_apps;
    Alcotest.test_case "5 of 21 differ (§6.1)" `Slow test_five_of_21_differ;
    Alcotest.test_case "all tests complete" `Slow test_all_tests_complete;
    Alcotest.test_case "fault expectations" `Slow test_fault_expectations;
    Alcotest.test_case "suite deterministic" `Slow test_suite_deterministic;
    Alcotest.test_case "riscv (qemu) suite runs" `Slow test_riscv_suite_runs;
    Alcotest.test_case "mc switch observationally equal" `Slow test_mc_switch_equivalent;
    Alcotest.test_case "grant overlap attack matrix" `Slow test_grant_overlap_matrix;
    Alcotest.test_case "brk underflow attack matrix" `Slow test_brk_underflow_matrix;
    Alcotest.test_case "pmp above-brk attack matrix" `Slow test_pmp_above_brk_matrix;
    Alcotest.test_case "universal attacks contained" `Slow
      test_universal_attacks_contained_everywhere;
    Alcotest.test_case "ticktock contains every attack" `Slow
      test_ticktock_contains_every_attack;
    Alcotest.test_case "payload bytes" `Quick test_payload_bytes;
  ]
