(* The evaluation harness: regenerates every table and figure from the
   paper's evaluation (§6), plus the supporting bug matrix.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig11   # one experiment
     dune exec bench/main.exe -- help    # unknown id: list the ids, exit 1

   Absolute numbers live in our simulator's units (deterministic model
   cycles, OCaml wall time); EXPERIMENTS.md records them against the
   paper's. The *shape* — who wins, by roughly what factor, where the
   regressions are — is the reproduction target. *)

open Ticktock

let line = String.make 78 '-'

let header title paper =
  Printf.printf "\n%s\n%s\n(paper: %s)\n%s\n" line title paper line

(* ------------------------------------------------------------------ *)
(* Figure 11: average CPU cycles for process tasks.                    *)

let fig11_methods =
  [
    "allocate_grant";
    "brk";
    "build_readonly_buffer";
    "build_readwrite_buffer";
    "create";
    "setup_mpu";
  ]

let paper_fig11 =
  [
    ("allocate_grant", (641.00, 1290.32, -50.32));
    ("brk", (844.51, 1078.66, -21.71));
    ("build_readonly_buffer", (115.71, 144.64, -20.00));
    ("build_readwrite_buffer", (78.00, 118.22, -34.02));
    ("create", (638_544.67, 634_137.40, +0.70));
    ("setup_mpu", (97.86, 90.55, +8.08));
  ]

(* Like the paper: the average over three runs of the 21-test suite. *)
let suite_hooks make =
  let merged = Hooks.create () in
  for _ = 1 to 3 do
    let k = make () in
    ignore (Apps.Difftest.run_suite k);
    Hooks.merge ~into:merged (k.Instance.hooks ())
  done;
  merged

let fig11 () =
  header "Figure 11 — average model cycles for process tasks"
    "TickTock wins allocate_grant/brk/buffers, ~even create, slight setup_mpu regression";
  Verify.Violation.set_enabled false;
  let ticktock = suite_hooks (fun () -> Boards.instance_ticktock_arm ()) in
  let tock = suite_hooks (fun () -> Boards.instance_tock_arm ()) in
  Printf.printf "%-24s %12s %12s %10s   %s\n" "Method" "TickTock" "Tock" "Pct.Diff"
    "paper (tt / tock / diff)";
  List.iter
    (fun m ->
      match (Hooks.mean ticktock m, Hooks.mean tock m) with
      | Some tt, Some tk ->
        let diff = 100.0 *. (tt -. tk) /. tk in
        let ptt, ptk, pdiff = List.assoc m paper_fig11 in
        Printf.printf "%-24s %12.2f %12.2f %+9.2f%%   %.2f / %.2f / %+.2f%%\n" m tt tk diff ptt
          ptk pdiff
      | None, _ | _, None -> Printf.printf "%-24s (method not exercised)\n" m)
    fig11_methods

(* Figure 11 companion: the same six methods across the three TickTock
   architectures — the generic allocator's cost portability. *)
let fig11_arch () =
  header "Figure 11 companion — TickTock method cycles across architectures"
    "supporting: one allocator, three MPUs; v7's subregion dance is the priciest";
  Verify.Violation.set_enabled false;
  let hooks_for make = suite_hooks make in
  let v7 = hooks_for (fun () -> Boards.instance_ticktock_arm ()) in
  let v8 = hooks_for (fun () -> Boards.instance_ticktock_arm_v8 ()) in
  let pmp = hooks_for (fun () -> Boards.instance_ticktock_e310 ()) in
  Printf.printf "%-24s %12s %12s %12s\n" "Method" "cortex-m(v7)" "cortex-m(v8)" "rv32-pmp";
  List.iter
    (fun m ->
      let cell h = match Hooks.mean h m with Some v -> Printf.sprintf "%12.2f" v | None -> "           -" in
      Printf.printf "%-24s %s %s %s\n" m (cell v7) (cell v8) (cell pmp))
    fig11_methods

(* ------------------------------------------------------------------ *)
(* §6.2 memory usage microbenchmark.                                   *)

let mem () =
  header "§6.2 — memory footprint: grow one byte at a time until failure"
    "Tock 8192/6656/1284/252 (3.08% unused); TickTock 7780/6144/1200/436 (5.60%); padded \
     TickTock within 84 bytes of Tock";
  Verify.Violation.set_enabled false;
  let show name ?grant_reserve make =
    match Apps.Membench.run ?grant_reserve (make ()) with
    | Ok r -> Format.printf "%a@." Apps.Membench.pp_row { r with Apps.Membench.kernel = name }
    | Error e -> Format.printf "%s: ERROR %a@." name Kerror.pp e
  in
  show "tock-arm (monolithic)" (fun () -> Boards.instance_tock_arm ());
  show "ticktock-arm (granular)" (fun () -> Boards.instance_ticktock_arm ());
  (* the paper's padding experiment: configure TickTock so the block size
     matches Tock's power-of-two allocation *)
  show "ticktock-arm (padded)" ~grant_reserve:3072 (fun () -> Boards.instance_ticktock_arm ());
  show "ticktock-e310 (pmp)" (fun () -> Boards.instance_ticktock_e310 ());
  show "ticktock-arm-v8 (pmsav8)" (fun () -> Boards.instance_ticktock_arm_v8 ())

(* ------------------------------------------------------------------ *)
(* Figure 12: verification time.                                       *)

let fig12 ?(scale = 1.0) () =
  header "Figure 12 — time to check TickTock"
    "Monolithic 5m19s total vs Granular 36s (the redesign slashes it); Interrupts slow per \
     function despite being small";
  Printf.printf "domain scale %.2f\n\n" scale;
  (* first: the bug hunt on the upstream code, as §2.2 experienced it *)
  let bname, bprops = Proofs.upstream_bug_hunt ~scale:(min scale 0.4) in
  let breport = Verify.Checker.check_component bname bprops in
  Format.printf "%a@." Verify.Checker.pp_report breport;
  let reports =
    List.map
      (fun (cname, props) -> Verify.Checker.check_component cname props)
      (Proofs.components ~scale)
  in
  List.iter (fun r -> Format.printf "%a@." Verify.Checker.pp_report r) reports;
  let rows =
    List.map
      (fun (r : Verify.Checker.component_report) ->
        (r.Verify.Checker.component, Verify.Report.timing_stats r))
      reports
  in
  Format.printf "%a@." Verify.Report.pp_timing_table rows;
  Printf.printf "all verified: %b\n" (List.for_all Verify.Checker.all_verified reports)

(* ------------------------------------------------------------------ *)
(* Figure 10: proof/implementation effort.                              *)

let rec find_root dir depth =
  if depth > 5 then None
  else if Sys.file_exists (Filename.concat dir "lib/core") then Some dir
  else find_root (Filename.concat dir "..") (depth + 1)

let fig10 () =
  header "Figure 10 — implementation & specification effort"
    "22,131 source LoC, 2,581 fns, 3,603 spec LoC across Kernel / ARM MPU / RISC-V MPU / \
     Flux-Std / FluxArm";
  match find_root (Sys.getcwd ()) 0 with
  | None -> print_endline "source tree not found (run from the repository)"
  | Some root ->
    let rows =
      Verify.Report.scan_sources ~root
        ~components:
          [
            ("Kernel (core)", [ "lib/core" ]);
            ("MPU hardware models", [ "lib/mpu_hw" ]);
            ("FluxArm (cpu)", [ "lib/cpu" ]);
            ("Flux substitute (verify)", [ "lib/verify" ]);
            ("Machine substrate", [ "lib/mach" ]);
            ("Userland & apps", [ "lib/apps" ]);
            ("Tests", [ "test" ]);
            ("Bench & examples", [ "bench"; "examples"; "bin" ]);
          ]
    in
    Format.printf "%a@." Verify.Report.pp_effort_table rows

(* ------------------------------------------------------------------ *)
(* §6.1 differential testing.                                           *)

let difftest () =
  header "§6.1 — differential testing: 21 release tests on Tock vs TickTock"
    "21 apps, 5 differing, all layout/sensor tests; crashes still fault correctly";
  Verify.Violation.set_enabled false;
  let left = Apps.Difftest.run_suite (Boards.instance_ticktock_arm ()) in
  let right = Apps.Difftest.run_suite (Boards.instance_tock_arm ()) in
  Format.printf "%a@." Apps.Difftest.pp_comparison (Apps.Difftest.compare_suites ~left ~right);
  (* the paper's RISC-V-under-QEMU leg: completion only *)
  let qemu = Apps.Difftest.run_suite (Boards.instance_ticktock_qemu ()) in
  let completed =
    List.length
      (List.filter
         (fun (r : Apps.Difftest.app_result) -> r.exit_code <> None || r.faulted)
         qemu)
  in
  Printf.printf "\nticktock on qemu-rv32: %d/21 apps ran to completion\n" completed;
  (* and the PMP pair: granular vs monolithic on the same chip *)
  let pleft = Apps.Difftest.run_suite (Boards.instance_ticktock_e310 ()) in
  let pright = Apps.Difftest.run_suite (Boards.instance_tock_pmp ()) in
  let pdiff =
    List.filter (fun c -> c.Apps.Difftest.differs)
      (Apps.Difftest.compare_suites ~left:pleft ~right:pright)
  in
  Printf.printf "pmp pair (ticktock-e310 vs tock-pmp): %d of 21 differ\n" (List.length pdiff)

(* ------------------------------------------------------------------ *)
(* Bug matrix (§2.2, §3.4 — supporting evidence).                       *)

let bugs () =
  header "Bug reproductions — attacks vs kernel configurations"
    "six isolation/DoS bugs found by verification; exploits land only on upstream code";
  let kernels =
    [
      ("tock-arm-upstream ", fun () -> Boards.instance_tock_arm ());
      ("tock-arm-patched  ", fun () -> Boards.instance_tock_arm_patched ());
      ("ticktock-arm      ", fun () -> Boards.instance_ticktock_arm ());
      ("tock-pmp-upstream ", fun () -> Boards.instance_tock_pmp ());
      ("tock-pmp-patched  ", fun () -> Boards.instance_tock_pmp_patched ());
      ("ticktock-e310     ", fun () -> Boards.instance_ticktock_e310 ());
    ]
  in
  List.iter
    (fun (attack : Apps.Attacks.attack) ->
      Printf.printf "== %s — %s\n" attack.attack_name attack.description;
      List.iter
        (fun (name, make) ->
          let outcome =
            Verify.Violation.with_enabled false (fun () -> Apps.Attacks.run_attack make attack)
          in
          Printf.printf "   %s %s\n" name (Apps.Attacks.outcome_to_string outcome))
        kernels)
    Apps.Attacks.all

(* ------------------------------------------------------------------ *)
(* Ablations: isolate the design choices DESIGN.md calls out.           *)

let ablation_capsules () =
  Printf.printf "\n(d) capsule mediation overhead (model cycles per byte written)\n";
  Verify.Violation.set_enabled false;
  let caps, devices = Capsules.Board_set.standard () in
  let k = Boards.instance_ticktock_arm ~capsules:caps () in
  let open Apps.App_dsl in
  let n = 64 in
  let script =
    let* ms = memory_start in
    let* () =
      iter_list
        (fun i -> let* _ = store8 (ms + i) 0x41 in return ())
        (List.init n Fun.id)
    in
    let* _ = allow_ro ~driver:Capsules.Console.driver_num ~addr:ms ~len:n in
    let* _ = command ~driver:Capsules.Console.driver_num ~cmd:1 ~arg1:n () in
    return 0
  in
  match
    k.Instance.load ~name:"conbench" ~payload:"c" ~program:(to_program script) ~min_ram:2048
      ~grant_reserve:1024 ~heap_headroom:0
  with
  | Error e -> Format.printf "    load failed: %a@." Kerror.pp e
  | Ok _ ->
    let _, cycles = Cycles.measure Cycles.global (fun () -> k.Instance.run ~max_ticks:200) in
    Printf.printf
      "    %d bytes via console capsule: %d cycles total (%.1f/byte incl. switch + uart)\n" n
      cycles
      (float_of_int cycles /. float_of_int n);
    Printf.printf "    uart transcript intact: %b\n"
      (String.length (Mpu_hw.Uart.transcript devices.Capsules.Board_set.uart) = n)

let ablation () =
  header "Ablations — where the redesign's wins come from"
    "supporting analysis for the §3.5 design claims";

  (* 1. Verification cost scales much faster for the entangled monolithic
     abstraction than for the granular one. *)
  Printf.printf "(a) verification time vs domain scale\n";
  Printf.printf "    %-8s %14s %14s %8s\n" "scale" "monolithic" "granular" "ratio";
  List.iter
    (fun scale ->
      let time props =
        let r = Verify.Checker.check_component "x" props in
        (Verify.Report.timing_stats r).Verify.Report.total_s
      in
      let m = time (Proofs.Monolithic.patched ~scale) in
      let g = time (Proofs.Granular.properties ~scale) in
      Printf.printf "    %-8.2f %13.3fs %13.3fs %7.1fx\n" scale m g (m /. g))
    [ 0.25; 0.5; 1.0 ];

  (* 2. How much of Tock's brk cost is the redundant setup_mpu call. *)
  Printf.printf "\n(b) Tock brk cost breakdown (model cycles)\n";
  Verify.Violation.set_enabled false;
  let module T = Tock_allocator.Upstream_cortexm in
  let hw = Mpu_hw.Armv7m_mpu.create () in
  (match
     T.allocate_app_memory ~unalloc_start:0x2000_8000 ~unalloc_size:0x20000 ~min_size:4096
       ~app_size:2048 ~kernel_size:1024 ~flash_start:0x0002_0000 ~flash_size:1024
   with
  | Error e -> Format.printf "    setup failed: %a@." Kerror.pp e
  | Ok alloc ->
    let _, brk_cycles =
      Cycles.measure Cycles.global (fun () ->
          ignore (T.brk alloc hw ~new_app_break:(T.memory_start alloc + 3000)))
    in
    let _, config_cycles =
      Cycles.measure Cycles.global (fun () -> T.configure_mpu hw alloc)
    in
    Printf.printf "    brk total: %d cycles, of which redundant setup_mpu: %d (%.0f%%)\n"
      brk_cycles config_cycles
      (100.0 *. float_of_int config_cycles /. float_of_int brk_cycles));

  (* 3. Allocation waste: pow2 block rounding (monolithic) vs subregion
     rounding (granular), swept over requested app sizes. *)
  Printf.printf "\n(c) block size for a given request (bytes; kernel reserve 1024)\n";
  Printf.printf "    %-10s %12s %12s %10s\n" "request" "tock(po2)" "ticktock" "saving";
  let module G = App_mem_alloc.Make (Cortexm_mpu) in
  List.iter
    (fun app_size ->
      let tock =
        let module M = Tock_allocator.Patched_cortexm in
        match
          M.allocate_app_memory ~unalloc_start:0x2000_8000 ~unalloc_size:0x40000
            ~min_size:app_size ~app_size ~kernel_size:1024 ~flash_start:0x0002_0000
            ~flash_size:1024
        with
        | Ok a -> M.memory_size a
        | Error _ -> 0
      in
      let ticktock =
        match
          G.allocate_app_memory ~unalloc_start:0x2000_8000 ~unalloc_size:0x40000
            ~min_size:app_size ~app_size ~kernel_size:1024 ~flash_start:0x0002_0000
            ~flash_size:1024
        with
        | Ok a -> G.memory_size a
        | Error _ -> 0
      in
      Printf.printf "    %-10d %12d %12d %9.1f%%\n" app_size tock ticktock
        (if tock = 0 then 0.0 else 100.0 *. float_of_int (tock - ticktock) /. float_of_int tock))
    [ 512; 1024; 1536; 2048; 3072; 4096; 5120; 6144; 7168; 8192 ];
  ablation_capsules ();

  (* (e) scheduling quantum sweep: context-switch overhead vs latency.
     Smaller quanta = more switches = more total cycles to finish the same
     workload; the default 64 sits on the flat part of the curve. *)
  Printf.printf "\n(e) quantum sweep: cycles to run the 21-app suite (ticktock-arm)\n";
  Printf.printf "    %-10s %14s %10s\n" "quantum" "total cycles" "ticks";
  List.iter
    (fun q ->
      let k = Boards.instance_ticktock_arm ~quantum:q () in
      let _, cycles =
        Cycles.measure Cycles.global (fun () -> ignore (Apps.Difftest.run_suite k))
      in
      Printf.printf "    %-10d %14d %10d\n" q cycles (k.Instance.ticks ()))
    [ 4; 16; 64; 256 ]

(* ------------------------------------------------------------------ *)
(* Fuzzing robustness (supporting): hostile streams vs every kernel.    *)

let fuzz () =
  header "Fuzzing — hostile syscall/memory streams, 20 seeds x 3 fuzzers each"
    "supporting: the verified kernels survive with contracts enabled; upstream panics";
  let row name ~contracts make =
    let rounds, panics =
      Verify.Violation.with_enabled contracts (fun () -> Apps.Fuzz.campaign ~seeds:20 make)
    in
    let count f = List.length (List.filter f rounds) in
    Printf.printf "%-22s contracts=%-5b panics=%2d/20 witness-ok=%2d/20 hw/logical-agree=%2d/20\n"
      name contracts (List.length panics)
      (count (fun (r : Apps.Fuzz.outcome) -> r.witness_ok))
      (count (fun (r : Apps.Fuzz.outcome) -> r.isolation_ok))
  in
  row "ticktock-arm" ~contracts:true (fun () -> Boards.instance_ticktock_arm ());
  row "ticktock-arm-mc" ~contracts:true (fun () -> Boards.instance_ticktock_arm_mc ());
  row "ticktock-e310" ~contracts:true (fun () -> Boards.instance_ticktock_e310 ());
  row "tock-arm-patched" ~contracts:false (fun () -> Boards.instance_tock_arm_patched ());
  row "tock-arm-upstream" ~contracts:false (fun () -> Boards.instance_tock_arm ());
  print_endline
    "(the monolithic kernels never agree with hardware: Figure 4a's +1 subregion\n\
    \ always over-enables - the section 3.2 disagreement; a panicked round\n\
    \ reports witness/agreement vacuously)" 

(* ------------------------------------------------------------------ *)
(* Interrupt latency (supporting): one preemption round trip, by path.  *)

let latency () =
  header "Interrupt latency — model cycles for one preempt round trip"
    "supporting: machine-code dispatch costs more than the method model; vector fetch adds one load";
  Verify.Violation.set_enabled false;
  let measure name f =
    (* average over repeated round trips on one machine *)
    let m, _, _ = Proofs.Interrupts.fresh_machine () in
    let cpu = m.Machine.arm_cpu in
    let code = Fluxarm.Handlers_mc.install m.Machine.arm_mem in
    Fluxarm.Vector_table.install_for m.Machine.arm_mem ~base:0x0 code;
    let n = 200 in
    let _, cycles = Cycles.measure Cycles.global (fun () -> for _ = 1 to n do f cpu m code done) in
    Printf.printf "  %-34s %8.1f cycles/round-trip\n" name (float_of_int cycles /. float_of_int n)
  in
  measure "method-level systick" (fun cpu _ _ ->
      Fluxarm.Handlers.preempt_process cpu ~exc_num:15);
  measure "machine-code systick" (fun cpu _ code ->
      Fluxarm.Handlers_mc.preempt_process code cpu ~exc_num:15);
  measure "machine-code via vector table" (fun cpu m _ ->
      Fluxarm.Exn.preempt cpu ~exc_num:15
        ~isr:(Fluxarm.Vector_table.isr m.Machine.arm_mem ~base:0x0 ~exc_num:15));
  measure "method-level generic irq" (fun cpu _ _ ->
      Fluxarm.Handlers.preempt_process cpu ~exc_num:22);
  measure "machine-code generic irq" (fun cpu _ code ->
      Fluxarm.Handlers_mc.preempt_process code cpu ~exc_num:22)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test per experiment.                  *)

let bechamel_tests () =
  let open Bechamel in
  let quick_suite make () =
    Verify.Violation.set_enabled false;
    ignore (Apps.Difftest.run_suite ~max_ticks:2000 (make ()))
  in
  [
    Test.make ~name:"fig11/suite-ticktock-arm"
      (Staged.stage (quick_suite (fun () -> Boards.instance_ticktock_arm ())));
    Test.make ~name:"fig11/suite-tock-arm"
      (Staged.stage (quick_suite (fun () -> Boards.instance_tock_arm ())));
    Test.make ~name:"mem/grow-until-failure"
      (Staged.stage (fun () ->
           Verify.Violation.set_enabled false;
           ignore (Apps.Membench.run (Boards.instance_ticktock_arm ()))));
    Test.make ~name:"fig12/verify-granular"
      (Staged.stage (fun () ->
           ignore
             (Verify.Checker.check_component "granular"
                (Proofs.Granular.properties ~scale:0.05))));
    Test.make ~name:"fig12/verify-monolithic"
      (Staged.stage (fun () ->
           ignore
             (Verify.Checker.check_component "monolithic"
                (Proofs.Monolithic.patched ~scale:0.05))));
    Test.make ~name:"difftest/compare-pair"
      (Staged.stage (fun () ->
           Verify.Violation.set_enabled false;
           let left =
             Apps.Difftest.run_suite ~max_ticks:2000 (Boards.instance_ticktock_arm ())
           in
           let right = Apps.Difftest.run_suite ~max_ticks:2000 (Boards.instance_tock_arm ()) in
           ignore (Apps.Difftest.compare_suites ~left ~right)));
    Test.make ~name:"bugs/grant-overlap-attack"
      (Staged.stage (fun () ->
           Verify.Violation.set_enabled false;
           ignore
             (Apps.Attacks.run_attack
                (fun () -> Boards.instance_tock_arm ())
                (List.hd Apps.Attacks.all))));
  ]

let bechamel_run () =
  header "Bechamel wall-time micro-benchmarks (one Test.make per experiment)"
    "absolute wall times are simulator-specific; recorded for regression tracking";
  let open Bechamel in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysis = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-32s %12.3f ms/run\n" name (est /. 1e6)
          | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
        analysis)
    (bechamel_tests ())

(* ------------------------------------------------------------------ *)
(* Host-speed experiments (bus through replay) and the parts they share. *)

(* Each host-speed experiment prints a table and writes the same rows as
   BENCH_<name>.json through the one JSON printer, "experiment" first. *)
let write name fields =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let json = Obs.Json.(to_string (Obj (("experiment", Str name) :: fields))) in
  Out_channel.with_open_text file (fun oc -> output_string oc json);
  Printf.printf "\nwrote %s\n" file

(* [x] to [d] decimals and, for whole rates, to an int: a BENCH figure
   keeps the precision its table prints. *)
let fixed d x = Obs.Json.Float (float_of_string (Printf.sprintf "%.*f" d x))
let whole x = Obs.Json.Int (Float.to_int (Float.round x))

(* [f ()] and the wall-clock seconds it took. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(* A size knob from the environment, at least [min]; unset or unparsable
   reads [default]. *)
let env_int name ~min ~default =
  match Sys.getenv_opt name with
  | Some s -> ( try max min (int_of_string s) with Failure _ -> default)
  | None -> default

let host_cores = Stdlib.Domain.recommended_domain_count ()

(* One machine per architecture for the bus and icache experiments: a
   single RWX 64 KiB region at [rig_base], the CPU unprivileged so the MPU
   actually gates every access. [cached] is the MPU's own checker, decision
   cache live; [uncached] consults the same MPU through an uncacheable
   checker (the pre-cache behaviour: a full region/entry walk per byte,
   four walks per word). *)
type rig = {
  rig_arch : string;
  rig_mem : Memory.t;
  rig_cpu : Fluxarm.Cpu.t option;  (* the Thumb engine's CPU, on ARM *)
  cached : Memory.checker;
  uncached : Memory.checker;
}

let rig_base = 0x2000_0000

let rig = function
  | `Armv7m ->
    let m = Machine.create_arm () in
    let mpu = m.Machine.arm_mpu and cpu = m.Machine.arm_cpu in
    Mpu_hw.Armv7m_mpu.write_region mpu ~index:0
      ~rbar:(Mpu_hw.Armv7m_mpu.encode_rbar ~addr:rig_base ~region:0)
      ~rasr:
        (Mpu_hw.Armv7m_mpu.encode_rasr ~enable:true ~size:65536 ~srd:0
           ~perms:Perms.Read_write_execute);
    Mpu_hw.Armv7m_mpu.set_enabled mpu true;
    Fluxarm.Cpu.set_special_raw cpu Fluxarm.Regs.Control 1;
    { rig_arch = "armv7m"; rig_mem = m.Machine.arm_mem; rig_cpu = Some cpu;
      cached =
        Mpu_hw.Armv7m_mpu.checker mpu ~cpu_privileged:(fun () -> Fluxarm.Cpu.privileged cpu);
      uncached =
        Memory.checker_of_fn (fun a acc ->
            Mpu_hw.Armv7m_mpu.check_access mpu ~privileged:false a acc) }
  | `Armv8m ->
    let m = Machine.create_arm_v8 () in
    let mpu = m.Machine.v8_mpu and cpu = m.Machine.v8_cpu in
    Mpu_hw.Armv8m_mpu.write_region mpu ~index:0
      ~rbar:(Mpu_hw.Armv8m_mpu.encode_rbar ~base:rig_base ~perms:Perms.Read_write_execute)
      ~rasr:(Mpu_hw.Armv8m_mpu.encode_rlar ~limit:(rig_base + 65535) ~enable:true);
    Mpu_hw.Armv8m_mpu.set_enabled mpu true;
    Fluxarm.Cpu.set_special_raw cpu Fluxarm.Regs.Control 1;
    { rig_arch = "armv8m"; rig_mem = m.Machine.v8_mem; rig_cpu = Some cpu;
      cached =
        Mpu_hw.Armv8m_mpu.checker mpu ~cpu_privileged:(fun () -> Fluxarm.Cpu.privileged cpu);
      uncached =
        Memory.checker_of_fn (fun a acc ->
            Mpu_hw.Armv8m_mpu.check_access mpu ~privileged:false a acc) }
  | `Pmp ->
    let m = Machine.create_riscv Mpu_hw.Pmp.sifive_e310 in
    let pmp = m.Machine.rv_pmp in
    Mpu_hw.Pmp.set_entry pmp ~index:0
      ~cfg:(Mpu_hw.Pmp.cfg_of_perms Perms.Read_write_execute ~mode:Mpu_hw.Pmp.Napot)
      ~addr:(Mpu_hw.Pmp.napot_addr ~start:rig_base ~size:65536);
    m.Machine.rv_machine_mode := false;
    { rig_arch = "rv32-pmp"; rig_mem = m.Machine.rv_mem; rig_cpu = None;
      cached = Mpu_hw.Pmp.checker pmp ~cpu_machine_mode:(fun () -> !(m.Machine.rv_machine_mode));
      uncached =
        Memory.checker_of_fn (fun a acc -> Mpu_hw.Pmp.check_access pmp ~machine_mode:false a acc) }

(* The jobs-scaling sweep of the fleet and fabric campaigns. The first
   round runs jobs 1, 2 and, on a host with more, every core, and [row]
   prints and returns each of its runs; then [scaling_rounds - 1] more
   rounds run jobs 1 and 2, alternating which goes first. [report] must
   agree across every run of every round. [speedup_1_to_2] reads the
   first round; [paired_speedup_1_to_2] is the median over rounds of each
   round's t1/t2, so host drift that spans a round cancels and one loaded
   run cannot move it. Both are null below 2 cores: two domains
   time-slicing one core measure the scheduler, not the pool. Returns the
   BENCH fields and the first round's results. *)
let scaling_rounds = 5

let scaling ~run ~report ~row =
  let time jobs =
    let r, secs = timed (fun () -> run jobs) in
    (jobs, r, secs)
  in
  let first = List.map time ([ 1; 2 ] @ if host_cores > 2 then [ host_cores ] else []) in
  let rows = List.map (fun (jobs, r, secs) -> row jobs r secs) first in
  (* keep each run's report and time, not its campaign result *)
  let brief (jobs, r, secs) = (jobs, report r, secs) in
  let rounds =
    List.map brief first
    :: List.init (scaling_rounds - 1) (fun i ->
           List.map (fun jobs -> brief (time jobs)) (if i mod 2 = 0 then [ 2; 1 ] else [ 1; 2 ]))
  in
  let t_of jobs round = List.find_map (fun (j, _, s) -> if j = jobs then Some s else None) round in
  let ratio round = Option.get (t_of 1 round) /. Option.get (t_of 2 round) in
  let paired = median (Array.of_list (List.map ratio rounds)) in
  let reports = List.concat_map (List.map (fun (_, rep, _) -> rep)) rounds in
  let identical = List.for_all (( = ) (List.hd reports)) reports in
  let speedup x = if host_cores < 2 then Obs.Json.Null else fixed 2 x in
  if host_cores < 2 then print_endline "\nspeedup jobs 1 -> 2: not measured (host has 1 core)"
  else
    Printf.printf "\nspeedup jobs 1 -> 2: %.2fx, paired over %d rounds %.2fx  (host has %d cores)\n"
      (ratio first) scaling_rounds paired host_cores;
  Printf.printf "reports byte-identical across jobs and rounds: %b\n" identical;
  ( Obs.Json.
      [ ("host_cores", Int host_cores); ("scaling", Arr rows);
        ("speedup_1_to_2", speedup (ratio first)); ("paired_speedup_1_to_2", speedup paired);
        ("reports_identical", Bool identical) ],
    List.map (fun (_, r, _) -> r) first )

(* ------------------------------------------------------------------ *)
(* Bus throughput: the word fast path + MPU decision cache (micro-TLB). *)

(* Host-side loads/stores/fetches per second on the modeled bus, per
   architecture, under three configurations:
     unchecked — no checker installed (raw word fast path);
     cached    — the MPU installed normally, decision cache live;
     uncached  — the same MPU consulted through an uncacheable checker.
   Model cycles are untouched by any of this — Mach.Cycles is charged by
   the CPU methods, not the bus — so fig11/difftest numbers are identical
   whichever path runs; this experiment only reports host speed.

   The uncached and cached sweeps run in [bus_rounds] interleaved rounds.
   The Mops columns, [speedup] and [hit_rate] read the first round, one
   sweep each as before; [paired_speedup] is the median over rounds of
   the round's uncached time over its cached time, so host drift that
   spans a round cancels and one loaded sweep cannot move it. *)

let bus_rounds = 9

let bus_sweep mem ~iters =
  (* 64 KiB sweep, 3 ops per step: load, store, fetch of an aligned word *)
  for i = 0 to iters - 1 do
    let addr = rig_base lor (i * 4 land 0xFFFC) in
    ignore (Memory.load32 mem addr);
    Memory.store32 mem addr 0xDEAD_BEEF;
    ignore (Memory.fetch32 mem addr)
  done

let bus_row ~iters r =
  let mem = r.rig_mem in
  let mops secs = 3.0 *. float_of_int iters /. secs /. 1e6 in
  Memory.set_checker mem None;
  bus_sweep mem ~iters:1000 (* touch the pages once *);
  let (), t_unchecked = timed (fun () -> bus_sweep mem ~iters) in
  (* [set_checker] flushes the decision cache: every cached sweep starts cold *)
  let sweep checker =
    Memory.set_checker mem (Some checker);
    Memory.reset_cache_stats mem;
    let (), t = timed (fun () -> bus_sweep mem ~iters) in
    let hits, misses = Memory.cache_stats mem in
    (t, float_of_int hits /. float_of_int (max 1 (hits + misses)))
  in
  let rounds =
    Array.init bus_rounds (fun _ ->
        let t_uncached, _ = sweep r.uncached in
        let t_cached, hit_rate = sweep r.cached in
        (t_uncached, t_cached, hit_rate))
  in
  let paired = median (Array.map (fun (u, c, _) -> u /. c) rounds) in
  let t_uncached, t_cached, hit_rate = rounds.(0) in
  let unchecked = mops t_unchecked and cached = mops t_cached and uncached = mops t_uncached in
  Printf.printf "%-10s %11.2f M/s %11.2f M/s %11.2f M/s %8.2fx %8.2fx %8.1f%%\n" r.rig_arch
    unchecked cached uncached (cached /. uncached) paired (100.0 *. hit_rate);
  Obs.Json.(
    Obj
      [ ("arch", Str r.rig_arch); ("unchecked_mops", fixed 2 unchecked);
        ("cached_mops", fixed 2 cached); ("uncached_mops", fixed 2 uncached);
        ("speedup", fixed 2 (cached /. uncached)); ("paired_speedup", fixed 2 paired);
        ("hit_rate", fixed 4 hit_rate) ])

let bus () =
  header "Bus throughput — word fast path + MPU access-decision cache"
    "not in the paper: host-side speed only; model cycles are identical by construction";
  let iters = env_int "BUS_ITERS" ~min:1000 ~default:1_000_000 in
  Printf.printf
    "%d ops per sweep (BUS_ITERS=%d words x 3 ops), %d interleaved uncached/cached rounds\n\n"
    (3 * iters) iters bus_rounds;
  Printf.printf "%-10s %14s %14s %14s %9s %9s %9s\n" "arch" "unchecked" "cached(mTLB)" "uncached"
    "speedup" "paired" "hit rate";
  let archs = List.map (fun a -> bus_row ~iters (rig a)) [ `Armv7m; `Armv8m; `Pmp ] in
  write "bus" Obs.Json.[ ("ops_per_config", Int (3 * iters)); ("archs", Arr archs) ]

(* ------------------------------------------------------------------ *)
(* Instruction throughput: decode cache + basic-block dispatch in Mc.   *)

(* Host-side instructions per second through [Mc.run] on a hot loop
   (30 straight-line instructions + cmp + backward branch = one cached
   block per iteration), cold (caches disabled: fetch and decode every
   instruction, the pre-cache engine) vs warm (the block linked to itself,
   so the loop runs as one trace of compiled macro-ops). As with
   [bus], model cycles are charged by the Cpu methods either way, so
   fig11/difftest/latency numbers are identical whichever engine runs —
   this experiment reports host speed and cache effectiveness only. *)

(* The loop body: 30 movw + cmp lr, r7 (lr=1, r7=0, so Z stays clear)
   + bne back to the start. *)
let icache_program base =
  let gprs = Fluxarm.Regs.[ R0; R1; R2; R3 ] in
  let body = List.init 30 (fun i -> Fluxarm.Thumb.Movw (List.nth gprs (i mod 4), i)) in
  let body = body @ [ Fluxarm.Thumb.Cmp_lr Fluxarm.Regs.R7 ] in
  let prefix = List.fold_left (fun a i -> a + Fluxarm.Thumb.size_bytes i) 0 body in
  (* bne target = branch address + 4 + 2*off; aim back at [base] *)
  let off = (base - (base + prefix) - 4) / 2 in
  body @ [ Fluxarm.Thumb.B_cond (`Ne, off) ]

let icache_instrs_per_iter = 32

let icache_run cpu ~iters =
  Fluxarm.Cpu.set_special_raw cpu Fluxarm.Regs.Pc rig_base;
  Fluxarm.Cpu.set_special_raw cpu Fluxarm.Regs.Lr 1;
  match Fluxarm.Mc.run ~fuel:(iters * icache_instrs_per_iter) cpu with
  | Fluxarm.Mc.Out_of_fuel -> ()
  | _ -> failwith "icache bench: loop stopped early"

(* best of three: a single timing is at the mercy of host scheduling noise,
   and CI gates on the warm/cold ratio *)
let best_of_3 f = List.fold_left (fun t _ -> Float.min t (snd (timed f))) infinity [ 1; 2; 3 ]

(* [mpu] installs the rig's cached checker; without it the row runs with
   no checker at all ("nompu"). *)
let icache_row ~iters ~mpu a =
  let r = rig a in
  let arch = if mpu then r.rig_arch else "nompu" in
  let cpu = Option.get r.rig_cpu in
  Memory.set_checker r.rig_mem (if mpu then Some r.cached else None);
  let ic = Fluxarm.Cpu.icache cpu in
  let fuel = iters * icache_instrs_per_iter in
  ignore (Fluxarm.Thumb.assemble r.rig_mem rig_base (icache_program rig_base));
  let mips secs = float_of_int fuel /. secs /. 1e6 in
  Fluxarm.Icache.set_enabled ic false;
  icache_run cpu ~iters:100 (* touch the pages *);
  let cold = mips (best_of_3 (fun () -> icache_run cpu ~iters)) in
  Fluxarm.Icache.set_enabled ic true;
  icache_run cpu ~iters:100 (* decode, publish and link the block *);
  let s0 = Fluxarm.Icache.stats ic in
  let warm = mips (best_of_3 (fun () -> icache_run cpu ~iters)) in
  let s1 = Fluxarm.Icache.stats ic in
  let d f = f s1 - f s0 in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  let hits = d (fun s -> s.Fluxarm.Icache.hits) in
  let link_hits = d (fun s -> s.Fluxarm.Icache.link_hits) in
  let hit_rate = ratio hits (hits + d (fun s -> s.Fluxarm.Icache.misses)) in
  let link_rate = ratio link_hits (link_hits + d (fun s -> s.Fluxarm.Icache.link_misses)) in
  let trace_len =
    ratio (d (fun s -> s.Fluxarm.Icache.trace_blocks)) (d (fun s -> s.Fluxarm.Icache.traces))
  in
  Printf.printf "%-10s %11.2f M/s %11.2f M/s %8.2fx %8.1f%% %8.1f%% %9.1f\n" arch cold warm
    (warm /. cold) (100.0 *. hit_rate) (100.0 *. link_rate) trace_len;
  Obs.Json.(
    Obj
      [ ("arch", Str arch); ("cold_mips", fixed 2 cold); ("warm_mips", fixed 2 warm);
        ("speedup", fixed 2 (warm /. cold)); ("hit_rate", fixed 4 hit_rate);
        ("link_rate", fixed 4 link_rate); ("avg_trace_len", fixed 1 trace_len) ])

let icache_bench () =
  header "Instruction throughput — decode cache + superblock dispatch"
    "not in the paper: host-side speed only; model cycles are identical by construction";
  let iters = env_int "ICACHE_ITERS" ~min:100 ~default:100_000 in
  Printf.printf "%d instructions per configuration (ICACHE_ITERS=%d loops x %d instrs)\n\n"
    (iters * icache_instrs_per_iter) iters icache_instrs_per_iter;
  Printf.printf "%-10s %15s %15s %9s %9s %9s %9s\n" "arch" "cold" "warm" "speedup" "hit rate"
    "link rt" "tracelen";
  let archs =
    List.map
      (fun (a, mpu) -> icache_row ~iters ~mpu a)
      [ (`Armv7m, false); (`Armv7m, true); (`Armv8m, true) ]
  in
  write "icache"
    Obs.Json.[ ("instrs_per_config", Int (iters * icache_instrs_per_iter)); ("archs", Arr archs) ]

(* ------------------------------------------------------------------ *)
(* Observability overhead: the cost of the tracing hooks themselves.    *)

(* Wall time for the 21-app suite under the three observability modes:
     absent   — no recorder attached, every hook site holds [None];
     disabled — a recorder is attached but switched off (events are built
                and immediately dropped: the hook-call + allocation cost);
     enabled  — the recorder records into its ring.
   Model cycles are charged by CPU/kernel methods, never by sinks, so
   fig11/difftest/latency/fuzz output is byte-identical across the three
   modes (ci.sh asserts this); the only thing tracing can cost is host
   time, which is what this experiment bounds. *)

(* The machine-code board: the engine that actually fetches, decodes and
   executes instructions, i.e. the configuration where a wall-clock
   overhead number means something. (On the abstract method-level board a
   suite run is ~1 ms of host work for the same event volume, so any
   per-event cost looks inflated by an order of magnitude.)

   Instances are built — and, in the enabled mode, their rings provisioned
   — outside the timed region: board construction and buffer provisioning
   are setup, and what the overhead number must bound is the steady-state
   cost of the hooks on the execution path. *)
let obs_make_instances mode ~iters =
  Obs.Config.set_auto mode;
  Verify.Violation.set_enabled false;
  Array.init iters (fun _ ->
      let k = Boards.instance_ticktock_arm_mc () in
      (match k.Instance.obs () with
      | Some r when Obs.Recorder.enabled r -> Obs.Recorder.reserve r
      | Some _ | None -> ());
      k)

let obs_run_all ks = Array.iter (fun k -> ignore (Apps.Difftest.run_suite k)) ks

(* Interleave the three modes round-robin, [samples] rounds of one run per
   mode: host load drifts on the scale of a whole sample, so measuring the
   modes back-to-back within each round exposes them to the same drift.
   Returns the per-round times, indexed [round][mode]. *)
let obs_times ~iters ~samples =
  let modes = [| Obs.Config.Off; Obs.Config.Disabled; Obs.Config.On |] in
  Array.iter (fun m -> obs_run_all (obs_make_instances m ~iters:2) (* warm up *)) modes;
  Array.init samples (fun _ ->
      Array.map
        (fun m ->
          let ks = obs_make_instances m ~iters in
          (* settle the GC so no mode pays major-collection debt run up by
             its predecessor's garbage *)
          Gc.full_major ();
          snd (timed (fun () -> obs_run_all ks)))
        modes)

(* Two estimators of a mode's overhead over absent. The minimum over
   rounds discards loaded rounds but compares times from different rounds;
   the paired median divides each round's time by the absent time of the
   same round and takes the median of those ratios, so drift that spans a
   round cancels and a single outlier round cannot move it. *)
let obs_min times mode = Array.fold_left (fun b row -> Float.min b row.(mode)) infinity times

let obs_paired_pct times mode =
  100.0 *. (median (Array.map (fun row -> row.(mode) /. row.(0)) times) -. 1.0)

let obs_bench () =
  header "Observability overhead — tracing hooks absent / disabled / enabled"
    "not in the paper: host-side cost of the obs layer; model output identical by construction";
  let saved = Obs.Config.auto_mode () in
  let iters = env_int "OBS_ITERS" ~min:2 ~default:12 in
  let samples = 9 in
  Printf.printf
    "%d suite runs per sample, %d interleaved samples per mode: best, and median paired with \
     absent (OBS_ITERS=%d)\n\n"
    iters samples iters;
  let times = obs_times ~iters ~samples in
  let t_absent = obs_min times 0 and t_disabled = obs_min times 1 and t_enabled = obs_min times 2 in
  let paired_disabled = obs_paired_pct times 1 and paired_enabled = obs_paired_pct times 2 in
  (* Event volume of one traced suite run, from a dedicated instance. *)
  Obs.Config.set_auto Obs.Config.Off;
  let r = Obs.Recorder.create () in
  let k = Boards.instance_ticktock_arm_mc ~obs:r () in
  ignore (Apps.Difftest.run_suite k);
  let recorded = Obs.Recorder.recorded r and dropped = Obs.Recorder.dropped r in
  Obs.Config.set_auto saved;
  let pct t = 100.0 *. (t -. t_absent) /. t_absent in
  Printf.printf "%-10s %10s %10s %10s\n" "mode" "time" "overhead" "paired";
  Printf.printf "%-10s %9.3fs %9s %10s\n" "absent" t_absent "-" "-";
  Printf.printf "%-10s %9.3fs %+8.2f%% %+8.2f%%\n" "disabled" t_disabled (pct t_disabled)
    paired_disabled;
  Printf.printf "%-10s %9.3fs %+8.2f%% %+8.2f%%\n" "enabled" t_enabled (pct t_enabled)
    paired_enabled;
  Printf.printf "\ntraced suite run: %d events recorded, %d dropped (ring capacity %d)\n" recorded
    dropped r.Obs.Recorder.capacity;
  write "obs"
    Obs.Json.
      [ ("suite_runs_per_sample", Int iters); ("absent_s", fixed 4 t_absent);
        ("disabled_s", fixed 4 t_disabled); ("enabled_s", fixed 4 t_enabled);
        ("disabled_overhead_pct", fixed 2 (pct t_disabled));
        ("enabled_overhead_pct", fixed 2 (pct t_enabled));
        ("disabled_paired_overhead_pct", fixed 2 paired_disabled);
        ("enabled_paired_overhead_pct", fixed 2 paired_enabled);
        ("events_per_suite_run", Int recorded); ("events_dropped_per_suite_run", Int dropped) ]

(* ------------------------------------------------------------------ *)
(* Chaos: scrubber detection latency and scrub-cadence overhead.        *)

(* One suite run on the ARMv7-M board with the MPU scrubber at a given
   cadence (0 = off). Model cycles only — the scrubber's cost is charged
   in model cycles by the kernel, so the overhead number is deterministic
   and needs no timing samples. *)
let chaos_scrub_run ~scrub_every =
  let board =
    match Chaos.Targets.find "ticktock-arm" with
    | Some b -> b
    | None -> failwith "ticktock-arm board missing"
  in
  let setup =
    { (Chaos.Targets.plain_setup ~rng_seed:0x5EED) with
      Chaos.Targets.st_scrub_every = scrub_every }
  in
  let made = board.Chaos.Targets.tb_make setup in
  let inst = made.Chaos.Targets.bd_instance in
  ignore (Chaos.Campaign.load_suite inst);
  let c0 = Cycles.read Cycles.global in
  inst.Instance.run ~max_ticks:5_000;
  let cycles = Cycles.read Cycles.global - c0 in
  let checks = Chaos.Campaign.counter_of (inst.Instance.metrics ()) "scrub/checks" in
  (cycles, checks)

let chaos_bench () =
  header "Chaos: MPU-scrubber detection latency and cadence overhead"
    "not in the paper: the robustness harness's self-healing numbers";
  (* One seed per board is enough for a latency histogram: every landed MPU
     corruption contributes a sample, and the campaign is deterministic. *)
  let res =
    Verify.Violation.with_enabled true (fun () ->
        Chaos.Campaign.run ~seeds:[ 1; 2 ] ())
  in
  Printf.printf "campaign: %d faults fired, %d masked / %d healed / %d contained (%s)\n\n"
    res.Chaos.Campaign.total_fired res.Chaos.Campaign.total_masked
    res.Chaos.Campaign.total_healed res.Chaos.Campaign.total_contained
    (if res.Chaos.Campaign.ok then "ok" else "FAILED");
  (* Per-board latency, one row per round; rounds of the same board are
     adjacent and seeds are listed in order. *)
  Printf.printf "%-24s %6s %8s %8s %8s\n" "board/seed" "n" "min" "mean" "max";
  let latencies =
    List.map
      (fun (r : Chaos.Campaign.round) ->
        let board = Printf.sprintf "%s/seed%d" r.Chaos.Campaign.rd_board r.Chaos.Campaign.rd_seed in
        match r.Chaos.Campaign.rd_latency with
        | Some (n, mn, mean, mx) ->
          Printf.printf "%-24s %6d %8d %8d %8d\n" board n mn mean mx;
          let bucket (le, n) = Obs.Json.(Arr [ Int le; Int n ]) in
          Obs.Json.(
            Obj
              [ ("board", Str board); ("count", Int n); ("min", Int mn); ("mean", Int mean);
                ("max", Int mx);
                ("buckets", Arr (List.map bucket r.Chaos.Campaign.rd_latency_buckets)) ])
        | None ->
          Printf.printf "%-24s %6d %8s %8s %8s\n" board 0 "-" "-" "-";
          Obs.Json.(Obj [ ("board", Str board); ("count", Int 0) ]))
      res.Chaos.Campaign.rounds
  in
  (* Scrubber overhead: the suite alone (no engine, no faults) with the
     scrubber off and at three cadences. *)
  let runs = List.map (fun every -> (every, chaos_scrub_run ~scrub_every:every)) [ 0; 1; 4; 16 ] in
  let base = fst (List.assoc 0 runs) in
  Printf.printf "\n%-12s %14s %10s %10s\n" "scrub_every" "model cycles" "checks" "overhead";
  let scrub =
    List.map
      (fun (every, (cycles, checks)) ->
        let pct = 100.0 *. float_of_int (cycles - base) /. float_of_int base in
        Printf.printf "%-12s %14d %10d %+9.3f%%\n"
          (if every = 0 then "off" else string_of_int every)
          cycles checks pct;
        Obs.Json.(
          Obj
            [ ("scrub_every", Int every); ("model_cycles", Int cycles); ("checks", Int checks);
              ("overhead_pct", fixed 3 pct) ]))
      runs
  in
  let campaign =
    let open Chaos.Campaign in
    Obs.Json.
      [ ("rounds", Int (List.length res.rounds)); ("fired", Int res.total_fired);
        ("effective", Int res.total_effective); ("masked", Int res.total_masked);
        ("healed", Int res.total_healed); ("contained", Int res.total_contained);
        ("silent", Int res.total_silent); ("ok", Bool res.ok) ]
  in
  write "chaos"
    Obs.Json.
      [ ("campaign", Obj campaign); ("detect_latency_cycles", Arr latencies);
        ("scrub_overhead", Arr scrub) ]

(* ------------------------------------------------------------------ *)
(* Snapshot/fork: restore vs cold boot, fork cost vs dirty pages, and   *)
(* campaign wall-clock in boot vs fork mode.                            *)

(* (a) Per-round cost of a fresh board: boot-mode pays a full board
   construction; fork-mode pays one restore of the pristine post-boot
   snapshot onto a board the previous round dirtied. The suite run between
   restores is the realistic dirtying load (it is NOT inside the timed
   window). *)
let snap_restore_vs_boot ~rounds =
  let (), t_boot =
    timed (fun () ->
        for _ = 1 to rounds do
          ignore (Boards.instance_ticktock_arm ())
        done)
  in
  let k = Boards.instance_ticktock_arm () in
  let tgt = Option.get k.Instance.snap_target in
  let snap, t_capture = timed (fun () -> Snapshot.capture tgt) in
  let t_restore = ref 0.0 in
  for _ = 1 to rounds do
    ignore (Apps.Difftest.run_suite ~max_ticks:2_000 k);
    t_restore := !t_restore +. snd (timed (fun () -> Snapshot.restore tgt snap))
  done;
  (t_boot /. float_of_int rounds, t_capture, !t_restore /. float_of_int rounds)

(* (b) Restore cost as a function of pages dirtied since capture. Pure
   memory-level sweep on a bare machine: the COW restore walks only pages
   touched after the capture era, so cost should scale with the dirty set,
   not with total memory. *)
let snap_dirty_sweep () =
  let m = Machine.create_arm () in
  let mem = m.Machine.arm_mem in
  let page = 4096 in
  List.map
    (fun pages ->
      let snap = Memory.capture mem in
      let base = Range.start Layout.app_sram in
      for i = 0 to pages - 1 do
        Memory.store32 mem (base + (i * page)) 0xDEAD_BEEF
      done;
      (pages, snd (timed (fun () -> Memory.restore mem snap))))
    [ 0; 1; 4; 16; 48 ]

(* (c) The same fuzz campaign, boot mode vs fork mode, and the identity
   check that makes fork mode admissible: identical outcome lists. *)
let snap_campaign ~seeds =
  let make () = Boards.instance_ticktock_arm () in
  let run exec =
    Verify.Violation.with_enabled true (fun () ->
        timed (fun () -> Apps.Fuzz.campaign ~exec ~seeds ~fuzzers:2 ~steps:50 make))
  in
  let boot, t_boot = run Ticktock.Replayable.Exec.Boot in
  let forked, t_fork = run Ticktock.Replayable.Exec.Fork in
  (t_boot, t_fork, List.length (fst boot), boot = forked)

let snapshot_bench () =
  header "Snapshot/fork — restore vs cold boot, dirty-page scaling, campaign wall-clock"
    "not in the paper: the fleet-campaign substrate; model state is identical by construction";
  let rounds = 10 in
  let t_boot, t_capture, t_restore = snap_restore_vs_boot ~rounds in
  Printf.printf "fresh board (over %d rounds, dirtied by a suite run each):\n" rounds;
  Printf.printf "  %-28s %10.1f us\n" "cold boot" (t_boot *. 1e6);
  Printf.printf "  %-28s %10.1f us\n" "capture (pristine)" (t_capture *. 1e6);
  Printf.printf "  %-28s %10.1f us   (%.1fx faster than boot)\n" "restore (dirty board)"
    (t_restore *. 1e6)
    (t_boot /. t_restore);
  Printf.printf "\nrestore cost vs pages dirtied since capture (bare machine):\n";
  let sweep =
    List.map
      (fun (pages, secs) ->
        Printf.printf "  %4d dirty pages %10.1f us\n" pages (secs *. 1e6);
        Obs.Json.(Obj [ ("dirty_pages", Int pages); ("restore_us", fixed 2 (secs *. 1e6)) ]))
      (snap_dirty_sweep ())
  in
  let seeds = 8 in
  let t_cboot, t_cfork, ran, identical = snap_campaign ~seeds in
  Printf.printf "\nfuzz campaign, %d seeds x 2 fuzzers (%d rounds ran):\n" seeds ran;
  Printf.printf "  %-28s %10.3f s\n" "boot mode" t_cboot;
  Printf.printf "  %-28s %10.3f s   (%.2fx)\n" "fork mode" t_cfork (t_cboot /. t_cfork);
  Printf.printf "  outcomes identical: %b\n" identical;
  write "snapshot"
    Obs.Json.
      [
        ( "fresh_board",
          Obj
            [ ("rounds", Int rounds); ("cold_boot_us", fixed 2 (t_boot *. 1e6));
              ("capture_us", fixed 2 (t_capture *. 1e6));
              ("restore_us", fixed 2 (t_restore *. 1e6));
              ("restore_speedup", fixed 2 (t_boot /. t_restore)) ] );
        ("restore_vs_dirty_pages", Arr sweep);
        ( "fuzz_campaign",
          Obj
            [ ("seeds", Int seeds); ("boot_mode_s", fixed 3 t_cboot);
              ("fork_mode_s", fixed 3 t_cfork); ("speedup", fixed 2 (t_cboot /. t_cfork));
              ("outcomes_identical", Bool identical) ] );
      ]

(* ------------------------------------------------------------------ *)
(* Fleet-scale campaign: fork 10k board-instances across the domain
   pool, measure throughput at each jobs setting, and check the merged
   report is byte-identical everywhere — the property that makes the
   parallelism admissible. *)

let fleet_cells = 10_000

let fleet_bench () =
  header "Fleet campaign — 10k snapshot-forked boards across the work-stealing pool"
    "not in the paper: throughput and jobs-scaling of the campaign orchestrator";
  let spec = { Fleet.Campaign.default_spec with Fleet.Campaign.sp_cells = fleet_cells } in
  let boards = List.length spec.Fleet.Campaign.sp_boards in
  let plans = List.length spec.Fleet.Campaign.sp_plans in
  Printf.printf "campaign: %d cells over %d boards x %d plans (host: %d cores)\n\n" fleet_cells
    boards plans host_cores;
  Printf.printf "%6s %9s %12s %12s %12s %8s\n" "jobs" "seconds" "boards/sec" "cells/sec"
    "faults/sec" "steals";
  let row jobs (r : Fleet.Campaign.result) secs =
    let faults =
      Array.fold_left
        (fun a -> function Some c -> a + c.Fleet.Campaign.cl_faulted | None -> a)
        0 r.Fleet.Campaign.fl_cells
    in
    let per n = float_of_int n /. secs in
    let boards = per r.Fleet.Campaign.fl_forked and cells = per r.Fleet.Campaign.fl_ran in
    Printf.printf "%6d %9.3f %12.0f %12.0f %12.0f %8d\n" jobs secs boards cells (per faults)
      r.Fleet.Campaign.fl_steals;
    Obs.Json.(
      Obj
        [ ("jobs", Int jobs); ("seconds", fixed 3 secs); ("boards_per_sec", whole boards);
          ("cells_per_sec", whole cells); ("faults_per_sec", whole (per faults));
          ("steals", Int r.Fleet.Campaign.fl_steals) ])
  in
  let fields, _ =
    scaling ~row
      ~run:(fun jobs ->
        Verify.Violation.with_enabled true (fun () -> Fleet.Campaign.run ~jobs spec))
      ~report:(fun r -> r.Fleet.Campaign.fl_report)
  in
  write "fleet"
    (Obs.Json.[ ("cells", Int fleet_cells); ("boards", Int boards); ("plans", Int plans) ] @ fields)

(* ------------------------------------------------------------------ *)

(* The multi-board fabric campaign: N boards interleaved under one virtual
   clock, a power cut at every tick, on the same work-stealing pool. The
   gates CI cares about: reports byte-identical across jobs settings, and
   zero silent cross-board corruption over the whole lattice. *)

let fabric_bench () =
  header "Fabric campaign — 3-board topologies, a power cut at every tick"
    "not in the paper: cross-board fault containment under the campaign pool";
  let cuts = env_int "FABRIC_CUTS" ~min:1 ~default:36 in
  let spec = { Fabric.Campaign.default_spec with Fabric.Campaign.fb_cuts = cuts } in
  let plans = List.length spec.Fabric.Campaign.fb_plans in
  Printf.printf "campaign: %d plans x %d cuts, 3 boards per cell (host: %d cores)\n\n" plans cuts
    host_cores;
  Printf.printf "%6s %9s %12s %12s %10s %8s %6s\n" "jobs" "seconds" "frames/sec"
    "boards/sec" "cuts/sec" "silent" "ok";
  let silent (r : Fabric.Campaign.result) =
    Array.fold_left
      (fun a -> function Some c -> a + c.Fabric.Campaign.fc_silent | None -> a)
      0 r.Fabric.Campaign.fb_cells
  in
  let row jobs ((r : Fabric.Campaign.result), frames) secs =
    let per n = float_of_int n /. secs in
    let ran = r.Fabric.Campaign.fb_ran and ok = r.Fabric.Campaign.fb_ok in
    let s = silent r in
    Printf.printf "%6d %9.3f %12.0f %12.0f %10.0f %8d %6b\n" jobs secs (per frames)
      (per (ran * 3)) (per ran) s ok;
    Obs.Json.(
      Obj
        [ ("jobs", Int jobs); ("seconds", fixed 3 secs); ("frames_per_sec", whole (per frames));
          ("boards_per_sec", whole (per (ran * 3))); ("cut_points_per_sec", whole (per ran));
          ("silent_corruptions", Int s); ("ok", Bool ok) ])
  in
  let fields, first =
    scaling ~row
      ~run:(fun jobs ->
        let frames0 = Obs.Metrics.host_read "fabric/frames_sent" in
        let r = Verify.Violation.with_enabled true (fun () -> Fabric.Campaign.run ~jobs spec) in
        (r, Obs.Metrics.host_read "fabric/frames_sent" - frames0))
      ~report:(fun (r, _) -> r.Fabric.Campaign.fb_report)
  in
  let silent_total = List.fold_left (fun a (r, _) -> a + silent r) 0 first in
  write "fabric"
    (Obs.Json.[ ("plans", Int plans); ("cuts_per_plan", Int cuts); ("boards_interleaved", Int 3) ]
    @ fields
    @ [ ("silent_corruptions", Obs.Json.Int silent_total) ])

(* ------------------------------------------------------------------ *)

(* Coverage-guided vs blind fuzzing at the same exec budget: the curve of
   coverage buckets lit against cumulative execs, and the execs each mode
   needs to reach the guided run's final bucket count. The comparison is
   model-deterministic (same spec -> same curve on any host), so the CI
   gate on it applies on 1-core runners too. The campaign is
   [Fuzzcov.Engine.default_spec]: 24 generations of 16 candidates. *)

let fuzzcov_bench () =
  header "Coverage-guided fuzzing — guided vs blind at the same exec budget"
    "not in the paper: buckets-found-vs-execs of the evolutionary loop over the icache map";
  let spec = Fuzzcov.Engine.default_spec in
  Printf.printf "campaign: %s, %d gens x %d candidates (host: %d cores)\n\n"
    spec.Fuzzcov.Engine.fc_board spec.Fuzzcov.Engine.fc_gens spec.Fuzzcov.Engine.fc_pop
    host_cores;
  let run guided =
    timed (fun () -> Fuzzcov.Engine.run { spec with Fuzzcov.Engine.fc_guided = guided })
  in
  let guided, gsecs = run true in
  let blind, bsecs = run false in
  let target = guided.Fuzzcov.Engine.fz_bits in
  let execs_to (r : Fuzzcov.Engine.result) =
    List.find_map
      (fun (execs, _, bits) -> if bits >= target then Some execs else None)
      r.Fuzzcov.Engine.fz_curve
  in
  Printf.printf "%8s %8s %7s %7s %6s %8s %10s %10s\n" "mode" "execs" "edges" "blocks" "bits"
    "corpus" "secs" "execs/sec";
  let mode name (r : Fuzzcov.Engine.result) secs =
    let rate = float_of_int r.Fuzzcov.Engine.fz_execs /. secs in
    let corpus = List.length r.Fuzzcov.Engine.fz_corpus in
    Printf.printf "%8s %8d %7d %7d %6d %8d %10.3f %10.0f\n" name r.Fuzzcov.Engine.fz_execs
      r.Fuzzcov.Engine.fz_edges r.Fuzzcov.Engine.fz_blocks r.Fuzzcov.Engine.fz_bits corpus secs
      rate;
    let point (execs, edges, bits) =
      Obs.Json.(Obj [ ("execs", Int execs); ("edges", Int edges); ("bits", Int bits) ])
    in
    Obs.Json.(
      Obj
        [ ("execs", Int r.Fuzzcov.Engine.fz_execs); ("edges", Int r.Fuzzcov.Engine.fz_edges);
          ("blocks", Int r.Fuzzcov.Engine.fz_blocks); ("bits", Int r.Fuzzcov.Engine.fz_bits);
          ("corpus", Int corpus); ("crashers", Int (List.length r.Fuzzcov.Engine.fz_crashers));
          ("seconds", fixed 3 secs); ("execs_per_sec", whole rate);
          ("execs_to_target", Option.fold ~none:Null ~some:(fun e -> Int e) (execs_to r));
          ("curve", Arr (List.map point r.Fuzzcov.Engine.fz_curve)) ])
  in
  let guided_mode = mode "guided" guided gsecs in
  let blind_mode = mode "blind" blind bsecs in
  let show r = Option.fold ~none:"never" ~some:(Printf.sprintf "%d execs") (execs_to r) in
  Printf.printf "\nexecs to reach the guided run's %d buckets: guided %s, blind %s\n" target
    (show guided) (show blind);
  let guided_wins =
    match (execs_to guided, execs_to blind) with
    | Some g, Some b -> g < b
    | Some _, None -> true
    | None, _ -> false
  in
  write "fuzzcov"
    Obs.Json.
      [ ("board", Str spec.Fuzzcov.Engine.fc_board); ("pop", Int spec.Fuzzcov.Engine.fc_pop);
        ("gens", Int spec.Fuzzcov.Engine.fc_gens); ("host_cores", Int host_cores);
        ("target_bits", Int target); ("guided_wins", Bool guided_wins); ("guided", guided_mode);
        ("blind", blind_mode) ]

(* --------------------------------------------------------------------- *)
(* Time-travel replay: record overhead vs a plain run, and backward-step  *)
(* latency as a function of the interval-snapshot spacing K. A backward   *)
(* step restores the nearest checkpoint at or below the target (the      *)
(* K-spaced ladder or the log-spaced trail behind the current tick) and   *)
(* re-executes — at most K-1 ticks — while recording itself only adds a   *)
(* fingerprint at every K-th boundary.                                    *)
(* --------------------------------------------------------------------- *)

let replay_bench () =
  print_endline "\n=== replay: record overhead and backward-step latency ===";
  let board = "ticktock-arm" in
  let sched = Replay.Schedule.fleet_cell ~seed:1 ~fuzzers:16 ~steps:20000 in
  Verify.Violation.with_enabled true (fun () ->
      (* the plain run: same cell, nothing recorded *)
      let (), t_plain =
        timed (fun () ->
            Cycles.set Cycles.global 0;
            let k = Capsules.Std_board.make ~what:"Bench" board in
            Replay.Schedule.apply k sched;
            let s = Ticktock.Replayable.of_instance ~name:board k in
            let rec go () =
              let now = s.Ticktock.Replayable.rp_tick () in
              if s.Ticktock.Replayable.rp_crash () = None then begin
                s.Ticktock.Replayable.rp_step ~ticks:1;
                if s.Ticktock.Replayable.rp_tick () > now then go ()
              end
            in
            go ())
      in
      let b, t_record =
        timed (fun () ->
            let lv = Replay.Record.board_live ~what:"Bench" ~board ~horizon:max_int sched in
            Replay.Record.record ~interval:8 lv)
      in
      let horizon = b.Replay.Bundle.bu_header.Replay.Bundle.hd_horizon in
      let reproduced = Replay.Record.reproduces b in
      Printf.printf "cell: %d ticks  plain %.1f ms  record %.1f ms  (x%.2f)\n" horizon
        (t_plain *. 1e3) (t_record *. 1e3) (t_record /. t_plain);
      (* backward-step latency per interval: goto the horizon, then step
         backward one tick at a time over the middle of the recording *)
      let back_steps = 20 in
      let sweep =
        List.map
          (fun interval ->
            let nav = Replay.Record.navigator ~interval b in
            Replay.Navigator.goto nav horizon;
            let (), t =
              timed (fun () ->
                  for _ = 1 to back_steps do
                    Replay.Navigator.back nav 1
                  done)
            in
            let us = 1e6 *. t /. float_of_int back_steps in
            Printf.printf "  interval %3d: back-step %7.1f us\n" interval us;
            Obs.Json.(Obj [ ("interval", Int interval); ("back_step_us", fixed 2 us) ]))
          [ 4; 16; 64 ]
      in
      (* identity: horizon, back 10 == fresh forward to horizon - 10 *)
      let nav = Replay.Record.navigator ~interval:16 b in
      Replay.Navigator.goto nav horizon;
      Replay.Navigator.back nav 10;
      let nav2 = Replay.Record.navigator ~interval:16 b in
      Replay.Navigator.goto nav2 (horizon - 10);
      let back_identical =
        Replay.Navigator.fingerprint nav = Replay.Navigator.fingerprint nav2
      in
      Printf.printf "reproduced %b  back-identical %b\n" reproduced back_identical;
      write "replay"
        Obs.Json.
          [ ("board", Str board); ("ticks", Int horizon); ("plain_ms", fixed 3 (t_plain *. 1e3));
            ("record_ms", fixed 3 (t_record *. 1e3));
            ("record_overhead", fixed 3 (t_record /. t_plain)); ("reproduced", Bool reproduced);
            ("back_identical", Bool back_identical); ("back_step_sweep", Arr sweep) ])

let experiments =
  [
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig11arch", fig11_arch);
    ("fig12", fun () -> fig12 ());
    ("mem", mem);
    ("difftest", difftest);
    ("bugs", bugs);
    ("ablation", ablation);
    ("fuzz", fuzz);
    ("latency", latency);
    ("bus", bus);
    ("icache", icache_bench);
    ("obs", obs_bench);
    ("chaos", chaos_bench);
    ("snapshot", snapshot_bench);
    ("fleet", fleet_bench);
    ("fabric", fabric_bench);
    ("fuzzcov", fuzzcov_bench);
    ("replay", replay_bench);
    ("bechamel", bechamel_run);
  ]

let usage () =
  Printf.printf "usage: main.exe [%s|all]\n" (String.concat "|" (List.map fst experiments))

let () =
  (* The determinism CI runs the same experiments under TICKTOCK_OBS unset /
     "1" / "disabled" and diffs the outputs byte-for-byte. *)
  (match Sys.getenv_opt "TICKTOCK_OBS" with
  | Some s -> Obs.Config.set_auto (Obs.Config.of_string s)
  | None -> ());
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "all" ] -> List.iter (fun (_, f) -> f ()) experiments
  | names when List.for_all (fun n -> List.mem_assoc n experiments) names ->
    List.iter (fun n -> List.assoc n experiments ()) names
  | _ ->
    usage ();
    exit 1
