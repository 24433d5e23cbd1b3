(* The board snapshot/fork subsystem. The load-bearing properties:

   - roundtrip: run N slices, capture, run M more, restore, rerun M — the
     rerun must be byte-identical (whole-board fingerprint, console, trace,
     model metrics) on every architecture, including mid-run captures with
     live processes;
   - fork isolation: two forks of one pristine snapshot share no writes;
   - restore hazards: a memory restore must invalidate every cached view of
     the old bytes — decoded instruction blocks (icache) and MPU access
     decisions (the bus micro-TLB) — so no stale state survives;
   - the on-disk format: pristine-only save, verified load, and refusal on
     board/arch mismatch. *)

open Ticktock
module C = Fluxarm.Cpu
module R = Fluxarm.Regs
module T = Fluxarm.Thumb

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_fp what a b = check_string what (Fp.to_hex a) (Fp.to_hex b)

(* --- the per-architecture roundtrip rig ---

   Mid-run capture needs the kernel-module API: processes restored in
   place are rebuilt from their [program_factory] by replaying the
   fed-input log, and [Instance.load] does not take a factory. Each rig
   builds its board through the board's {!Boards.Board} module, so its
   snapshot target is the one every harness gets, and exposes the uniform
   face the roundtrip procedure needs over that board's kernel module. *)

type rig = {
  rg_tgt : Snapshot.target;
  rg_load : string -> (unit -> int Apps.App_dsl.t) -> unit;
  rg_run : int -> unit;
  rg_console : unit -> string;
  rg_metrics : unit -> string;
  rg_trace : unit -> string;
}

let model_metrics (inst : Instance.t) =
  Obs.Metrics.to_text (Obs.Metrics.model_only (inst.Instance.metrics ()))

module Rig (MM : Mm.S) (B : module type of Boards.Board (MM)) = struct
  let make ~board machine () =
    let r = Obs.Recorder.create () in
    let md = machine () in
    let k = B.build md ~obs:r () in
    let inst = B.erase ~board md k in
    {
      rg_tgt = Option.get inst.Instance.snap_target;
      rg_load =
        (fun name script ->
          match
            B.K.create_process k ~name ~payload:name
              ~program:(Apps.App_dsl.to_program (script ()))
              ~min_ram:2048 ~grant_reserve:1024 ~heap_headroom:2048
              ~program_factory:(fun () -> Apps.App_dsl.to_program (script ()))
              ()
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: load %s: %a" board name Kerror.pp e);
      rg_run = (fun n -> B.K.run k ~max_ticks:n);
      rg_console = (fun () -> B.K.console_output k);
      rg_metrics = (fun () -> model_metrics inst);
      rg_trace = (fun () -> Obs.Recorder.to_string r);
    }
end

module Rig_arm = Rig (Boards.Ticktock_arm_mm) (Boards.Ticktock_arm_b)
module Rig_arm_v8 = Rig (Boards.Ticktock_arm_v8_mm) (Boards.Ticktock_arm_v8_b)
module Rig_e310 = Rig (Boards.Ticktock_e310_mm) (Boards.Ticktock_e310_b)

let rig_ticktock_arm = Rig_arm.make ~board:"ticktock-arm" Boards.arm_plain
let rig_ticktock_arm_v8 = Rig_arm_v8.make ~board:"ticktock-arm-v8" Boards.arm_v8
let rig_ticktock_e310 = Rig_e310.make ~board:"ticktock-e310" Boards.e310

let witness_script () =
  let open Apps.App_dsl in
  let* () = print "w:" in
  let* () =
    repeat 25 (fun () ->
        let* _ = yield in
        print ".")
  in
  return 0

(* Run N slices, capture mid-run (live processes), run M more, restore,
   rerun the same M — every observable must be byte-identical. *)
let roundtrip rig =
  Verify.Violation.with_enabled true (fun () ->
      rig.rg_load "witness" witness_script;
      rig.rg_load "fuzz" (fun () -> Apps.Fuzz.random_script ~seed:7 ~steps:400);
      rig.rg_run 2;
      let fp0 = Snapshot.fingerprint rig.rg_tgt in
      let snap = Snapshot.capture rig.rg_tgt in
      check_fp "capture leaves the board as it was" fp0 (Snapshot.fingerprint rig.rg_tgt);
      rig.rg_run 40;
      let fp1 = Snapshot.fingerprint rig.rg_tgt in
      let con1 = rig.rg_console () in
      let met1 = rig.rg_metrics () in
      let tr1 = rig.rg_trace () in
      check_bool "the extra slices changed the board" true (fp1 <> fp0);
      Snapshot.restore rig.rg_tgt snap;
      check_fp "restore returns to the capture point" fp0 (Snapshot.fingerprint rig.rg_tgt);
      rig.rg_run 40;
      check_fp "rerun: whole-board fingerprint" fp1 (Snapshot.fingerprint rig.rg_tgt);
      check_string "rerun: console" con1 (rig.rg_console ());
      check_string "rerun: model metrics" met1 (rig.rg_metrics ());
      check_string "rerun: trace" tr1 (rig.rg_trace ()))

let test_roundtrip_arm () = roundtrip (rig_ticktock_arm ())
let test_roundtrip_arm_v8 () = roundtrip (rig_ticktock_arm_v8 ())
let test_roundtrip_e310 () = roundtrip (rig_ticktock_e310 ())

(* --- fork isolation: two forks of one pristine snapshot share nothing --- *)

let print_app text =
  let open Apps.App_dsl in
  let* () = print text in
  return 0

let fork_round (k : Instance.t) text =
  let pid =
    match
      k.Instance.load ~name:"forked" ~payload:"forked"
        ~program:(Apps.App_dsl.to_program (print_app text))
        ~min_ram:2048 ~grant_reserve:1024 ~heap_headroom:1024
    with
    | Ok pid -> pid
    | Error e -> Alcotest.failf "fork load: %a" Kerror.pp e
  in
  k.Instance.run ~max_ticks:50;
  (pid, Option.value ~default:"" (k.Instance.proc_output pid))

let test_fork_isolation () =
  let k = Boards.instance_ticktock_arm () in
  let tgt = Option.get k.Instance.snap_target in
  let fp0 = Snapshot.fingerprint tgt in
  let snap = Snapshot.capture tgt in
  let pid_a, out_a = fork_round k "fork-a-was-here" in
  check_bool "fork A dirtied the board" true (Snapshot.fingerprint tgt <> fp0);
  Snapshot.restore tgt snap;
  check_fp "restore is pristine again" fp0 (Snapshot.fingerprint tgt);
  let pid_b, out_b = fork_round k "fork-b-instead" in
  check_int "forks allocate the same pid" pid_a pid_b;
  check_string "fork A saw only its own write" "fork-a-was-here" out_a;
  check_string "fork B saw only its own write" "fork-b-instead" out_b

(* --- restore hazards ---

   A memory restore rewrites bytes behind every cache's back; the
   [code_generation] bump and decision-cache flush are what keep the
   decoded-block cache and the bus micro-TLB from serving stale state. *)

let run_from cpu addr =
  C.set_special_raw cpu R.Pc addr;
  Fluxarm.Mc.run cpu

let patch_movw mem imm =
  match T.encode (T.Movw (R.R0, imm)) with
  | [ h1; h2 ] -> Memory.write32 mem 0x1000 (h1 lor (h2 lsl 16))
  | _ -> Alcotest.fail "movw should be 32-bit"

let test_restore_invalidates_decodes () =
  let mem = Memory.create () in
  let cpu = C.create mem in
  ignore (T.assemble mem 0x1000 [ T.Movw (R.R0, 5); T.Svc 0 ]);
  check_bool "v1 runs" true (run_from cpu 0x1000 = Fluxarm.Mc.Svc_taken 0);
  check_int "v1 result" 5 (C.get cpu R.R0);
  let snap = Memory.capture mem in
  let gen0 = Memory.code_generation mem in
  patch_movw mem 7;
  check_bool "v2 runs" true (run_from cpu 0x1000 = Fluxarm.Mc.Svc_taken 0);
  check_int "v2 decoded and cached" 7 (C.get cpu R.R0);
  Memory.restore mem snap;
  check_bool "restore bumps the code generation" true (Memory.code_generation mem > gen0);
  (* the bytes are v1 again; a stale cached v2 block must not run *)
  check_bool "restored code runs" true (run_from cpu 0x1000 = Fluxarm.Mc.Svc_taken 0);
  check_int "restore forced a re-decode" 5 (C.get cpu R.R0)

(* Trace links are the third cached view of restored bytes: capture
   mid-hot-loop with a live A -> B superblock link, patch B, run (the
   patch severs and re-decodes), then restore — the next trace must
   re-decode B's restored bytes, never follow a link into the stale
   block. Two post-restore runs must also replay identically (the fork
   admissibility condition, with superblocks explicitly on). *)
let test_restore_severs_trace_links () =
  let mem = Memory.create () in
  let cpu = C.create mem in
  let ic = C.icache cpu in
  (* A: [movw r0; cmp lr,r5; beq +0] falls into B: [movw r1; svc 0] *)
  ignore
    (T.assemble mem 0x1000
       [ T.Movw (R.R0, 1); T.Cmp_lr R.R5; T.B_cond (`Eq, 0); T.Movw (R.R1, 2); T.Svc 0 ]);
  C.set_special_raw cpu R.Lr 1 (* Z clear: beq falls through *);
  (* build, install the A -> B link, then follow it *)
  for _ = 1 to 3 do
    check_bool "hot loop runs" true (run_from cpu 0x1000 = Fluxarm.Mc.Svc_taken 0)
  done;
  check_bool "links are live at capture" true
    ((Fluxarm.Icache.stats ic).Fluxarm.Icache.link_hits > 0);
  let snap = Memory.capture mem in
  let patch_b imm =
    match T.encode (T.Movw (R.R1, imm)) with
    | [ h1; h2 ] -> Memory.write32 mem 0x1008 (h1 lor (h2 lsl 16))
    | _ -> Alcotest.fail "movw should be 32-bit"
  in
  patch_b 9;
  check_bool "patched loop runs" true (run_from cpu 0x1000 = Fluxarm.Mc.Svc_taken 0);
  check_int "patched B executed" 9 (C.get cpu R.R1);
  Memory.restore mem snap;
  let c0 = Cycles.read Cycles.global in
  check_bool "restored loop runs" true (run_from cpu 0x1000 = Fluxarm.Mc.Svc_taken 0);
  let cyc_a = Cycles.read Cycles.global - c0 in
  check_int "no stale link survived the restore" 2 (C.get cpu R.R1);
  (* a second fork off the same snapshot replays identically *)
  Memory.restore mem snap;
  let c1 = Cycles.read Cycles.global in
  check_bool "second fork runs" true (run_from cpu 0x1000 = Fluxarm.Mc.Svc_taken 0);
  check_int "fork replay is cycle-identical" cyc_a (Cycles.read Cycles.global - c1);
  check_int "fork replay result identical" 2 (C.get cpu R.R1)

let test_restore_flushes_decision_cache () =
  let m = Machine.create_arm () in
  let mem = m.Machine.arm_mem and mpu = m.Machine.arm_mpu in
  let base = 0x2000_0000 in
  Mpu_hw.Armv7m_mpu.write_region mpu ~index:0
    ~rbar:(Mpu_hw.Armv7m_mpu.encode_rbar ~addr:base ~region:0)
    ~rasr:
      (Mpu_hw.Armv7m_mpu.encode_rasr ~enable:true ~size:4096 ~srd:0
         ~perms:Perms.Read_write_execute);
  Mpu_hw.Armv7m_mpu.set_enabled mpu true;
  C.set_special_raw m.Machine.arm_cpu R.Control 1;
  Memory.set_checker mem
    (Some
       (Mpu_hw.Armv7m_mpu.checker mpu ~cpu_privileged:(fun () ->
            C.privileged m.Machine.arm_cpu)));
  ignore (Memory.load32 mem base);
  let snap = Memory.capture mem in
  Memory.reset_cache_stats mem;
  ignore (Memory.load32 mem base);
  ignore (Memory.load32 mem base);
  let hits, _ = Memory.cache_stats mem in
  check_bool "warm loads hit the decision cache" true (hits >= 1);
  Memory.restore mem snap;
  Memory.reset_cache_stats mem;
  ignore (Memory.load32 mem base);
  let hits', misses' = Memory.cache_stats mem in
  check_int "no stale decision survives the restore" 0 hits';
  check_bool "the first post-restore access re-asks the MPU" true (misses' >= 1)

(* --- the on-disk format --- *)

let with_temp_snapshot f =
  let path = Filename.temp_file "ticksnap" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_file_roundtrip () =
  with_temp_snapshot (fun path ->
      let k = Boards.instance_ticktock_arm () in
      let tgt = Option.get k.Instance.snap_target in
      let fp0 = Memory.fingerprint tgt.Snapshot.tg_mem in
      Snapshot.save tgt path;
      let header, _pages = Snapshot.describe path in
      check_int "version" 1 header.Snapshot.hd_version;
      check_string "arch" "armv7m" header.Snapshot.hd_arch;
      check_string "board" "ticktock-arm" header.Snapshot.hd_board;
      check_fp "header memory fingerprint" fp0 header.Snapshot.hd_mem_fp;
      (* load onto a freshly-booted identical board *)
      let k' = Boards.instance_ticktock_arm () in
      let tgt' = Option.get k'.Instance.snap_target in
      Snapshot.load tgt' path;
      check_fp "restored memory fingerprint" fp0 (Memory.fingerprint tgt'.Snapshot.tg_mem);
      (* ... and the loaded board still runs the suite normally *)
      let _pid, out = fork_round k' "alive-after-load" in
      check_string "board is functional after load" "alive-after-load" out)

let test_file_refusals () =
  with_temp_snapshot (fun path ->
      let k = Boards.instance_ticktock_arm () in
      let tgt = Option.get k.Instance.snap_target in
      Snapshot.save tgt path;
      (* wrong board entirely *)
      let rv = Boards.instance_ticktock_e310 () in
      let rv_tgt = Option.get rv.Instance.snap_target in
      (match Snapshot.load rv_tgt path with
      | exception Invalid_argument msg ->
        check_bool "mismatch names both sides" true
          (String.length msg > 0 && String.index_opt msg 'a' <> None)
      | () -> Alcotest.fail "expected load to refuse an armv7m snapshot on rv32-pmp");
      (* non-pristine boards must refuse to save *)
      let _pid, _out = fork_round k "dirty" in
      match Snapshot.save tgt path with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "expected save to refuse a board with live processes")

(* Prefix lengths to cut a saved file at: 4 bytes, the magic alone,
   mid-header, mid-pages, and every 64th byte. The layout is the magic,
   then the marshalled header, then the marshalled pages. *)
let truncations ~magic contents =
  let m = String.length magic in
  let b = Bytes.unsafe_of_string contents in
  let header = Marshal.total_size b m in
  let pages = Marshal.total_size b (m + header) in
  [ 4; m; m + (header / 2); m + header + (pages / 2) ]
  @ List.init (String.length contents / 64) (fun i -> i * 64)
  |> List.sort_uniq compare

let test_file_truncated () =
  with_temp_snapshot (fun path ->
      let k = Boards.instance_ticktock_arm () in
      Snapshot.save (Option.get k.Instance.snap_target) path;
      let whole = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun len ->
          Out_channel.with_open_bin path (fun oc -> output_string oc (String.sub whole 0 len));
          match Snapshot.describe path with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "a %d-byte prefix of the snapshot file was accepted" len)
        (truncations ~magic:Snapshot.magic whole))

let suite =
  [
    Alcotest.test_case "roundtrip: ticktock-arm (v7)" `Quick test_roundtrip_arm;
    Alcotest.test_case "roundtrip: ticktock-arm-v8" `Quick test_roundtrip_arm_v8;
    Alcotest.test_case "roundtrip: ticktock-e310 (pmp)" `Quick test_roundtrip_e310;
    Alcotest.test_case "fork isolation" `Quick test_fork_isolation;
    Alcotest.test_case "restore invalidates cached decodes" `Quick
      test_restore_invalidates_decodes;
    Alcotest.test_case "restore severs trace links" `Quick test_restore_severs_trace_links;
    Alcotest.test_case "restore flushes the decision cache" `Quick
      test_restore_flushes_decision_cache;
    Alcotest.test_case "snapshot file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "snapshot file refusals" `Quick test_file_refusals;
    Alcotest.test_case "truncated snapshot files refused" `Quick test_file_truncated;
  ]
