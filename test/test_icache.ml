(* The Mc decode/block cache. As with the bus micro-TLB, the load-bearing
   property is *invalidation*: a cached decode must die the instant the
   underlying bytes change (stores, loader reloads), and a cached block's
   execute stamp must die the instant the MPU or privilege changes —
   otherwise the cache would execute stale or forbidden code. The lockstep
   rounds then check the cache is semantically invisible wholesale:
   registers, stop reason and model cycles identical to the uncached
   engine (the reference) on randomized programs, including
   self-modifying ones, at every fuel value. *)

open Ticktock
module C = Fluxarm.Cpu
module R = Fluxarm.Regs
module T = Fluxarm.Thumb
module I = Fluxarm.Icache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let bare () =
  let mem = Memory.create () in
  (mem, C.create mem)

let run_from cpu addr =
  C.set_special_raw cpu R.Pc addr;
  Fluxarm.Mc.run cpu

(* --- stores into a cached block force a re-decode --- *)

let test_store_invalidates () =
  let mem, cpu = bare () in
  ignore (T.assemble mem 0x1000 [ T.Movw (R.R0, 5); T.Svc 0 ]);
  check_bool "first run" true (run_from cpu 0x1000 = Fluxarm.Mc.Svc_taken 0);
  check_int "cold result" 5 (C.get cpu R.R0);
  check_bool "warm run" true (run_from cpu 0x1000 = Fluxarm.Mc.Svc_taken 0);
  check_int "warm result" 5 (C.get cpu R.R0);
  (* overwrite the movw in place through the raw word path (what the
     loader and RAM zeroing use) *)
  (match T.encode (T.Movw (R.R0, 7)) with
  | [ h1; h2 ] -> Memory.write32 mem 0x1000 (h1 lor (h2 lsl 16))
  | _ -> Alcotest.fail "movw should be 32-bit");
  check_bool "run after write32" true (run_from cpu 0x1000 = Fluxarm.Mc.Svc_taken 0);
  check_int "write32 re-decoded" 7 (C.get cpu R.R0);
  (* and through the checked store path (what emulated stores use) *)
  (match T.encode (T.Movw (R.R0, 9)) with
  | [ h1; h2 ] -> Memory.store32 mem 0x1000 (h1 lor (h2 lsl 16))
  | _ -> Alcotest.fail "movw should be 32-bit");
  check_bool "run after store32" true (run_from cpu 0x1000 = Fluxarm.Mc.Svc_taken 0);
  check_int "store32 re-decoded" 9 (C.get cpu R.R0)

(* --- a loader reload of the same flash invalidates cached decodes --- *)

let payload_of imm =
  let hws = List.concat_map T.encode [ T.Movw (R.R0, imm); T.Svc 0 ] in
  let b = Buffer.create 8 in
  List.iter
    (fun h ->
      Buffer.add_char b (Char.chr (h land 0xff));
      Buffer.add_char b (Char.chr ((h lsr 8) land 0xff)))
    hws;
  Buffer.contents b

let test_loader_reload_invalidates () =
  let mem, cpu = bare () in
  let cursor = Range.start Layout.app_flash in
  let place imm =
    let img = { Loader.app_name = "icache"; min_ram = 1024; payload = payload_of imm } in
    match Loader.place mem ~cursor img with
    | Ok (placed, _) -> placed.Loader.entry
    | Error _ -> Alcotest.fail "placement failed"
  in
  let entry = place 1 in
  check_bool "first image runs" true (run_from cpu entry = Fluxarm.Mc.Svc_taken 0);
  check_int "first image result" 1 (C.get cpu R.R0);
  check_bool "warm" true (run_from cpu entry = Fluxarm.Mc.Svc_taken 0);
  (* reload: same name and sizes, so the image lands at the same entry *)
  let entry' = place 2 in
  check_int "same placement" entry entry';
  check_bool "reloaded image runs" true (run_from cpu entry = Fluxarm.Mc.Svc_taken 0);
  check_int "blit_string invalidated the block" 2 (C.get cpu R.R0)

(* --- MPU reprogramming revoking execute faults the next dispatch --- *)

let grant_v7 mpu ~index ~base ~size perms =
  Mpu_hw.Armv7m_mpu.write_region mpu ~index
    ~rbar:(Mpu_hw.Armv7m_mpu.encode_rbar ~addr:base ~region:index)
    ~rasr:(Mpu_hw.Armv7m_mpu.encode_rasr ~enable:true ~size ~srd:0 ~perms)

let test_mpu_revoke_faults_next_dispatch () =
  let m = Machine.create_arm () in
  let mem = m.Machine.arm_mem and mpu = m.Machine.arm_mpu in
  let cpu = m.Machine.arm_cpu in
  C.set_special_raw cpu R.Control 1 (* unprivileged thread: MPU gates fetches *);
  let base = 0x2000_0000 in
  grant_v7 mpu ~index:0 ~base ~size:4096 Perms.Read_write_execute;
  Mpu_hw.Armv7m_mpu.set_enabled mpu true;
  ignore (T.assemble mem base [ T.Movw (R.R0, 3); T.Svc 9 ]);
  check_bool "runs while executable" true (run_from cpu base = Fluxarm.Mc.Svc_taken 9);
  check_bool "warm dispatch" true (run_from cpu base = Fluxarm.Mc.Svc_taken 9);
  (* revoke execute: the decoded block survives, its stamp must not *)
  grant_v7 mpu ~index:0 ~base ~size:4096 Perms.Read_write_only;
  (match run_from cpu base with
  | exception Memory.Access_fault f ->
    check_bool "execute fault" true (f.Memory.fault_access = Perms.Execute);
    check_int "at the block start" base f.Memory.fault_addr
  | _ -> Alcotest.fail "expected an execute fault on the next dispatch");
  (* re-grant: dispatch works again without re-decoding being observable *)
  grant_v7 mpu ~index:0 ~base ~size:4096 Perms.Read_write_execute;
  check_bool "re-granted" true (run_from cpu base = Fluxarm.Mc.Svc_taken 9)

(* --- blocks never cross a decision-granule boundary --- *)

let test_block_splits_at_granule () =
  let m = Machine.create_arm () in
  let mem = m.Machine.arm_mem and mpu = m.Machine.arm_mpu in
  let cpu = m.Machine.arm_cpu in
  C.set_special_raw cpu R.Control 1;
  let base = 0x2000_0000 in
  (* three adjacent 32-byte RWX regions: the decision granule is 32 bytes,
     far smaller than the straight-line run below *)
  grant_v7 mpu ~index:0 ~base ~size:32 Perms.Read_write_execute;
  grant_v7 mpu ~index:1 ~base:(base + 32) ~size:32 Perms.Read_write_execute;
  grant_v7 mpu ~index:2 ~base:(base + 64) ~size:32 Perms.Read_write_execute;
  Mpu_hw.Armv7m_mpu.set_enabled mpu true;
  let prog = List.init 20 (fun i -> T.Movw (R.R0, i + 1)) @ [ T.Svc 4 ] in
  ignore (T.assemble mem base prog) (* 20 * 4 + 2 = 82 bytes, crosses twice *);
  check_bool "cold run" true (run_from cpu base = Fluxarm.Mc.Svc_taken 4);
  check_int "cold result" 20 (C.get cpu R.R0);
  C.set cpu R.R0 0;
  let c0 = Cycles.read Cycles.global in
  check_bool "warm run" true (run_from cpu base = Fluxarm.Mc.Svc_taken 4);
  let warm_cycles = Cycles.read Cycles.global - c0 in
  check_int "warm result" 20 (C.get cpu R.R0);
  (* the published block at [base] stops at the first granule edge *)
  let ic = C.icache cpu in
  (match I.find_block ic ~gen:(Memory.code_generation mem) base with
  | None -> Alcotest.fail "expected a cached block at base"
  | Some b ->
    check_bool "block fits its granule" true
      (base lsr 5 = (base + b.I.byte_len - 1) lsr 5));
  (* same program, uncached engine: identical cycles *)
  let m2 = Machine.create_arm () in
  let mem2 = m2.Machine.arm_mem and mpu2 = m2.Machine.arm_mpu in
  let cpu2 = m2.Machine.arm_cpu in
  C.set_special_raw cpu2 R.Control 1;
  grant_v7 mpu2 ~index:0 ~base ~size:32 Perms.Read_write_execute;
  grant_v7 mpu2 ~index:1 ~base:(base + 32) ~size:32 Perms.Read_write_execute;
  grant_v7 mpu2 ~index:2 ~base:(base + 64) ~size:32 Perms.Read_write_execute;
  Mpu_hw.Armv7m_mpu.set_enabled mpu2 true;
  ignore (T.assemble mem2 base prog);
  I.set_enabled (C.icache cpu2) false;
  let c1 = Cycles.read Cycles.global in
  check_bool "uncached run" true (run_from cpu2 base = Fluxarm.Mc.Svc_taken 4);
  check_int "split blocks charge identical cycles" warm_cycles
    (Cycles.read Cycles.global - c1)

(* --- superblock trace links --- *)

(* Two linkable blocks: A ([movw r0; cmp lr,r5; beq +0] — Z clear, so the
   branch falls through) and its fall-through successor B
   ([movw r1; svc 0]). *)
let pair_prog imm_b =
  [ T.Movw (R.R0, 1); T.Cmp_lr R.R5; T.B_cond (`Eq, 0); T.Movw (R.R1, imm_b); T.Svc 0 ]

let pair_b_addr base prog =
  let rec skip addr = function
    | [] | [ _; _ ] -> addr
    | i :: rest -> skip (addr + T.size_bytes i) rest
  in
  skip base prog

let warm_pair cpu mem base =
  ignore (T.assemble mem base (pair_prog 2));
  C.set_special_raw cpu R.Lr 1 (* lr=1, r5=0: Z stays clear *);
  check_bool "cold run" true (run_from cpu base = Fluxarm.Mc.Svc_taken 0);
  (* first warm run installs the A -> B link, the second follows it *)
  check_bool "warm run" true (run_from cpu base = Fluxarm.Mc.Svc_taken 0);
  check_bool "linked run" true (run_from cpu base = Fluxarm.Mc.Svc_taken 0);
  check_int "warm result" 2 (C.get cpu R.R1)

(* a store into a linked successor must sever the chain: the next trace
   through A must execute B's new bytes, not the linked stale block *)
let test_store_severs_link () =
  let mem, cpu = bare () in
  let ic = C.icache cpu in
  let base = 0x1000 in
  warm_pair cpu mem base;
  let b_addr = pair_b_addr base (pair_prog 2) in
  (match I.find_block ic ~gen:(Memory.code_generation mem) base with
  | None -> Alcotest.fail "expected a cached block at A"
  | Some a -> (
    match a.I.link_next with
    | Some b -> check_int "A linked its fall-through successor" b_addr b.I.start
    | None -> Alcotest.fail "warm trace should have linked A -> B"));
  check_bool "links were followed" true ((I.stats ic).I.link_hits > 0);
  (* overwrite B's movw through the checked store path *)
  (match T.encode (T.Movw (R.R1, 9)) with
  | [ h1; h2 ] -> Memory.store32 mem b_addr (h1 lor (h2 lsl 16))
  | _ -> Alcotest.fail "movw should be 32-bit");
  check_bool "run after store" true (run_from cpu base = Fluxarm.Mc.Svc_taken 0);
  check_int "store severed the chain" 9 (C.get cpu R.R1)

(* Icache.reset must sever links on the old block records too, not just
   empty the tables — anything still holding a block must not be able to
   chain out of it into a dropped cache *)
let test_reset_severs_links () =
  let mem, cpu = bare () in
  let ic = C.icache cpu in
  let base = 0x1000 in
  warm_pair cpu mem base;
  let gen = Memory.code_generation mem in
  let a =
    match I.find_block ic ~gen base with
    | Some a -> a
    | None -> Alcotest.fail "expected a cached block at A"
  in
  (match a.I.link_next with
  | Some _ -> ()
  | None -> Alcotest.fail "warm trace should have linked A -> B");
  I.reset ic;
  (match a.I.link_next with
  | None -> ()
  | Some _ -> Alcotest.fail "reset left a live trace link");
  (match I.find_block ic ~gen base with
  | None -> ()
  | Some _ -> Alcotest.fail "reset left a cached block");
  check_int "reset zeroed link stats" 0 (I.stats ic).I.link_hits;
  check_bool "still runs after reset" true (run_from cpu base = Fluxarm.Mc.Svc_taken 0);
  check_int "rebuilt result" 2 (C.get cpu R.R1)

(* MPU reprogramming mid-loop: revoking execute on a *linked successor*
   must fault at the successor's first instruction — the stale link (built
   under the old MPU generation) must not be followed. *)
let test_mpu_revoke_linked_successor () =
  let m = Machine.create_arm () in
  let mem = m.Machine.arm_mem and mpu = m.Machine.arm_mpu in
  let cpu = m.Machine.arm_cpu in
  let ic = C.icache cpu in
  C.set_special_raw cpu R.Control 1;
  let base = 0x2000_0000 in
  (* two 32-byte granules: straight-line code splits into block A (first
     granule) falling into block B (second granule) *)
  grant_v7 mpu ~index:0 ~base ~size:32 Perms.Read_write_execute;
  grant_v7 mpu ~index:1 ~base:(base + 32) ~size:32 Perms.Read_write_execute;
  Mpu_hw.Armv7m_mpu.set_enabled mpu true;
  let prog = List.init 10 (fun i -> T.Movw (R.R0, i + 1)) @ [ T.Svc 7 ] in
  ignore (T.assemble mem base prog);
  check_bool "cold run" true (run_from cpu base = Fluxarm.Mc.Svc_taken 7);
  check_bool "warm run (installs the link)" true (run_from cpu base = Fluxarm.Mc.Svc_taken 7);
  let s0 = I.stats ic in
  check_bool "linked run" true (run_from cpu base = Fluxarm.Mc.Svc_taken 7);
  check_bool "warm trace followed the A->B link" true
    ((I.stats ic).I.link_hits > s0.I.link_hits);
  (* revoke execute on B's granule only: A still dispatches, the link to B
     must be flushed and the re-install must fault at B *)
  grant_v7 mpu ~index:1 ~base:(base + 32) ~size:32 Perms.Read_write_only;
  let s1 = I.stats ic in
  (match run_from cpu base with
  | exception Memory.Access_fault f ->
    check_bool "execute fault" true (f.Memory.fault_access = Perms.Execute);
    check_int "at the linked successor" (base + 32) f.Memory.fault_addr
  | _ -> Alcotest.fail "expected an execute fault at the linked successor");
  check_bool "stale link was flushed, not followed" true
    ((I.stats ic).I.link_flushes > s1.I.link_flushes);
  (* re-grant: the trace relinks and completes again *)
  grant_v7 mpu ~index:1 ~base:(base + 32) ~size:32 Perms.Read_write_execute;
  check_bool "re-granted" true (run_from cpu base = Fluxarm.Mc.Svc_taken 7);
  check_int "re-linked result" 10 (C.get cpu R.R0)

(* privilege can flip only at isb (the CONTROL commit point), so blocks
   ending in isb terminate the trace and must never link — and the flip
   must behave identically on the cached and the uncached engine *)
let test_privilege_flip_ends_trace () =
  let go cached =
    let mem, cpu = bare () in
    let ic = C.icache cpu in
    I.set_enabled ic cached;
    let base = 0x1000 in
    ignore
      (T.assemble mem base
         [
           T.Movw (R.R2, 1);
           T.Msr (R.Control, R.R1) (* r1=1: drop to unprivileged *);
           T.Isb;
           T.Movw (R.R3, 2);
           T.Svc 5;
         ]);
    C.set cpu R.R1 1;
    let c0 = Cycles.read Cycles.global in
    check_bool "cold run" true (run_from cpu base = Fluxarm.Mc.Svc_taken 5);
    check_bool "flip committed" true (not (C.privileged cpu));
    C.set_special_raw cpu R.Control 0 (* re-privilege for the warm run *);
    C.isb cpu;
    check_bool "warm run" true (run_from cpu base = Fluxarm.Mc.Svc_taken 5);
    let cycles = Cycles.read Cycles.global - c0 in
    if cached then begin
      match I.find_block ic ~gen:(Memory.code_generation mem) base with
      | None -> Alcotest.fail "expected a cached block at the isb block"
      | Some b ->
        check_bool "isb block is a trace exit" true (b.I.term = I.Term_exit);
        (match (b.I.link_next, b.I.link_taken) with
        | None, None -> ()
        | _ -> Alcotest.fail "isb block must never link")
    end;
    (C.get cpu R.R2, C.get cpu R.R3, C.privileged cpu, cycles)
  in
  let cached = go true and uncached = go false in
  check_bool "cached and uncached engines agree across the flip" true (cached = uncached)

(* the full app suite must be fingerprint-identical between the cached
   and uncached engines: console transcript, tick count, model-visible
   metrics and the exported trace (the arm-mc board is the one
   configuration that executes through Mc) *)
let suite_fingerprint ~cached =
  Verify.Violation.set_enabled false;
  let r = Obs.Recorder.create () in
  let m, k = Boards.make_ticktock_arm_mc ~obs:r () in
  I.set_enabled (C.icache m.Machine.arm_cpu) cached;
  let inst = Boards.Ticktock_arm.instance k in
  ignore (Apps.Difftest.run_suite inst);
  ( inst.Instance.console (),
    inst.Instance.ticks (),
    Obs.Metrics.to_text (Obs.Metrics.model_only (inst.Instance.metrics ())),
    Obs.Chrome.to_json ~name:"sb" r )

let test_suite_lockstep () =
  let con_c, ticks_c, met_c, trace_c = suite_fingerprint ~cached:true in
  let con_u, ticks_u, met_u, trace_u = suite_fingerprint ~cached:false in
  Alcotest.(check string) "console identical" con_u con_c;
  check_int "ticks identical" ticks_u ticks_c;
  Alcotest.(check string) "model metrics identical" met_u met_c;
  Alcotest.(check string) "trace export identical" trace_u trace_c

(* --- randomized lockstep: cached vs uncached engines --- *)

let random_program rng =
  let gprs = R.[ R0; R1; R2; R3; R4 ] in
  let reg () = List.nth gprs (Random.State.int rng (List.length gprs)) in
  let body =
    List.init
      (1 + Random.State.int rng 40)
      (fun _ ->
        match Random.State.int rng 100 with
        | c when c < 25 -> T.Movw (reg (), Random.State.int rng 0x10000)
        | c when c < 35 -> T.Movt (reg (), Random.State.int rng 0x10000)
        | c when c < 45 -> T.Mov_reg (reg (), reg ())
        | c when c < 55 -> T.Addw (reg (), reg (), Random.State.int rng 4096)
        | c when c < 62 -> T.Subw (reg (), reg (), Random.State.int rng 4096)
        | c when c < 72 -> T.Ldr_imm (reg (), R.R6, Random.State.int rng 1024 land lnot 3)
        | c when c < 80 -> T.Str_imm (reg (), R.R6, Random.State.int rng 1024 land lnot 3)
        | c when c < 84 ->
          (* self-modifying store into the code region *)
          T.Str_imm (reg (), R.R7, Random.State.int rng 64 land lnot 3)
        | c when c < 90 -> T.Cmp_lr (reg ())
        | c when c < 96 ->
          T.B_cond ((if Random.State.bool rng then `Eq else `Ne), Random.State.int rng 16)
        | _ -> T.Nop)
  in
  if Random.State.bool rng then body @ [ T.Svc 0 ]
  else
    (* loop until fuel runs out: lr=1 vs r5=0 keeps Z clear *)
    let tail = [ T.Cmp_lr R.R5 ] in
    let bytes =
      List.fold_left (fun a i -> a + T.size_bytes i) 0 (body @ tail)
    in
    body @ tail @ [ T.B_cond (`Ne, (-bytes - 4) / 2) ]

(* A CPU with [prog] at 0x1000, on the cached or the uncached engine. *)
let lockstep_cpu ~cached prog =
  let mem, cpu = bare () in
  I.set_enabled (C.icache cpu) false;
  ignore (T.assemble mem 0x1000 prog);
  I.set_enabled (C.icache cpu) cached;
  C.set cpu R.R6 (Range.start Layout.app_sram);
  C.set cpu R.R7 0x1000 (* self-modifying stores land here *);
  C.set_sp cpu (Range.start Layout.app_sram + 0x800);
  C.pseudo_ldr_special cpu R.Lr 1;
  cpu

(* One [Mc.run] from the CPU's current pc, with everything it can
   observably change: stop, registers, pc, psr and cycles charged. *)
let observed_run ~fuel cpu =
  let c0 = Cycles.read Cycles.global in
  let stop = Fluxarm.Mc.run ~fuel cpu in
  let cycles = Cycles.read Cycles.global - c0 in
  let regs = C.sp cpu :: List.map (C.get cpu) R.[ R0; R1; R2; R3; R4; R5; R6; R7 ] in
  (stop, regs, C.get_special cpu R.Pc, C.get_special cpu R.Psr, cycles)

let check_lockstep name (stop_c, regs_c, pc_c, psr_c, cyc_c) (stop_u, regs_u, pc_u, psr_u, cyc_u) =
  check_bool (name ^ ": same stop") true (stop_c = stop_u);
  check_bool (name ^ ": same registers") true (regs_c = regs_u);
  check_int (name ^ ": same pc") pc_u pc_c;
  check_int (name ^ ": same psr") psr_u psr_c;
  check_int (name ^ ": same cycles") cyc_u cyc_c

let test_lockstep_fuzz () =
  for seed = 1 to 12 do
    let rng = Random.State.make [| seed; 0x1CAC4E |] in
    let prog = random_program rng in
    let run cached =
      let cpu = lockstep_cpu ~cached prog in
      C.set_special_raw cpu R.Pc 0x1000;
      observed_run ~fuel:10_000 cpu
    in
    check_lockstep (Printf.sprintf "seed %d" seed) (run true) (run false)
  done

(* Fuel running out inside a block is where a trace falls back to the
   interpreted [exec_block], and running out while a block is being built
   publishes a partial block. Each program runs as a sequence of runs with
   fuel 1..90, 90..1 and a few large values on one cached and one
   uncached CPU, compared after every run; a run that stops for any
   reason other than fuel restarts the program at 0x1000. *)
let test_lockstep_every_fuel () =
  let fuels =
    List.init 90 (fun i -> i + 1) @ List.init 90 (fun i -> 90 - i) @ [ 500; 1000; 3000; 10_000 ]
  in
  for seed = 1 to 40 do
    let rng = Random.State.make [| seed; 0xF0E1 |] in
    let prog = random_program rng in
    let cached = lockstep_cpu ~cached:true prog and uncached = lockstep_cpu ~cached:false prog in
    let restart = ref true in
    List.iteri
      (fun i fuel ->
        if !restart then
          List.iter (fun cpu -> C.set_special_raw cpu R.Pc 0x1000) [ cached; uncached ];
        let ((stop, _, _, _, _) as c) = observed_run ~fuel cached in
        check_lockstep (Printf.sprintf "seed %d run %d (fuel %d)" seed i fuel) c
          (observed_run ~fuel uncached);
        restart := stop <> Fluxarm.Mc.Out_of_fuel)
      fuels
  done

(* A block is built and published while its [str] writes data (r6 points
   at SRAM); a later run points the same store at a later instruction of
   that block. The cached block must stop right after the store, because
   its remaining decoded entries are stale: with fuel shorter than the
   block the trace interprets it ([exec_block]), with full fuel it runs
   the compiled macro-ops ([exec_block_fast]). Each run matches the
   uncached engine, and the rewritten instruction is the one that ran. *)
let test_store_into_running_block fuel () =
  let prog = [ T.Str_imm (R.R0, R.R6, 0); T.Movw (R.R1, 1); T.Movw (R.R2, 2); T.Svc 0 ] in
  let target = 0x1000 + T.size_bytes (List.hd prog) (* the first movw *) in
  let rewritten =
    match T.encode (T.Movw (R.R1, 99)) with
    | [ h1; h2 ] -> h1 lor (h2 lsl 16)
    | _ -> Alcotest.fail "movw should be 32-bit"
  in
  let cached = lockstep_cpu ~cached:true prog and uncached = lockstep_cpu ~cached:false prog in
  let go ~fuel cpu =
    C.set_special_raw cpu R.Pc 0x1000;
    observed_run ~fuel cpu
  in
  check_lockstep "store into data" (go ~fuel:10_000 cached) (go ~fuel:10_000 uncached);
  let ic = C.icache cached in
  let mem = C.memory cached in
  (match I.find_block ic ~gen:(Memory.code_generation mem) 0x1000 with
  | Some b -> check_int "one block holds the store and the svc" 4 (Array.length b.I.entries)
  | None -> Alcotest.fail "expected a published block at 0x1000");
  List.iter
    (fun cpu ->
      C.set cpu R.R0 rewritten;
      C.set cpu R.R1 0;
      C.set cpu R.R2 0;
      C.set cpu R.R6 target)
    [ cached; uncached ];
  let hits = (I.stats ic).I.hits in
  let c = go ~fuel cached in
  check_bool "the rewriting run entered the published block" true ((I.stats ic).I.hits > hits);
  check_lockstep (Printf.sprintf "store into its own block (fuel %d)" fuel) c (go ~fuel uncached);
  check_int "the rewritten instruction ran" 99 (C.get cached R.R1)

(* A pop into pc has a dynamic target, so its block is a trace exit and
   the dispatcher resolves the target. [push {r0, lr}] with lr at [label],
   then [pop {r0, pc}] over one skipped instruction to the svc: four runs
   on one cached CPU (build, then traces) each match the uncached engine. *)
let test_pop_pc_lockstep () =
  let prog label =
    [ T.Movw (R.R1, label); T.Mov_to_lr R.R1; T.Movw (R.R0, 7); T.Push ([ R.R0 ], true);
      T.Movw (R.R0, 0); T.Pop ([ R.R0 ], true); T.Movw (R.R2, 0xbad); T.Svc 3 ]
  in
  (* the label is the 2-byte svc at the end *)
  let label = 0x1000 + List.fold_left (fun a i -> a + T.size_bytes i) 0 (prog 0) - 2 in
  let prog = prog label in
  let cached = lockstep_cpu ~cached:true prog and uncached = lockstep_cpu ~cached:false prog in
  for run = 1 to 4 do
    let go cpu =
      C.set_special_raw cpu R.Pc 0x1000;
      observed_run ~fuel:10_000 cpu
    in
    let ((stop, regs, _, _, _) as c) = go cached in
    check_lockstep (Printf.sprintf "run %d" run) c (go uncached);
    check_bool "stopped at the svc" true (stop = Fluxarm.Mc.Svc_taken 3);
    check_int "pop restored r0" 7 (List.nth regs 1);
    check_int "the skipped instruction did not run" 0 (C.get cached R.R2)
  done;
  let ic = C.icache cached in
  match I.find_block ic ~gen:(Memory.code_generation (C.memory cached)) 0x1000 with
  | None -> Alcotest.fail "expected a cached block ending in the pop"
  | Some b -> check_bool "a pop-pc block is a trace exit" true (b.I.term = I.Term_exit)

let suite =
  [
    Alcotest.test_case "stores invalidate cached decodes" `Quick test_store_invalidates;
    Alcotest.test_case "loader reload invalidates" `Quick test_loader_reload_invalidates;
    Alcotest.test_case "MPU revoke faults next dispatch" `Quick
      test_mpu_revoke_faults_next_dispatch;
    Alcotest.test_case "blocks split at granule boundaries" `Quick
      test_block_splits_at_granule;
    Alcotest.test_case "lockstep fuzz: linked = per-block = uncached" `Quick
      test_lockstep_fuzz;
    Alcotest.test_case "lockstep at every fuel value" `Quick test_lockstep_every_fuel;
    Alcotest.test_case "pop {.., pc} exits in lockstep" `Quick test_pop_pc_lockstep;
    Alcotest.test_case "store into own block, short fuel" `Quick
      (test_store_into_running_block 3);
    Alcotest.test_case "store into own block, full fuel" `Quick
      (test_store_into_running_block 10_000);
    Alcotest.test_case "store into linked successor severs chain" `Quick
      test_store_severs_link;
    Alcotest.test_case "reset severs trace links" `Quick test_reset_severs_links;
    Alcotest.test_case "MPU revoke on linked successor faults" `Quick
      test_mpu_revoke_linked_successor;
    Alcotest.test_case "privilege flip (isb) ends traces" `Quick
      test_privilege_flip_ends_trace;
    Alcotest.test_case "app suite lockstep: linked = per-block" `Quick test_suite_lockstep;
  ]
