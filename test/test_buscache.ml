(* The bus fast path: word-level pages and the MPU access-decision cache
   (micro-TLB). The load-bearing property is *invalidation*: a cached allow
   decision must die the instant the MPU register file or the privilege
   level changes — otherwise the cache would be an isolation hole, not an
   optimisation. *)

open Ticktock

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let expect_fault ?addr name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Access_fault" name
  | exception Memory.Access_fault fault ->
    (match addr with
    | Some a -> check_int (name ^ ": faulting address") a fault.Memory.fault_addr
    | None -> ())

(* --- word fast path is just a faster bus, not a different one --- *)

let test_word_fast_path_equivalence () =
  let m = Memory.create () in
  (* aligned word then byte view *)
  Memory.write32 m 0x2000_0000 0xA1B2_C3D4;
  check_int "lsb" 0xD4 (Memory.read8 m 0x2000_0000);
  check_int "msb" 0xA1 (Memory.read8 m 0x2000_0003);
  (* bytes then aligned word view *)
  Memory.write8 m 0x2000_0010 0x78;
  Memory.write8 m 0x2000_0011 0x56;
  Memory.write8 m 0x2000_0012 0x34;
  Memory.write8 m 0x2000_0013 0x12;
  check_int "assembled" 0x1234_5678 (Memory.read32 m 0x2000_0010);
  (* unaligned word crossing a page boundary, both directions *)
  Memory.write32 m 0x2000_0FFD 0xCAFE_F00D;
  check_int "unaligned cross-page" 0xCAFE_F00D (Memory.read32 m 0x2000_0FFD);
  check_int "last byte landed on next page" 0xCA (Memory.read8 m 0x2000_1000)

let test_fetch16_fast_path () =
  let m = Memory.create () in
  Memory.write32 m 0x0002_0000 0xBEEF_4770;
  check_int "low halfword" 0x4770 (Memory.fetch16 m 0x0002_0000);
  check_int "high halfword" 0xBEEF (Memory.fetch16 m 0x0002_0002);
  (* straddling a page boundary *)
  Memory.write8 m 0x0002_0FFF 0xAA;
  Memory.write8 m 0x0002_1000 0xBB;
  check_int "page-straddling halfword" 0xBBAA (Memory.fetch16 m 0x0002_0FFF)

(* --- ARMv7-M: register writes invalidate cached decisions --- *)

let arm_unprivileged () =
  let m = Machine.create_arm () in
  (* CONTROL.nPRIV = 1 in thread mode: the MPU gates every checked access *)
  Fluxarm.Cpu.set_special_raw m.Machine.arm_cpu Fluxarm.Regs.Control 1;
  m

let grant_v7 mpu ~index ~base ~size perms =
  Mpu_hw.Armv7m_mpu.write_region mpu ~index
    ~rbar:(Mpu_hw.Armv7m_mpu.encode_rbar ~addr:base ~region:index)
    ~rasr:(Mpu_hw.Armv7m_mpu.encode_rasr ~enable:true ~size ~srd:0 ~perms)

let test_v7_rasr_rewrite_revokes () =
  let m = arm_unprivileged () in
  let mem = m.Machine.arm_mem and mpu = m.Machine.arm_mpu in
  let base = 0x2000_0000 in
  grant_v7 mpu ~index:0 ~base ~size:4096 Perms.Read_write_only;
  Mpu_hw.Armv7m_mpu.set_enabled mpu true;
  (* warm the decision cache: repeated stores hit the cached allow *)
  Memory.store32 mem base 0x1111_1111;
  Memory.store32 mem base 0x2222_2222;
  let hits, _ = Memory.cache_stats mem in
  check_bool "second store hit the decision cache" true (hits > 0);
  (* the kernel reprograms RBAR/RASR to read-only: the very next store
     must fault — no stale allow may survive the register write *)
  grant_v7 mpu ~index:0 ~base ~size:4096 Perms.Read_only;
  expect_fault "store after downgrade" ~addr:base (fun () -> Memory.store32 mem base 0);
  check_int "memory unchanged by denied store" 0x2222_2222 (Memory.read32 mem base);
  check_int "reads still allowed" 0x2222_2222 (Memory.load32 mem base)

let test_v7_clear_region_revokes () =
  let m = arm_unprivileged () in
  let mem = m.Machine.arm_mem and mpu = m.Machine.arm_mpu in
  let base = 0x2000_0000 in
  grant_v7 mpu ~index:0 ~base ~size:4096 Perms.Read_write_only;
  Mpu_hw.Armv7m_mpu.set_enabled mpu true;
  check_int "load allowed" 0 (Memory.load32 mem base);
  check_int "load allowed again (cached)" 0 (Memory.load32 mem base);
  Mpu_hw.Armv7m_mpu.clear_region mpu ~index:0;
  expect_fault "load after clear_region" ~addr:base (fun () ->
      ignore (Memory.load32 mem base))

let test_v7_ctrl_toggle_revokes () =
  let m = arm_unprivileged () in
  let mem = m.Machine.arm_mem and mpu = m.Machine.arm_mpu in
  (* MPU disabled: everything goes — and gets cached *)
  check_int "disabled mpu allows" 0 (Memory.load32 mem 0x2000_0000);
  check_int "disabled mpu allows again" 0 (Memory.load32 mem 0x2000_0000);
  Mpu_hw.Armv7m_mpu.set_enabled mpu true;
  (* no region covers the address: the CTRL write must invalidate *)
  expect_fault "load after CTRL.ENABLE" (fun () -> ignore (Memory.load32 mem 0x2000_0000))

let test_v7_privilege_keys_the_cache () =
  let m = Machine.create_arm () in
  let mem = m.Machine.arm_mem and mpu = m.Machine.arm_mpu in
  let cpu = m.Machine.arm_cpu in
  Mpu_hw.Armv7m_mpu.set_enabled mpu true;
  (* privileged: PRIVDEFENA background map allows the access — and caches
     the decision under privilege level 1 *)
  check_int "privileged background access" 0 (Memory.load32 mem 0x2000_0000);
  check_int "privileged access again (cached)" 0 (Memory.load32 mem 0x2000_0000);
  (* drop privilege with *no* MPU register write in between: the cached
     privileged allow must not leak to the unprivileged access *)
  Fluxarm.Cpu.set_special_raw cpu Fluxarm.Regs.Control 1;
  expect_fault "unprivileged access after transition" (fun () ->
      ignore (Memory.load32 mem 0x2000_0000));
  (* handler entry re-privileges: allowed again, no register write needed *)
  Fluxarm.Cpu.set_mode cpu Fluxarm.Cpu.Handler;
  check_int "handler-mode access" 0 (Memory.load32 mem 0x2000_0000)

(* --- ARMv8-M --- *)

let test_v8_rewrite_revokes () =
  let m = Machine.create_arm_v8 () in
  Fluxarm.Cpu.set_special_raw m.Machine.v8_cpu Fluxarm.Regs.Control 1;
  let mem = m.Machine.v8_mem and mpu = m.Machine.v8_mpu in
  let base = 0x2000_0000 in
  Mpu_hw.Armv8m_mpu.write_region mpu ~index:0
    ~rbar:(Mpu_hw.Armv8m_mpu.encode_rbar ~base ~perms:Perms.Read_write_only)
    ~rasr:(Mpu_hw.Armv8m_mpu.encode_rlar ~limit:(base + 4095) ~enable:true);
  Mpu_hw.Armv8m_mpu.set_enabled mpu true;
  Memory.store32 mem base 0xFEED_FACE;
  Memory.store32 mem base 0xFEED_FACE;
  Mpu_hw.Armv8m_mpu.write_region mpu ~index:0
    ~rbar:(Mpu_hw.Armv8m_mpu.encode_rbar ~base ~perms:Perms.Read_only)
    ~rasr:(Mpu_hw.Armv8m_mpu.encode_rlar ~limit:(base + 4095) ~enable:true);
  expect_fault "store after RBAR downgrade" ~addr:base (fun () ->
      Memory.store32 mem base 0);
  check_int "reads survive" 0xFEED_FACE (Memory.load32 mem base)

(* --- PMP --- *)

let test_pmp_revocation () =
  let m = Machine.create_riscv Mpu_hw.Pmp.sifive_e310 in
  let mem = m.Machine.rv_mem and pmp = m.Machine.rv_pmp in
  m.Machine.rv_machine_mode := false;
  let base = 0x2000_0000 in
  Mpu_hw.Pmp.set_entry pmp ~index:0
    ~cfg:(Mpu_hw.Pmp.cfg_of_perms Perms.Read_write_only ~mode:Mpu_hw.Pmp.Napot)
    ~addr:(Mpu_hw.Pmp.napot_addr ~start:base ~size:4096);
  Memory.store32 mem base 0xABCD_EF01;
  check_int "pmp read" 0xABCD_EF01 (Memory.load32 mem base);
  check_int "pmp read again (cached)" 0xABCD_EF01 (Memory.load32 mem base);
  (* pmpcfg rewrite to read-only: the next store must fault *)
  Mpu_hw.Pmp.set_entry pmp ~index:0
    ~cfg:(Mpu_hw.Pmp.cfg_of_perms Perms.Read_only ~mode:Mpu_hw.Pmp.Napot)
    ~addr:(Mpu_hw.Pmp.napot_addr ~start:base ~size:4096);
  expect_fault "store after pmpcfg downgrade" ~addr:base (fun () ->
      Memory.store32 mem base 0);
  (* and clearing the entry revokes everything *)
  Mpu_hw.Pmp.clear_entry pmp ~index:0;
  expect_fault "load after clear_entry" ~addr:base (fun () ->
      ignore (Memory.load32 mem base))

let test_pmp_mode_switch_keys_the_cache () =
  let m = Machine.create_riscv Mpu_hw.Pmp.earlgrey in
  let mem = m.Machine.rv_mem and pmp = m.Machine.rv_pmp in
  Mpu_hw.Pmp.set_mmwp pmp false;
  (* machine mode with no matching entry: allowed, cached under M *)
  check_int "machine-mode access" 0 (Memory.load32 mem 0x2000_0000);
  check_int "machine-mode access again" 0 (Memory.load32 mem 0x2000_0000);
  (* context switch to U mode — a privilege flip, no CSR write *)
  m.Machine.rv_machine_mode := false;
  expect_fault "user-mode access after switch" (fun () ->
      ignore (Memory.load32 mem 0x2000_0000))

(* --- the cache is an optimisation, not a semantic: stateful checkers --- *)

let test_fn_checkers_are_never_cached () =
  let m = Memory.create () in
  let allow = ref true in
  Memory.set_checker_fn m
    (Some (fun _ _ -> if !allow then Ok () else Error "flipped"));
  check_int "allowed while open" 0 (Memory.load32 m 0x1000);
  check_int "allowed again" 0 (Memory.load32 m 0x1000);
  allow := false;
  expect_fault "stateful flip respected immediately" ~addr:0x1000 (fun () ->
      ignore (Memory.load32 m 0x1000))

(* --- dynamic decision granularity --- *)

let test_decision_granularity_tracks_config () =
  let mpu = Mpu_hw.Armv7m_mpu.create () in
  (* nothing enabled: coarsest (4 KiB cap) *)
  check_int "idle granule" 12 (Mpu_hw.Armv7m_mpu.decision_granule_bits mpu);
  (* one 64 KiB region without SRD: boundaries 64 KiB apart, capped at 12 *)
  Mpu_hw.Armv7m_mpu.write_region mpu ~index:0
    ~rbar:(Mpu_hw.Armv7m_mpu.encode_rbar ~addr:0x2000_0000 ~region:0)
    ~rasr:
      (Mpu_hw.Armv7m_mpu.encode_rasr ~enable:true ~size:65536 ~srd:0
         ~perms:Perms.Read_write_only);
  check_int "64K region granule" 12 (Mpu_hw.Armv7m_mpu.decision_granule_bits mpu);
  (* a 256-byte region with SRD in use: subregions are 32 bytes *)
  Mpu_hw.Armv7m_mpu.write_region mpu ~index:1
    ~rbar:(Mpu_hw.Armv7m_mpu.encode_rbar ~addr:0x2001_0000 ~region:1)
    ~rasr:
      (Mpu_hw.Armv7m_mpu.encode_rasr ~enable:true ~size:256 ~srd:0x81
         ~perms:Perms.Read_only);
  check_int "srd granule" 5 (Mpu_hw.Armv7m_mpu.decision_granule_bits mpu);
  let pmp = Mpu_hw.Pmp.create Mpu_hw.Pmp.sifive_e310 in
  check_int "idle pmp granule" 12 (Mpu_hw.Pmp.decision_granule_bits pmp);
  Mpu_hw.Pmp.set_entry pmp ~index:0
    ~cfg:(Mpu_hw.Pmp.cfg_of_perms Perms.Read_only ~mode:Mpu_hw.Pmp.Na4)
    ~addr:(0x2000_0004 lsr 2);
  check_int "na4 granule" 2 (Mpu_hw.Pmp.decision_granule_bits pmp)

let test_cache_stats_count () =
  let m = arm_unprivileged () in
  let mem = m.Machine.arm_mem and mpu = m.Machine.arm_mpu in
  grant_v7 mpu ~index:0 ~base:0x2000_0000 ~size:4096 Perms.Read_write_only;
  Mpu_hw.Armv7m_mpu.set_enabled mpu true;
  Memory.reset_cache_stats mem;
  for _ = 1 to 10 do
    ignore (Memory.load32 mem 0x2000_0000)
  done;
  let hits, misses = Memory.cache_stats mem in
  check_int "one cold miss" 1 misses;
  check_int "nine warm hits" 9 hits

(* --- configuration ids: cached decisions survive a context switch ---

   Each model reports an id interned from its exact register contents as
   the decision-cache generation, so a switch A -> B -> A revalidates A's
   cached allows. The lockstep fuzz checks the cache stays invisible: every
   probe through the cached bus must agree with an uncacheable oracle bus
   over the same model, across configuration cycling, identical rewrites,
   enable toggles, snapshot restores and single-register corruption. *)

module V7 = Mpu_hw.Armv7m_mpu
module V8 = Mpu_hw.Armv8m_mpu
module Pmp = Mpu_hw.Pmp

let window = 0x2000_0000
let window_size = 0x1_0000
let random_perms rng = List.nth Perms.all (Random.State.int rng (List.length Perms.all))

(* One board per architecture. [r_random] draws an unlocked configuration
   and returns its applier, which rewrites every register the way a
   kernel's setup_mpu does; locked PMP entries come only from corruption. *)
type rig = {
  r_name : string;
  r_mem : Memory.t;  (* the real, cacheable checker *)
  r_oracle : Memory.t;  (* the same model behind an uncacheable checker *)
  r_set_priv : bool -> unit;
  r_random : Random.State.t -> unit -> unit;  (* a random config's applier *)
  r_toggle : Random.State.t -> unit;
  r_corrupt : Random.State.t -> unit;
  r_capture : unit -> unit -> unit;  (* capture now, restore later *)
  r_generation : unit -> int;
  r_latched : unit -> int;  (* denials the bus latched (SCB), or -1 *)
}

let ignore_rejected f = try f () with Invalid_argument _ -> ()

let v7_rig () =
  let m = Machine.create_arm () in
  let mpu = m.Machine.arm_mpu and cpu = m.Machine.arm_cpu in
  let oracle = Memory.create () in
  Memory.set_checker_fn oracle
    (Some (fun a acc -> V7.check_access mpu ~privileged:(Fluxarm.Cpu.privileged cpu) a acc));
  let random rng =
    let regs =
      Array.init V7.region_count (fun i ->
          if Random.State.int rng 3 = 0 then (V7.encode_rbar ~addr:0 ~region:i, 0)
          else
            let size = 1 lsl (5 + Random.State.int rng 9) in
            let base = window + (Random.State.int rng (window_size / size) * size) in
            let srd = if size >= 256 && Random.State.bool rng then Random.State.int rng 256 else 0 in
            ( V7.encode_rbar ~addr:base ~region:i,
              V7.encode_rasr ~enable:true ~size ~srd ~perms:(random_perms rng) ))
    in
    fun () ->
      Array.iteri (fun index (rbar, rasr) -> V7.write_region mpu ~index ~rbar ~rasr) regs;
      V7.set_enabled mpu true
  in
  {
    r_name = "v7";
    r_mem = m.Machine.arm_mem;
    r_oracle = oracle;
    r_set_priv =
      (fun p -> Fluxarm.Cpu.set_special_raw cpu Fluxarm.Regs.Control (if p then 0 else 1));
    r_random = random;
    r_toggle = (fun _ -> V7.set_enabled mpu (not (V7.enabled mpu)));
    r_corrupt =
      (fun rng ->
        let index = Random.State.int rng V7.region_count in
        let rbar, rasr = V7.read_region mpu ~index in
        let bit = 1 lsl Random.State.int rng 32 in
        ignore_rejected (fun () ->
            if Random.State.bool rng then V7.write_region mpu ~index ~rbar:(rbar lxor bit) ~rasr
            else V7.write_region mpu ~index ~rbar ~rasr:(rasr lxor bit)));
    r_capture =
      (fun () ->
        let s = V7.capture_state mpu in
        fun () -> V7.restore_state mpu s);
    r_generation = (fun () -> V7.generation mpu);
    r_latched = (fun () -> Mpu_hw.Scb.fault_count m.Machine.arm_scb);
  }

let v8_rig () =
  let m = Machine.create_arm_v8 () in
  let mpu = m.Machine.v8_mpu and cpu = m.Machine.v8_cpu in
  let oracle = Memory.create () in
  Memory.set_checker_fn oracle
    (Some (fun a acc -> V8.check_access mpu ~privileged:(Fluxarm.Cpu.privileged cpu) a acc));
  let random rng =
    let regs =
      Array.init V8.region_count (fun _ ->
          if Random.State.int rng 3 = 0 then (0, 0)
          else
            let base = window + (Random.State.int rng (window_size / 32) * 32) in
            let limit = base + (32 * (1 + Random.State.int rng 64)) - 1 in
            (V8.encode_rbar ~base ~perms:(random_perms rng), V8.encode_rlar ~limit ~enable:true))
    in
    fun () ->
      Array.iteri (fun index (rbar, rasr) -> V8.write_region mpu ~index ~rbar ~rasr) regs;
      V8.set_enabled mpu true
  in
  {
    r_name = "v8";
    r_mem = m.Machine.v8_mem;
    r_oracle = oracle;
    r_set_priv =
      (fun p -> Fluxarm.Cpu.set_special_raw cpu Fluxarm.Regs.Control (if p then 0 else 1));
    r_random = random;
    r_toggle = (fun _ -> V8.set_enabled mpu (not (V8.enabled mpu)));
    r_corrupt =
      (fun rng ->
        let index = Random.State.int rng V8.region_count in
        let rbar, rlar = V8.read_region mpu ~index in
        let bit = 1 lsl Random.State.int rng 32 in
        ignore_rejected (fun () ->
            if Random.State.bool rng then V8.write_region mpu ~index ~rbar:(rbar lxor bit) ~rasr:rlar
            else V8.write_region mpu ~index ~rbar ~rasr:(rlar lxor bit)));
    r_capture =
      (fun () ->
        let s = V8.capture_state mpu in
        fun () -> V8.restore_state mpu s);
    r_generation = (fun () -> V8.generation mpu);
    r_latched = (fun () -> -1);
  }

let pmp_rig () =
  let m = Machine.create_riscv Pmp.earlgrey in
  let pmp = m.Machine.rv_pmp and mmode = m.Machine.rv_machine_mode in
  let oracle = Memory.create () in
  Memory.set_checker_fn oracle (Some (fun a acc -> Pmp.check_access pmp ~machine_mode:!mmode a acc));
  let n = Pmp.earlgrey.Pmp.entry_count in
  let random rng =
    let entries =
      Array.init n (fun _ ->
          let cfg mode =
            Pmp.encode_cfg ~r:(Random.State.bool rng) ~w:(Random.State.bool rng)
              ~x:(Random.State.bool rng) ~mode ~lock:false
          in
          match Random.State.int rng 4 with
          | 0 -> (0, 0)
          | 1 -> (cfg Pmp.Tor, (window + (4 * Random.State.int rng (window_size / 4))) lsr 2)
          | 2 -> (cfg Pmp.Na4, (window + (4 * Random.State.int rng (window_size / 4))) lsr 2)
          | _ ->
            let size = 1 lsl (3 + Random.State.int rng 10) in
            let start = window + (Random.State.int rng (window_size / size) * size) in
            (cfg Pmp.Napot, Pmp.napot_addr ~start ~size))
    in
    fun () ->
      Array.iteri
        (fun index (cfg, addr) -> ignore_rejected (fun () -> Pmp.set_entry pmp ~index ~cfg ~addr))
        entries
  in
  {
    r_name = "pmp";
    r_mem = m.Machine.rv_mem;
    r_oracle = oracle;
    r_set_priv = (fun p -> mmode := p);
    r_random = random;
    r_toggle =
      (fun rng ->
        if Random.State.bool rng then Pmp.set_mmwp pmp (Random.State.bool rng)
        else Pmp.set_mml pmp (Random.State.bool rng));
    r_corrupt =
      (fun rng ->
        let index = Random.State.int rng n in
        let cfg, addr = Pmp.read_entry pmp ~index in
        ignore_rejected (fun () ->
            if Random.State.bool rng then
              Pmp.set_entry pmp ~index ~cfg:(cfg lxor (1 lsl Random.State.int rng 8)) ~addr
            else Pmp.set_entry pmp ~index ~cfg ~addr:(addr lxor (1 lsl Random.State.int rng 30))));
    r_capture =
      (fun () ->
        let s = Pmp.capture_state pmp in
        fun () -> Pmp.restore_state pmp s);
    r_generation = (fun () -> Pmp.generation pmp);
    r_latched = (fun () -> -1);
  }

let rigs = [ v7_rig; v8_rig; pmp_rig ]

(* One probe of each bus path at [a]; returns the number of denials the
   cached bus saw, after checking it agreed with the oracle bus. *)
let probe rig name rng a =
  let access = List.nth [ Perms.Read; Perms.Write; Perms.Execute ] (Random.State.int rng 3) in
  let c = Memory.check rig.r_mem a access and o = Memory.check rig.r_oracle a access in
  if c <> o then Alcotest.failf "%s: check %#x disagrees with the oracle" name a;
  let word f mem = match f mem with () -> None | exception Memory.Access_fault f -> Some f in
  let a4 = a land lnot 3 and v = Random.State.bits rng and load = Random.State.bool rng in
  let fast mem = if load then ignore (Memory.load32 mem a4) else Memory.store32 mem a4 v in
  let hoisted mem =
    Memory.hoist mem;
    if load then ignore (Memory.load32_fast mem a4) else Memory.store32_fast mem a4 v
  in
  let fetch mem = Memory.check_fetch16 mem (a land lnot 1) in
  let denials = ref (if Result.is_error c then 1 else 0) in
  List.iter
    (fun (what, cached, uncached) ->
      let fc = word cached rig.r_mem and fo = word uncached rig.r_oracle in
      if fc <> fo then Alcotest.failf "%s: %s at %#x disagrees with the oracle" name what a;
      if fc <> None then incr denials)
    [ ("word access", fast, fast); ("hoisted access", hoisted, fast); ("fetch", fetch, fetch) ];
  !denials

let test_config_lockstep_fuzz () =
  List.iter
    (fun make ->
      for seed = 1 to 6 do
        let rig = make () in
        let rng = Random.State.make [| seed; 0xC0F1 |] in
        let a = rig.r_random rng and b = rig.r_random rng in
        a ();
        let saved = ref (rig.r_capture ()) in
        let current = ref a in
        (* a small address pool keeps the decision cache warm, so stale
           entries would actually be probed *)
        let pool =
          Array.init 32 (fun _ -> window - 0x100 + Random.State.int rng (window_size + 0x200))
        in
        let denied = ref 0 and latched0 = rig.r_latched () in
        for step = 1 to 60 do
          (match Random.State.int rng 8 with
          | 0 | 1 -> current := if !current == a then b else a; !current ()
          | 2 -> !current () (* identical rewrite *)
          | 3 -> rig.r_toggle rng
          | 4 -> !saved ()
          | 5 -> saved := rig.r_capture ()
          | 6 -> rig.r_corrupt rng
          | _ -> rig.r_set_priv (Random.State.bool rng));
          let name = Printf.sprintf "%s seed %d step %d" rig.r_name seed step in
          Array.iter (fun a -> denied := !denied + probe rig name rng a) pool
        done;
        if latched0 >= 0 then
          check_int (rig.r_name ^ ": the SCB latched every denial") !denied
            (rig.r_latched () - latched0)
      done)
    rigs

(* same register contents, same id; any changed word, a fresh id *)
let test_config_ids_track_contents () =
  List.iter
    (fun make ->
      let rig = make () in
      let rng = Random.State.make [| 7 |] in
      let a = rig.r_random rng and b = rig.r_random rng in
      a ();
      let ida = rig.r_generation () in
      b ();
      let idb = rig.r_generation () in
      check_bool (rig.r_name ^ ": B gets its own id") true (ida <> idb);
      a ();
      check_int (rig.r_name ^ ": back to A, back to A's id") ida (rig.r_generation ());
      b ();
      check_int (rig.r_name ^ ": back to B, back to B's id") idb (rig.r_generation ());
      let restore_b = rig.r_capture () in
      a ();
      restore_b ();
      check_int (rig.r_name ^ ": a restore of B is B") idb (rig.r_generation ()))
    rigs

(* every register word of each model, changed alone, moves the id *)
let test_any_changed_word_moves_the_id () =
  let seen = Hashtbl.create 64 in
  let fresh name id =
    check_bool (name ^ ": fresh id") false (Hashtbl.mem seen id);
    Hashtbl.replace seen id ()
  in
  let v7 = V7.create () in
  for index = 0 to V7.region_count - 1 do
    V7.write_region v7 ~index
      ~rbar:(V7.encode_rbar ~addr:(window + (index * 0x1000)) ~region:index)
      ~rasr:(V7.encode_rasr ~enable:true ~size:0x1000 ~srd:0 ~perms:Perms.Read_write_only)
  done;
  Hashtbl.reset seen;
  let base = V7.generation v7 in
  fresh "v7 base" base;
  for index = 0 to V7.region_count - 1 do
    let rbar, rasr = V7.read_region v7 ~index in
    (* VALID (rbar bit 4) and XN (rasr bit 28) are free of validation *)
    V7.write_region v7 ~index ~rbar:(rbar lxor 0x10) ~rasr;
    fresh (Printf.sprintf "v7 rbar %d" index) (V7.generation v7);
    V7.write_region v7 ~index ~rbar ~rasr:(rasr lxor (1 lsl 28));
    fresh (Printf.sprintf "v7 rasr %d" index) (V7.generation v7);
    V7.write_region v7 ~index ~rbar ~rasr;
    check_int "v7 restored word, restored id" base (V7.generation v7)
  done;
  V7.set_enabled v7 true;
  fresh "v7 ctrl" (V7.generation v7);
  let v8 = V8.create () in
  Hashtbl.reset seen;
  let base = V8.generation v8 in
  fresh "v8 base" base;
  for index = 0 to V8.region_count - 1 do
    let rbar, rlar = V8.read_region v8 ~index in
    V8.write_region v8 ~index ~rbar:(rbar lxor 1) ~rasr:rlar;
    fresh (Printf.sprintf "v8 rbar %d" index) (V8.generation v8);
    V8.write_region v8 ~index ~rbar ~rasr:(rlar lxor 2);
    fresh (Printf.sprintf "v8 rlar %d" index) (V8.generation v8);
    V8.write_region v8 ~index ~rbar ~rasr:rlar;
    check_int "v8 restored word, restored id" base (V8.generation v8)
  done;
  V8.set_enabled v8 true;
  fresh "v8 ctrl" (V8.generation v8);
  let pmp = Pmp.create Pmp.earlgrey in
  Hashtbl.reset seen;
  let base = Pmp.generation pmp in
  fresh "pmp base" base;
  for index = 0 to Pmp.earlgrey.Pmp.entry_count - 1 do
    Pmp.set_entry pmp ~index ~cfg:1 ~addr:0;
    fresh (Printf.sprintf "pmp cfg %d" index) (Pmp.generation pmp);
    Pmp.set_entry pmp ~index ~cfg:0 ~addr:1;
    fresh (Printf.sprintf "pmp addr %d" index) (Pmp.generation pmp);
    Pmp.set_entry pmp ~index ~cfg:0 ~addr:0;
    check_int "pmp restored word, restored id" base (Pmp.generation pmp)
  done;
  Pmp.set_mmwp pmp true;
  fresh "pmp mmwp" (Pmp.generation pmp);
  Pmp.set_mml pmp true;
  fresh "pmp mml" (Pmp.generation pmp)

(* an identical rewrite is still a modeled register write — same cycles,
   same validation — but it keeps the id, the cfg_seq and the event stream *)
let test_identical_rewrite_keeps_the_id () =
  let mpu = V7.create () in
  let events = ref 0 in
  V7.set_obs mpu (Some (fun _ -> incr events));
  let setup () =
    for index = 0 to 3 do
      V7.write_region mpu ~index
        ~rbar:(V7.encode_rbar ~addr:(window + (index * 0x400)) ~region:index)
        ~rasr:(V7.encode_rasr ~enable:true ~size:0x400 ~srd:0 ~perms:Perms.Read_only)
    done;
    V7.clear_region mpu ~index:4;
    V7.set_enabled mpu true
  in
  let cycles f =
    let c0 = Mach.Cycles.read Mach.Cycles.global in
    f ();
    Mach.Cycles.read Mach.Cycles.global - c0
  in
  let first = cycles setup in
  let id = V7.generation mpu and fp = V7.fingerprint mpu and ev = !events in
  let again = cycles setup in
  check_int "same cycle charge" first again;
  check_int "same id" id (V7.generation mpu);
  check_bool "same cfg_seq (fingerprint)" true (fp = V7.fingerprint mpu);
  check_int "no reconfiguration events" ev !events;
  (match
     V7.write_region mpu ~index:0
       ~rbar:(V7.encode_rbar ~addr:(window + 0x20) ~region:0)
       ~rasr:(V7.encode_rasr ~enable:true ~size:0x400 ~srd:0 ~perms:Perms.Read_only)
   with
  | () -> Alcotest.fail "misaligned region accepted"
  | exception Invalid_argument _ -> ());
  check_int "a rejected write keeps the id" id (V7.generation mpu)

(* a configuration dropped when the id table fills comes back under a
   fresh id: an id is never handed out twice *)
let test_dropped_ids_never_reused () =
  let mpu = V7.create () in
  let config k =
    V7.write_region mpu ~index:0
      ~rbar:(V7.encode_rbar ~addr:(window + (k * 32)) ~region:0)
      ~rasr:(V7.encode_rasr ~enable:true ~size:32 ~srd:0 ~perms:Perms.Read_only);
    V7.generation mpu
  in
  let id0 = config 0 in
  let ids = List.init (Mpu_hw.Config_ids.capacity + 1) (fun k -> config (k + 1)) in
  let top = List.fold_left max id0 ids in
  check_bool "ids strictly increase" true (List.sort_uniq compare ids = ids);
  let again = config 0 in
  check_bool "the dropped configuration gets a fresh id" true (again > top);
  check_int "which it then keeps" again (config 0)

(* ticktock-arm-mc: the Thumb engine's block stamps follow configuration
   ids. Revoking execute under B faults the next dispatch; switching back
   to A revalidates the stamp taken under A without a single new check. *)
let test_mc_stamps_follow_config_ids () =
  let m, _kernel = Boards.make_ticktock_arm_mc () in
  let mem = m.Machine.arm_mem and mpu = m.Machine.arm_mpu in
  let cpu = m.Machine.arm_cpu in
  Fluxarm.Cpu.set_special_raw cpu Fluxarm.Regs.Control 1;
  let base = 0x2000_8000 in
  let config perms () = grant_v7 mpu ~index:7 ~base ~size:4096 perms in
  let a = config Perms.Read_write_execute and b = config Perms.Read_write_only in
  a ();
  Mpu_hw.Armv7m_mpu.set_enabled mpu true;
  ignore (Fluxarm.Thumb.assemble mem base [ Fluxarm.Thumb.Movw (Fluxarm.Regs.R0, 3); Fluxarm.Thumb.Svc 9 ]);
  let run () =
    Fluxarm.Cpu.set_special_raw cpu Fluxarm.Regs.Pc base;
    Fluxarm.Mc.run cpu
  in
  check_bool "runs under A" true (run () = Fluxarm.Mc.Svc_taken 9);
  check_bool "warm under A" true (run () = Fluxarm.Mc.Svc_taken 9);
  let ida = V7.generation mpu in
  b ();
  expect_fault "execute revoked under B" ~addr:base (fun () -> run ());
  a ();
  check_int "A's id again" ida (V7.generation mpu);
  let stats = Memory.cache_stats mem in
  check_bool "runs under A again" true (run () = Fluxarm.Mc.Svc_taken 9);
  check_bool "A's stamp revalidated without a check" true (Memory.cache_stats mem = stats)

let suite =
  [
    Alcotest.test_case "word fast path = byte path" `Quick test_word_fast_path_equivalence;
    Alcotest.test_case "fetch16 fast path" `Quick test_fetch16_fast_path;
    Alcotest.test_case "v7: RASR rewrite revokes cached allow" `Quick
      test_v7_rasr_rewrite_revokes;
    Alcotest.test_case "v7: clear_region revokes" `Quick test_v7_clear_region_revokes;
    Alcotest.test_case "v7: CTRL toggle revokes" `Quick test_v7_ctrl_toggle_revokes;
    Alcotest.test_case "v7: privilege keys the cache" `Quick test_v7_privilege_keys_the_cache;
    Alcotest.test_case "v8: RBAR rewrite revokes" `Quick test_v8_rewrite_revokes;
    Alcotest.test_case "pmp: pmpcfg rewrite + clear revoke" `Quick test_pmp_revocation;
    Alcotest.test_case "pmp: M/U switch keys the cache" `Quick
      test_pmp_mode_switch_keys_the_cache;
    Alcotest.test_case "fn checkers never cached" `Quick test_fn_checkers_are_never_cached;
    Alcotest.test_case "decision granularity tracks config" `Quick
      test_decision_granularity_tracks_config;
    Alcotest.test_case "cache stats" `Quick test_cache_stats_count;
    Alcotest.test_case "config ids: cached = uncached lockstep fuzz" `Quick
      test_config_lockstep_fuzz;
    Alcotest.test_case "config ids: same contents, same id" `Quick test_config_ids_track_contents;
    Alcotest.test_case "config ids: any changed word moves the id" `Quick
      test_any_changed_word_moves_the_id;
    Alcotest.test_case "config ids: identical rewrite keeps the id" `Quick
      test_identical_rewrite_keeps_the_id;
    Alcotest.test_case "config ids: dropped ids never reused" `Quick
      test_dropped_ids_never_reused;
    Alcotest.test_case "config ids: arm-mc stamps revalidate" `Quick
      test_mc_stamps_follow_config_ids;
  ]
