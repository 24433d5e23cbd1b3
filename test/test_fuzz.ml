(* Fuzzing campaigns: hostile syscall/memory streams against every kernel. *)

open Ticktock

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_ticktock_survives_fuzzing_with_contracts () =
  (* contracts ON: not only must the kernel survive every seed, no
     verification contract may fire anywhere in the kernel or drivers *)
  Verify.Violation.with_enabled true (fun () ->
      let rounds, panics =
        Apps.Fuzz.campaign ~seeds:15 (fun () -> Boards.instance_ticktock_arm ())
      in
      check_int "no kernel panics" 0 (List.length panics);
      List.iter
        (fun (r : Apps.Fuzz.outcome) ->
          check_bool (Printf.sprintf "seed %d: witness unaffected" r.fuzz_seed) true r.witness_ok;
          check_bool (Printf.sprintf "seed %d: isolation holds" r.fuzz_seed) true r.isolation_ok)
        rounds)

let test_ticktock_pmp_survives_fuzzing () =
  Verify.Violation.with_enabled true (fun () ->
      let rounds, panics =
        Apps.Fuzz.campaign ~seeds:8 (fun () -> Boards.instance_ticktock_e310 ())
      in
      check_int "no kernel panics" 0 (List.length panics);
      List.iter
        (fun (r : Apps.Fuzz.outcome) ->
          check_bool (Printf.sprintf "seed %d ok" r.fuzz_seed) true
            (r.witness_ok && r.isolation_ok))
        rounds)

let test_upstream_tock_panics_under_fuzzing () =
  (* the §2.2 DoS, found by fuzzing instead of verification: some seed's
     wild brk panics the upstream kernel *)
  Verify.Violation.with_enabled false (fun () ->
      let _, panics = Apps.Fuzz.campaign ~seeds:15 (fun () -> Boards.instance_tock_arm ()) in
      check_bool "at least one seed kills the upstream kernel" true (List.length panics > 0))

let test_patched_tock_survives_fuzzing () =
  Verify.Violation.with_enabled false (fun () ->
      let rounds, panics =
        Apps.Fuzz.campaign ~seeds:15 (fun () -> Boards.instance_tock_arm_patched ())
      in
      check_int "patched kernel never panics" 0 (List.length panics);
      List.iter
        (fun (r : Apps.Fuzz.outcome) ->
          check_bool (Printf.sprintf "seed %d: witness unaffected" r.fuzz_seed) true
            r.witness_ok)
        rounds)

let test_fuzzers_actually_die_sometimes () =
  (* sanity: the streams really are hostile — across seeds some fuzzers
     fault and some run to completion *)
  Verify.Violation.with_enabled false (fun () ->
      let rounds, _ = Apps.Fuzz.campaign ~seeds:10 (fun () -> Boards.instance_ticktock_arm ()) in
      let faulted = List.fold_left (fun a r -> a + r.Apps.Fuzz.fuzzers_faulted) 0 rounds in
      let exited = List.fold_left (fun a r -> a + r.Apps.Fuzz.fuzzers_exited) 0 rounds in
      check_bool "some fuzzers faulted" true (faulted > 0);
      check_bool "some fuzzers completed" true (exited > 0))

let test_fuzz_deterministic () =
  let run () =
    Verify.Violation.with_enabled false (fun () ->
        Apps.Fuzz.run_round ~seed:7 (fun () -> Boards.instance_ticktock_arm ()))
  in
  let a = run () and b = run () in
  check_bool "same seed, same outcome" true
    (a.Apps.Fuzz.fuzzers_faulted = b.Apps.Fuzz.fuzzers_faulted
    && a.Apps.Fuzz.fuzzers_exited = b.Apps.Fuzz.fuzzers_exited
    && a.Apps.Fuzz.witness_ok = b.Apps.Fuzz.witness_ok)

(* --- bus decision cache vs. the raw MPU walk ---

   The micro-TLB in [Memory] caches allow decisions keyed by (granule
   block, privilege, access) and guarded by the MPU's configuration id.
   These rounds drive a random interleaving of register writes, privilege
   flips and accesses, and assert the cached verdict always equals the
   authoritative uncached walk — i.e. the cache is observationally
   invisible. *)

let all_perms =
  [
    Perms.Read_write_execute;
    Perms.Read_write_only;
    Perms.Read_execute_only;
    Perms.Read_only;
    Perms.Execute_only;
  ]

let all_accesses = [| Perms.Read; Perms.Write; Perms.Execute |]

let pick rng arr = arr.(Random.State.int rng (Array.length arr))

let agree name ~cached ~uncached addr =
  check_bool
    (Printf.sprintf "%s: cached = uncached at %s" name (Word32.to_hex addr))
    (Result.is_ok uncached) (Result.is_ok cached)

let test_v7_cache_agreement () =
  let rng = Random.State.make [| 0x7B05 |] in
  for _round = 0 to 9 do
    let mem = Memory.create () in
    let mpu = Mpu_hw.Armv7m_mpu.create () in
    let priv = ref false in
    Memory.set_checker mem
      (Some (Mpu_hw.Armv7m_mpu.checker mpu ~cpu_privileged:(fun () -> !priv)));
    Mpu_hw.Armv7m_mpu.set_enabled mpu true;
    for _op = 0 to 499 do
      let r = Random.State.int rng 100 in
      if r < 8 then begin
        let index = Random.State.int rng Mpu_hw.Armv7m_mpu.region_count in
        if Random.State.int rng 4 = 0 then Mpu_hw.Armv7m_mpu.clear_region mpu ~index
        else begin
          let size = 1 lsl (5 + Random.State.int rng 8) in
          let base = 0x2000_0000 + (Random.State.int rng 8 * size) in
          let srd = if size >= 256 then Random.State.int rng 256 else 0 in
          let perms = pick rng (Array.of_list all_perms) in
          Mpu_hw.Armv7m_mpu.write_region mpu ~index
            ~rbar:(Mpu_hw.Armv7m_mpu.encode_rbar ~addr:base ~region:index)
            ~rasr:
              (Mpu_hw.Armv7m_mpu.encode_rasr
                 ~enable:(Random.State.int rng 4 > 0)
                 ~size ~srd ~perms)
        end
      end
      else if r < 12 then priv := not !priv
      else if r < 14 then Mpu_hw.Armv7m_mpu.set_enabled mpu (Random.State.bool rng)
      else begin
        let addr = 0x2000_0000 + Random.State.int rng 0x8000 in
        let access = pick rng all_accesses in
        agree "v7"
          ~cached:(Memory.check mem addr access)
          ~uncached:(Mpu_hw.Armv7m_mpu.check_access mpu ~privileged:!priv addr access)
          addr
      end
    done
  done

let test_v8_cache_agreement () =
  let rng = Random.State.make [| 0x8B05 |] in
  for _round = 0 to 9 do
    let mem = Memory.create () in
    let mpu = Mpu_hw.Armv8m_mpu.create () in
    let priv = ref false in
    Memory.set_checker mem
      (Some (Mpu_hw.Armv8m_mpu.checker mpu ~cpu_privileged:(fun () -> !priv)));
    Mpu_hw.Armv8m_mpu.set_enabled mpu true;
    for _op = 0 to 499 do
      let r = Random.State.int rng 100 in
      if r < 8 then begin
        let index = Random.State.int rng Mpu_hw.Armv8m_mpu.region_count in
        if Random.State.int rng 4 = 0 then Mpu_hw.Armv8m_mpu.clear_region mpu ~index
        else begin
          let base = 0x2000_0000 + (Random.State.int rng 0x400 * 32) in
          let limit = base + (Random.State.int rng 64 * 32) + 31 in
          let perms = pick rng (Array.of_list all_perms) in
          Mpu_hw.Armv8m_mpu.write_region mpu ~index
            ~rbar:(Mpu_hw.Armv8m_mpu.encode_rbar ~base ~perms)
            ~rasr:
              (Mpu_hw.Armv8m_mpu.encode_rlar ~limit
                 ~enable:(Random.State.int rng 4 > 0))
        end
      end
      else if r < 12 then priv := not !priv
      else if r < 14 then Mpu_hw.Armv8m_mpu.set_enabled mpu (Random.State.bool rng)
      else begin
        let addr = 0x2000_0000 + Random.State.int rng 0x10000 in
        let access = pick rng all_accesses in
        agree "v8"
          ~cached:(Memory.check mem addr access)
          ~uncached:(Mpu_hw.Armv8m_mpu.check_access mpu ~privileged:!priv addr access)
          addr
      end
    done
  done

let test_pmp_cache_agreement () =
  let rng = Random.State.make [| 0x9B05 |] in
  List.iter
    (fun chip ->
      for _round = 0 to 4 do
        let mem = Memory.create () in
        let pmp = Mpu_hw.Pmp.create chip in
        let machine = ref false in
        Memory.set_checker mem
          (Some (Mpu_hw.Pmp.checker pmp ~cpu_machine_mode:(fun () -> !machine)));
        for _op = 0 to 499 do
          let r = Random.State.int rng 100 in
          if r < 8 then begin
            let index = Random.State.int rng (Mpu_hw.Pmp.chip pmp).Mpu_hw.Pmp.entry_count in
            if Random.State.int rng 4 = 0 then Mpu_hw.Pmp.clear_entry pmp ~index
            else begin
              let mode =
                pick rng [| Mpu_hw.Pmp.Off; Mpu_hw.Pmp.Tor; Mpu_hw.Pmp.Na4; Mpu_hw.Pmp.Napot |]
              in
              let cfg =
                Mpu_hw.Pmp.encode_cfg ~r:(Random.State.bool rng) ~w:(Random.State.bool rng)
                  ~x:(Random.State.bool rng) ~mode ~lock:false
              in
              let addr = (0x2000_0000 lsr 2) + Random.State.int rng 0x4000 in
              Mpu_hw.Pmp.set_entry pmp ~index ~cfg ~addr
            end
          end
          else if r < 12 then machine := not !machine
          else begin
            let addr = 0x2000_0000 + Random.State.int rng 0x10000 in
            let access = pick rng all_accesses in
            agree ("pmp-" ^ chip.Mpu_hw.Pmp.chip_name)
              ~cached:(Memory.check mem addr access)
              ~uncached:(Mpu_hw.Pmp.check_access pmp ~machine_mode:!machine addr access)
              addr
          end
        done
      done)
    [ Mpu_hw.Pmp.sifive_e310; Mpu_hw.Pmp.earlgrey ]

let suite =
  [
    Alcotest.test_case "ticktock-arm survives (contracts on)" `Slow
      test_ticktock_survives_fuzzing_with_contracts;
    Alcotest.test_case "ticktock-e310 survives" `Slow test_ticktock_pmp_survives_fuzzing;
    Alcotest.test_case "upstream tock panics (§2.2 DoS)" `Slow
      test_upstream_tock_panics_under_fuzzing;
    Alcotest.test_case "patched tock survives" `Slow test_patched_tock_survives_fuzzing;
    Alcotest.test_case "fuzzers are genuinely hostile" `Slow test_fuzzers_actually_die_sometimes;
    Alcotest.test_case "fuzzing is deterministic" `Quick test_fuzz_deterministic;
    Alcotest.test_case "v7: decision cache agrees with raw walk" `Quick
      test_v7_cache_agreement;
    Alcotest.test_case "v8: decision cache agrees with raw walk" `Quick
      test_v8_cache_agreement;
    Alcotest.test_case "pmp: decision cache agrees with raw walk" `Quick
      test_pmp_cache_agreement;
  ]
