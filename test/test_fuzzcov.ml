(* The coverage-guided fuzzer. The load-bearing properties:

   - the icache coverage map: bucket classification follows the
     power-of-two ladder, reset really zeroes, and the note stream is
     identical whether blocks are being built (cold icache) or run in
     linked traces (warm), so the bitmap cannot depend on cache state;
   - host-flag invisibility: switching coverage on changes nothing the
     model can see — console output and model-only metrics are
     byte-identical with the map on or off;
   - campaign determinism: the report is byte-identical across
     TICKTOCK_JOBS settings and across a kill (stop_after) / resume
     split through the store;
   - triage: every crash class the engine can emit maps into the
     [Verify.Taxonomy], and a crasher's TICKRPL bundle round-trips
     through disk and replays to its recorded crash (test_replay checks
     that the crash is the crasher's own class and site). *)

open Ticktock

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- the coverage map itself --- *)

let test_cov_classes () =
  let ic = Fluxarm.Icache.create () in
  check_bool "coverage starts off" false (Fluxarm.Icache.coverage ic);
  Fluxarm.Icache.cov_note ic 0x100;
  check_int "note with coverage off is a no-op" 0
    (Array.length (Fluxarm.Icache.cov_classified ic));
  Fluxarm.Icache.set_coverage ic true;
  (* hit one pc n times; its block slot must land in class (bucket n) *)
  let class_of n =
    Fluxarm.Icache.cov_reset ic;
    for _ = 1 to n do
      Fluxarm.Icache.cov_note ic 0x100
    done;
    let blocks =
      Fluxarm.Icache.cov_classified ic |> Array.to_list
      |> List.filter (fun (s, _) -> s < Fluxarm.Icache.cov_slots)
    in
    check_int "one pc lights exactly one block slot" 1 (List.length blocks);
    snd (List.hd blocks)
  in
  List.iter
    (fun (n, cls) -> check_int (Printf.sprintf "%d hits -> class %d" n cls) cls (class_of n))
    [ (1, 1); (2, 2); (3, 4); (4, 8); (7, 8); (8, 16); (16, 32); (32, 64); (63, 64);
      (64, 128); (127, 128); (128, 256); (300, 256) ];
  Fluxarm.Icache.cov_reset ic;
  check_int "reset zeroes the map" 0 (Array.length (Fluxarm.Icache.cov_classified ic));
  Fluxarm.Icache.set_coverage ic false;
  check_bool "disable drops the map" false (Fluxarm.Icache.coverage ic)

let test_cov_edges () =
  let ic = Fluxarm.Icache.create () in
  Fluxarm.Icache.set_coverage ic true;
  (* A->B and B->A must be distinct edge slots (the prev lsr 1 trick) *)
  Fluxarm.Icache.cov_note ic 0x100;
  Fluxarm.Icache.cov_note ic 0x200;
  let ab = Fluxarm.Icache.cov_classified ic in
  Fluxarm.Icache.cov_reset ic;
  Fluxarm.Icache.cov_note ic 0x200;
  Fluxarm.Icache.cov_note ic 0x100;
  let ba = Fluxarm.Icache.cov_classified ic in
  check_bool "A->B and B->A light different bitmaps" true (ab <> ba);
  let cc = Fluxarm.Icache.cov_counts ic in
  check_int "two block hits counted" 2 cc.Fluxarm.Icache.cc_block_hits;
  check_int "two edges counted" 2 cc.Fluxarm.Icache.cc_edge_hits

(* The map logs each slot when it first lights and resets, classifies and
   counts over that log. The reference keeps the two plain 64 KiB maps of
   the AFL scheme and scans them, so any slot the log misses, repeats or
   fails to clear shows up as a difference. *)
module Ref_map = struct
  let slots = Fluxarm.Icache.cov_slots

  type t = {
    mutable on : bool;
    blocks : Bytes.t;
    edges : Bytes.t;
    mutable prev : int;
    mutable block_hits : int;
    mutable edge_hits : int;
  }

  let create () =
    {
      on = false;
      blocks = Bytes.make slots '\000';
      edges = Bytes.make slots '\000';
      prev = 0;
      block_hits = 0;
      edge_hits = 0;
    }

  let reset r =
    Bytes.fill r.blocks 0 slots '\000';
    Bytes.fill r.edges 0 slots '\000';
    r.prev <- 0;
    r.block_hits <- 0;
    r.edge_hits <- 0

  let hash pc = ((pc lsr 1) * 0x9E3779B1) lsr (32 - Fluxarm.Icache.cov_bits) land (slots - 1)

  let bump map i =
    let v = Char.code (Bytes.get map i) in
    if v < 255 then Bytes.set map i (Char.chr (v + 1))

  let note r pc =
    if r.on then begin
      let cur = hash pc in
      bump r.blocks cur;
      bump r.edges (cur lxor r.prev);
      r.prev <- cur lsr 1;
      r.block_hits <- r.block_hits + 1;
      r.edge_hits <- r.edge_hits + 1
    end

  let class_of v =
    List.find (fun (hi, _) -> v <= hi) [ (1, 1); (2, 2); (3, 4); (7, 8); (15, 16); (31, 32);
                                         (63, 64); (127, 128); (255, 256) ]
    |> snd

  let classified r =
    if not r.on then [||]
    else
      let acc = ref [] in
      let scan base map =
        for i = slots - 1 downto 0 do
          let v = Char.code (Bytes.get map i) in
          if v > 0 then acc := (base + i, class_of v) :: !acc
        done
      in
      scan slots r.edges;
      scan 0 r.blocks;
      Array.of_list !acc

  let counts r =
    let lit map = Bytes.fold_left (fun n c -> if c = '\000' then n else n + 1) 0 map in
    if not r.on then (0, 0, 0, 0)
    else (lit r.blocks, lit r.edges, r.block_hits, r.edge_hits)
end

type cov_op = Note of int | Burst of int * int | Off_on

let gen_streams =
  let open QCheck.Gen in
  (* a small pool of flash pcs: the same slots and edges recur *)
  let* pool =
    array_size (int_range 1 6) (map (fun h -> 0x0800_0000 + (2 * h)) (int_bound 0x3fff))
  in
  let pc = map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)) in
  let op =
    frequency
      [
        (12, map (fun p -> Note p) pc);
        (2, map2 (fun p n -> Burst (p, n)) pc (int_range 200 700) (* past saturation *));
        (1, return Off_on);
      ]
  in
  list_size (int_range 1 6) (list_size (int_range 0 80) op)

let print_streams =
  let op = function
    | Note p -> Printf.sprintf "%x" p
    | Burst (p, n) -> Printf.sprintf "%x*%d" p n
    | Off_on -> "off-on"
  in
  QCheck.Print.(list (list op))

let prop_cov_matches_reference =
  QCheck.Test.make ~name:"cov: logged map = scanned reference" ~count:200
    (QCheck.make ~print:print_streams gen_streams)
    (fun streams ->
      let ic = Fluxarm.Icache.create () in
      let r = Ref_map.create () in
      let enable () =
        Fluxarm.Icache.set_coverage ic true;
        if not r.Ref_map.on then begin
          Ref_map.reset r;
          r.Ref_map.on <- true
        end
      in
      enable ();
      List.for_all
        (fun stream ->
          Fluxarm.Icache.cov_reset ic;
          Ref_map.reset r;
          List.iter
            (function
              | Note pc ->
                Fluxarm.Icache.cov_note ic pc;
                Ref_map.note r pc
              | Burst (pc, n) ->
                for _ = 1 to n do
                  Fluxarm.Icache.cov_note ic pc;
                  Ref_map.note r pc
                done
              | Off_on ->
                Fluxarm.Icache.set_coverage ic false;
                r.Ref_map.on <- false;
                enable ())
            stream;
          let cc = Fluxarm.Icache.cov_counts ic in
          Fluxarm.Icache.cov_classified ic = Ref_map.classified r
          && ( cc.Fluxarm.Icache.cc_blocks_lit,
               cc.Fluxarm.Icache.cc_edges_lit,
               cc.Fluxarm.Icache.cc_block_hits,
               cc.Fluxarm.Icache.cc_edge_hits )
             = Ref_map.counts r)
        streams)

(* --- one genome, one board: the exec fixture --- *)

let some_genome =
  { Fuzzcov.Input.in_ticks = 1500; in_ops = Array.init 40 (fun i -> (i * 7919) + 3) }

let run_genome board g =
  let k = Fuzzcov.Engine.make_board board in
  let r =
    Verify.Violation.with_enabled
      (Fuzzcov.Engine.contracts_for board)
      (fun () -> Fuzzcov.Engine.run_input k g)
  in
  (k, r)

(* A counted loop: [movw r0, #40] falls into the head [subw r0, #1;
   mov lr, r0; cmp lr, r5; beq exit], the body [addw r1, #3; cmp lr, r5;
   bne head] loops back, and exit is [svc 0]. With r5 = 0 the beq leaves
   once r0 reaches 0. *)
let counted_loop =
  let module T = Fluxarm.Thumb in
  let module R = Fluxarm.Regs in
  let head = [ T.Subw (R.R0, R.R0, 1); T.Mov_to_lr R.R0; T.Cmp_lr R.R5 ] in
  let body = [ T.Addw (R.R1, R.R1, 3); T.Cmp_lr R.R5 ] in
  let bytes l = List.fold_left (fun a i -> a + T.size_bytes i) 0 l in
  (* a b<cond> at address a jumps to a + 4 + 2 * off *)
  (T.Movw (R.R0, 40) :: head)
  @ [ T.B_cond (`Eq, bytes body / 2) ]
  @ body
  @ [ T.B_cond (`Ne, (-(bytes head + 2 + bytes body) - 4) / 2); T.Svc 0 ]

let test_bitmap_superblock_invariant () =
  (* one program, coverage on, run twice on one CPU: cold, where every
     block is built the first time it is reached, then warm, where every
     block enters through a trace and follows its links — the two
     dispatch paths must note the same (block, edge) stream *)
  let mem = Memory.create () in
  let cpu = Fluxarm.Cpu.create mem in
  let ic = Fluxarm.Cpu.icache cpu in
  ignore (Fluxarm.Thumb.assemble mem 0x1000 counted_loop);
  Fluxarm.Icache.set_coverage ic true;
  let run () =
    Fluxarm.Icache.cov_reset ic;
    Fluxarm.Cpu.set_special_raw cpu Fluxarm.Regs.Pc 0x1000;
    let s0 = Fluxarm.Icache.stats ic in
    check_bool "loop ran to its svc" true (Fluxarm.Mc.run cpu = Fluxarm.Mc.Svc_taken 0);
    let s1 = Fluxarm.Icache.stats ic in
    ( Fluxarm.Icache.cov_classified ic,
      Fluxarm.Icache.cov_counts ic,
      s1.Fluxarm.Icache.misses - s0.Fluxarm.Icache.misses,
      s1.Fluxarm.Icache.link_hits - s0.Fluxarm.Icache.link_hits )
  in
  let cov_cold, counts_cold, built_cold, _ = run () in
  let cov_warm, counts_warm, built_warm, links_warm = run () in
  check_bool "cold run built its blocks" true (built_cold > 0);
  check_int "warm run built none" 0 built_warm;
  check_bool "warm run followed links" true (links_warm > 0);
  check_bool "bitmaps identical cold and warm" true (cov_cold = cov_warm);
  check_bool "counts identical cold and warm" true (counts_cold = counts_warm);
  check_bool "the loop lit a class above 1" true (Array.exists (fun (_, c) -> c > 1) cov_warm)

let test_coverage_model_invisible () =
  (* the same input with the coverage map on vs never touched: everything
     model-visible — console bytes and model-only metrics — is identical *)
  let with_cov, r_on = run_genome "ticktock-arm-mc" some_genome in
  let bare = Fuzzcov.Engine.make_board "ticktock-arm-mc" in
  let load name payload program =
    bare.Instance.load ~name ~payload ~program ~min_ram:2048 ~grant_reserve:1024
      ~heap_headroom:2048
    |> Result.get_ok |> ignore
  in
  load "witness" "w" (Apps.App_dsl.to_program Apps.Fuzz.witness_script);
  load "gen" "g" (Apps.App_dsl.to_program (Fuzzcov.Input.script some_genome));
  Verify.Violation.with_enabled true (fun () ->
      try bare.Instance.run ~max_ticks:some_genome.Fuzzcov.Input.in_ticks with
      | Tock_cortexm_mpu.Kernel_panic _ | Verify.Violation.Violation _ -> ());
  check_bool "coverage map was live on the instrumented run" true
    (r_on.Fuzzcov.Engine.ex_hits > 0);
  check_string "console byte-identical with coverage on"
    (bare.Instance.console ()) (with_cov.Instance.console ());
  check_string "model-only metrics byte-identical with coverage on"
    (Obs.Metrics.to_text (Obs.Metrics.model_only (bare.Instance.metrics ())))
    (Obs.Metrics.to_text (Obs.Metrics.model_only (with_cov.Instance.metrics ())))

(* --- campaign determinism --- *)

let small_spec = { Fuzzcov.Engine.default_spec with Fuzzcov.Engine.fc_gens = 6 }

let test_campaign_jobs_determinism () =
  let r1 = Fuzzcov.Engine.run ~jobs:1 small_spec in
  let r3 = Fuzzcov.Engine.run ~jobs:3 small_spec in
  check_bool "campaign completed" true r1.Fuzzcov.Engine.fz_complete;
  check_string "report byte-identical jobs 1 vs 3" r1.Fuzzcov.Engine.fz_report
    r3.Fuzzcov.Engine.fz_report;
  check_bool "the run was actually guided (corpus grew)" true
    (r1.Fuzzcov.Engine.fz_corpus <> []);
  check_bool "coverage was live (buckets lit)" true (r1.Fuzzcov.Engine.fz_bits > 0)

let with_tmp_store f =
  let path = Filename.temp_file "fuzzcov" ".store" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_campaign_kill_resume () =
  with_tmp_store (fun path ->
      let whole = Fuzzcov.Engine.run small_spec in
      let killed = Fuzzcov.Engine.run ~store:path ~stop_after:3 small_spec in
      check_bool "killed run is incomplete" false killed.Fuzzcov.Engine.fz_complete;
      check_int "killed run executed the budget" 3 killed.Fuzzcov.Engine.fz_ran_gens;
      let resumed = Fuzzcov.Engine.run ~store:path ~resume:true small_spec in
      check_bool "resumed run completes" true resumed.Fuzzcov.Engine.fz_complete;
      check_int "resume recovered the committed generations" 3
        resumed.Fuzzcov.Engine.fz_resumed_gens;
      check_int "resume executed only the rest" 3 resumed.Fuzzcov.Engine.fz_ran_gens;
      check_string "report byte-identical to the uninterrupted run"
        whole.Fuzzcov.Engine.fz_report resumed.Fuzzcov.Engine.fz_report)

let test_store_spec_mismatch () =
  with_tmp_store (fun path ->
      let _ = Fuzzcov.Engine.run ~store:path ~stop_after:1 small_spec in
      let other = { small_spec with Fuzzcov.Engine.fc_seed = 99 } in
      check_bool "resume refuses a different spec" true
        (match Fuzzcov.Engine.run ~store:path ~resume:true other with
        | _ -> false
        | exception Fleet.Store.Refused _ -> true))

(* --- triage: crash classes against the taxonomy --- *)

let test_taxonomy_total () =
  (* name/of_name round-trips over the whole taxonomy *)
  List.iter
    (fun c ->
      match Verify.Taxonomy.of_name (Verify.Taxonomy.name c) with
      | Some c' -> check_bool (Verify.Taxonomy.name c ^ " round-trips") true (c = c')
      | None -> Alcotest.fail "taxonomy name does not round-trip")
    Verify.Taxonomy.all;
  (* representative real contract sites classify into each non-synthetic class *)
  let site_of = Verify.Taxonomy.class_of_site in
  check_bool "region sites are spatial" true
    (site_of "CortexMRegion.create: start alignment" = Verify.Taxonomy.Spatial_isolation);
  check_bool "v8 sites are spatial" true
    (site_of "ARMv8MRegion.limit" = Verify.Taxonomy.Spatial_isolation);
  check_bool "allocator sites are memory management" true
    (site_of "AppMemoryAllocator.brk" = Verify.Taxonomy.Memory_management);
  check_bool "switch sites are context switch" true
    (site_of "mc switch_to_user_part1: thread privileged" = Verify.Taxonomy.Context_switch);
  check_bool "dma sites are dma isolation" true
    (site_of "DmaBuffer.read" = Verify.Taxonomy.Dma_isolation);
  check_bool "lemma sites are arithmetic" true
    (site_of "lemma_pow2_octet" = Verify.Taxonomy.Arithmetic_lemma);
  check_bool "unknown sites fall through to Other" true
    (site_of "weird new subsystem" = Verify.Taxonomy.Other)

let test_engine_crash_classes_in_taxonomy () =
  (* every crash the engine can construct carries a class the taxonomy
     names — the report/bundle formats depend on it *)
  let classes =
    [
      Verify.Taxonomy.class_of_site "CortexMRegion.overlap" (* a Violation *);
      Verify.Taxonomy.Kernel_panic (* Tock_cortexm_mpu.Kernel_panic *);
      Verify.Taxonomy.Witness_corruption (* silent witness corruption *);
    ]
  in
  List.iter
    (fun c ->
      check_bool "engine crash class is in the taxonomy" true (List.mem c Verify.Taxonomy.all);
      check_bool "and has a parseable name" true
        (Verify.Taxonomy.of_name (Verify.Taxonomy.name c) = Some c))
    classes

(* What [fuzzcov --bundles] writes and [replay run] reads back. *)
let test_crasher_and_bundle_roundtrip () =
  (* the §2.2 wild-brk panic: upstream Tock crashes under the fuzzer fast *)
  let spec =
    {
      Fuzzcov.Engine.default_spec with
      Fuzzcov.Engine.fc_board = "tock-arm-upstream";
      fc_gens = 8;
    }
  in
  let c =
    match (Fuzzcov.Engine.run spec).Fuzzcov.Engine.fz_crashers with
    | c :: _ -> c
    | [] -> Alcotest.fail "no crasher found on upstream Tock in 8 generations"
  in
  check_bool "crasher class is in the taxonomy" true
    (List.mem c.Fuzzcov.Engine.cr_class Verify.Taxonomy.all);
  let b = Replay.Record.of_fuzzcov spec c in
  with_tmp_store (fun path ->
      Replay.Bundle.save b path;
      let b' = Replay.Bundle.load path in
      check_bool "header round-trips" true (b'.Replay.Bundle.bu_header = b.Replay.Bundle.bu_header);
      check_bool "marks round-trip" true (b'.Replay.Bundle.bu_marks = b.Replay.Bundle.bu_marks);
      check_bool "a crash is recorded" true (b'.Replay.Bundle.bu_header.Replay.Bundle.hd_crash <> None);
      check_bool "loaded bundle replays to the recorded crash" true (Replay.Record.reproduces b'))

(* --- genome wire format --- *)

let test_input_roundtrip () =
  let enc = Fuzzcov.Input.encode some_genome in
  check_bool "encoding is one whitespace-free token" false
    (String.contains enc ' ' || String.contains enc '\n');
  (match Fuzzcov.Input.decode enc with
  | Some g -> check_bool "genome round-trips" true (g = some_genome)
  | None -> Alcotest.fail "genome does not decode");
  check_bool "garbage is rejected" true (Fuzzcov.Input.decode "not-a-genome" = None);
  check_bool "empty op list is rejected" true (Fuzzcov.Input.decode "100:" = None)

let suite =
  [
    Alcotest.test_case "cov: count classes" `Quick test_cov_classes;
    Alcotest.test_case "cov: edge direction" `Quick test_cov_edges;
    QCheck_alcotest.to_alcotest prop_cov_matches_reference;
    Alcotest.test_case "bitmap invariant across superblock" `Quick
      test_bitmap_superblock_invariant;
    Alcotest.test_case "coverage is model-invisible" `Quick test_coverage_model_invisible;
    Alcotest.test_case "campaign: jobs determinism" `Quick test_campaign_jobs_determinism;
    Alcotest.test_case "campaign: kill/resume" `Quick test_campaign_kill_resume;
    Alcotest.test_case "store: spec mismatch refused" `Quick test_store_spec_mismatch;
    Alcotest.test_case "taxonomy is total" `Quick test_taxonomy_total;
    Alcotest.test_case "crash classes are in the taxonomy" `Quick
      test_engine_crash_classes_in_taxonomy;
    Alcotest.test_case "crasher bundle round-trip and replay" `Quick
      test_crasher_and_bundle_roundtrip;
    Alcotest.test_case "genome wire format" `Quick test_input_roundtrip;
  ]
