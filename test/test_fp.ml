(* The fingerprint function. Every TICKSNAP, TICKRPL and TICKFLT file on
   disk stores FNV-1a values, so a change to any value makes saved files
   refuse to load. The fold is pinned two ways: a property against a
   byte-at-a-time FNV-1a kept here, and golden values of freshly booted
   boards and of one recorded session. *)

open Ticktock

let check_string = Alcotest.(check string)
let check_fp what a b = check_string what (Fp.to_hex a) (Fp.to_hex b)

(* --- the reference: textbook FNV-1a, one byte at a time --- *)

let ref_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) 0x100000001b3L

let ref_raw h s = String.fold_left (fun h c -> ref_byte h (Char.code c)) h s

(* A 64-bit value as its 8 little-endian bytes; ints are sign-extended. *)
let ref_int64 h v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  ref_raw h (Bytes.to_string b)

let ref_int h v = ref_int64 h (Int64.of_int v)
let ref_string h s = ref_raw (ref_int h (String.length s)) s

let test_reference_vectors () =
  (* the published FNV-1a 64 test vectors anchor the reference itself *)
  check_fp "empty" 0xcbf29ce484222325L (ref_raw Fp.seed "");
  check_fp "a" 0xaf63dc4c8601ec8cL (ref_raw Fp.seed "a");
  check_fp "foobar" 0x85944171f73967e8L (ref_raw Fp.seed "foobar")

(* Strings of zero runs and random bytes: zero-run lengths cross the
   512-word table limit, and most lengths are not multiples of 8. *)
let gen_data =
  QCheck.Gen.(
    let zeros = map (fun n -> String.make n '\000') (int_range 0 9000) in
    let noise = string_size ~gen:char (int_range 0 40) in
    map (String.concat "") (list_size (int_range 0 5) (oneof [ zeros; noise ])))

let gen_int = QCheck.Gen.(oneof [ int; small_signed_int; oneofl [ min_int; max_int; -1; 0 ] ])

let gen_int64 =
  QCheck.Gen.(oneof [ int64; oneofl [ Int64.min_int; Int64.max_int; -1L; 0L ] ])

let prop_matches_reference =
  QCheck.Test.make ~name:"Fp folds equal byte-at-a-time FNV-1a" ~count:300
    (QCheck.make
       ~print:(fun (h, s, v, w) ->
         Printf.sprintf "h=%Lx len=%d v=%d w=%Lx" h (String.length s) v w)
       QCheck.Gen.(quad int64 gen_data gen_int gen_int64))
    (fun (h, s, v, w) ->
      let want = ref_string h s in
      Int64.equal (Fp.string h s) want
      && Int64.equal (Fp.bytes h (Bytes.of_string s)) want
      && Int64.equal (Fp.int h v) (ref_int h v)
      && Int64.equal (Fp.int64 h w) (ref_int64 h w))

let test_edges () =
  List.iter
    (fun len ->
      let zeros = String.make len '\000' in
      check_fp (Printf.sprintf "%d zero bytes" len) (ref_string Fp.seed zeros)
        (Fp.string Fp.seed zeros);
      let tail = zeros ^ "\001" in
      check_fp (Printf.sprintf "%d zero bytes then one" len) (ref_string Fp.seed tail)
        (Fp.string Fp.seed tail))
    [ 0; 1; 7; 8; 9; 4095; 4096; 512 * 8; (513 * 8) + 3; 1025 * 8; 3 * 4096 ];
  List.iter
    (fun v -> check_fp (Printf.sprintf "int %d" v) (ref_int Fp.seed v) (Fp.int Fp.seed v))
    [ min_int; max_int; -1; 0; 1; -256 ];
  List.iter
    (fun v -> check_fp (Printf.sprintf "int64 %Lx" v) (ref_int64 Fp.seed v) (Fp.int64 Fp.seed v))
    [ Int64.min_int; Int64.max_int; -1L; 0L ]

(* --- golden values ---

   Taken with the byte-at-a-time fold. The kernel fingerprint hashes the
   absolute cycle counter, so each board boots from zero, as replay
   sessions do. Every board any harness can build is pinned twice: freshly
   booted (memory map, device registers in restore order, kernel state)
   and after a short run (what the board then does with them). *)

let fp_of (k : Instance.t) = Fp.to_hex (Snapshot.fingerprint (Option.get k.Instance.snap_target))

let check_board what ~fresh ~after boot run =
  Cycles.set Cycles.global 0;
  let k = boot () in
  check_string (what ^ ", fresh") fresh (fp_of k);
  Verify.Violation.with_enabled false (fun () -> run k);
  check_string (what ^ ", after a run") after (fp_of k)

let run_suite k = ignore (Apps.Difftest.run_suite ~max_ticks:300 k)

let boards_golden =
  [
    ("ticktock-arm", "7879e3b96207689f", "8acad5028cfeece5");
    ("ticktock-arm-mc", "c15ec1888d25738d", "931323dffd4df48a");
    ("ticktock-arm-v8", "261333c054c14f63", "1a9dd27326fe7bac");
    ("tock-arm-upstream", "c0419aba3b1fa6b1", "fa4579da419e004b");
    ("tock-arm-patched", "e694d7097f2401a8", "76caa8036110a4fa");
    ("ticktock-e310", "2a74c86b7560ad4e", "91b820faf8d82e54");
    ("ticktock-earlgrey", "6a59ad2edcba6f2b", "4e30ad5674c122fd");
    ("ticktock-qemu-rv32", "88d4adc31639b5c4", "60a1240f23fd1757");
    ("tock-pmp-upstream", "934689e1680bda97", "9c234ced441824e0");
    ("tock-pmp-patched", "3a8ba926b33181a0", "e154800b0a54bc8f");
  ]

let std_board_golden =
  [
    ("ticktock-arm", "f4500780dd6b4ebd", "663564e880136028");
    ("ticktock-arm-mc", "d8574a2dbc835953", "5e9020c6326e396e");
    ("ticktock-arm-v8", "37f40ac06d767921", "e88b3809d3386505");
    ("ticktock-e310", "07d3ae5e0928d2bc", "4a40127f1a2b4b22");
    ("ticktock-earlgrey", "04bd95dd1841b997", "28663e478233d90b");
    ("ticktock-qemu", "821acfa7fde9b382", "7e91d7b6e02d99fc");
    ("tock-arm-upstream", "b3f8ab1b1d3aaa37", "bda6388029cf023d");
    ("tock-arm-patched", "f7b74f5793d89056", "a63d197774626288");
  ]

let chaos_golden =
  [
    ("ticktock-arm", "5be77fdd1d850e73", "4b13be30b5f1d265");
    ("ticktock-arm-v8", "f932db4ec8fcbf07", "e05918da94670195");
    ("ticktock-e310", "c10ada8071bb00b6", "dce40f42295c4242");
  ]

(* A board added to a registry without a pinned value fails here. *)
let check_pinned what names golden =
  Alcotest.(check (list string))
    (what ^ ": every board pinned")
    names
    (List.map (fun (b, _, _) -> b) golden)

let test_golden_boards () =
  check_pinned "Boards" (List.map fst Boards.all_instances) boards_golden;
  check_pinned "Std_board" Capsules.Std_board.board_names std_board_golden;
  check_pinned "Chaos.Targets"
    (List.map (fun b -> b.Chaos.Targets.tb_name) Chaos.Targets.boards)
    chaos_golden;
  List.iter
    (fun (board, fresh, after) ->
      check_board ("Boards " ^ board) ~fresh ~after (List.assoc board Boards.all_instances) run_suite)
    boards_golden;
  List.iter
    (fun (board, fresh, after) ->
      check_board ("Std_board " ^ board) ~fresh ~after
        (fun () -> Capsules.Std_board.make ~what:"Test" board)
        run_suite)
    std_board_golden;
  List.iter
    (fun (board, fresh, after) ->
      let target = Option.get (Chaos.Targets.find board) in
      check_board ("Chaos.Targets " ^ board) ~fresh ~after
        (fun () ->
          let setup = Chaos.Campaign.setup_of ~chaos:(Some (Chaos_intf.create ())) ~seed:1 in
          (target.Chaos.Targets.tb_make setup).Chaos.Targets.bd_instance)
        (fun k ->
          ignore (Chaos.Campaign.load_suite k);
          k.Instance.run ~max_ticks:500))
    chaos_golden

(* The session that test/expected/replay-arm-seed7.tickrpl holds: its final
   fingerprint is pinned here and its on-disk form by scripts/ci.sh. *)
let test_golden_session () =
  let b =
    Verify.Violation.with_enabled true (fun () ->
        let lv =
          Replay.Record.board_live ~what:"Test" ~board:"ticktock-arm" ~horizon:1500
            (Replay.Schedule.fleet_cell ~seed:7 ~fuzzers:4 ~steps:400)
        in
        Replay.Record.record ~interval:4 lv)
  in
  check_string "fleet cell seed 7, final fingerprint" "83b0ecc21ed29bb9"
    (Fp.to_hex b.Replay.Bundle.bu_header.Replay.Bundle.hd_final_fp)

let suite =
  [
    Alcotest.test_case "reference is FNV-1a" `Quick test_reference_vectors;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "zero runs, odd lengths, extreme ints" `Quick test_edges;
    Alcotest.test_case "golden: freshly booted boards" `Quick test_golden_boards;
    Alcotest.test_case "golden: recorded fleet-cell session" `Quick test_golden_session;
  ]
