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
   sessions do. *)

let test_golden_boards () =
  List.iter
    (fun (board, want) ->
      Cycles.set Cycles.global 0;
      let k = Capsules.Std_board.make ~what:"Test" board in
      check_string board want
        (Fp.to_hex (Snapshot.fingerprint (Option.get k.Instance.snap_target))))
    [
      ("ticktock-arm", "f4500780dd6b4ebd");
      ("ticktock-arm-v8", "37f40ac06d767921");
      ("ticktock-e310", "07d3ae5e0928d2bc");
    ]

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
