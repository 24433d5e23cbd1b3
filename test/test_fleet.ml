(* The fleet campaign orchestrator. The load-bearing properties:

   - jobs parsing: one authority ([Jobs]), clamped, with a sane fallback
     on unset/garbage/non-positive values;
   - pool determinism: the work-stealing pool merges results in cell
     order, so jobs=1 and jobs=4 produce identical result arrays;
   - the store: versioned append-only frames round-trip; a strict load
     refuses truncation and version skew; resume recovers every committed
     record from a torn store and refuses a spec mismatch;
   - the driver: a resume drops out-of-range and mismatched records and
     a torn tail and re-runs those cells, and a stop_after kill resumed
     at jobs 1 and 2 equals an uninterrupted run;
   - the campaign: the merged report is byte-identical across any jobs
     setting and across a kill (stop_after) / resume split;
   - fleet throughput counters surface host-flagged in the unified
     metrics snapshot. *)

open Ticktock

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- TICKTOCK_JOBS parsing --- *)

let test_jobs () =
  let d = Jobs.default () in
  check_bool "default is in bounds" true (d >= Jobs.min_jobs && d <= Jobs.max_jobs);
  check_int "unset falls back to default" d (Jobs.of_string None);
  check_int "garbage falls back to default" d (Jobs.of_string (Some "three"));
  check_int "empty falls back to default" d (Jobs.of_string (Some ""));
  check_int "zero falls back to default" d (Jobs.of_string (Some "0"));
  check_int "negative falls back to default" d (Jobs.of_string (Some "-4"));
  check_int "a valid count parses" 4 (Jobs.of_string (Some "4"));
  check_int "whitespace is trimmed" 4 (Jobs.of_string (Some " 4 "));
  check_int "an absurd count clamps" Jobs.max_jobs (Jobs.of_string (Some "100000"))

(* --- the work-stealing pool --- *)

let pool_run ~jobs n =
  Pool.run ~jobs ~batch:2 ~cells:n
    ~init:(fun _w -> ())
    ~cell:(fun () i -> i * i)
    ()

let test_pool_determinism () =
  let r1, _ = pool_run ~jobs:1 100 in
  let r4, s4 = pool_run ~jobs:4 100 in
  check_bool "jobs=1 and jobs=4 merge identically" true (r1 = r4);
  check_int "every cell ran" 100
    (Array.fold_left (fun a -> function Some _ -> a + 1 | None -> a) 0 r4);
  check_int "cell 7 computed 49" 49 (Option.get r4.(7));
  check_bool "steal count is sane" true (s4.Pool.ps_steals >= 0)

let test_pool_skip_and_commit () =
  let committed = ref [] in
  let r, _ =
    Pool.run ~jobs:2 ~batch:1 ~cells:10
      ~skip:(fun i -> i mod 2 = 0)
      ~commit:(fun i v -> committed := (i, v) :: !committed)
      ~init:(fun _w -> ())
      ~cell:(fun () i -> i + 100)
      ()
  in
  Array.iteri
    (fun i v ->
      if i mod 2 = 0 then check_bool "skipped cells stay empty" true (v = None)
      else check_int "run cells land" (i + 100) (Option.get v))
    r;
  check_int "commit fired once per run cell" 5 (List.length !committed);
  List.iter (fun (i, v) -> check_int "commit saw the cell's value" (i + 100) v) !committed

(* --- the store --- *)

let with_temp_store f =
  let path = Filename.temp_file "tickflt" ".store" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_cells t cells =
  List.iter (fun (i, d) -> Fleet.Store.append t ~index:i ~data:d) cells

let test_store_roundtrip () =
  with_temp_store (fun path ->
      let cells = [ (0, "alpha"); (3, "bravo two"); (1, "") ] in
      let t = Fleet.Store.create ~path ~spec:"spec-a" in
      write_cells t cells;
      check_int "append counts records" 3 (Fleet.Store.records t);
      Fleet.Store.close t;
      let spec, recs = Fleet.Store.load path in
      check_string "spec survives" "spec-a" spec;
      check_int "all records survive" 3 (List.length recs);
      List.iteri
        (fun k (i, d) ->
          let r = List.nth recs k in
          check_int "index survives in order" i r.Fleet.Store.rc_index;
          check_string "data survives" d r.Fleet.Store.rc_data)
        cells)

let truncate_file path by =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic (n - by) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_store_truncation () =
  with_temp_store (fun path ->
      let t = Fleet.Store.create ~path ~spec:"spec-a" in
      write_cells t [ (0, "alpha"); (1, "bravo") ];
      Fleet.Store.close t;
      truncate_file path 3;
      (* strict load refuses the torn tail... *)
      (match Fleet.Store.load path with
      | exception Fleet.Store.Refused _ -> ()
      | _ -> Alcotest.fail "expected load to refuse a torn store");
      (* ...resume recovers everything before it and drops the tail *)
      let t, recs = Fleet.Store.resume ~path ~spec:"spec-a" in
      check_int "resume keeps the committed record" 1 (List.length recs);
      check_string "and its payload" "alpha" (List.hd recs).Fleet.Store.rc_data;
      (* the rewrite scrubbed the tail: appends from here are clean *)
      Fleet.Store.append t ~index:1 ~data:"bravo again";
      Fleet.Store.close t;
      let _, recs = Fleet.Store.load path in
      check_int "post-resume store loads strictly" 2 (List.length recs))

let test_store_version_mismatch () =
  with_temp_store (fun path ->
      let t = Fleet.Store.create ~path ~spec:"spec-a" in
      write_cells t [ (0, "alpha") ];
      Fleet.Store.close t;
      (* patch the version byte (offset 8, right after the magic) *)
      let ic = open_in_bin path in
      let s = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      Bytes.set s 8 (Char.chr 99);
      let oc = open_out_bin path in
      output_bytes oc s;
      close_out oc;
      (match Fleet.Store.load path with
      | exception Fleet.Store.Refused _ -> ()
      | _ -> Alcotest.fail "expected load to refuse version 99");
      match Fleet.Store.resume ~path ~spec:"spec-a" with
      | exception Fleet.Store.Refused _ -> ()
      | _ -> Alcotest.fail "expected resume to refuse version 99")

let test_store_corruption_refused_on_resume () =
  with_temp_store (fun path ->
      let t = Fleet.Store.create ~path ~spec:"spec-a" in
      write_cells t [ (0, "alpha"); (1, "bravo") ];
      Fleet.Store.close t;
      (* flip a byte inside the last frame's payload/checksum: a checksum
         mismatch on a complete frame is corruption, not a kill artifact —
         refused in both modes. (A frame's length field is deliberately
         not targeted: a garbled length is indistinguishable from a torn
         tail, which resume is allowed to drop.) *)
      let ic = open_in_bin path in
      let s = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let mid = Bytes.length s - 10 in
      Bytes.set s mid (Char.chr (Char.code (Bytes.get s mid) lxor 0xff));
      let oc = open_out_bin path in
      output_bytes oc s;
      close_out oc;
      match Fleet.Store.resume ~path ~spec:"spec-a" with
      | exception Fleet.Store.Refused _ -> ()
      | _ -> Alcotest.fail "expected resume to refuse a corrupt frame")

let test_store_spec_mismatch () =
  with_temp_store (fun path ->
      let t = Fleet.Store.create ~path ~spec:"spec-a" in
      Fleet.Store.close t;
      match Fleet.Store.resume ~path ~spec:"spec-b" with
      | exception Fleet.Store.Refused _ -> ()
      | _ -> Alcotest.fail "expected resume to refuse a different campaign spec")

(* --- the resumable-campaign driver, on a toy cell type --- *)

type toy = { ty_index : int; ty_value : int }

let toy_total = 12
let toy i = { ty_index = i; ty_value = (i * i) + 7 }
let encode_toy c = Printf.sprintf "%d %d" c.ty_index c.ty_value

let decode_toy s =
  try Scanf.sscanf s "%d %d%!" (fun ty_index ty_value -> Some { ty_index; ty_value })
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* [runs.(i)] counts the executions of cell [i]. *)
let run_toy ?jobs ?store ?resume ?stop_after runs =
  Fleet.Driver.run ?jobs ~batch:1 ?store ?resume ?stop_after ~spec:"toy-v1" ~total:toy_total
    ~encode:encode_toy ~decode:decode_toy
    ~index:(fun c -> c.ty_index)
    ~init:(fun _w -> ())
    ~cell:(fun () i ->
      Atomic.incr runs.(i);
      toy i)
    ()

let fresh_runs () = Array.init toy_total (fun _ -> Atomic.make 0)

let test_driver_resume_drops_bad_records () =
  let open Fleet.Driver in
  let whole = run_toy ~jobs:1 (fresh_runs ()) in
  check_bool "uninterrupted run completes" true whole.complete;
  with_temp_store (fun path ->
      let t = Fleet.Store.create ~path ~spec:"toy-v1" in
      let append i c = Fleet.Store.append t ~index:i ~data:(encode_toy c) in
      (* cells 0..4 committed; then an index past the lattice, a record
         that decodes to a different index, and a torn tail *)
      List.iter (fun i -> append i (toy i)) [ 0; 1; 2; 3; 4 ];
      append toy_total (toy toy_total);
      append 5 (toy 7);
      append 6 (toy 6);
      Fleet.Store.close t;
      truncate_file path 3;
      let runs = fresh_runs () in
      let r = run_toy ~jobs:2 ~store:path ~resume:true runs in
      check_int "only the five good records resume" 5 r.resumed;
      check_int "everything else ran" (toy_total - 5) r.ran;
      Array.iteri
        (fun i n ->
          check_int (Printf.sprintf "cell %d ran iff not resumed" i)
            (if i < 5 then 0 else 1)
            (Atomic.get n))
        runs;
      check_bool "complete" true r.complete;
      check_bool "cells equal the uninterrupted run" true (r.cells = whole.cells);
      (* the store now holds every cell: a second resume runs nothing *)
      let again = run_toy ~store:path ~resume:true (fresh_runs ()) in
      check_int "nothing left to run" 0 again.ran;
      check_bool "and the cells still match" true (again.cells = whole.cells))

let test_driver_stop_after_then_resume () =
  let open Fleet.Driver in
  let whole = run_toy ~jobs:1 (fresh_runs ()) in
  List.iter
    (fun jobs ->
      with_temp_store (fun path ->
          let killed = run_toy ~jobs ~store:path ~stop_after:4 (fresh_runs ()) in
          check_bool "the kill leaves the campaign incomplete" false killed.complete;
          check_bool "after at least the budget" true (killed.ran >= 4);
          let resumed = run_toy ~jobs ~store:path ~resume:true (fresh_runs ()) in
          check_bool "resume completes" true resumed.complete;
          check_int "resumed what the kill committed" killed.ran resumed.resumed;
          check_int "and ran the rest" toy_total (resumed.resumed + resumed.ran);
          check_bool
            (Printf.sprintf "jobs=%d: kill/resume equals the uninterrupted run" jobs)
            true (resumed.cells = whole.cells)))
    [ 1; 2 ]

(* --- the campaign --- *)

(* Small but real: two boards, two plans, enough cells to spread across
   workers and batches. *)
let small_spec =
  {
    Fleet.Campaign.sp_boards = [ "ticktock-arm"; "ticktock-e310" ];
    sp_plans =
      [
        { Fleet.Campaign.pl_name = "light"; pl_fuzzers = 2; pl_steps = 20 };
        { Fleet.Campaign.pl_name = "burst"; pl_fuzzers = 3; pl_steps = 12 };
      ];
    sp_cells = 24;
    sp_max_ticks = 1200;
  }

let run_campaign ?jobs ?store ?resume ?stop_after () =
  Verify.Violation.with_enabled true (fun () ->
      Fleet.Campaign.run ?jobs ~batch:2 ?store ?resume ?stop_after small_spec)

let test_campaign_jobs_identity () =
  let r1 = run_campaign ~jobs:1 () in
  let r4 = run_campaign ~jobs:4 () in
  check_bool "jobs=1 campaign completes ok" true
    (r1.Fleet.Campaign.fl_complete && r1.Fleet.Campaign.fl_ok);
  check_bool "report is non-empty" true (String.length r1.Fleet.Campaign.fl_report > 0);
  check_string "report byte-identical: jobs=1 vs jobs=4" r1.Fleet.Campaign.fl_report
    r4.Fleet.Campaign.fl_report;
  check_int "every cell forked a board" 24 r1.Fleet.Campaign.fl_forked;
  check_bool "each worker booted each board at most once" true
    (r4.Fleet.Campaign.fl_booted <= 4 * 2)

let test_campaign_kill_resume_identity () =
  let uninterrupted = run_campaign ~jobs:2 () in
  with_temp_store (fun path ->
      Sys.remove path (* resume wants to create it fresh *);
      let killed = run_campaign ~jobs:2 ~store:path ~resume:true ~stop_after:9 () in
      check_bool "the kill left the campaign incomplete" false
        killed.Fleet.Campaign.fl_complete;
      check_bool "but committed what it ran" true (killed.Fleet.Campaign.fl_ran >= 9);
      let resumed = run_campaign ~jobs:3 ~store:path ~resume:true () in
      check_bool "resume completes the campaign" true resumed.Fleet.Campaign.fl_complete;
      check_bool "resume recovered the killed run's cells" true
        (resumed.Fleet.Campaign.fl_resumed >= 9);
      check_bool "and only ran the rest" true
        (resumed.Fleet.Campaign.fl_ran + resumed.Fleet.Campaign.fl_resumed = 24);
      check_string "report byte-identical: kill/resume vs uninterrupted"
        uninterrupted.Fleet.Campaign.fl_report resumed.Fleet.Campaign.fl_report)

let test_campaign_counters () =
  Obs.Metrics.host_reset ();
  let r = run_campaign ~jobs:2 () in
  check_bool "campaign ok" true r.Fleet.Campaign.fl_ok;
  check_int "fleet/cells_run counts every cell" 24 (Obs.Metrics.host_read "fleet/cells_run");
  check_int "fleet/boards_forked counts every fork" 24
    (Obs.Metrics.host_read "fleet/boards_forked");
  check_bool "fleet/steals mirrors the pool" true
    (Obs.Metrics.host_read "fleet/steals" = r.Fleet.Campaign.fl_steals)

let test_campaign_unknown_board () =
  match
    Fleet.Campaign.run { small_spec with Fleet.Campaign.sp_boards = [ "tock-arm-typo" ] }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected an unknown board to be refused"

let suite =
  [
    Alcotest.test_case "TICKTOCK_JOBS parsing" `Quick test_jobs;
    Alcotest.test_case "pool: jobs=1 = jobs=4" `Quick test_pool_determinism;
    Alcotest.test_case "pool: skip and commit" `Quick test_pool_skip_and_commit;
    Alcotest.test_case "store: roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store: torn tail (load refuses, resume recovers)" `Quick
      test_store_truncation;
    Alcotest.test_case "store: version mismatch refused" `Quick test_store_version_mismatch;
    Alcotest.test_case "store: corruption refused on resume" `Quick
      test_store_corruption_refused_on_resume;
    Alcotest.test_case "store: spec mismatch refused" `Quick test_store_spec_mismatch;
    Alcotest.test_case "driver: resume drops bad records" `Quick
      test_driver_resume_drops_bad_records;
    Alcotest.test_case "driver: stop_after then resume" `Quick test_driver_stop_after_then_resume;
    Alcotest.test_case "campaign: report identical across jobs" `Quick
      test_campaign_jobs_identity;
    Alcotest.test_case "campaign: report identical across kill/resume" `Quick
      test_campaign_kill_resume_identity;
    Alcotest.test_case "campaign: fleet host counters" `Quick test_campaign_counters;
    Alcotest.test_case "campaign: unknown board refused" `Quick test_campaign_unknown_board;
  ]
