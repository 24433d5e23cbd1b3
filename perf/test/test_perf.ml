(* Smoke test of the benchmark (a few seconds): every workload at its
   minimal size, untraced and traced, through the same code paths as a
   full run; reference checking; [compare] on synthetic results; and the
   metric names BENCHMARK.json declares. *)

open Perf

let refs = "test-references"
let scratch = "test-scratch"

let () =
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ refs; scratch ];
  Harness.ref_dir := refs;
  Workloads.scratch_dir := scratch

let metric (r : Harness.result) name =
  (List.find (fun m -> m.Harness.m_name = name) r.Harness.metrics).Harness.m_value

(* Traced outputs equal untraced ones (a mismatch would count every unit
   as failed), and named layers cover at least 90% of the traced wall.
   The share is a timing over a few tens of milliseconds, where one
   preemption by another process can land in harness code; a run over
   the line is retried twice before the check fails. *)
let traced_matches_untraced (w : Workloads.t) () =
  let rec attempt retries =
    let r, _ = Harness.measure_trace w ~size:Workloads.Smoke ~seed:1 ~seconds:0. in
    Alcotest.(check int) "no failed units" 0 r.Harness.failed;
    Alcotest.(check bool) "units ran" true (r.Harness.attempted > 0);
    let un = metric r "unattributed.share" in
    if un > 0.10 then
      if retries > 0 then attempt (retries - 1)
      else Alcotest.failf "unattributed.share %.3f > 0.10" un
  in
  attempt 2

let corrupted_reference () =
  let w = Workloads.fleet in
  let clean = Harness.measure w ~size:Workloads.Smoke ~seed:3 ~seconds:0. in
  Alcotest.(check int) "clean run passes" 0 clean.Harness.failed;
  let path = Harness.ref_path w.Workloads.name 3 in
  Harness.write_ref path
    (List.map (fun (k, v) -> if k = "fleet.report" then (k, "0" ^ v) else (k, v)) clean.Harness.digest);
  let bad =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () -> Harness.measure w ~size:Workloads.Smoke ~seed:3 ~seconds:0.)
  in
  Alcotest.(check (float 1e-9)) "fail_pct" 100. (Harness.fail_pct bad)

(* --- compare on synthetic results --- *)

let bench_file =
  Json.to_string
    (Json.Obj
       [
         ( "end_to_end",
           Json.Arr
             [
               Json.Obj
                 [ ("name", Json.Str "units_per_s"); ("unit", Json.Str "1/s"); ("better", Json.Str "higher"); ("bound", Json.Num 0.1) ];
               Json.Obj
                 [ ("name", Json.Str "setup_s"); ("unit", Json.Str "s"); ("better", Json.Str "lower"); ("bound", Json.Num 0.25) ];
               Json.Obj
                 [ ("name", Json.Str "unit_p50_ms"); ("unit", Json.Str "ms"); ("better", Json.Str "lower"); ("bound", Json.Num 0.1) ];
             ] );
       ])

let result ?(digest = "d1") ?(fail = 0.) ?p50 ~ups ~setup () =
  let m samples =
    Json.Obj
      [
        ("value", Json.Num (Stats.median samples));
        ("unit", Json.Str "x");
        ("samples", Json.Arr (List.map (fun v -> Json.Num v) samples));
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("workload", Json.Str "suite");
         ("seed", Json.Num 1.);
         ("fail_pct", Json.Num fail);
         ("digest", Json.Obj [ ("suite.report", Json.Str digest) ]);
         ( "metrics",
           Json.Obj
             ([ ("units_per_s", m ups); ("setup_s", m setup) ]
             @ match p50 with Some p -> [ ("unit_p50_ms", m p) ] | None -> []) );
       ])

let write name contents =
  let path = Filename.concat scratch name in
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc;
  path

let compare_synthetic () =
  let bench = write "bench.json" bench_file in
  let base = write "a.jsonl" (result ~ups:[ 100.; 101.; 99. ] ~setup:[ 1.; 1.; 1. ] ()) in
  let cmp name b = Harness.compare ~bench base (write name b) in
  Alcotest.(check int) "same" 0 (cmp "same.jsonl" (result ~ups:[ 98.; 100.; 99. ] ~setup:[ 1.; 1.1; 1. ] ()));
  Alcotest.(check int) "20% slower" 1 (cmp "slow.jsonl" (result ~ups:[ 80.; 81.; 79. ] ~setup:[ 1.; 1.; 1. ] ()));
  Alcotest.(check int) "spread wider than the bound is unresolved" 3
    (cmp "noisy.jsonl" (result ~ups:[ 30.; 60.; 100.; 130. ] ~setup:[ 1.; 1.; 1. ] ()));
  Alcotest.(check int) "wide spread, every run better: ok" 0
    (cmp "noisy-better.jsonl" (result ~ups:[ 110.; 150.; 200.; 300. ] ~setup:[ 1.; 1.; 1. ] ()));
  Alcotest.(check int) "wide spread, every run worse: a regression" 1
    (cmp "noisy-worse.jsonl" (result ~ups:[ 10.; 20.; 40.; 60. ] ~setup:[ 1.; 1.; 1. ] ()));
  Alcotest.(check int) "wide spread, worse by more than bound plus spread: a regression" 1
    (cmp "noisy-far.jsonl"
       (result ~ups:[ 30.; 32.; 34.; 36.; 38.; 40.; 42.; 101. ] ~setup:[ 1.; 1.; 1. ] ()));
  Alcotest.(check int) "setup 50% slower" 1 (cmp "setup.jsonl" (result ~ups:[ 100. ] ~setup:[ 1.5; 1.5; 1.5 ] ()));
  Alcotest.(check int) "outputs differ" 1
    (cmp "digest.jsonl" (result ~digest:"d2" ~ups:[ 100. ] ~setup:[ 1. ] ()));
  Alcotest.(check int) "more failures" 1
    (cmp "fail.jsonl" (result ~fail:1. ~ups:[ 100. ] ~setup:[ 1. ] ()));
  Alcotest.(check int) "a metric measured on one side only" 1
    (cmp "p50.jsonl" (result ~p50:[ 1. ] ~ups:[ 100. ] ~setup:[ 1. ] ()))

(* --- BENCHMARK.json declares exactly what the benchmark prints --- *)

let declared () =
  let j = Json.parse (Harness.read_file "../../BENCHMARK.json") in
  let names key = List.map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member key j)) in
  Alcotest.(check (list string)) "workloads"
    (List.map (fun w -> w.Workloads.name) Workloads.all)
    (names "workloads");
  Alcotest.(check (list string)) "end_to_end" Harness.e2e_names (names "end_to_end");
  Alcotest.(check (list (triple string string string)))
    "per_layer"
    (List.map (fun (n, d) -> (n, d.Harness.unit_of, d.Harness.better)) Harness.layer_catalogue)
    (List.map
       (fun m -> Json.(to_str (member "name" m), to_str (member "unit" m), to_str (member "better" m)))
       (Json.to_list (Json.member "per_layer" j)));
  (* every per-layer metric names the end-to-end metrics and workloads it moves *)
  List.iter
    (fun (n, d) ->
      List.iter
        (fun e -> if not (List.mem e Harness.e2e_names) then Alcotest.failf "%s moves unknown %s" n e)
        d.Harness.moves;
      List.iter
        (fun w -> if Workloads.find w = None then Alcotest.failf "%s moves unknown workload %s" n w)
        d.Harness.on;
      if (d.Harness.moves = []) <> (d.Harness.on = []) then Alcotest.failf "%s: moves without workloads" n)
    Harness.layer_catalogue

let quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ]

let () =
  Alcotest.run "perf"
    [
      ( "workloads",
        List.map
          (fun (w : Workloads.t) ->
            Alcotest.test_case (w.Workloads.name ^ " traced = untraced") `Quick (traced_matches_untraced w))
          Workloads.all );
      ( "harness",
        [
          Alcotest.test_case "corrupted reference fails every unit" `Quick corrupted_reference;
          Alcotest.test_case "compare applies the bounds" `Quick compare_synthetic;
          Alcotest.test_case "BENCHMARK.json matches the metrics" `Quick declared;
          Alcotest.test_case "quartiles as Python computes them" `Quick quartiles_match_python;
        ] );
    ]
