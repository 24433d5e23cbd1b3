(** Sampling, metrics, references and comparison: everything the
    [perf/main.exe] commands do. *)

type sample = { setup : float; wall : float; out : Workloads.outcome }

let now_s = Workloads.now_s

let timed f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

let min_samples = 3
let max_samples = 50

(* GC time and allocation inside traced work, summed over traced samples. *)
type gc_acc = {
  mutable minor_ns : int;
  mutable major_ns : int;
  mutable minor_words : float;
  mutable promoted_words : float;
}

let gc_acc = { minor_ns = 0; major_ns = 0; minor_words = 0.; promoted_words = 0. }

let traced_work go =
  Gcstat.poll ();
  let m0 = Gcstat.minor_ns () and j0 = Gcstat.major_ns () and w0, p0 = Gcstat.words () in
  Span.active := true;
  let r =
    Fun.protect
      ~finally:(fun () -> Span.active := false)
      (fun () -> timed (fun () -> Span.span Span.glue go))
  in
  Gcstat.poll ();
  let w1, p1 = Gcstat.words () in
  gc_acc.minor_ns <- gc_acc.minor_ns + Gcstat.minor_ns () - m0;
  gc_acc.major_ns <- gc_acc.major_ns + Gcstat.major_ns () - j0;
  gc_acc.minor_words <- gc_acc.minor_words +. w1 -. w0;
  gc_acc.promoted_words <- gc_acc.promoted_words +. p1 -. p0;
  r

(* A set-up can take well under a millisecond, where one timer tick or
   cache refill moves a single reading by half. Each sample repeats it (up
   to 25 times, until 50 ms have gone) and keeps the fastest. The last
   one prepared runs the sample. *)
let setup_budget_s = 0.05

let prepare_repeated (w : Workloads.t) ~size ~seed ~traced =
  let rec go n spent fastest =
    let p, t = timed (fun () -> w.Workloads.prepare ~size ~seed ~traced) in
    let spent = spent +. t and fastest = Float.min fastest t in
    if spent >= setup_budget_s || n + 1 >= 25 then (p, fastest) else go (n + 1) spent fastest
  in
  go 0 0. infinity

(* One sample: a full major GC outside the timed region, then the timed
   set-up, then the timed work. In a traced sample only the work runs
   under spans. *)
let one_sample (w : Workloads.t) ~size ~seed ~traced =
  Gc.full_major ();
  let go, setup = prepare_repeated w ~size ~seed ~traced in
  let out, wall = if traced then traced_work go else timed go in
  { setup; wall; out }

(* Samples until [seconds] have elapsed, at least [min] of them. *)
let sample_loop ?(min = min_samples) w ~size ~seed ~seconds ~traced =
  let t0 = now_s () in
  let rec go acc n =
    if n >= min && (now_s () -. t0 >= seconds || n >= max_samples) then List.rev acc
    else go (one_sample w ~size ~seed ~traced :: acc) (n + 1)
  in
  go [] 0

(* --- references ---------------------------------------------------- *)

let ref_dir = ref (Filename.concat "perf" "reference")
let ref_path name seed = Filename.concat !ref_dir (Printf.sprintf "%s-seed%d" name seed)

let read_ref path =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec lines acc =
          match input_line ic with
          | line -> (
            match String.index_opt line ' ' with
            | Some i -> lines ((String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)) :: acc)
            | None -> lines acc)
          | exception End_of_file -> List.rev acc
        in
        Some (lines []))

let write_ref path digest =
  let oc = open_out path in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) digest;
  close_out oc

(* The digest differences between two output sets, as readable lines. *)
let digest_diff ~expected ~got =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k got with
      | Some v' when v' = v -> None
      | Some v' -> Some (Printf.sprintf "%s: expected %s, got %s" k v v')
      | None -> Some (Printf.sprintf "%s: missing" k))
    expected
  @ List.filter_map
      (fun (k, _) -> if List.mem_assoc k expected then None else Some (k ^ ": unexpected"))
      got

(** Failed and attempted units over [samples]. Every sample must reproduce
    [expected] (the reference, or the first sample's outputs when the seed
    has none); a mismatch counts every unit as failed. *)
let verdict ~expected samples =
  let attempted = List.fold_left (fun a s -> a + s.out.Workloads.units) 0 samples in
  let failed = List.fold_left (fun a s -> a + s.out.Workloads.failed) 0 samples in
  let diffs =
    List.concat_map (fun s -> digest_diff ~expected ~got:s.out.Workloads.digest) samples
    |> List.sort_uniq compare
  in
  List.iter (fun d -> prerr_endline ("perf: output mismatch: " ^ d)) diffs;
  (attempted, if diffs = [] then failed else attempted)

let expected_digest name ~seed (first : sample) =
  match read_ref (ref_path name seed) with
  | Some r -> r
  | None ->
    Printf.eprintf "perf: no reference %s; checking samples against each other\n%!"
      (ref_path name seed);
    first.out.Workloads.digest

(* --- end-to-end metrics -------------------------------------------- *)

type metric = { m_name : string; m_unit : string; m_value : float; m_samples : float list }

let e2e_names = [ "units_per_s"; "unit_p50_ms"; "unit_p90_ms"; "setup_s"; "peak_heap_mb" ]
let latency_names = [ "unit_p50_ms"; "unit_p90_ms" ]

(** Whether every sample timed its units one by one. Campaign cells run
    inside one library call, where no single unit's latency can be seen. *)
let per_unit_latency samples =
  List.for_all (fun s -> Array.length s.out.Workloads.lat > 0) samples

(* Each per-sample value is summarized by {!Stats.better_half_median}:
   contention from other tenants only slows samples, in stretches of
   seconds. A unit latency percentile is taken per sample first, so a
   burst cannot fill the tail on its own. Without per-unit latencies a
   sample's value is its mean unit time, 1000 / units_per_s: the result
   line must carry every end-to-end metric, but [run --out] leaves these
   out, so [compare] does not count one throughput change three times. *)
let latency_ms samples p =
  let per =
    List.map
      (fun s ->
        if Array.length s.out.Workloads.lat > 0 then Stats.percentile s.out.Workloads.lat p *. 1e3
        else s.wall *. 1e3 /. float_of_int (max 1 s.out.Workloads.units))
      samples
  in
  (Stats.better_half_median ~lower:true per, per)

let e2e samples =
  let per f = List.map f samples in
  let metric m_name m_unit (m_value, m_samples) = { m_name; m_unit; m_value; m_samples } in
  let ups = per (fun s -> float_of_int s.out.Workloads.units /. s.wall) in
  let setups = per (fun s -> s.setup) in
  let heap = Gcstat.peak_heap_mb () in
  [
    metric "units_per_s" "1/s" (Stats.better_half_median ~lower:false ups, ups);
    metric "unit_p50_ms" "ms" (latency_ms samples 50.);
    metric "unit_p90_ms" "ms" (latency_ms samples 90.);
    metric "setup_s" "s" (Stats.better_half_median ~lower:true setups, setups);
    metric "peak_heap_mb" "MB" (heap, [ heap ]);
  ]

(* --- output -------------------------------------------------------- *)

let metrics_json ?(samples = false) metrics =
  Json.Obj
    (List.map
       (fun m ->
         ( m.m_name,
           Json.Obj
             ([ ("value", Json.Num m.m_value); ("unit", Json.Str m.m_unit) ]
             @ if samples then [ ("samples", Json.Arr (List.map (fun v -> Json.Num v) m.m_samples)) ]
               else []) ))
       metrics)

let result_json ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool (failed = 0));
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("metrics", metrics_json metrics);
    ]

let print_table metrics =
  List.iter (fun m -> Printf.printf "  %-34s %14.6g %s\n" m.m_name m.m_value m.m_unit) metrics

type result = {
  samples : int;
  attempted : int;
  failed : int;
  metrics : metric list;
  per_unit : bool;  (** whether the latency metrics are per-unit percentiles *)
  digest : (string * string) list;  (** the outputs of the first sample *)
}

let fail_pct r = 100. *. float_of_int r.failed /. float_of_int (max 1 r.attempted)

(** An untraced run: warm-up, then timed samples until [seconds]. *)
let measure (w : Workloads.t) ~size ~seed ~seconds =
  let warm = one_sample w ~size ~seed ~traced:false in
  let samples = sample_loop w ~size ~seed ~seconds ~traced:false in
  let expected = expected_digest w.Workloads.name ~seed warm in
  let attempted, failed = verdict ~expected samples in
  {
    samples = List.length samples;
    attempted;
    failed;
    metrics = e2e samples;
    per_unit = per_unit_latency samples;
    digest = warm.out.Workloads.digest;
  }

(** [run]: prints the end-to-end metrics and, with [out], appends the full
    result (per-sample values and output digests) to that file for
    [compare]. Returns the process exit code. *)
let run (w : Workloads.t) ~size ~seed ~seconds ~out =
  let r = measure w ~size ~seed ~seconds in
  Printf.printf "perf run %s seed %d: %d samples, %d units, fail_pct %.2f\n" w.Workloads.name seed
    r.samples r.attempted (fail_pct r);
  print_table r.metrics;
  if not r.per_unit then
    Printf.printf "  (no per-unit latencies here: %s are the mean unit time)\n"
      (String.concat " and " latency_names);
  (match out with
  | None -> ()
  | Some path ->
    let saved =
      if r.per_unit then r.metrics
      else List.filter (fun m -> not (List.mem m.m_name latency_names)) r.metrics
    in
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    output_string oc
      (Json.to_string
         (Json.Obj
            [
              ("workload", Json.Str w.Workloads.name);
              ("seed", Json.Num (float_of_int seed));
              ("fail_pct", Json.Num (fail_pct r));
              ("digest", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.digest));
              ("metrics", metrics_json ~samples:true saved);
            ]));
    output_char oc '\n';
    close_out oc);
  print_endline (Json.to_string (result_json ~attempted:r.attempted ~failed:r.failed r.metrics));
  0

(** [bless]: one untraced sample of every workload at seeds 1 and 2, its
    output digests written as the references [run] and [trace] check
    against. Refuses to bless a sample with failed units. *)
let bless () =
  if not (Sys.file_exists !ref_dir) then Sys.mkdir !ref_dir 0o755;
  List.fold_left
    (fun code (w : Workloads.t) ->
      List.fold_left
        (fun code seed ->
          let s = one_sample w ~size:Workloads.Full ~seed ~traced:false in
          if s.out.Workloads.failed > 0 then begin
            Printf.eprintf "perf bless: %s seed %d has %d failed units; not blessed\n"
              w.Workloads.name seed s.out.Workloads.failed;
            1
          end
          else begin
            write_ref (ref_path w.Workloads.name seed) s.out.Workloads.digest;
            Printf.printf "blessed %s\n%!" (ref_path w.Workloads.name seed);
            code
          end)
        code [ 1; 2 ])
    0 Workloads.all

(* --- compare ------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(** The end-to-end metrics of a [BENCHMARK.json]: name, direction, bound. *)
let load_bounds path =
  List.map
    (fun m -> Json.(to_str (member "name" m), to_str (member "better" m), to_float (member "bound" m)))
    (Json.to_list (Json.member "end_to_end" (Json.parse (read_file path))))

(* A results file: one [run --out] line per workload; a later line for the
   same workload replaces an earlier one. *)
let read_results path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.fold_left
       (fun acc line ->
         let j = Json.parse line in
         let w = Json.to_str (Json.member "workload" j) in
         (w, j) :: List.remove_assoc w acc)
       []

(** The verdict on one metric: [worse] is B's median change against A's
    in the bad direction (a share of A's median), [spread] the wider of
    the two sides' IQR over median, and [a], [b] the samples, each
    oriented so that larger is worse. Beyond its bound a change is a
    regression when the samples are tight, when it exceeds the bound plus
    the spread, or when every B sample is worse than every A sample.
    Where the spread is wider than the bound the metric is [unresolved],
    unless every B sample is better than every A sample. *)
let judge ~bound ~worse ~spread ~a ~b =
  let lo = List.fold_left Float.min infinity and hi = List.fold_left Float.max neg_infinity in
  if worse > bound && (spread <= bound || worse > bound +. spread || lo b > hi a) then `Regression
  else if spread > bound && not (hi b < lo a) then `Unresolved
  else `Ok

(** [compare ~bench a b]: B against baseline A, per workload and
    end-to-end metric, by {!judge} with the metric's bound from
    [bench]. A metric neither side measured (the latencies of a campaign
    workload) is skipped. Differing output digests and any rise in
    [fail_pct] are regressions too. Exit code 1 on any regression, else 3
    when a metric is unresolved, else 0. *)
let compare ~bench a b =
  let bounds = load_bounds bench in
  let ra = read_results a and rb = read_results b in
  let regressions = ref 0 and unresolved = ref 0 in
  let flag () = incr regressions in
  Printf.printf "%-8s %-14s %14s %14s %8s %7s  %s\n" "workload" "metric" "A" "B" "change" "spread"
    "verdict";
  List.iter
    (fun (w : Workloads.t) ->
      let name = w.Workloads.name in
      match (List.assoc_opt name ra, List.assoc_opt name rb) with
      | None, None -> ()
      | None, Some _ | Some _, None ->
        Printf.printf "%-8s missing from %s\n" name (if List.mem_assoc name ra then b else a);
        flag ()
      | Some ja, Some jb ->
        let digest j = List.map (fun (k, v) -> (k, Json.to_str v)) (Json.to_assoc (Json.member "digest" j)) in
        List.iter
          (fun d ->
            Printf.printf "%-8s outputs differ: %s\n" name d;
            flag ())
          (digest_diff ~expected:(digest ja) ~got:(digest jb));
        let fail j = Json.to_float (Json.member "fail_pct" j) in
        if fail jb > fail ja then begin
          Printf.printf "%-8s fail_pct rose from %g to %g\n" name (fail ja) (fail jb);
          flag ()
        end;
        List.iter
          (fun (metric, better, bound) ->
            let get j = List.assoc_opt metric (Json.to_assoc (Json.member "metrics" j)) in
            match (get ja, get jb) with
            | None, None -> ()
            | None, Some _ | Some _, None ->
              Printf.printf "%-8s %-14s measured on one side only\n" name metric;
              flag ()
            | Some ma, Some mb ->
              let va = Json.to_float (Json.member "value" ma) and vb = Json.to_float (Json.member "value" mb) in
              let samples m = List.map Json.to_float (Json.to_list (Json.member "samples" m)) in
              let sa = samples ma and sb = samples mb in
              let spread = Float.max (Stats.spread sa) (Stats.spread sb) in
              let change = (vb -. va) /. va in
              let sign = if better = "lower" then 1. else -1. in
              let oriented = List.map (fun v -> sign *. v) in
              let verdict =
                match judge ~bound ~worse:(sign *. change) ~spread ~a:(oriented sa) ~b:(oriented sb) with
                | `Regression ->
                  flag ();
                  "REGRESSION"
                | `Unresolved ->
                  incr unresolved;
                  "unresolved"
                | `Ok -> "ok"
              in
              Printf.printf "%-8s %-14s %14.6g %14.6g %+7.1f%% %6.1f%%  %s (bound %g%%)\n" name metric
                va vb (100. *. change) (100. *. spread) verdict (100. *. bound))
          bounds)
    Workloads.all;
  Printf.printf "%d regression(s), %d unresolved\n" !regressions !unresolved;
  if !regressions > 0 then 1 else if !unresolved > 0 then 3 else 0

(* --- the traced run ------------------------------------------------ *)

type per_layer = {
  unit_of : string;
  better : string;
  moves : string list;  (** the end-to-end metrics a change here should move *)
  on : string list;  (** on these workloads *)
}

let all_workloads = List.map (fun w -> w.Workloads.name) Workloads.all
let tput = [ "units_per_s" ]
let latency = [ "unit_p50_ms"; "unit_p90_ms" ]

(* What each layer should move, and where: the map a claimed gain is
   checked against before it is measured. *)
let layer_moves l =
  match Span.names.(l) with
  | "userland" | "bus" | "mpu" -> (tput, [ "suite"; "fleet" ])
  | "syscall" | "switch" | "kernel_other" -> (tput, all_workloads)
  | "capsules" -> (tput, [ "suite"; "fleet"; "fuzzcov" ])
  | "load" -> (tput @ latency, [ "suite"; "fabric" ])
  | "isolation" | "store" -> (tput, [ "fleet" ])
  | "restore" | "capture" | "fingerprint" -> (tput @ latency @ [ "setup_s" ], [ "replay"; "fleet"; "fabric" ])
  | "boot" -> ([ "setup_s"; "units_per_s" ], all_workloads)
  | "pool" -> (tput, [ "fleet"; "fuzzcov"; "fabric" ])
  | "fuzzcov_engine" -> (tput, [ "fuzzcov" ])
  | "fabric_step" | "fabric_check" -> (tput, [ "fabric" ])
  | "replay_step" -> (latency, [ "replay" ])
  | l -> invalid_arg ("Harness.layer_moves: " ^ l)

(** Every per-layer metric the traced run reports, with its unit, the
    direction an optimisation should move it, and the end-to-end metrics
    and workloads it should move. [unattributed.share] and
    [trace.overhead_pct] judge the trace itself and move nothing. *)
let layer_catalogue =
  let m unit_of better (moves, on) = { unit_of; better; moves; on } in
  List.concat_map
    (fun l ->
      let mv = layer_moves l in
      [
        (Span.names.(l) ^ ".ns_per_unit", m "ns" "lower" mv);
        (Span.names.(l) ^ ".share", m "ratio" "lower" mv);
        (Span.names.(l) ^ ".calls_per_unit", m "count" "lower" mv);
      ])
    (List.init Span.n_layers Fun.id)
  @ [
      ("buscache.hit_ratio", m "ratio" "higher" (tput, [ "suite"; "fleet" ]));
      ("mpu.ns_per_walk", m "ns" "lower" (tput, [ "fleet"; "suite" ]));
      ("syscall.ns_per_call", m "ns" "lower" (tput, all_workloads));
      ("switch.ns_per_call", m "ns" "lower" (tput, all_workloads));
      ("icache.hit_ratio", m "ratio" "higher" (tput, [ "fuzzcov"; "suite" ]));
      ("icache.link_ratio", m "ratio" "higher" (tput, [ "fuzzcov"; "suite" ]));
      ("store.bytes_per_unit", m "B" "lower" (tput, [ "fleet" ]));
      ("gc.minor_share", m "ratio" "lower" (tput @ [ "peak_heap_mb" ], all_workloads));
      ("gc.major_share", m "ratio" "lower" (tput @ [ "peak_heap_mb" ], all_workloads));
      ("gc.minor_words_per_unit", m "words" "lower" (tput @ [ "peak_heap_mb" ], all_workloads));
      ("gc.promoted_words_per_unit", m "words" "lower" (tput @ [ "peak_heap_mb" ], all_workloads));
      ("unattributed.share", m "ratio" "lower" ([], []));
      ("trace.overhead_pct", m "%" "lower" ([], []));
    ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let layer_metrics ~wall_ns ~units ~store_bytes ~untraced_ns_per_unit =
  let units = max 1 units in
  let wall = float_of_int (max 1 wall_ns) in
  let attributed = ref 0 in
  let per_layer =
    List.concat
      (List.init Span.n_layers (fun l ->
           let self = Span.self_ns l in
           attributed := !attributed + self;
           [
             float_of_int self /. float_of_int units;
             float_of_int self /. wall;
             ratio (Span.calls l) units;
           ]))
  in
  let c = Span.counter in
  let traced_ns = wall /. float_of_int units in
  let values =
    per_layer
    @ [
        ratio (c "bus.hits") (c "bus.hits" + c "bus.misses");
        ratio (Span.self_ns Span.mpu) (Span.calls Span.mpu);
        ratio (Span.self_ns Span.syscall) (Span.calls Span.syscall);
        ratio (Span.self_ns Span.switch) (Span.calls Span.switch);
        ratio (c "icache.hits") (c "icache.hits" + c "icache.misses");
        ratio (c "icache.link_hits") (c "icache.link_hits" + c "icache.link_misses");
        ratio store_bytes units;
        float_of_int gc_acc.minor_ns /. wall;
        float_of_int gc_acc.major_ns /. wall;
        gc_acc.minor_words /. float_of_int units;
        gc_acc.promoted_words /. float_of_int units;
        1. -. (float_of_int !attributed /. wall);
        100. *. ((traced_ns /. untraced_ns_per_unit) -. 1.);
      ]
  in
  List.map2
    (fun (name, d) v -> { m_name = name; m_unit = d.unit_of; m_value = v; m_samples = [ v ] })
    layer_catalogue values

(** A traced run: untraced samples for the reference rate, then traced
    samples (each half of [seconds]), whose outputs must equal the
    untraced ones and the reference. *)
let measure_trace (w : Workloads.t) ~size ~seed ~seconds =
  let warm = one_sample w ~size ~seed ~traced:false in
  let untraced = sample_loop ~min:2 w ~size ~seed ~seconds:(seconds /. 2.) ~traced:false in
  let untraced_ns =
    Stats.median
      (List.map (fun s -> s.wall *. 1e9 /. float_of_int (max 1 s.out.Workloads.units)) untraced)
  in
  Span.reset ();
  Gcstat.start ();
  gc_acc.minor_ns <- 0;
  gc_acc.major_ns <- 0;
  gc_acc.minor_words <- 0.;
  gc_acc.promoted_words <- 0.;
  Span.after_unit := Gcstat.poll;
  let traced =
    Fun.protect
      ~finally:(fun () -> Span.after_unit := ignore)
      (fun () -> sample_loop ~min:2 w ~size ~seed ~seconds:(seconds /. 2.) ~traced:true)
  in
  let expected = expected_digest w.Workloads.name ~seed warm in
  let _, failed_untraced = verdict ~expected untraced in
  let units, failed = verdict ~expected traced in
  let wall_ns =
    int_of_float (List.fold_left (fun a s -> a +. s.wall) 0. traced *. 1e9) - Span.recording_ns ()
  in
  let store_bytes = List.fold_left (fun a s -> a + s.out.Workloads.store_bytes) 0 traced in
  if Gcstat.lost () > 0 then Printf.eprintf "perf: %d GC events lost\n" (Gcstat.lost ());
  ( {
      samples = List.length traced;
      attempted = units;
      failed = (if failed_untraced > 0 then units else failed);
      metrics = layer_metrics ~wall_ns ~units ~store_bytes ~untraced_ns_per_unit:untraced_ns;
      per_unit = per_unit_latency traced;
      digest = warm.out.Workloads.digest;
    },
    wall_ns )

(** [trace]: prints the per-layer metrics and writes the spans of the
    first units as Chrome JSON to [chrome]. *)
let trace (w : Workloads.t) ~size ~seed ~seconds ~chrome =
  let r, wall_ns = measure_trace w ~size ~seed ~seconds in
  let metrics = r.metrics in
  Printf.printf "perf trace %s seed %d: %d traced samples, %d units, %.1f ms traced wall\n"
    w.Workloads.name seed r.samples r.attempted (float_of_int wall_ns /. 1e6);
  List.iter
    (fun m ->
      let d = List.assoc m.m_name layer_catalogue in
      if d.moves = [] then Printf.printf "  %-34s %14.6g %s\n" m.m_name m.m_value m.m_unit
      else
        Printf.printf "  %-34s %14.6g %-6s %s on %s\n" m.m_name m.m_value m.m_unit
          (String.concat "," d.moves) (String.concat "," d.on))
    metrics;
  (match chrome with
  | None -> ()
  | Some path ->
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out path in
    output_string oc (Json.to_string (Span.chrome_json ()));
    close_out oc;
    Printf.printf "spans of the first %d units: %s\n" Span.keep_units path);
  print_endline (Json.to_string (result_json ~attempted:r.attempted ~failed:r.failed metrics));
  0
