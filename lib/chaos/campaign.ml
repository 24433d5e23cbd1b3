(** Seeded chaos campaigns over the release suite (the tentpole harness).

    One {e round} = one board × one seed: the 21-app release suite plus the
    {!Workload} companions run twice on identical kernels — once {b golden}
    (no engine attached) and once {b injected} (a seeded {!Engine} firing a
    fault plan) — with the scrubber, watchdog and backoff-restart policies
    active in {e both} runs, so the only difference between them is the
    injected faults.

    Every fired fault is classified against the golden run's observables
    (per-process console output, final state, exit code — the same
    observables the differential tests compare):

    - {b masked}: no observable difference — the fault was absorbed
      (rejected register write, retried transient device error, flip in
      memory nobody read, spurious exception);
    - {b detected+healed}: the kernel noticed and repaired — the scrubber
      caught a corrupted MPU register file and rewrote it, with the target
      process's behavior unchanged;
    - {b contained}: the target process (and only the target process)
      diverged or was faulted — the blast radius ended at the process
      boundary.

    The campaign's central assertion is that no fault is ever {e silent
    cross-process corruption}: a process that neither was targeted by any
    fault nor was loudly faulted by the kernel must behave byte-for-byte
    identically to the golden run. A violation fails the campaign.

    Rounds are deterministic functions of (board, seed), so the rendered
    report is byte-identical across runs and across [TICKTOCK_JOBS] worker
    counts (rounds are merged in round order, the fuzz campaign's
    discipline). *)

open Ticktock

(* Knobs shared by golden and injected runs. The scrubber runs every
   context switch so a corruption never survives past the slice that
   suffered it; the watchdog budget sits far above any suite app's longest
   syscall-less stretch (~2k cycles) and far below the spinner's. *)
let scrub_cadence = 1
let watchdog_budget = 40_000
let max_ticks = 5_000

type classification = Masked | Healed | Contained

let class_name = function
  | Masked -> "masked"
  | Healed -> "healed"
  | Contained -> "contained"

type classified = {
  cf_inj : Engine.injection;
  cf_target : string option;  (** resolved target process name *)
  cf_class : classification;
  cf_note : string;
}

type round = {
  rd_board : string;
  rd_seed : int;
  rd_fired : int;  (** injection attempts that fired *)
  rd_effective : int;  (** ... that actually landed *)
  rd_pending : int;  (** planned faults the run ended before firing *)
  rd_classified : classified list;
  rd_masked : int;
  rd_healed : int;
  rd_contained : int;
  rd_silent : string list;  (** silent cross-process corruption findings *)
  rd_loud : string list;  (** untargeted-but-kernel-faulted notes *)
  rd_mpu_effective : int;
  rd_scrub_detections : int;
  rd_scrub_repairs : int;
  rd_scrub_checks : int;
  rd_watchdog_golden : int;
  rd_watchdog_injected : int;
  rd_restarts : int;
  rd_latency : (int * int * int * int) option;  (** count, min, mean, max *)
  rd_latency_buckets : (int * int) list;
  rd_dma_nacks : int;
  rd_uart_overruns : int;
}

type result = {
  rounds : round list;
  total_fired : int;
  total_effective : int;
  total_masked : int;
  total_healed : int;
  total_contained : int;
  total_silent : int;
  ok : bool;
  report : string;
}

(* --- metric helpers --- *)

let counter_of snap name =
  List.fold_left
    (fun acc (e : Obs.Metrics.entry) ->
      match e.Obs.Metrics.value with
      | Obs.Metrics.Counter i when e.Obs.Metrics.name = name -> acc + i
      | _ -> acc)
    0 snap

let hist_of snap name =
  List.find_map
    (fun (e : Obs.Metrics.entry) ->
      if e.Obs.Metrics.name = name then
        match e.Obs.Metrics.value with
        | Obs.Metrics.Histogram { count; sum; vmin; vmax; buckets } ->
          Some (count, sum, vmin, vmax, buckets)
        | _ -> None
      else None)
    snap

(* --- one kernel run --- *)

type row = {
  r_name : string;
  r_output : string;
  r_state : string;
  r_faulted : bool;
  r_exit : int option;
}

type run_out = {
  ro_rows : (string * row) list;  (* by name, load order *)
  ro_pid_name : (int * string) list;
  ro_transcript : string;  (* the UART console capsule's transcript *)
  ro_metrics : Obs.Metrics.snapshot;
  ro_injections : Engine.injection list;
  ro_pending : int;
  ro_dma_nacks : int;
  ro_uart_overruns : int;
}

let load_suite (inst : Instance.t) =
  List.filter_map
    (fun (app : Apps.Suite.app) ->
      let program = Apps.App_dsl.to_program (app.Apps.Suite.script ()) in
      match
        inst.Instance.load ~name:app.Apps.Suite.app_name
          ~payload:(Apps.Suite.payload_of app) ~program ~min_ram:app.Apps.Suite.min_ram
          ~grant_reserve:app.Apps.Suite.grant_reserve ~heap_headroom:2048
      with
      | Ok pid -> Some (app.Apps.Suite.app_name, pid)
      | Error _ -> None)
    Apps.Suite.all

(* Load the workload onto an already-built board, run it and collect the
   observables. [make_engine] runs after loading, so the engine plans its
   faults over the loaded process set. *)
let run_workload (made : Targets.made) ~make_engine =
  let loaded = load_suite made.Targets.bd_instance @ Workload.load made in
  let engine : Engine.t option = make_engine () in
  made.Targets.bd_instance.Instance.run ~max_ticks;
  (* The DMA demonstration runs after the kernel quiesces: any bus NACK the
     engine queued stalls the first burst, and the retrying transfer still
     completes — a transient never becomes data corruption. *)
  let dma_nacks =
    let dma = made.Targets.bd_dma in
    let buf =
      Dma.Buffer.create made.Targets.bd_hooks.Engine.hk_mem
        ~addr:(Range.start Layout.kernel_sram) ~len:32
    in
    let cell = Dma.Cell.create () in
    (match Dma.Cell.place cell buf with
    | None -> ()
    | Some w ->
      Dma.Engine.start dma w;
      Dma.Engine.run_to_completion dma;
      ignore (Dma.Cell.completed cell dma));
    Dma.Engine.nacks dma
  in
  let inst = made.Targets.bd_instance in
  let rows =
    List.map
      (fun (name, pid) ->
        ( name,
          {
            r_name = name;
            r_output = Option.value ~default:"" (inst.Instance.proc_output pid);
            r_state = Option.value ~default:"?" (inst.Instance.proc_state pid);
            r_faulted = inst.Instance.proc_faulted pid;
            r_exit = inst.Instance.proc_exit pid;
          } ))
      loaded
  in
  {
    ro_rows = rows;
    ro_pid_name = List.map (fun (n, p) -> (p, n)) loaded;
    ro_transcript =
      Mpu_hw.Uart.transcript made.Targets.bd_devices.Capsules.Board_set.uart;
    ro_metrics = inst.Instance.metrics ();
    ro_injections = (match engine with Some e -> Engine.injections e | None -> []);
    ro_pending = (match engine with Some e -> Engine.pending e | None -> 0);
    ro_dma_nacks = dma_nacks;
    ro_uart_overruns =
      Mpu_hw.Uart.overruns made.Targets.bd_devices.Capsules.Board_set.uart;
  }

let setup_of ~chaos ~seed =
  {
    Targets.st_chaos = chaos;
    st_scrub_every = scrub_cadence;
    st_scrub_policy = `Repair;
    st_watchdog = watchdog_budget;
    st_restart_decay_span = 0;
    st_rng_seed = 0x5EED + seed;
  }

(* Both runs of a round, as cells of the shared
   {!Ticktock.Replayable.Runner}. A cell boots the board with an {e inert}
   chaos record attached (no-op hooks — the kernel's behavior with them is
   byte-for-byte that of a kernel built without): under [Boot] afresh for
   each run, under [Fork] once per pair, capturing the pristine post-boot
   image and forking both runs from it, and under [Snapshot_file] with the
   file's image overlaid first ([Snapshot.load] refuses a file from
   another architecture, board or memory layout, so a worker can only ever
   fork the image it was meant to). The golden run goes first, then the
   injected run with a seeded engine splicing its fault plan into the same
   chaos record. The suite is (re)loaded per run — the capture is
   pre-load, so restored program closures are never shared with an
   already-stepped run. Boards are seed-dependent (the RNG capsule seed
   folds the round seed in), so the registry key is board#seed and under
   [Fork] each pair shares exactly one boot. *)
let run_pair ~exec (board : Targets.board) ~seed ~faults =
  let runner = Replayable.Runner.create ~exec () in
  let key = Printf.sprintf "%s#%d" board.Targets.tb_name seed in
  let boot () =
    let chaos = Chaos_intf.create () in
    let made = board.Targets.tb_make (setup_of ~chaos:(Some chaos) ~seed) in
    ((made, chaos), made.Targets.bd_instance.Instance.snap_target)
  in
  let golden =
    Replayable.Runner.cell runner ~key ~boot (fun (made, _) ->
        run_workload made ~make_engine:(fun () -> None))
  in
  let injected =
    Replayable.Runner.cell runner ~key ~boot (fun (made, chaos) ->
        run_workload made ~make_engine:(fun () ->
            Some (Engine.create ~seed ~count:faults ~hooks:made.Targets.bd_hooks chaos)))
  in
  (golden, injected)

(* --- classification --- *)

let row_diverges (g : row) (i : row) =
  (not (String.equal g.r_output i.r_output))
  || (not (String.equal g.r_state i.r_state))
  || g.r_exit <> i.r_exit

let classify_round ?(exec = Replayable.Exec.Boot) (board : Targets.board) ~seed ~faults =
  let golden, injected = run_pair ~exec board ~seed ~faults in
  let diverged name =
    match (List.assoc_opt name golden.ro_rows, List.assoc_opt name injected.ro_rows) with
    | Some g, Some i -> row_diverges g i
    | None, None -> false
    | _ -> true
  in
  let transcript_diverges =
    not (String.equal golden.ro_transcript injected.ro_transcript)
  in
  let name_of_pid pid = List.assoc_opt pid injected.ro_pid_name in
  let target_of (inj : Engine.injection) =
    match inj.Engine.inj_pid with
    | Some pid -> name_of_pid pid
    | None -> Workload.device_user inj.Engine.inj_kind
  in
  let target_diverged = function
    | None -> false
    | Some name ->
      diverged name || (name = "chaos-console" && transcript_diverges)
  in
  let classify (inj : Engine.injection) =
    let target = target_of inj in
    let cls, note =
      if not inj.Engine.inj_effective then (Masked, "did not land: " ^ inj.Engine.inj_detail)
      else
        match inj.Engine.inj_kind with
        | Engine.Mpu_corrupt ->
          if target_diverged target then
            (Contained, "ran under corrupted config; scrubber repaired the registers")
          else (Healed, "scrubber detected and repaired within the slice")
        | Engine.Dev_dma_nack -> (Masked, "transfer retried and completed")
        | _ ->
          if target_diverged target then (Contained, inj.Engine.inj_detail)
          else (Masked, inj.Engine.inj_detail)
    in
    { cf_inj = inj; cf_target = target; cf_class = cls; cf_note = note }
  in
  let classified = List.map classify injected.ro_injections in
  let count c = List.length (List.filter (fun x -> x.cf_class = c) classified) in
  (* silent-corruption sweep: every diverging process must be explained by
     a fault that targeted it, or by a loud kernel-announced fault *)
  let targeted =
    List.filter_map (fun c -> if c.cf_inj.Engine.inj_effective then c.cf_target else None)
      classified
  in
  let silent, loud =
    List.fold_left
      (fun (silent, loud) (name, irow) ->
        if not (diverged name) then (silent, loud)
        else if List.mem name targeted then (silent, loud)
        else if irow.r_faulted then
          (silent, Printf.sprintf "%s: untargeted but kernel-faulted (loud)" name :: loud)
        else
          ( Printf.sprintf "%s: diverged with no targeting fault and no detection" name
            :: silent,
            loud ))
      ([], []) injected.ro_rows
  in
  let mpu_effective =
    List.length
      (List.filter
         (fun (i : Engine.injection) ->
           i.Engine.inj_kind = Engine.Mpu_corrupt && i.Engine.inj_effective)
         injected.ro_injections)
  in
  let latency, buckets =
    match hist_of injected.ro_metrics "scrub/detect_latency_cycles" with
    | Some (count, sum, vmin, vmax, buckets) when count > 0 ->
      (Some (count, vmin, sum / count, vmax), buckets)
    | _ -> (None, [])
  in
  {
    rd_board = board.Targets.tb_name;
    rd_seed = seed;
    rd_fired = List.length injected.ro_injections;
    rd_effective =
      List.length
        (List.filter (fun (i : Engine.injection) -> i.Engine.inj_effective)
           injected.ro_injections);
    rd_pending = injected.ro_pending;
    rd_classified = classified;
    rd_masked = count Masked;
    rd_healed = count Healed;
    rd_contained = count Contained;
    rd_silent = List.rev silent;
    rd_loud = List.rev loud;
    rd_mpu_effective = mpu_effective;
    rd_scrub_detections = counter_of injected.ro_metrics "scrub/detections";
    rd_scrub_repairs = counter_of injected.ro_metrics "scrub/repairs";
    rd_scrub_checks = counter_of injected.ro_metrics "scrub/checks";
    rd_watchdog_golden = counter_of golden.ro_metrics "watchdog/fired";
    rd_watchdog_injected = counter_of injected.ro_metrics "watchdog/fired";
    rd_restarts = counter_of injected.ro_metrics "kernel/restarts";
    rd_latency = latency;
    rd_latency_buckets = buckets;
    rd_dma_nacks = injected.ro_dma_nacks;
    rd_uart_overruns = injected.ro_uart_overruns;
  }

(* --- the campaign: rounds in parallel, merged in round order --- *)

let round_ok r =
  r.rd_silent = []
  (* the scrubber must detect every corruption that landed, within the
     configured cadence (here: the same slice) *)
  && r.rd_scrub_detections = r.rd_mpu_effective
  && r.rd_uart_overruns = 0

let render (rounds : round list) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "# ticktock chaos campaign\n";
  pf "# scrub: every %d switches (repair)  watchdog: %d cycles  max_ticks: %d\n\n"
    scrub_cadence watchdog_budget max_ticks;
  List.iter
    (fun r ->
      pf "== %s seed %d ==\n" r.rd_board r.rd_seed;
      pf "faults: %d fired (%d effective, %d unfired)\n" r.rd_fired r.rd_effective
        r.rd_pending;
      pf "classes: masked %d | healed %d | contained %d\n" r.rd_masked r.rd_healed
        r.rd_contained;
      pf "scrub: %d/%d corruptions detected, %d repairs, %d checks\n"
        r.rd_scrub_detections r.rd_mpu_effective r.rd_scrub_repairs r.rd_scrub_checks;
      (match r.rd_latency with
      | Some (n, mn, mean, mx) ->
        pf "detect latency (cycles): n=%d min=%d mean=%d max=%d\n" n mn mean mx
      | None -> pf "detect latency: no corruptions landed\n");
      pf "watchdog: %d firings (golden %d)  restarts: %d  dma nacks absorbed: %d\n"
        r.rd_watchdog_injected r.rd_watchdog_golden r.rd_restarts r.rd_dma_nacks;
      List.iter
        (fun c ->
          pf "  [%3d] tick %4d %-18s %-12s %-10s %s\n" c.cf_inj.Engine.inj_id
            c.cf_inj.Engine.inj_tick
            (Engine.kind_name c.cf_inj.Engine.inj_kind)
            (Option.value ~default:"-" c.cf_target)
            (class_name c.cf_class) c.cf_note)
        r.rd_classified;
      List.iter (fun s -> pf "  LOUD: %s\n" s) r.rd_loud;
      List.iter (fun s -> pf "  SILENT-CORRUPTION: %s\n" s) r.rd_silent;
      pf "round: %s\n\n" (if round_ok r then "ok" else "FAILED"))
    rounds;
  let sum f = List.fold_left (fun a r -> a + f r) 0 rounds in
  pf "== totals ==\n";
  pf "rounds %d  faults fired %d (effective %d)\n" (List.length rounds)
    (sum (fun r -> r.rd_fired))
    (sum (fun r -> r.rd_effective));
  pf "masked %d  healed %d  contained %d\n"
    (sum (fun r -> r.rd_masked))
    (sum (fun r -> r.rd_healed))
    (sum (fun r -> r.rd_contained));
  pf "scrub detections %d of %d corruptions\n"
    (sum (fun r -> r.rd_scrub_detections))
    (sum (fun r -> r.rd_mpu_effective));
  let silent = sum (fun r -> List.length r.rd_silent) in
  pf "silent cross-process corruption: %s\n"
    (if silent = 0 then "none" else string_of_int silent ^ " (FAILED)");
  pf "campaign: %s\n"
    (if silent = 0 && List.for_all round_ok rounds then "ok" else "FAILED");
  Buffer.contents b

let default_seeds = [ 1; 2; 3; 4; 5 ]
let default_faults = 40

let run ?(exec = Replayable.Exec.Boot) ?(boards = Targets.boards) ?(seeds = default_seeds)
    ?(faults = default_faults) () =
  let specs =
    List.concat_map (fun b -> List.map (fun s -> (b, s)) seeds) boards |> Array.of_list
  in
  (* Rounds ride the shared campaign protocol: (board, seed) pairs are the
     cells, [TICKTOCK_JOBS] workers (parsed once, in [Ticktock.Jobs]) pull
     them from work-stealing deques, and the pool merges results in
     cell-index order — the report is byte-identical at any job count. *)
  let results, _stats =
    Ticktock.Pool.run ~batch:1 ~cells:(Array.length specs)
      ~init:(fun _w -> ())
      ~cell:(fun () i ->
        let b, s = specs.(i) in
        classify_round ~exec b ~seed:s ~faults)
      ()
  in
  let rounds = Array.to_list results |> List.filter_map Fun.id in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rounds in
  let total_silent = sum (fun r -> List.length r.rd_silent) in
  {
    rounds;
    total_fired = sum (fun r -> r.rd_fired);
    total_effective = sum (fun r -> r.rd_effective);
    total_masked = sum (fun r -> r.rd_masked);
    total_healed = sum (fun r -> r.rd_healed);
    total_contained = sum (fun r -> r.rd_contained);
    total_silent;
    ok = total_silent = 0 && List.for_all round_ok rounds;
    report = render rounds;
  }
