(** The fleet-scale campaign orchestrator.

    One machine stands in for a fleet: the orchestrator boots {e one}
    pristine image per (arch, board) combination on each worker domain,
    snapshot-forks thousands of board-instances from those images, and
    schedules (seed, workload, fault-plan) cells across the shared
    work-stealing pool ({!Ticktock.Pool}). Cell [i] is a pure function of
    its index — board [i mod boards], plan [(i / boards) mod plans], seed
    [i + 1] — so the merged report is byte-identical at any
    [TICKTOCK_JOBS] setting and across a kill/resume through the
    append-only {!Store}.

    A cell is one hostile round: the board is restored to its pristine
    post-boot image, its RNG capsule is reseeded from the cell index
    (cheap per-fork reseeding through [Instance.reseed]), and the plan's
    fuzzer complement runs next to the honest witness
    ({!Apps.Fuzz.round_on}). The plan list is the fault dimension — each
    plan picks how many hostile apps, how long their syscall streams run,
    and how many scheduler ticks the round gets.

    Host-side throughput counters (boards forked, cells run, steals,
    resume recoveries) land in the process-global host metrics
    ({!Obs.Metrics.host_incr}), so they surface — host-flagged — in every
    unified snapshot and stay invisible to determinism comparisons. *)

open Ticktock

(** One workload/fault-plan: how hostile a cell is. *)
type plan = {
  pl_name : string;
  pl_fuzzers : int;  (** hostile apps next to the witness *)
  pl_steps : int;  (** syscalls per hostile stream *)
}

let default_plans =
  [
    { pl_name = "light"; pl_fuzzers = 2; pl_steps = 30 };
    { pl_name = "hostile"; pl_fuzzers = 3; pl_steps = 60 };
    { pl_name = "burst"; pl_fuzzers = 4; pl_steps = 20 };
  ]

(** The verified boards a fleet can schedule — one per (arch, board)
    combo. Assembly (standard capsule set, device splicing, RNG reseed
    wiring) lives in {!Capsules.Std_board}; this list is the fleet's
    verified subset of it, in scheduling order. *)
let board_names =
  [
    "ticktock-arm"; "ticktock-arm-mc"; "ticktock-arm-v8";
    "ticktock-e310"; "ticktock-earlgrey"; "ticktock-qemu";
  ]

let make_board name =
  if not (List.mem name board_names) then
    invalid_arg
      (Printf.sprintf "Fleet: unknown board %S (one of: %s)" name
         (String.concat ", " board_names));
  Capsules.Std_board.make ~what:"Fleet" name

(** What a campaign runs: the cell lattice. *)
type spec = {
  sp_boards : string list;
  sp_plans : plan list;
  sp_cells : int;  (** total board-instances to fork *)
  sp_max_ticks : int;  (** scheduler budget per cell *)
}

let default_spec =
  {
    sp_boards = [ "ticktock-arm"; "ticktock-arm-v8"; "ticktock-e310" ];
    sp_plans = default_plans;
    sp_cells = 120;
    sp_max_ticks = 1500;
  }

let no_spaces what s =
  if String.contains s ' ' || String.contains s '\n' then
    invalid_arg (Printf.sprintf "Fleet: %s %S must not contain whitespace" what s)

(** The canonical spec key — written to the store and refused on mismatch
    at resume, because records from a different lattice must not merge. *)
let spec_key s =
  List.iter (no_spaces "board name") s.sp_boards;
  List.iter (fun p -> no_spaces "plan name" p.pl_name) s.sp_plans;
  Printf.sprintf "fleet-v1 boards=%s plans=%s cells=%d max_ticks=%d"
    (String.concat "," s.sp_boards)
    (String.concat ","
       (List.map (fun p -> Printf.sprintf "%s:%d:%d" p.pl_name p.pl_fuzzers p.pl_steps)
          s.sp_plans))
    s.sp_cells s.sp_max_ticks

(** One completed cell — everything the report needs, and exactly what the
    store serializes. *)
type cell = {
  cl_index : int;
  cl_board : string;
  cl_plan : string;
  cl_seed : int;
  cl_witness_ok : bool;
  cl_isolation_ok : bool;
  cl_panic : bool;
  cl_faulted : int;  (** hostile apps the kernel killed for a violation *)
  cl_exited : int;  (** hostile apps that ran their stream to completion *)
}

(* Stable, versionless-within-v1 record encoding: one line of
   space-separated fields. Hand-rolled rather than [Marshal] so a store
   written by one build reads back under another. *)
let encode_cell c =
  Printf.sprintf "%d %s %s %d %b %b %b %d %d" c.cl_index c.cl_board c.cl_plan c.cl_seed
    c.cl_witness_ok c.cl_isolation_ok c.cl_panic c.cl_faulted c.cl_exited

let decode_cell s =
  try
    Scanf.sscanf s "%d %s %s %d %B %B %B %d %d"
      (fun cl_index cl_board cl_plan cl_seed cl_witness_ok cl_isolation_ok cl_panic
           cl_faulted cl_exited ->
        Some
          {
            cl_index;
            cl_board;
            cl_plan;
            cl_seed;
            cl_witness_ok;
            cl_isolation_ok;
            cl_panic;
            cl_faulted;
            cl_exited;
          })
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* --- the cell lattice --- *)

let cell_coords spec =
  let boards = Array.of_list spec.sp_boards in
  let plans = Array.of_list spec.sp_plans in
  let nb = Array.length boards and np = Array.length plans in
  if nb = 0 || np = 0 then invalid_arg "Fleet: a spec needs at least one board and one plan";
  fun i -> (boards.(i mod nb), plans.(i / nb mod np), i + 1)

(* --- the deterministic report ---

   Rendered only from the index-ordered cell array: no wall-clock, no
   job count, no scheduling artifact can reach it. *)

let render spec (cells : cell array) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "# ticktock fleet campaign\n";
  pf "# %s\n\n" (spec_key spec);
  let groups =
    (* (board, plan) rows in spec order *)
    List.concat_map
      (fun bd -> List.map (fun p -> (bd, p.pl_name)) spec.sp_plans)
      spec.sp_boards
  in
  let sum f sel = Array.fold_left (fun a c -> if sel c then a + f c else a) 0 cells in
  let count p sel = sum (fun c -> if p c then 1 else 0) sel in
  pf "%-18s %-8s %7s %8s %10s %7s %8s %7s\n" "board" "plan" "cells" "witness" "isolation"
    "panics" "faulted" "exited";
  List.iter
    (fun (bd, pl) ->
      let sel c = c.cl_board = bd && c.cl_plan = pl in
      pf "%-18s %-8s %7d %8d %10d %7d %8d %7d\n" bd pl
        (count (fun _ -> true) sel)
        (count (fun c -> c.cl_witness_ok) sel)
        (count (fun c -> c.cl_isolation_ok) sel)
        (count (fun c -> c.cl_panic) sel)
        (sum (fun c -> c.cl_faulted) sel)
        (sum (fun c -> c.cl_exited) sel))
    groups;
  let all _ = true in
  let total = Array.length cells in
  let witness = count (fun c -> c.cl_witness_ok) all in
  let isolation = count (fun c -> c.cl_isolation_ok) all in
  let panics = count (fun c -> c.cl_panic) all in
  pf "\n== totals ==\n";
  pf "cells %d  witness ok %d  isolation ok %d  panics %d\n" total witness isolation panics;
  pf "hostile apps faulted %d  exited %d\n" (sum (fun c -> c.cl_faulted) all)
    (sum (fun c -> c.cl_exited) all);
  pf "campaign: %s\n"
    (if witness = total && isolation = total && panics = 0 then "ok" else "FAILED");
  Buffer.contents b

(* --- the campaign --- *)

type result = {
  fl_spec : spec;
  fl_cells : cell option array;  (** index-ordered; [None] = not run (stopped early) *)
  fl_complete : bool;
  fl_report : string;  (** deterministic; rendered only when complete *)
  fl_ok : bool;
  fl_ran : int;  (** cells executed by {e this} run *)
  fl_resumed : int;  (** cells recovered from the store *)
  fl_booted : int;  (** pristine images booted (per worker per board) *)
  fl_forked : int;  (** board-instances forked from pristine images *)
  fl_steals : int;  (** batches stolen between workers *)
}

(** Run (or resume) a campaign.

    - [jobs] overrides [TICKTOCK_JOBS]; [batch] is the cell-dispatch
      batch (amortizes pool dispatch over the ~µs fork cost).
    - [store] makes the run resumable: completed cells append there, and
      [resume = true] first recovers every committed cell and runs only
      the rest.
    - [stop_after n] stops dispatching after roughly [n] new cells — the
      deterministic kill: the store is left exactly as a SIGKILL mid-run
      would leave it (minus a torn tail), for resumability tests and CI.

    The report is rendered only when every cell is accounted for, and is
    byte-identical across jobs settings and kill/resume splits. *)
let run ?jobs ?(batch = 32) ?store ?resume ?stop_after (spec : spec) =
  let coords = cell_coords spec in
  let booted = Atomic.make 0 in
  (* One shared runner per worker, always in forked execution: the fleet's
     whole point is boot-once-per-board, fork-per-cell. *)
  let init _w = Replayable.Runner.create ~exec:Replayable.Exec.Fork () in
  let cell runner i =
    let bname, plan, seed = coords i in
    let outcome =
      Replayable.Runner.cell runner ~key:bname
        ~boot:(fun () ->
          let k = make_board bname in
          Atomic.incr booted;
          (k, k.Instance.snap_target))
        (fun k ->
          k.Instance.reseed (seed * 0x9E3779B1);
          Apps.Fuzz.round_on k ~max_ticks:spec.sp_max_ticks ~fuzzers:plan.pl_fuzzers
            ~steps:plan.pl_steps ~seed)
    in
    Obs.Metrics.host_incr "fleet/boards_forked";
    Obs.Metrics.host_incr "fleet/cells_run";
    {
      cl_index = i;
      cl_board = bname;
      cl_plan = plan.pl_name;
      cl_seed = seed;
      cl_witness_ok = outcome.Apps.Fuzz.witness_ok;
      cl_isolation_ok = outcome.Apps.Fuzz.isolation_ok;
      cl_panic = outcome.Apps.Fuzz.kernel_panic <> None;
      cl_faulted = outcome.Apps.Fuzz.fuzzers_faulted;
      cl_exited = outcome.Apps.Fuzz.fuzzers_exited;
    }
  in
  let d =
    Driver.run ?jobs ~batch ?store ?resume ?stop_after ~spec:(spec_key spec)
      ~total:spec.sp_cells ~encode:encode_cell ~decode:decode_cell
      ~index:(fun c -> c.cl_index) ~init ~cell ()
  in
  let open Driver in
  if d.resumed > 0 then Obs.Metrics.host_incr ~by:d.resumed "fleet/resume_rounds";
  if d.steals > 0 then Obs.Metrics.host_incr ~by:d.steals "fleet/steals";
  let cells = if d.complete then Array.map Option.get d.cells else [||] in
  let ok c = c.cl_witness_ok && c.cl_isolation_ok && not c.cl_panic in
  {
    fl_spec = spec;
    fl_cells = d.cells;
    fl_complete = d.complete;
    fl_report = (if d.complete then render spec cells else "");
    fl_ok = d.complete && Array.for_all ok cells;
    fl_ran = d.ran;
    fl_resumed = d.resumed;
    fl_booted = Atomic.get booted;
    fl_forked = d.ran;
    fl_steals = d.steals;
  }
