(** Recording sessions and reconstructing them from bundles.

    A {e live} session is a {!Ticktock.Replayable} at tick 0 plus
    everything a {!Bundle} must remember about how it got there: the
    pristine image, the input schedule, and a restart closure that brings
    it back to tick 0 exactly. {!record} drives a live session forward
    once, collecting interval marks; {!live_of_bundle} rebuilds the same
    session in a later process (refusing on arch/fingerprint skew); and
    the [of_*] emitters turn campaign failure cells into bundles.

    Sessions record with the obs recorder forced on: the kernel
    fingerprint deliberately does not hash the recorder ring, so a
    recording run is fingerprint-identical to the obs-off campaign run it
    reproduces — replay invisibility, pinned by the conformance tests. *)

open Ticktock

(** Run [f] with the ambient obs mode forced to [On], so every board it
    boots carries an event recorder. *)
let with_obs_on f =
  let old = Obs.Config.auto_mode () in
  Obs.Config.set_auto Obs.Config.On;
  Fun.protect ~finally:(fun () -> Obs.Config.set_auto old) f

(** The whole-board fingerprint hashes the absolute domain-global cycle
    counter, and campaign cells always see it start at zero: pool workers
    are freshly spawned domains, and forked cells restore the captured
    boot-time value. A recording made on a long-lived CLI domain would
    bake that domain's accumulated count into every fingerprint and never
    reproduce elsewhere — so every replay session boots from zero too. *)
let pristine_cycles () = Cycles.set Cycles.global 0

(** The contract-arming convention shared with the coverage fuzzer: the
    verified kernels run with contracts on, the upstream/patched monoliths
    without (they have no contract hooks to fire, and the fuzzer's replay
    path runs them disabled). *)
let contracts_for board = String.length board >= 8 && String.sub board 0 8 = "ticktock"

let contracts_of_kind = function
  | Bundle.Board b -> contracts_for b
  | Bundle.Fabric _ -> true

(** Run [f] with contracts armed the way the bundle's subject expects. *)
let with_contracts (b : Bundle.t) f =
  Verify.Violation.with_enabled (contracts_of_kind b.Bundle.bu_header.Bundle.hd_kind) f

type live = {
  lv_session : Replayable.t;
  lv_restart : unit -> Replayable.t;  (** back to tick 0, post-schedule *)
  lv_snapshots : bool;  (** mid-run capture exact ⇒ interval ladder allowed *)
  lv_kind : Bundle.kind;
  lv_schedule : Schedule.t;
  lv_mem_fp : int64;  (** pristine post-boot memory fp (board sessions) *)
  lv_pages : (int * string) list;  (** pristine image (board sessions) *)
  lv_stop : int -> bool;
      (** recording stop predicate, given the current tick — encapsulates
          the fabric settle drain; board sessions stop at the horizon *)
  lv_oracle_fp : unit -> int64;
      (** the fingerprint the {e campaign} reports for this cell's end
          state. For boards it is the plain session fingerprint; for
          fabric cells the campaign fingerprints {e after} running the
          containment check, whose memory reads advance the cycle counter
          — so this runs the check on a scratch capture and rolls it
          back, leaving the session navigable at its check-free state *)
}

(* --- board sessions --- *)

(** Boot [board] (obs on), remember the pristine image, apply [sched].
    [horizon] only sets the recording stop; navigation may travel past it. *)
let board_live ?(what = "Replay") ~board ~horizon (sched : Schedule.t) =
  pristine_cycles ();
  let k = with_obs_on (fun () -> Capsules.Std_board.make ~what board) in
  let tgt =
    match k.Instance.snap_target with
    | Some tgt -> tgt
    | None -> invalid_arg (what ^ ": board has no snapshot target")
  in
  let lv_mem_fp = Memory.fingerprint tgt.Snapshot.tg_mem in
  let lv_pages = Memory.snapshot_pages (Memory.capture tgt.Snapshot.tg_mem) in
  Schedule.apply k sched;
  let session = Replayable.of_instance ~name:board k in
  let snap0 = session.Replayable.rp_capture () in
  {
    lv_session = session;
    lv_restart =
      (fun () ->
        snap0 ();
        session);
    lv_snapshots = true;
    lv_kind = Bundle.Board board;
    lv_schedule = sched;
    lv_mem_fp;
    lv_pages;
    lv_stop = (fun now -> now >= horizon);
    lv_oracle_fp = session.Replayable.rp_fingerprint;
  }

(* --- fabric sessions ---

   One power-loss cell is a pure function of (plan, sweep seed, cut,
   outage): rebuild the deployment environment, arm the plan's faults
   under the derived cell seed, and wrap the topology session so the cut
   happens at its tick on every (re-)execution — including re-execution
   after a backward jump. Mid-run capture of a topology is inexact (host
   agents hold in-flight state), so fabric sessions navigate by
   restart-and-replay: [lv_snapshots = false]. *)

let fabric_live ~plan ~sweep_seed ~cut ~outage ~horizon =
  pristine_cycles ();
  let p = Fabric.Powerloss.plan_named plan in
  let env = with_obs_on (fun () -> Fabric.Powerloss.make_env ~plan:p ~seed:sweep_seed ()) in
  let topo = env.Fabric.Powerloss.ev_topo in
  let cell_seed =
    Fabric.Powerloss.mix (Fabric.Powerloss.mix sweep_seed cut) (Hashtbl.hash plan)
  in
  let reseed_of id = Fabric.Powerloss.mix cell_seed (id + 101) in
  let board = cut mod Fabric.Deploy.node_count in
  let mk () =
    Fabric.Topology.restore topo env.Fabric.Powerloss.ev_base;
    Fabric.Link.configure topo.Fabric.Topology.link ~faults:p.Fabric.Powerloss.pl_faults
      ~seed:cell_seed;
    Fabric.Ota.reset env.Fabric.Powerloss.ev_stats;
    Array.iter
      (fun (n : Fabric.Topology.node) ->
        n.Fabric.Topology.nd_k.Instance.reseed (reseed_of n.Fabric.Topology.nd_id))
      topo.Fabric.Topology.nodes;
    let base = Fabric.Topology.replayable ~name:plan ~reseed_of topo in
    {
      base with
      Replayable.rp_step =
        (fun ~ticks ->
          for _ = 1 to ticks do
            if base.Replayable.rp_tick () = cut && base.Replayable.rp_crash () = None then
              Fabric.Topology.cut topo board ~outage;
            base.Replayable.rp_step ~ticks:1
          done);
    }
  in
  let outages_open () =
    Array.exists
      (fun (n : Fabric.Topology.node) -> n.Fabric.Topology.nd_outage > 0)
      topo.Fabric.Topology.nodes
  in
  (* the settle drain, mirroring Powerloss.run_cell: [outage + 3] extra
     ticks past the horizon, extended while any outage is still open *)
  let extra = ref (outage + 3) in
  let lv_stop now =
    if now < horizon then false
    else if !extra > 0 || outages_open () then begin
      if !extra > 0 then decr extra;
      false
    end
    else true
  in
  let session = mk () in
  let oracle_fp () =
    let undo = session.Replayable.rp_capture () in
    ignore (Fabric.Deploy.check topo);
    let fp = session.Replayable.rp_fingerprint () in
    undo ();
    fp
  in
  {
    lv_session = session;
    lv_restart = mk;
    lv_snapshots = false;
    lv_kind = Bundle.Fabric { fa_plan = plan; fa_sweep_seed = sweep_seed; fa_cut = cut; fa_outage = outage };
    lv_schedule = [];
    lv_mem_fp = 0L;
    lv_pages = [];
    lv_stop;
    lv_oracle_fp = oracle_fp;
  }

(* --- the recording pass --- *)

(** Drive [lv] forward from tick 0 once, marking the whole-board
    fingerprint at every [interval] boundary, until the session's stop
    predicate fires, the session crashes, or it quiesces. Returns the
    finished bundle (the session is left at its final tick). *)
let record ?(interval = 32) ?(note = "") (lv : live) : Bundle.t =
  if interval < 1 then invalid_arg "Replay.Record.record: interval must be >= 1";
  let s = lv.lv_session in
  if s.Replayable.rp_tick () <> 0 then
    invalid_arg "Replay.Record.record: session must be at tick 0";
  let marks = ref [ (0, s.Replayable.rp_fingerprint ()) ] in
  let continue = ref true in
  while !continue do
    let now = s.Replayable.rp_tick () in
    if lv.lv_stop now || s.Replayable.rp_crash () <> None then continue := false
    else begin
      s.Replayable.rp_step ~ticks:1;
      let now' = s.Replayable.rp_tick () in
      if now' = now then continue := false (* quiesced: nothing left to run *)
      else if now' mod interval = 0 then
        marks := (now', s.Replayable.rp_fingerprint ()) :: !marks
    end
  done;
  let final_tick = s.Replayable.rp_tick () in
  let marks =
    let m = !marks in
    List.rev (if List.mem_assoc final_tick m then m else (final_tick, s.Replayable.rp_fingerprint ()) :: m)
  in
  let events =
    match s.Replayable.rp_events () with
    | None -> []
    | Some r ->
      List.map
        (fun (e : Obs.Recorder.entry) -> (e.Obs.Recorder.at, e.Obs.Recorder.event))
        (Obs.Recorder.entries r)
  in
  {
    Bundle.bu_header =
      {
        Bundle.hd_version = Bundle.version;
        hd_kind = lv.lv_kind;
        hd_arch = s.Replayable.rp_arch;
        hd_layout_fp = Snapshot.layout_fingerprint ();
        hd_interval = interval;
        hd_horizon = final_tick;
        hd_note = note;
        hd_schedule = Schedule.encode lv.lv_schedule;
        hd_mem_fp = lv.lv_mem_fp;
        hd_final_fp = s.Replayable.rp_fingerprint ();
        hd_crash =
          (match s.Replayable.rp_crash () with
          | None -> None
          | Some c -> Some (c.Replayable.cr_tick, c.Replayable.cr_reason));
      };
    bu_pages = lv.lv_pages;
    bu_marks = Array.of_list marks;
    bu_events = events;
  }

(* --- reconstruction: bundle → live session --- *)

(** Rebuild the recorded session from a bundle in this process. Board
    bundles boot the named board, overlay the bundle's pristine image and
    refuse ({!Bundle.Refused}) on arch or memory-fingerprint mismatch —
    the same identity discipline as [Snapshot.load]. Fabric bundles
    rebuild the deployment from the plan. The returned session is at tick
    0, schedule applied, ready to navigate. *)
let live_of_bundle (b : Bundle.t) : live =
  let h = b.Bundle.bu_header in
  match h.Bundle.hd_kind with
  | Bundle.Board board ->
    let lv =
      Verify.Violation.with_enabled (contracts_for board) (fun () ->
          pristine_cycles ();
          let k = with_obs_on (fun () -> Capsules.Std_board.make ~what:"Replay" board) in
          let tgt = Option.get k.Instance.snap_target in
          if tgt.Snapshot.tg_arch <> h.Bundle.hd_arch then
            Bundle.refuse "bundle arch mismatch (bundle %s, board %s)" h.Bundle.hd_arch
              tgt.Snapshot.tg_arch;
          Memory.restore tgt.Snapshot.tg_mem (Memory.snapshot_of_pages b.Bundle.bu_pages);
          let live_fp = Memory.fingerprint tgt.Snapshot.tg_mem in
          if live_fp <> h.Bundle.hd_mem_fp then
            Bundle.refuse "pristine image fingerprint mismatch (bundle %s, restored %s)"
              (Fp.to_hex h.Bundle.hd_mem_fp) (Fp.to_hex live_fp);
          let sched = Bundle.schedule b in
          Schedule.apply k sched;
          let session = Replayable.of_instance ~name:board k in
          let snap0 = session.Replayable.rp_capture () in
          {
            lv_session = session;
            lv_restart =
              (fun () ->
                snap0 ();
                session);
            lv_snapshots = true;
            lv_kind = h.Bundle.hd_kind;
            lv_schedule = sched;
            lv_mem_fp = h.Bundle.hd_mem_fp;
            lv_pages = b.Bundle.bu_pages;
            lv_stop = (fun now -> now >= h.Bundle.hd_horizon);
            lv_oracle_fp = session.Replayable.rp_fingerprint;
          })
    in
    lv
  | Bundle.Fabric { fa_plan; fa_sweep_seed; fa_cut; fa_outage } ->
    let lv =
      fabric_live ~plan:fa_plan ~sweep_seed:fa_sweep_seed ~cut:fa_cut ~outage:fa_outage
        ~horizon:h.Bundle.hd_horizon
    in
    if lv.lv_session.Replayable.rp_arch <> h.Bundle.hd_arch then
      Bundle.refuse "bundle arch mismatch (bundle %s, topology %s)" h.Bundle.hd_arch
        lv.lv_session.Replayable.rp_arch;
    (* the drain already ran during recording: replaying is just stepping
       to the recorded horizon, so the stop is the plain horizon *)
    { lv with lv_stop = (fun now -> now >= h.Bundle.hd_horizon) }

(** Bundle → navigator, marks armed: any forward pass that crosses a mark
    re-verifies the fingerprint and refuses on divergence. *)
let navigator ?interval (b : Bundle.t) =
  let lv = live_of_bundle b in
  Navigator.create
    ~interval:(Option.value ~default:b.Bundle.bu_header.Bundle.hd_interval interval)
    ~snapshots:lv.lv_snapshots ~marks:b.Bundle.bu_marks ~restart:lv.lv_restart lv.lv_session

(** Replay a bundle end to end: re-execute to the recorded horizon and
    report whether the final fingerprint (and crash, if any) reproduced. *)
let reproduces (b : Bundle.t) =
  with_contracts b (fun () ->
      let nav = navigator b in
      match Navigator.goto nav b.Bundle.bu_header.Bundle.hd_horizon with
      | () ->
        Navigator.fingerprint nav = b.Bundle.bu_header.Bundle.hd_final_fp
        && (match (Navigator.crash nav, b.Bundle.bu_header.Bundle.hd_crash) with
           | None, None -> true
           | Some c, Some (tk, reason) ->
             c.Replayable.cr_tick = tk && c.Replayable.cr_reason = reason
           | _ -> false)
      | exception Bundle.Refused _ -> false)

(* --- campaign emitters: failure cell → bundle --- *)

(** Record the fleet cell [c] as a bundle: same board, same per-cell
    reseed, same witness + hostile streams, same tick budget. *)
let of_fleet_cell ?(interval = 64) ?note (spec : Fleet.Campaign.spec)
    (c : Fleet.Campaign.cell) : Bundle.t =
  let plan =
    match
      List.find_opt
        (fun (p : Fleet.Campaign.plan) -> p.Fleet.Campaign.pl_name = c.Fleet.Campaign.cl_plan)
        spec.Fleet.Campaign.sp_plans
    with
    | Some p -> p
    | None ->
      invalid_arg
        (Printf.sprintf "Replay: cell plan %S not in spec" c.Fleet.Campaign.cl_plan)
  in
  let sched =
    Schedule.fleet_cell ~seed:c.Fleet.Campaign.cl_seed
      ~fuzzers:plan.Fleet.Campaign.pl_fuzzers ~steps:plan.Fleet.Campaign.pl_steps
  in
  let note =
    match note with
    | Some n -> n
    | None ->
      Printf.sprintf "fleet cell %d: board %s plan %s seed %d" c.Fleet.Campaign.cl_index
        c.Fleet.Campaign.cl_board c.Fleet.Campaign.cl_plan c.Fleet.Campaign.cl_seed
  in
  let lv =
    board_live ~board:c.Fleet.Campaign.cl_board ~horizon:spec.Fleet.Campaign.sp_max_ticks
      sched
  in
  record ~interval ~note lv

(** Record a coverage-fuzzer crasher as a bundle: witness + the crashing
    genome on the campaign board, contracts armed per the board family
    (the same arming the fuzzcov campaign uses). *)
let of_fuzzcov ?(interval = 64) ?note (spec : Fuzzcov.Engine.spec)
    (c : Fuzzcov.Engine.crasher) : Bundle.t =
  let board = spec.Fuzzcov.Engine.fc_board in
  let note =
    match note with
    | Some n -> n
    | None ->
      Printf.sprintf "fuzzcov crasher: board %s gen %d site %s" board
        c.Fuzzcov.Engine.cr_gen c.Fuzzcov.Engine.cr_site
  in
  Verify.Violation.with_enabled (contracts_for board) (fun () ->
      let lv =
        board_live ~board ~horizon:c.Fuzzcov.Engine.cr_input.Fuzzcov.Input.in_ticks
          (Schedule.fuzzcov_cell c.Fuzzcov.Engine.cr_input)
      in
      record ~interval ~note lv)

(** Record the fabric cell [c] as a bundle, and require the recording to
    land on the campaign's fingerprint — an emitted bundle that does not
    already reproduce its cell is refused at the source. *)
let of_fabric_cell ?(interval = 16) ?note (spec : Fabric.Campaign.spec)
    (c : Fabric.Campaign.cell) : Bundle.t =
  let note =
    match note with
    | Some n -> n
    | None ->
      Printf.sprintf "fabric cell %d: plan %s cut %d board %d (%s)"
        c.Fabric.Campaign.fc_index c.Fabric.Campaign.fc_plan c.Fabric.Campaign.fc_cut
        c.Fabric.Campaign.fc_board c.Fabric.Campaign.fc_why
  in
  let lv =
    fabric_live ~plan:c.Fabric.Campaign.fc_plan ~sweep_seed:spec.Fabric.Campaign.fb_seed
      ~cut:c.Fabric.Campaign.fc_cut ~outage:spec.Fabric.Campaign.fb_outage
      ~horizon:spec.Fabric.Campaign.fb_horizon
  in
  let b = record ~interval ~note lv in
  (* the campaign fingerprints after its containment check; the bundle's
     final fp is the check-free navigable state, so compare oracles *)
  let oracle = lv.lv_oracle_fp () in
  if oracle <> c.Fabric.Campaign.fc_fp then
    Bundle.refuse "fabric recording diverged from campaign cell %d (cell %s, recorded %s)"
      c.Fabric.Campaign.fc_index
      (Fp.to_hex c.Fabric.Campaign.fc_fp)
      (Fp.to_hex oracle);
  b
