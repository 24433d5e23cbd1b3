(** Multi-board topologies under one deterministic global scheduler.

    A topology is N boards (each a full {!Ticktock.Instance.t} with the
    standard capsule set plus a {!Radio} endpoint on one shared {!Link})
    interleaved under a single virtual clock: each global tick steps every
    board exactly one kernel tick in node order, runs its host agents
    (modeled deployment daemons — the OTA streamer/flasher), then delivers
    the link's in-flight frames. Everything is a pure function of the
    topology spec and the seed, so two runs — or a run forked from a
    snapshot — are byte-identical.

    Power loss is first-class: {!cut} kills a board for an outage window
    (its RAM, radio queues and host agents die with it; its {e flash}
    survives), and the reboot path is the real deployment path — restore
    the pristine post-boot image around the surviving flash, run the
    node's flash fsck (the OTA bootloader step), and Tock-style
    [boot_load] the process set back out of flash. Whole topologies
    snapshot and fork like single boards: {!capture}/{!restore} compose
    the per-board snapshot targets with the link state. *)

open Ticktock

(** One application a node boots with. [ap_payload] is the TBF payload
    written to flash (fabric workloads slot-pad it so every image lands in
    one fixed-size flash slot — see {!Ota.slot_size}); [ap_factory] builds
    the program fresh, so processes snapshot exactly and reboots reload
    deterministically. *)
type app = {
  ap_name : string;
  ap_payload : string;
  ap_min_ram : int;
  ap_factory : unit -> Userland.program;
}

(** A host-side deployment daemon attached to a node (OTA streamer, OTA
    flasher). Dies with the node's power and restarts fresh at reboot —
    the factory in [ns_agents] is handed the topology and the node id, so
    an agent can reach the link, its board's memory and the reboot
    request. *)
type agent = { ag_name : string; ag_tick : now:int -> unit }

type node_spec = {
  ns_name : string;
  ns_board : string;  (** one of {!Fleet.Campaign.board_names} *)
  ns_apps : app list;
  ns_registry : string -> Userland.program option;
      (** boot-loading registry: must resolve every app name that may ever
          sit in this node's flash (including OTA'd images) *)
  ns_agents : (t -> int -> agent) list;
  ns_fsck : Memory.t -> string;
      (** flash fsck run at reboot, before boot loading — the OTA
          bootloader step; returns a classification label recorded on the
          node ("clean" when there is nothing to repair) *)
}

and node = {
  nd_id : int;
  nd_spec : node_spec;
  nd_k : Instance.t;
  nd_target : Snapshot.target;
  nd_pristine : Snapshot.t;  (** post-boot, pre-load image *)
  mutable nd_agents : agent list;
  mutable nd_outage : int;  (** ticks of power outage left; 0 = alive *)
  mutable nd_reboots : int;
  mutable nd_last_fsck : string;  (** fsck label of the latest reboot *)
  mutable nd_lost_console : string;
      (** transcript (process outputs + kernel console) of incarnations
          lost to power cuts *)
}

and t = {
  link : Link.t;
  nodes : node array;
  mutable vclock : int;
  mutable panic : string option;  (** first kernel panic, if any board hit one *)
}

let plain_spec ~name ~board ?(apps = []) ?(agents = []) () =
  {
    ns_name = name;
    ns_board = board;
    ns_apps = apps;
    ns_registry =
      (fun n ->
        List.find_map (fun a -> if a.ap_name = n then Some (a.ap_factory ()) else None) apps);
    ns_agents = agents;
    ns_fsck = (fun _ -> "clean");
  }

(* Board builders come from the fleet's verified list; the radio endpoint
   and the standard device complement ride the snapshot like any capsule
   devices. *)
let make_node ~link ~id (spec : node_spec) =
  if not (List.mem spec.ns_board Fleet.Campaign.board_names) then
    invalid_arg
      (Printf.sprintf "Fabric: unknown board %S (one of: %s)" spec.ns_board
         (String.concat ", " Fleet.Campaign.board_names));
  let radio = Radio.capsule ~link ~node:id () in
  let k = Capsules.Std_board.make ~what:"Fabric" ~extra:[ radio ] spec.ns_board in
  let target = Option.get k.Instance.snap_target in
  {
    nd_id = id;
    nd_spec = spec;
    nd_k = k;
    nd_target = target;
    nd_pristine = Snapshot.capture target;
    nd_agents = [];
    nd_outage = 0;
    nd_reboots = 0;
    nd_last_fsck = "clean";
    nd_lost_console = "";
  }

(* Everything this incarnation ever said: per-process print output in pid
   order, then the kernel console. Process outputs die with the process
   table at reboot, so power cuts bank this into [nd_lost_console]. *)
let incarnation_transcript (n : node) =
  String.concat ""
    (List.map
       (fun (pid, _) -> Option.value ~default:"" (n.nd_k.Instance.proc_output pid))
       (n.nd_k.Instance.procs ())
    @ [ n.nd_k.Instance.console () ])

(** The node's full life transcript: all lost incarnations, then the
    current one. Deterministic (pid-ordered) but not chronologically
    interleaved across processes. *)
let transcript (n : node) = n.nd_lost_console ^ incarnation_transcript n

let fresh_agents (t : t) (n : node) =
  n.nd_agents <- List.map (fun mk -> mk t n.nd_id) n.nd_spec.ns_agents

let load_apps (n : node) =
  List.iter
    (fun a ->
      match
        n.nd_k.Instance.load_factory ~name:a.ap_name ~payload:a.ap_payload
          ~factory:a.ap_factory ~min_ram:a.ap_min_ram
      with
      | Ok _ -> ()
      | Error e ->
        invalid_arg
          (Printf.sprintf "Fabric: loading %s on node %s: %s" a.ap_name n.nd_spec.ns_name
             (Kerror.to_string e)))
    n.nd_spec.ns_apps

(** Build a topology: boot every board, load its apps, start its agents.
    The returned topology is at virtual tick 0, ready to run or capture. *)
let create (specs : node_spec list) ?(capacity = 8) ?(faults = Link.no_faults) ~seed () =
  let link = Link.create ~nodes:(List.length specs) ~capacity ~faults ~seed () in
  let nodes = Array.of_list (List.mapi (fun id s -> make_node ~link ~id s) specs) in
  let t = { link; nodes; vclock = 0; panic = None } in
  Array.iter
    (fun n ->
      load_apps n;
      fresh_agents t n)
    nodes;
  t

let alive (t : t) id = Link.alive t.link id

(** Power-cut a node for [outage] global ticks: its RAM and queues die,
    its flash survives, peers see it dead ({!Radio} watch upcalls fire
    with [peer_died], sends to it are refused). *)
let cut (t : t) id ~outage =
  let n = t.nodes.(id) in
  if n.nd_outage = 0 then begin
    n.nd_outage <- max 1 outage;
    n.nd_lost_console <- n.nd_lost_console ^ incarnation_transcript n;
    Link.set_dead t.link id true;
    Obs.Metrics.host_incr "fabric/power_cuts"
  end

(* The reboot path: pristine image with the surviving app flash kept + fsck
   + boot load. This is the same sequence a real board walks after power
   returns, and the only way OTA activations take effect. *)
let reboot (t : t) (n : node) ~reseed =
  Snapshot.restore ~keep:Layout.app_flash n.nd_target n.nd_pristine;
  n.nd_last_fsck <- n.nd_spec.ns_fsck n.nd_target.Snapshot.tg_mem;
  let loaded =
    n.nd_k.Instance.boot_load ~registry:n.nd_spec.ns_registry ~require_credentials:true
  in
  ignore loaded;
  n.nd_k.Instance.reseed reseed;
  n.nd_reboots <- n.nd_reboots + 1;
  fresh_agents t n;
  Link.set_dead t.link n.nd_id false;
  Obs.Metrics.host_incr "fabric/reboots"

(** Ask for a planned reboot (OTA activation): modeled as a one-tick
    power cycle through the very same path as a real cut. *)
let request_reboot (t : t) id =
  let n = t.nodes.(id) in
  if n.nd_outage = 0 then begin
    n.nd_outage <- 1;
    n.nd_lost_console <- n.nd_lost_console ^ incarnation_transcript n;
    Link.set_dead t.link id true
  end

(** One global tick: step each live board one kernel tick (in node
    order), run its agents, then deliver the link. Dead boards count
    their outage down and walk the reboot path when it ends. *)
let step (t : t) ~reseed_of =
  Array.iter
    (fun n ->
      if n.nd_outage > 0 then begin
        n.nd_outage <- n.nd_outage - 1;
        if n.nd_outage = 0 then reboot t n ~reseed:(reseed_of n.nd_id)
      end
      else begin
        (try n.nd_k.Instance.run ~max_ticks:1
         with Tock_cortexm_mpu.Kernel_panic msg -> if t.panic = None then t.panic <- Some msg);
        List.iter (fun a -> a.ag_tick ~now:t.vclock) n.nd_agents
      end)
    t.nodes;
  Link.deliver t.link ~now:t.vclock;
  t.vclock <- t.vclock + 1

let run (t : t) ~ticks ~reseed_of =
  for _ = 1 to ticks do
    step t ~reseed_of
  done

(* --- whole-topology snapshot --- *)

type snapshot = {
  ts_boards : Snapshot.t array;
  ts_link : Link.state;
  ts_vclock : int;
}

(** Capture the whole topology. Host agents are not captured — they are
    rebuilt fresh from their factories on restore, so capture at points
    where agents hold no in-flight state (topology build time, the
    campaign fork point) is exact. *)
let capture (t : t) =
  {
    ts_boards = Array.map (fun n -> Snapshot.capture n.nd_target) t.nodes;
    ts_link = Link.capture t.link;
    ts_vclock = t.vclock;
  }

let restore (t : t) s =
  Array.iteri (fun i n -> Snapshot.restore n.nd_target s.ts_boards.(i)) t.nodes;
  Link.restore t.link s.ts_link;
  t.vclock <- s.ts_vclock;
  t.panic <- None;
  Array.iter
    (fun n ->
      n.nd_outage <- 0;
      n.nd_last_fsck <- "clean";
      n.nd_reboots <- 0;
      n.nd_lost_console <- "";
      fresh_agents t n)
    t.nodes

let fingerprint (t : t) =
  let h =
    Array.fold_left
      (fun h n -> Fp.int64 h (Snapshot.fingerprint n.nd_target))
      (Fp.int Fp.seed t.vclock) t.nodes
  in
  Fp.int64 h (Link.fingerprint t.link)

(* --- the replayable session view --- *)

(** [replayable ?node ~name ~reseed_of t] is the whole topology as one
    {!Ticktock.Replayable} session: a step is one {e global} tick (every
    live board one kernel tick, agents, link delivery), capture/restore
    and the fingerprint are whole-topology, and the register/memory/MPU
    inspectors look at node [node] (default 0). This is what lets the
    replay navigator time-travel a multi-board failure cell exactly like
    a single board. *)
let replayable ?(node = 0) ~name ~reseed_of (t : t) : Replayable.t =
  let n = t.nodes.(node) in
  let crash = ref None in
  let sync_panic () =
    match (!crash, t.panic) with
    | None, Some msg ->
      crash := Some { Replayable.cr_tick = t.vclock; cr_reason = "panic: " ^ msg }
    | _ -> ()
  in
  sync_panic ();
  {
    Replayable.rp_kind = "fabric";
    rp_name = name;
    rp_arch = n.nd_target.Snapshot.tg_arch;
    rp_tick = (fun () -> t.vclock);
    rp_step =
      (fun ~ticks ->
        if !crash = None then begin
          (try
             for _ = 1 to ticks do
               step t ~reseed_of
             done
           with Verify.Violation.Violation v ->
             crash :=
               Some
                 {
                   Replayable.cr_tick = t.vclock;
                   cr_reason = "violation: " ^ v.Verify.Violation.site;
                 });
          sync_panic ()
        end);
    rp_crash = (fun () -> !crash);
    rp_capture =
      (fun () ->
        let s = capture t in
        let crash_at = !crash in
        fun () ->
          restore t s;
          crash := crash_at);
    rp_fingerprint = (fun () -> fingerprint t);
    rp_reseed = (fun _ -> ());
    rp_regs = (fun () -> n.nd_k.Instance.regs ());
    rp_mem_read =
      (fun ~addr ~len -> n.nd_k.Instance.mem_read ~addr:(Word32.of_int addr) ~len);
    rp_mpu = (fun () -> n.nd_k.Instance.mpu_describe ());
    rp_events = (fun () -> n.nd_k.Instance.obs ());
  }
