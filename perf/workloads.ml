(** The five benchmark workloads.

    Each workload is driven only through public entry points, on one
    domain ([~jobs:1]). [prepare] is the workload's set-up, which the
    harness times on its own as [setup_s]; the closure it returns runs one
    sample. For [replay] the set-up records and opens the sessions the
    samples navigate. The campaign drivers build their boards and
    environments inside the call, where nothing can hand them prepared
    ones, so for [fleet], [fuzzcov] and [fabric] the set-up is the
    driver's cold start, its smallest campaign that touches every board
    or environment. Nearly all of that is fixed cost: booting and
    capturing the boards, building the environments and the golden run,
    creating the store. [suite] boots its five boards, the phase every
    unit begins with. A sample is a fixed, seed-determined batch of work,
    so every sample of a run must produce the same outputs.

    Untraced samples call the libraries' campaign drivers. Traced samples
    replicate the same cells from the same public functions around
    wrapped boards (see {!Wrap}), because a campaign driver boots its
    boards where no wrapper can reach them; the replicated cells must
    reproduce the untraced outputs exactly, which the harness checks. *)

open Ticktock

type size = Full | Smoke

type outcome = {
  units : int;  (** units of work completed *)
  lat : float array;
      (** per-unit wall seconds, where a unit is individually observable;
          empty for campaign workloads, whose cells run inside one
          library call *)
  failed : int;  (** units whose outcome is wrong *)
  digest : (string * string) list;  (** deterministic outputs, by key *)
  store_bytes : int;  (** TICKFLT bytes written *)
}

(** Why each workload is in the benchmark is recorded in BENCHMARK.json
    and perf/README.md. *)
type t = { name : string; prepare : size:size -> seed:int -> traced:bool -> unit -> outcome }

(** Where campaign stores go; relative to the working directory. *)
let scratch_dir = ref (Filename.concat "perf" "out")

let md5 s = Digest.to_hex (Digest.string s)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* Every sample starts from the same model-cycle count, so fingerprints
   and cycle totals never depend on what ran earlier in the process. *)
let pristine_cycles () = Cycles.set Cycles.global 0

let rotate seed l =
  let n = List.length l in
  let s = ((seed mod n) + n) mod n in
  List.filteri (fun i _ -> i >= s) l @ List.filteri (fun i _ -> i < s) l

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [k] distinct campaign seeds from [pool], chosen by the workload seed. *)
let pick ~seed ~k pool =
  let a = Array.of_list pool in
  shuffle (Random.State.make [| seed; 0x5EED |]) a;
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a

(* --- suite --------------------------------------------------------- *)

let suite_boards =
  [ "ticktock-arm"; "ticktock-arm-mc"; "ticktock-arm-v8"; "ticktock-e310"; "tock-arm-upstream" ]

(* Everything the suite shows its user, plus the exact model counters:
   ticks, total cycles, and the per-method call and cycle counts of the
   kernel's Figure 11 hooks. *)
let suite_summary (k : Instance.t) (rs : Apps.Difftest.app_result list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (r : Apps.Difftest.app_result) ->
      Printf.bprintf b "%s|%s|%s|%b|%s\n" r.Apps.Difftest.app.Apps.Suite.app_name r.state
        (match r.exit_code with Some c -> string_of_int c | None -> "-")
        r.faulted r.output)
    rs;
  Buffer.add_string b (k.Instance.console ());
  let hooks = Buffer.create 256 in
  List.iter (fun (m, calls, cycles) -> Printf.bprintf hooks "%s:%d:%d," m calls cycles)
    (Hooks.rows (k.Instance.hooks ()));
  Printf.sprintf "outputs=%s ticks=%d cycles=%d hooks=%s" (md5 (Buffer.contents b))
    (k.Instance.ticks ()) (Cycles.read Cycles.global) (Buffer.contents hooks)

let suite =
  let prepare ~size ~seed ~traced =
    List.iter (fun b -> ignore (Capsules.Std_board.make b)) suite_boards;
    let rounds = match size with Full -> 200 | Smoke -> 10 in
    let order = Array.of_list (rotate seed suite_boards) in
    let apps = if traced then List.map Wrap.suite_app Apps.Suite.all else Apps.Suite.all in
    fun () ->
      Verify.Violation.with_enabled false (fun () ->
          let n = rounds * Array.length order in
          let lat = Array.make n 0. in
          let first = Hashtbl.create 8 in
          let failed = ref 0 in
          for i = 0 to n - 1 do
            let b = order.(i mod Array.length order) in
            let t0 = now_s () in
            let summary =
              Span.unit (fun () ->
                  pristine_cycles ();
                  let k = if traced then Wrap.board b else Capsules.Std_board.make b in
                  suite_summary k (Apps.Difftest.run_suite ~apps k))
            in
            lat.(i) <- now_s () -. t0;
            match Hashtbl.find_opt first b with
            | None -> Hashtbl.add first b summary
            | Some s -> if s <> summary then incr failed
          done;
          {
            units = n;
            lat;
            failed = !failed;
            digest = List.map (fun b -> ("suite." ^ b, Hashtbl.find first b)) suite_boards;
            store_bytes = 0;
          })
  in
  { name = "suite"; prepare }

(* --- fleet --------------------------------------------------------- *)

let fleet_spec ~size ~seed =
  let open Fleet.Campaign in
  {
    default_spec with
    sp_boards = rotate seed default_spec.sp_boards;
    sp_cells = (match size with Full -> 3000 | Smoke -> 12);
  }

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let with_store name f =
  if not (Sys.file_exists !scratch_dir) then Sys.mkdir !scratch_dir 0o755;
  let path = Filename.concat !scratch_dir (Printf.sprintf "%s-%d.tickflt" name (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let r = f path in
      (r, file_size path))

(* Fleet.Campaign.run's cell loop, replicated around wrapped boards. *)
let fleet_traced (spec : Fleet.Campaign.spec) path =
  let open Fleet.Campaign in
  let coords = cell_coords spec in
  let st = Span.span Span.store (fun () -> Fleet.Store.create ~path ~spec:(spec_key spec)) in
  let cell runner i =
    Span.unit (fun () ->
        let bname, plan, seed = coords i in
        let o =
          Span.span Span.restore (fun () ->
              Replayable.Runner.cell runner ~key:bname
                ~boot:(fun () ->
                  let k = Wrap.board bname in
                  (k, k.Instance.snap_target))
                (fun k ->
                  Span.span Span.glue (fun () ->
                      k.Instance.reseed (seed * 0x9E3779B1);
                      Apps.Fuzz.round_on k ~max_ticks:spec.sp_max_ticks ~fuzzers:plan.pl_fuzzers
                        ~steps:plan.pl_steps ~seed)))
        in
        {
          cl_index = i;
          cl_board = bname;
          cl_plan = plan.pl_name;
          cl_seed = seed;
          cl_witness_ok = o.Apps.Fuzz.witness_ok;
          cl_isolation_ok = o.Apps.Fuzz.isolation_ok;
          cl_panic = o.Apps.Fuzz.kernel_panic <> None;
          cl_faulted = o.Apps.Fuzz.fuzzers_faulted;
          cl_exited = o.Apps.Fuzz.fuzzers_exited;
        })
  in
  let results, _ =
    Span.span Span.pool (fun () ->
        Pool.run ~jobs:1 ~batch:32 ~cells:spec.sp_cells
          ~commit:(fun i c ->
            Span.span Span.store (fun () -> Fleet.Store.append st ~index:i ~data:(encode_cell c)))
          ~init:(fun _ -> Replayable.Runner.create ~exec:Replayable.Exec.Fork ())
          ~cell ())
  in
  Span.span Span.store (fun () -> Fleet.Store.close st);
  let cells = Array.map Option.get results in
  (render spec cells, cells)

let fleet =
  let prepare ~size ~seed ~traced =
    let spec = fleet_spec ~size ~seed in
    (* cold start: one cell per board *)
    ignore
      (with_store "fleet-setup" (fun path ->
           Fleet.Campaign.run ~jobs:1 ~store:path
             { spec with sp_cells = List.length spec.Fleet.Campaign.sp_boards }));
    fun () ->
      pristine_cycles ();
      let (report, cells), bytes =
        with_store "fleet" (fun path ->
            if traced then fleet_traced spec path
            else
              let r = Fleet.Campaign.run ~jobs:1 ~store:path spec in
              (r.Fleet.Campaign.fl_report, Array.map Option.get r.Fleet.Campaign.fl_cells))
      in
      let bad (c : Fleet.Campaign.cell) =
        not (c.cl_witness_ok && c.cl_isolation_ok && not c.cl_panic)
      in
      {
        units = Array.length cells;
        lat = [||];
        failed = count bad cells;
        digest = [ ("fleet.report", md5 report); ("fleet.cells", string_of_int (Array.length cells)) ];
        store_bytes = bytes;
      }
  in
  { name = "fleet"; prepare }

(* --- fuzzcov ------------------------------------------------------- *)

(* A sample runs default campaigns, as `ticktock fuzzcov` runs them, so
   the lineage and the corpus minimization every 8 generations are in the
   traffic. An exec's cost follows its genome, which a campaign's lineage
   carries forward: over campaign seeds 1..200 the mean exec cost of one
   campaign ranges from 0.6 to 2.1 ms (standard deviation 27% of the
   mean), so four seed-picked campaigns would move execs/s by about 19%
   from the seed alone. The campaigns are therefore fixed, the first
   four campaign seeds (their mean exec cost is that of all 200), and the
   workload seed only orders them. The smoke size keeps 8 generations so
   that one minimization still runs. *)
let fuzzcov_specs ~size ~seed =
  let n, gens =
    match size with Full -> (4, Fuzzcov.Engine.default_spec.fc_gens) | Smoke -> (1, 8)
  in
  List.map
    (fun s -> { Fuzzcov.Engine.default_spec with fc_seed = s; fc_gens = gens })
    (rotate seed (List.init n (fun i -> i + 1)))

(* Fuzzcov.Engine.run's generation loop and merge fold (without store and
   resume), replicated around wrapped boards. *)
let fuzzcov_traced (spec : Fuzzcov.Engine.spec) =
  let open Fuzzcov.Engine in
  let virgin : virgin = Hashtbl.create 4096 in
  let corpus = ref [||] in
  let max_hits = ref 0 in
  let accepted = ref 0 in
  let crash_seen : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let execs = ref 0 in
  let gens = ref [] in
  let apply gs =
    List.iter
      (fun (slot, cls) ->
        let seen = Option.value ~default:0 (Hashtbl.find_opt virgin slot) in
        Hashtbl.replace virgin slot (seen lor cls))
      gs.gs_new_bits;
    corpus := Array.append !corpus (Array.of_list gs.gs_entries);
    accepted := !accepted + List.length gs.gs_entries;
    List.iter (fun e -> if e.en_hits > !max_hits then max_hits := e.en_hits) gs.gs_entries;
    List.iter
      (fun c -> Hashtbl.replace crash_seen (Verify.Taxonomy.name c.cr_class, c.cr_site) ())
      gs.gs_new_crashers;
    if (gs.gs_gen + 1) mod minimize_every = 0 then corpus := minimize !corpus;
    execs := gs.gs_execs;
    gens := gs :: !gens
  in
  let runner = Replayable.Runner.create ~exec:Replayable.Exec.Fork () in
  let execute_gen g =
    let cands =
      Span.span Span.fuzzcov_engine (fun () ->
          Array.init spec.fc_pop (fun s -> candidate spec ~corpus:!corpus ~gen:g ~slot:s))
    in
    let cell runner i =
      Span.unit (fun () ->
          Span.span Span.restore (fun () ->
              Replayable.Runner.cell runner ~key:spec.fc_board
                ~boot:(fun () ->
                  let k = Wrap.board spec.fc_board in
                  (k, k.Instance.snap_target))
                (fun k ->
                  (* run_input's own work (coverage map reset and
                     read-out, witness checks) is the engine's *)
                  Span.span Span.fuzzcov_engine (fun () ->
                      k.Instance.reseed (((g * spec.fc_pop) + i + 1) * 0x9E3779B1);
                      run_input k cands.(i)))))
    in
    let results, _ =
      Span.span Span.pool (fun () ->
          Pool.run ~jobs:1 ~batch:1 ~cells:spec.fc_pop ~init:(fun _ -> runner) ~cell ())
    in
    Span.span Span.fuzzcov_engine (fun () ->
        let new_bits = ref [] and new_entries = ref [] and new_crashers = ref [] in
        Array.iteri
          (fun slot r ->
            match r with
            | None -> ()
            | Some { ex_cov; ex_hits; ex_crash } ->
              (match ex_crash with
              | Some (cls, site, detail) ->
                let key = (Verify.Taxonomy.name cls, site) in
                if not (Hashtbl.mem crash_seen key) then begin
                  Hashtbl.replace crash_seen key ();
                  new_crashers :=
                    !new_crashers
                    @ [ { cr_class = cls; cr_site = site; cr_detail = detail; cr_gen = g; cr_input = cands.(slot) } ]
                end
              | None -> ());
              let n = novelty virgin ex_cov in
              let delta = merge virgin ex_cov in
              new_bits := !new_bits @ delta;
              let gen_max = List.fold_left (fun m e -> max m e.en_hits) !max_hits !new_entries in
              if spec.fc_guided && (n > 0 || ex_hits > gen_max) && ex_crash = None then
                new_entries :=
                  !new_entries
                  @ [
                      {
                        en_id = !accepted + List.length !new_entries;
                        en_gen = g;
                        en_new = n;
                        en_hits = ex_hits;
                        en_input = cands.(slot);
                        en_cov = ex_cov;
                      };
                    ])
          results;
        let blocks, edges, bits = lit virgin in
        apply
          {
            gs_gen = g;
            gs_execs = !execs + spec.fc_pop;
            gs_edges = edges;
            gs_blocks = blocks;
            gs_bits = bits;
            gs_corpus =
              (let all = Array.append !corpus (Array.of_list !new_entries) in
               if (g + 1) mod minimize_every = 0 then Array.length (minimize all)
               else Array.length all);
            gs_crashers = Hashtbl.length crash_seen;
            gs_new_bits = !new_bits;
            gs_entries = !new_entries;
            gs_new_crashers = !new_crashers;
          })
  in
  Verify.Violation.with_enabled (contracts_for spec.fc_board) (fun () ->
      for g = 0 to spec.fc_gens - 1 do
        execute_gen g
      done);
  (render spec (Array.of_list (List.rev !gens)), !execs, Hashtbl.length crash_seen)

let fuzzcov =
  let prepare ~size ~seed ~traced =
    let specs = fuzzcov_specs ~size ~seed in
    (* cold start: one exec, of the same genome for every seed *)
    ignore (Fuzzcov.Engine.run ~jobs:1 { Fuzzcov.Engine.default_spec with fc_gens = 1; fc_pop = 1 });
    fun () ->
      let runs =
        List.map
          (fun spec ->
            pristine_cycles ();
            if traced then fuzzcov_traced spec
            else
              let r = Fuzzcov.Engine.run ~jobs:1 spec in
              (r.Fuzzcov.Engine.fz_report, r.Fuzzcov.Engine.fz_execs, List.length r.Fuzzcov.Engine.fz_crashers))
          specs
      in
      let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
      let execs = sum (fun (_, e, _) -> e) in
      {
        units = execs;
        lat = [||];
        failed = sum (fun (_, _, c) -> c);
        digest =
          [
            ("fuzzcov.reports", md5 (String.concat "" (List.map (fun (r, _, _) -> r) runs)));
            ("fuzzcov.execs", string_of_int execs);
          ];
        store_bytes = 0;
      }
  in
  { name = "fuzzcov"; prepare }

(* --- fabric -------------------------------------------------------- *)

let fabric_spec ~size ~seed =
  match size with
  | Full -> { Fabric.Campaign.default_spec with fb_seed = seed }
  | Smoke -> { Fabric.Campaign.default_spec with fb_seed = seed; fb_plans = [ "lossy" ]; fb_cuts = 2 }

(* Sweep seeds 1..100 whose campaign passes every containment check. The
   others (8 14 15 23 32 35 40 41 45 49 59 62 78 79 87 88 93) each leave
   one cut point with "managed slot not intact" — a fabric finding
   recorded in perf/README.md, not something a speed benchmark can run
   as passing work. A sample sweeps three of these seeds. *)
let fabric_failing = [ 8; 14; 15; 23; 32; 35; 40; 41; 45; 49; 59; 62; 78; 79; 87; 88; 93 ]
let fabric_pool = List.filter (fun s -> not (List.mem s fabric_failing)) (List.init 100 (fun i -> i + 1))
let fabric_campaigns = function Full -> 3 | Smoke -> 1

(* Powerloss.make_env with every app program, board instance and checker
   wrapped. The topology is restored once after the swap so the host
   agents are rebuilt against the wrapped nodes. *)
let fabric_env_traced (plan : Fabric.Powerloss.plan) ~seed =
  let open Fabric in
  Span.span Span.boot (fun () ->
      let stats = Ota.stats () in
      let spec =
        {
          Deploy.sp_ota = true;
          sp_hostile = plan.Powerloss.pl_hostile;
          sp_seed = Powerloss.mix seed 17;
        }
      in
      let wrap_spec (s : Topology.node_spec) =
        {
          s with
          Topology.ns_apps =
            List.map
              (fun (a : Topology.app) ->
                { a with Topology.ap_factory = (fun () -> Wrap.program (a.Topology.ap_factory ())) })
              s.Topology.ns_apps;
          ns_registry = (fun n -> Option.map Wrap.program (s.Topology.ns_registry n));
        }
      in
      let topo = Topology.create (List.map wrap_spec (Deploy.specs ~spec ~stats ())) ~seed:1 () in
      Array.iteri
        (fun i (n : Topology.node) ->
          Wrap.checker n.Topology.nd_target.Snapshot.tg_mem;
          topo.Topology.nodes.(i) <- { n with Topology.nd_k = Wrap.instance n.Topology.nd_k })
        topo.Topology.nodes;
      let base = Topology.capture topo in
      Topology.restore topo base;
      { Powerloss.ev_plan = plan; ev_topo = topo; ev_stats = stats; ev_base = base })

(* Powerloss.run_cell, step for step, under spans. *)
let fabric_cell_traced (env : Fabric.Powerloss.env) ~sweep_seed ~cut ~outage ~horizon =
  let open Fabric in
  let open Powerloss in
  let topo = env.ev_topo in
  let cell_seed = mix (mix sweep_seed cut) (Hashtbl.hash env.ev_plan.pl_name) in
  Span.span Span.restore (fun () -> Topology.restore topo env.ev_base);
  Link.configure topo.Topology.link ~faults:env.ev_plan.pl_faults ~seed:cell_seed;
  Ota.reset env.ev_stats;
  let reseed_of id = mix cell_seed (id + 101) in
  Array.iter
    (fun (n : Topology.node) -> n.Topology.nd_k.Instance.reseed (reseed_of n.Topology.nd_id))
    topo.Topology.nodes;
  let board = cut mod Deploy.node_count in
  let step () = Span.span Span.fabric_step (fun () -> Topology.step topo ~reseed_of) in
  for t = 0 to horizon - 1 do
    if t = cut then Topology.cut topo board ~outage;
    step ()
  done;
  let extra = ref (outage + 3) in
  while
    !extra > 0
    || Array.exists (fun (n : Topology.node) -> n.Topology.nd_outage > 0) topo.Topology.nodes
  do
    if !extra > 0 then decr extra;
    step ()
  done;
  let oc = Span.span Span.fabric_check (fun () -> Deploy.check topo) in
  let why = containment_why oc env.ev_stats in
  {
    pc_plan = env.ev_plan.pl_name;
    pc_cut = cut;
    pc_board = board;
    pc_class = classify oc env.ev_stats;
    pc_fsck = oc.Deploy.oc_fsck;
    pc_silent = oc.Deploy.oc_silent;
    pc_ok = why = "";
    pc_why = why;
    pc_commits = env.ev_stats.Ota.ot_commits;
    pc_rollbacks = env.ev_stats.Ota.ot_rollbacks;
    pc_readings = List.fold_left (fun a (_, got) -> a + distinct_readings got) 0 oc.Deploy.oc_got;
    pc_fp = Span.span Span.fingerprint (fun () -> Topology.fingerprint topo);
  }

(* Fabric.Campaign.run's cell loop and golden run, replicated. *)
let fabric_traced (spec : Fabric.Campaign.spec) =
  let open Fabric in
  let coords = Campaign.cell_coords spec in
  let cell envs i =
    Span.unit (fun () ->
        let plan_name, cut = coords i in
        let env =
          match Hashtbl.find_opt envs plan_name with
          | Some env -> env
          | None ->
            let env = fabric_env_traced (Powerloss.plan_named plan_name) ~seed:spec.Campaign.fb_seed in
            Hashtbl.add envs plan_name env;
            env
        in
        let c =
          fabric_cell_traced env ~sweep_seed:spec.Campaign.fb_seed ~cut ~outage:spec.Campaign.fb_outage
            ~horizon:spec.Campaign.fb_horizon
        in
        {
          Campaign.fc_index = i;
          fc_plan = c.Powerloss.pc_plan;
          fc_cut = c.Powerloss.pc_cut;
          fc_board = c.Powerloss.pc_board;
          fc_class = c.Powerloss.pc_class;
          fc_fsck = c.Powerloss.pc_fsck;
          fc_ok = c.Powerloss.pc_ok;
          fc_why = c.Powerloss.pc_why;
          fc_silent = c.Powerloss.pc_silent;
          fc_commits = c.Powerloss.pc_commits;
          fc_rollbacks = c.Powerloss.pc_rollbacks;
          fc_readings = c.Powerloss.pc_readings;
          fc_fp = c.Powerloss.pc_fp;
        })
  in
  let results, _ =
    Span.span Span.pool (fun () ->
        Pool.run ~jobs:1 ~batch:4 ~cells:(Campaign.cell_count spec)
          ~init:(fun _ -> Hashtbl.create 4)
          ~cell ())
  in
  let cells = Array.map Option.get results in
  let golden = fabric_env_traced (Powerloss.plan_named "clean") ~seed:spec.Campaign.fb_seed in
  let reseed_of id = Powerloss.mix spec.Campaign.fb_seed (id + 101) in
  for _ = 1 to spec.Campaign.fb_horizon do
    Span.span Span.fabric_step (fun () -> Topology.step golden.Powerloss.ev_topo ~reseed_of)
  done;
  let oc = Span.span Span.fabric_check (fun () -> Deploy.check golden.Powerloss.ev_topo) in
  (Campaign.render spec oc golden.Powerloss.ev_stats cells, cells)

let fabric =
  let prepare ~size ~seed ~traced =
    let specs =
      List.map (fun s -> fabric_spec ~size ~seed:s) (pick ~seed ~k:(fabric_campaigns size) fabric_pool)
    in
    (* cold start: one cut point per plan, plus the golden run *)
    ignore (Fabric.Campaign.run ~jobs:1 { (List.hd specs) with fb_cuts = 1 });
    fun () ->
      let runs =
        List.map
          (fun spec ->
            pristine_cycles ();
            if traced then fabric_traced spec
            else
              let r = Fabric.Campaign.run ~jobs:1 spec in
              (r.Fabric.Campaign.fb_report, Array.map Option.get r.Fabric.Campaign.fb_cells))
          specs
      in
      let bad (c : Fabric.Campaign.cell) = not (c.fc_ok && c.fc_silent = 0) in
      let cells = Array.concat (List.map snd runs) in
      {
        units = Array.length cells;
        lat = [||];
        failed = count bad cells;
        digest =
          [
            ("fabric.reports", md5 (String.concat "" (List.map fst runs)));
            ("fabric.cells", string_of_int (Array.length cells));
          ];
        store_bytes = 0;
      }
  in
  { name = "fabric"; prepare }

(* --- replay -------------------------------------------------------- *)

let replay_board = "ticktock-arm"
let replay_interval = 32 (* the CLI default *)
let replay_contracts = Replay.Record.contracts_for replay_board

(* A session's length (30 to 113 ticks) and with it the cost of a command
   follow the recorded cell's seed: one session's command latency moves
   by about 20% from cell seed to cell seed. A sample therefore navigates
   48 sessions, recorded from the fixed cell seeds 1..48, and the
   workload seed chooses the commands. *)
let replay_sessions = function Full -> 48 | Smoke -> 2

(* One recorded session. The model-cycle counter is global to the domain
   and every fingerprint hashes it, so each session keeps its own value
   and the benchmark swaps it in around the commands it sends there, as
   if each session ran in its own process. *)
type session = { header : Replay.Bundle.header; nav : Replay.Navigator.t; mutable cycles : int }

let on (s : session) f =
  Cycles.set Cycles.global s.cycles;
  Fun.protect ~finally:(fun () -> s.cycles <- Cycles.read Cycles.global) f

(* Record a fleet cell (16 hostile apps next to the witness) as a bundle
   and open a navigator on it. *)
let replay_session ~size ~traced seed =
  let fuzzers, steps = match size with Full -> (16, 20000) | Smoke -> (2, 200) in
  Verify.Violation.with_enabled replay_contracts (fun () ->
      let sched = Replay.Schedule.fleet_cell ~seed ~fuzzers ~steps in
      let lv = Replay.Record.board_live ~what:"Perf" ~board:replay_board ~horizon:1500 sched in
      let bundle = Replay.Record.record ~interval:replay_interval lv in
      let nav =
        if traced then begin
          let lv = Replay.Record.live_of_bundle bundle in
          Replay.Navigator.create ~interval:replay_interval ~snapshots:lv.Replay.Record.lv_snapshots
            ~marks:bundle.Replay.Bundle.bu_marks
            ~restart:(fun () -> Wrap.session (lv.Replay.Record.lv_restart ()))
            (Wrap.session lv.Replay.Record.lv_session)
        end
        else Replay.Record.navigator bundle
      in
      { header = bundle.Replay.Bundle.bu_header; nav; cycles = Cycles.read Cycles.global })

(* One session's commands: exactly half [back 1], 30% [goto T] and the
   rest one step forward, in an order the seed shuffles. With each
   command drawn on its own, the median command latency of seeds 1..10
   spread by 14% (inter-quartile range over median); with the mix fixed,
   by 8%. *)
let replay_deck rng n =
  let d =
    Array.init n (fun i ->
        if i < n / 2 then `Back else if i < (n / 2) + (3 * n / 10) then `Goto else `Step)
  in
  shuffle rng d;
  d

let replay =
  let prepare ~size ~seed ~traced =
    let sessions =
      Array.of_list
        (List.init (replay_sessions size) (fun i -> replay_session ~size ~traced (i + 1)))
    in
    let per_session = match size with Full -> 20 | Smoke -> 6 in
    fun () ->
      Verify.Violation.with_enabled replay_contracts (fun () ->
          let rng = Random.State.make [| seed; 0x5E55 |] in
          let commands = per_session * Array.length sessions in
          let lat = Array.make commands 0. in
          let trail = Buffer.create (commands * 24) in
          let failed = ref 0 in
          (* a user works through one session's commands, then the next *)
          Array.iteri
            (fun si s ->
              let horizon = s.header.Replay.Bundle.hd_horizon in
              on s (fun () -> Replay.Navigator.goto s.nav 0);
              let deck = replay_deck rng per_session in
              for c = 0 to per_session - 1 do
                let target = Random.State.int rng (horizon + 1) in
                let t0 = now_s () in
                (* a command ends showing where it landed, as the CLI's
                   goto and back print the tick and fingerprint *)
                let landed =
                  try
                    Ok
                      (Span.unit (fun () ->
                           on s (fun () ->
                               (match deck.(c) with
                               | `Back -> Replay.Navigator.back s.nav 1
                               | `Goto -> Replay.Navigator.goto s.nav target
                               | `Step ->
                                 Replay.Navigator.goto s.nav
                                   (min horizon (Replay.Navigator.tick s.nav + 1)));
                               Replay.Navigator.fingerprint s.nav)))
                  with Replay.Bundle.Refused m -> Error m
                in
                lat.((si * per_session) + c) <- now_s () -. t0;
                match landed with
                | Ok fp -> Printf.bprintf trail "%d:%Lx\n" (Replay.Navigator.tick s.nav) fp
                | Error m ->
                  incr failed;
                  Printf.bprintf trail "refused:%s\n" m
              done)
            sessions;
          {
            units = commands;
            lat;
            failed = !failed;
            digest =
              [
                ("replay.fingerprints", md5 (Buffer.contents trail));
                ( "replay.sessions",
                  md5
                    (String.concat ","
                       (Array.to_list
                          (Array.map
                             (fun s ->
                               Printf.sprintf "%d:%Lx" s.header.Replay.Bundle.hd_horizon
                                 s.header.Replay.Bundle.hd_final_fp)
                             sessions))) );
              ];
            store_bytes = 0;
          })
  in
  { name = "replay"; prepare }

let all = [ suite; fleet; fuzzcov; fabric; replay ]
let find name = List.find_opt (fun w -> w.name = name) all
