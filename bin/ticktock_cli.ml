(* The ticktock command-line tool.

     ticktock boards                 list kernel configurations
     ticktock run [-k BOARD]        run the 21-app release suite
     ticktock difftest              compare Tock vs TickTock outputs (§6.1)
     ticktock attack [-k BOARD]     replay the §2.2/§3.4 exploits
     ticktock verify [-s SCALE]     check the proof components (§4)
     ticktock metrics [--json]      unified metrics after a suite run, text or JSON
     ticktock trace [-o FILE]       run the suite, export a Chrome trace
     ticktock chaos [-n N] [-f N]   seeded fault-injection campaign
     ticktock fleet / fabric / fuzzcov   resumable campaigns
     ticktock snapshot ...          capture/inspect/verify board snapshots
     ticktock replay ...            record / navigate TICKRPL replay bundles

   fuzz, difftest and chaos take the shared execution spec
   `--exec boot|fork|snapshot:FILE` (fork = boot once per worker, restore
   the pristine post-boot image per cell; snapshot:FILE forks from an
   on-disk image whose versioned header is checked against the board).
   fleet, fabric and fuzzcov take the shared campaign flags -j/--jobs,
   --store, --resume and --stop-after, and record failing cells as TICKRPL
   bundles with --bundles DIR. Campaign commands share one exit-code
   convention: 0 clean, 2 findings, 3 interrupted, 1 usage error.
*)

open Ticktock
open Cmdliner

let board_arg =
  let boards = List.map fst Boards.all_instances in
  let doc =
    Printf.sprintf "Kernel configuration to use. One of: %s." (String.concat ", " boards)
  in
  Arg.(value & opt string "ticktock-arm" & info [ "k"; "kernel" ] ~docv:"BOARD" ~doc)

let make_board name =
  match List.assoc_opt name Boards.all_instances with
  | Some make -> Ok (make ())
  | None -> Error (`Msg (Printf.sprintf "unknown board %S (try `ticktock boards')" name))

let boards_cmd =
  let run () =
    List.iter (fun (name, _) -> print_endline name) Boards.all_instances;
    0
  in
  Cmd.v (Cmd.info "boards" ~doc:"List kernel configurations") Term.(const run $ const ())

let run_cmd =
  let run board verbose =
    match make_board board with
    | Error (`Msg m) ->
      prerr_endline m;
      1
    | Ok k ->
      Verify.Violation.set_enabled false;
      let results = Apps.Difftest.run_suite k in
      List.iter
        (fun (r : Apps.Difftest.app_result) ->
          Printf.printf "=== %s [%s]\n" r.app.Apps.Suite.app_name r.state;
          if verbose then print_string r.output)
        results;
      Printf.printf "\n%d apps; console:\n%s" (List.length results) (k.Instance.console ());
      0
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print app output.") in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the 21-app release suite on a board")
    Term.(const run $ board_arg $ verbose)

let difftest_cmd =
  let run exec =
    match exec with
    | Error m -> Cli_common.usage_error m
    | Ok exec ->
      Verify.Violation.set_enabled false;
      let left = Apps.Difftest.run_suite ~exec (Boards.instance_ticktock_arm ()) in
      let right = Apps.Difftest.run_suite ~exec (Boards.instance_tock_arm ()) in
      Format.printf "%a@." Apps.Difftest.pp_comparison
        (Apps.Difftest.compare_suites ~left ~right);
      0
  in
  Cmd.v
    (Cmd.info "difftest" ~doc:"Differential-test Tock vs TickTock (§6.1)")
    Term.(const run $ Cli_common.exec_term)

let attack_cmd =
  let run board =
    match List.assoc_opt board Boards.all_instances with
    | None ->
      Printf.eprintf "unknown board %S\n" board;
      1
    | Some make ->
      let broken = ref 0 in
      List.iter
        (fun (a : Apps.Attacks.attack) ->
          let outcome =
            Verify.Violation.with_enabled false (fun () -> Apps.Attacks.run_attack make a)
          in
          (match outcome with
          | Apps.Attacks.Broken_isolation | Apps.Attacks.Kernel_dos _ -> incr broken
          | Apps.Attacks.Contained | Apps.Attacks.Contained_fault | Apps.Attacks.Load_failed _
            -> ());
          Printf.printf "%-20s %s\n" a.attack_name (Apps.Attacks.outcome_to_string outcome))
        Apps.Attacks.all;
      Printf.printf "\n%d attack(s) broke isolation on %s\n" !broken board;
      if !broken = 0 then 0 else 2
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Replay the paper's exploits against a board")
    Term.(const run $ board_arg)

let verify_cmd =
  let run scale =
    let name, props = Proofs.upstream_bug_hunt ~scale:(min scale 0.4) in
    let bug_report = Verify.Checker.check_component name props in
    Format.printf "%a@." Verify.Checker.pp_report bug_report;
    let reports =
      List.map
        (fun (cname, cprops) -> Verify.Checker.check_component cname cprops)
        (Proofs.components ~scale)
    in
    List.iter (fun r -> Format.printf "%a@." Verify.Checker.pp_report r) reports;
    Format.printf "%a@." Verify.Report.pp_timing_table
      (List.map
         (fun (r : Verify.Checker.component_report) ->
           (r.Verify.Checker.component, Verify.Report.timing_stats r))
         reports);
    if List.for_all Verify.Checker.all_verified reports then 0 else 1
  in
  let scale =
    Arg.(value & opt float 0.3 & info [ "s"; "scale" ] ~docv:"SCALE" ~doc:"Domain scale.")
  in
  Cmd.v (Cmd.info "verify" ~doc:"Check the proof components (§4)") Term.(const run $ scale)

let fuzz_cmd =
  let run board seeds exec =
    match (List.assoc_opt board Boards.all_instances, exec) with
    | None, _ ->
      Printf.eprintf "unknown board %S\n" board;
      1
    | Some _, Error m -> Cli_common.usage_error m
    | Some make, Ok exec ->
      let contracts =
        (* contracts on for the verified kernels, off for the baselines *)
        String.length board >= 8 && String.sub board 0 8 = "ticktock"
      in
      let rounds, panics =
        Verify.Violation.with_enabled contracts (fun () ->
            Apps.Fuzz.campaign ~exec ~seeds make)
      in
      List.iter
        (fun (r : Apps.Fuzz.outcome) ->
          Printf.printf "seed %3d: witness=%b isolation=%b faulted=%d exited=%d%s\n"
            r.fuzz_seed r.witness_ok r.isolation_ok r.fuzzers_faulted r.fuzzers_exited
            (match r.kernel_panic with
            | Some msg -> "  KERNEL PANIC: " ^ msg
            | None -> ""))
        rounds;
      Printf.printf "\n%d/%d rounds panicked the kernel\n" (List.length panics)
        (List.length rounds);
      if List.length panics = 0 then Cli_common.exit_clean else Cli_common.exit_findings
  in
  let seeds = Arg.(value & opt int 20 & info [ "n"; "seeds" ] ~docv:"N" ~doc:"Seeds to try.") in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Fuzz a board with hostile syscall/memory streams")
    Term.(const run $ board_arg $ seeds $ Cli_common.exec_term)

let chaos_cmd =
  let run board nseeds faults out exec =
    let boards =
      match board with
      | None -> Ok Chaos.Targets.boards
      | Some name -> (
        match Chaos.Targets.find name with
        | Some b -> Ok [ b ]
        | None ->
          Error
            (Printf.sprintf "unknown chaos target %S (one of: %s)" name
               (String.concat ", "
                  (List.map (fun b -> b.Chaos.Targets.tb_name) Chaos.Targets.boards))))
    in
    match (boards, exec) with
    | Error m, _ | _, Error m -> Cli_common.usage_error m
    | Ok boards, Ok exec ->
      let seeds = List.init nseeds (fun i -> i + 1) in
      let result =
        Verify.Violation.with_enabled true (fun () ->
            Chaos.Campaign.run ~exec ~boards ~seeds ~faults ())
      in
      Printf.eprintf "chaos: %d faults fired, %d masked / %d healed / %d contained\n"
        result.Chaos.Campaign.total_fired result.Chaos.Campaign.total_masked
        result.Chaos.Campaign.total_healed result.Chaos.Campaign.total_contained;
      Cli_common.finish ~label:"chaos" ~ok:result.Chaos.Campaign.ok ~out
        result.Chaos.Campaign.report
  in
  let board =
    let doc =
      "Chaos target board (default: all three MPU architectures). One of: "
      ^ String.concat ", " (List.map (fun b -> b.Chaos.Targets.tb_name) Chaos.Targets.boards)
      ^ "."
    in
    Arg.(value & opt (some string) None & info [ "k"; "kernel" ] ~docv:"BOARD" ~doc)
  in
  let seeds =
    Arg.(value & opt int 5 & info [ "n"; "seeds" ] ~docv:"N" ~doc:"Fault-plan seeds per board.")
  in
  let faults =
    Arg.(value & opt int 40 & info [ "f"; "faults" ] ~docv:"N" ~doc:"Faults per round.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded fault-injection campaign (golden vs injected suite runs; every fault \
          classified masked/healed/contained)")
    Term.(const run $ board $ seeds $ faults $ Cli_common.out_arg $ Cli_common.exec_term)

let snapshot_cmd =
  let run board out info_path check_path =
    try
      match (info_path, check_path, out) with
      | Some path, _, _ ->
        (* inspect the versioned header without needing a board *)
        let header, pages = Snapshot.describe path in
        Printf.printf "%s: version %d  arch %s  board %s\n" path header.Snapshot.hd_version
          header.Snapshot.hd_arch header.Snapshot.hd_board;
        Printf.printf "layout %s  memory %s  %d page(s)\n"
          (Fp.to_hex header.Snapshot.hd_layout_fp)
          (Fp.to_hex header.Snapshot.hd_mem_fp)
          pages;
        0
      | None, Some path, _ -> (
        (* boot the board and load the file — every header check armed *)
        match make_board board with
        | Error (`Msg m) ->
          prerr_endline m;
          1
        | Ok k -> (
          match k.Instance.snap_target with
          | None ->
            Printf.eprintf "board %s has no snapshot target\n" board;
            1
          | Some tgt ->
            Snapshot.load tgt path;
            Printf.printf "%s: ok — restores onto %s (memory %s)\n" path board
              (Fp.to_hex (Memory.fingerprint tgt.Snapshot.tg_mem));
            0))
      | None, None, Some path -> (
        (* capture the pristine post-boot image to a file *)
        match make_board board with
        | Error (`Msg m) ->
          prerr_endline m;
          1
        | Ok k -> (
          match k.Instance.snap_target with
          | None ->
            Printf.eprintf "board %s has no snapshot target\n" board;
            1
          | Some tgt ->
            Snapshot.save tgt path;
            let header, pages = Snapshot.describe path in
            Printf.printf "wrote %s: arch %s  board %s  memory %s  %d page(s)\n" path
              header.Snapshot.hd_arch header.Snapshot.hd_board
              (Fp.to_hex header.Snapshot.hd_mem_fp)
              pages;
            0))
      | None, None, None ->
        prerr_endline "snapshot: one of -o FILE, --info FILE or --check FILE is required";
        1
    with Invalid_argument m | Failure m ->
      prerr_endline m;
      1
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Capture the board's pristine post-boot snapshot to $(docv).")
  in
  let info_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "info" ] ~docv:"FILE" ~doc:"Print the versioned header of $(docv) and exit.")
  in
  let check_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:
            "Boot the board and restore $(docv) onto it, refusing a mismatched architecture, \
             board or memory layout.")
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Capture, inspect or verify on-disk board snapshots (versioned TICKSNAP format)")
    Term.(const run $ board_arg $ out $ info_path $ check_path)

let ps_cmd =
  let run2 board =
    match make_board board with
    | Error (`Msg m) ->
      prerr_endline m;
      1
    | Ok k ->
      Verify.Violation.set_enabled false;
      let results = Apps.Difftest.run_suite ~max_ticks:300 k in
      List.iter
        (fun (r : Apps.Difftest.app_result) ->
          Printf.printf "%-22s %s\n" r.app.Apps.Suite.app_name r.state)
        results;
      0
  in
  Cmd.v
    (Cmd.info "ps" ~doc:"Process states after a short suite run")
    Term.(const run2 $ board_arg)

let metrics_cmd =
  let run board json =
    match make_board board with
    | Error (`Msg m) ->
      prerr_endline m;
      1
    | Ok k ->
      Verify.Violation.set_enabled false;
      ignore (Apps.Difftest.run_suite k);
      let snap = k.Instance.metrics () in
      if json then print_string (Obs.Metrics.to_json snap)
      else print_string (Obs.Metrics.to_text snap);
      0
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the stable JSON dump.") in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Unified metrics snapshot (text or JSON) after a suite run")
    Term.(const run $ board_arg $ json)

let trace_cmd =
  let run board out =
    (* Build the board with a recorder attached (the ambient mode reaches
       through the closure-built constructors), then run the release suite
       under it and export the ring as a Chrome trace. *)
    Obs.Config.set_auto Obs.Config.On;
    match make_board board with
    | Error (`Msg m) ->
      prerr_endline m;
      1
    | Ok k ->
      (match k.Instance.obs () with
      | None ->
        prerr_endline "internal error: no recorder attached";
        1
      | Some r ->
        (* Contracts stay armed so a failure lands in the trace's
           contracts lane; on a buggy board the first violation ends the
           trace early (with the event in place) rather than the run. *)
        Verify.Violation.set_obs
          (Some (Obs.Recorder.sink r ~now:(fun () -> k.Instance.ticks ())));
        (try ignore (Apps.Difftest.run_suite k)
         with Verify.Violation.Violation v ->
           Format.eprintf "contract fired during trace: %a@." Verify.Violation.pp v);
        Verify.Violation.set_obs None;
        let json = Obs.Chrome.to_json ~name:board r in
        (match out with
        | None -> print_string json
        | Some path ->
          let oc = open_out path in
          output_string oc json;
          close_out oc;
          Printf.printf "wrote %s (%d events recorded, %d dropped)\n" path
            (Obs.Recorder.recorded r) (Obs.Recorder.dropped r));
        0)
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the trace to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run the release suite with tracing on; export Chrome trace_event JSON")
    Term.(const run $ board_arg $ out)

let fleet_cmd =
  let run cells boards campaign bundles out =
    Cli_common.run_campaign ~label:"fleet" ~out ~bundles campaign (fun () ->
        let d = Fleet.Campaign.default_spec in
        let spec =
          {
            d with
            Fleet.Campaign.sp_cells = cells;
            sp_boards =
              (match boards with
              | None -> d.Fleet.Campaign.sp_boards
              | Some s -> String.split_on_char ',' s |> List.filter (fun b -> b <> ""));
          }
        in
        let r =
          Verify.Violation.with_enabled true (fun () ->
              Fleet.Campaign.run ?jobs:campaign.Cli_common.jobs ?store:campaign.store
                ~resume:campaign.resume ?stop_after:campaign.stop_after spec)
        in
        let open Fleet.Campaign in
        {
          Cli_common.complete = r.fl_complete;
          ok = r.fl_ok;
          report = r.fl_report;
          summary =
            Printf.sprintf "%d cells (%d ran, %d resumed) on %d pristine images, %d steals"
              (Array.length r.fl_cells) r.fl_ran r.fl_resumed r.fl_booted r.fl_steals;
          executed = r.fl_ran;
          rate_unit = "cells";
          failing =
            Array.to_list r.fl_cells
            |> List.filter_map (function
                 | Some c when c.cl_panic || not (c.cl_witness_ok && c.cl_isolation_ok) ->
                   Some
                     ( Printf.sprintf "fleet-cell-%d" c.cl_index,
                       fun () -> Replay.Record.of_fleet_cell spec c )
                 | _ -> None);
        })
  in
  let cells =
    Arg.(
      value & opt int 600
      & info [ "n"; "cells" ] ~docv:"N" ~doc:"Board-instances to fork across the campaign.")
  in
  let boards =
    Arg.(
      value
      & opt (some string) None
      & info [ "boards" ] ~docv:"B1,B2"
          ~doc:"Comma-separated verified boards to schedule (default: arm, arm-v8, e310).")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Fleet-scale campaign: snapshot-fork thousands of board-instances across a \
          work-stealing domain pool")
    Term.(
      const run $ cells $ boards
      $ Cli_common.campaign_term ~units:"cells"
      $ Cli_common.bundles_arg $ Cli_common.out_arg)

let fabric_cmd =
  let run plans cuts horizon seed campaign bundles out =
    Cli_common.run_campaign ~label:"fabric" ~out ~bundles campaign (fun () ->
        let d = Fabric.Campaign.default_spec in
        let spec =
          {
            d with
            Fabric.Campaign.fb_cuts = cuts;
            fb_horizon = horizon;
            fb_seed = seed;
            fb_plans =
              (match plans with
              | None -> d.Fabric.Campaign.fb_plans
              | Some s -> String.split_on_char ',' s |> List.filter (fun p -> p <> ""));
          }
        in
        let r =
          Verify.Violation.with_enabled true (fun () ->
              Fabric.Campaign.run ?jobs:campaign.Cli_common.jobs ?store:campaign.store
                ~resume:campaign.resume ?stop_after:campaign.stop_after spec)
        in
        let open Fabric.Campaign in
        {
          Cli_common.complete = r.fb_complete;
          ok = r.fb_ok;
          report = r.fb_report;
          summary =
            Printf.sprintf "%d cut points (%d ran, %d resumed), %d steals"
              (Array.length r.fb_cells) r.fb_ran r.fb_resumed r.fb_steals;
          executed = r.fb_ran;
          rate_unit = "cells";
          failing =
            Array.to_list r.fb_cells
            |> List.filter_map (function
                 | Some c when not c.fc_ok ->
                   Some
                     ( Printf.sprintf "fabric-cell-%d" c.fc_index,
                       fun () -> Replay.Record.of_fabric_cell spec c )
                 | _ -> None);
        })
  in
  let plans =
    Arg.(
      value
      & opt (some string) None
      & info [ "plans" ] ~docv:"P1,P2"
          ~doc:"Comma-separated fault plans to sweep (default: clean, lossy, storm, chaos).")
  in
  let cuts =
    Arg.(
      value & opt int 36
      & info [ "n"; "cuts" ] ~docv:"N" ~doc:"Power-cut ticks swept per plan (1..N).")
  in
  let horizon =
    Arg.(
      value & opt int 64
      & info [ "horizon" ] ~docv:"T" ~doc:"Global ticks per cell (must exceed the last cut).")
  in
  let seed =
    Arg.(
      value
      & opt int Fabric.Campaign.default_spec.Fabric.Campaign.fb_seed
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Sweep seed: derives the deployment and every cell's link-fault and entropy seeds \
             (part of the store's spec key).")
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:
         "Multi-board fabric campaign: OTA updates and gateway traffic under link faults, \
          with a power cut at every tick, classified for cross-board containment")
    Term.(
      const run $ plans $ cuts $ horizon $ seed
      $ Cli_common.campaign_term ~units:"cells"
      $ Cli_common.bundles_arg $ Cli_common.out_arg)

let fuzzcov_cmd =
  let run board seed pop gens campaign bundles out =
    Cli_common.run_campaign ~label:"fuzzcov" ~out ~bundles campaign (fun () ->
        let spec =
          {
            Fuzzcov.Engine.default_spec with
            Fuzzcov.Engine.fc_board = board;
            fc_seed = seed;
            fc_pop = pop;
            fc_gens = gens;
          }
        in
        let r =
          Fuzzcov.Engine.run ?jobs:campaign.Cli_common.jobs ?store:campaign.store
            ~resume:campaign.resume ?stop_after:campaign.stop_after spec
        in
        let open Fuzzcov.Engine in
        {
          Cli_common.complete = r.fz_complete;
          ok = r.fz_ok;
          report = r.fz_report;
          summary =
            Printf.sprintf "%d execs (%d gens ran, %d resumed), %d corpus, %d buckets" r.fz_execs
              r.fz_ran_gens r.fz_resumed_gens (List.length r.fz_corpus) r.fz_bits;
          executed = r.fz_ran_gens * spec.fc_pop;
          rate_unit = "execs";
          failing =
            List.mapi
              (fun i c ->
                (Printf.sprintf "fuzzcov-crasher-%d" i, fun () -> Replay.Record.of_fuzzcov spec c))
              r.fz_crashers;
        })
  in
  let board =
    Arg.(
      value
      & opt string Fuzzcov.Engine.default_spec.Fuzzcov.Engine.fc_board
      & info [ "k"; "board" ] ~docv:"BOARD"
          ~doc:
            "Board to fuzz (ticktock-arm-mc populates the coverage map; the tock-arm-* \
             baselines have real crashes to find).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign master seed.")
  in
  let pop =
    Arg.(
      value & opt int Fuzzcov.Engine.default_spec.Fuzzcov.Engine.fc_pop
      & info [ "p"; "pop" ] ~docv:"N" ~doc:"Candidates per generation.")
  in
  let gens =
    Arg.(
      value & opt int Fuzzcov.Engine.default_spec.Fuzzcov.Engine.fc_gens
      & info [ "g"; "gens" ] ~docv:"N" ~doc:"Generations to evolve.")
  in
  Cmd.v
    (Cmd.info "fuzzcov"
       ~doc:
         "Coverage-guided fuzzing: evolve syscall/interrupt schedules against the icache \
          coverage map, triage crashers, emit replayable bundles")
    Term.(
      const run $ board $ seed $ pop $ gens
      $ Cli_common.campaign_term ~units:"generations"
      $ Cli_common.bundles_arg $ Cli_common.out_arg)

(* --- ticktock replay: record and navigate TICKRPL bundles --- *)

let replay_group =
  let bundle_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUNDLE" ~doc:"TICKRPL bundle file.")
  in
  let tick_arg =
    Arg.(value & opt int 0 & info [ "t"; "tick" ] ~docv:"T" ~doc:"Target tick.")
  in
  let interval_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "interval" ] ~docv:"K"
          ~doc:
            "Interval-snapshot spacing for navigation (default: the bundle's recording \
             interval). Backward steps cost at most K ticks of re-execution.")
  in
  (* Load the bundle and run [f] with contracts armed the way the bundle's
     subject expects; every refusal (bad magic/version/layout, fingerprint
     divergence) is a clean exit 1 with the reason on stderr. *)
  let with_bundle path f =
    try
      let b = Replay.Bundle.load path in
      Replay.Record.with_contracts b (fun () -> f b)
    with Replay.Bundle.Refused m | Invalid_argument m | Failure m -> Cli_common.usage_error m
  in
  let nav_to b interval tick =
    let nav = Replay.Record.navigator ?interval b in
    Replay.Navigator.goto nav tick;
    nav
  in
  let print_state nav =
    Printf.printf "tick %d  fp %s\n" (Replay.Navigator.tick nav)
      (Fp.to_hex (Replay.Navigator.fingerprint nav));
    match Replay.Navigator.crash nav with
    | Some c -> Printf.printf "crash at tick %d: %s\n" c.Replayable.cr_tick c.Replayable.cr_reason
    | None -> ()
  in
  let print_regs nav =
    match Replay.Navigator.regs nav with
    | [] -> print_endline "(no architectural registers on this session)"
    | regs -> List.iter (fun (n, v) -> Printf.printf "%-4s %s\n" n v) regs
  in
  let info_cmd =
    let run path =
      try
        let b = Replay.Bundle.load path in
        Format.printf "%a@." Replay.Bundle.pp b;
        let sched = Replay.Bundle.schedule b in
        if sched <> [] then Format.printf "schedule:@.%s" (Replay.Schedule.encode sched);
        0
      with Replay.Bundle.Refused m -> Cli_common.usage_error m
    in
    Cmd.v
      (Cmd.info "info" ~doc:"Print a bundle's header and input schedule")
      Term.(const run $ bundle_pos)
  in
  let run_cmd =
    let run path =
      with_bundle path (fun b ->
          if Replay.Record.reproduces b then begin
            Printf.printf "reproduced: %d ticks to fp %s%s\n" b.Replay.Bundle.bu_header.Replay.Bundle.hd_horizon
              (Fp.to_hex b.Replay.Bundle.bu_header.Replay.Bundle.hd_final_fp)
              (match b.Replay.Bundle.bu_header.Replay.Bundle.hd_crash with
              | Some (tick, reason) -> Printf.sprintf " (crash at %d: %s)" tick reason
              | None -> "");
            Cli_common.exit_clean
          end
          else begin
            Printf.printf "DIVERGED: replay does not reproduce the recording\n";
            Cli_common.exit_findings
          end)
    in
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Re-execute a bundle to its recorded horizon and verify the final fingerprint \
            (and crash) reproduce byte-identically")
      Term.(const run $ bundle_pos)
  in
  let goto_cmd =
    let run path tick interval =
      with_bundle path (fun b ->
          let nav = nav_to b interval tick in
          print_state nav;
          print_regs nav;
          0)
    in
    Cmd.v
      (Cmd.info "goto" ~doc:"Run to tick T and show the machine state")
      Term.(const run $ bundle_pos $ tick_arg $ interval_arg)
  in
  let back_cmd =
    let run path tick n interval =
      with_bundle path (fun b ->
          let nav = nav_to b interval tick in
          Replay.Navigator.back nav n;
          print_state nav;
          print_regs nav;
          0)
    in
    let n =
      Arg.(value & opt int 1 & info [ "s"; "steps" ] ~docv:"N" ~doc:"Ticks to step backward.")
    in
    Cmd.v
      (Cmd.info "back"
         ~doc:
           "Run to tick T, then step backward N ticks (restore the nearest interval or \
            trail checkpoint at or below T-N and re-execute from it; the run to T leaves \
            checkpoints at T-1, T-2, T-4, …, so N = 1 re-executes nothing — output must \
            be byte-identical to goto T-N)")
      Term.(const run $ bundle_pos $ tick_arg $ n $ interval_arg)
  in
  let regs_cmd =
    let run path tick interval =
      with_bundle path (fun b ->
          print_regs (nav_to b interval tick);
          0)
    in
    Cmd.v
      (Cmd.info "regs" ~doc:"Architectural registers at tick T")
      Term.(const run $ bundle_pos $ tick_arg $ interval_arg)
  in
  let mem_cmd =
    let run path tick addr len interval =
      with_bundle path (fun b ->
          let nav = nav_to b interval tick in
          let bytes = Replay.Navigator.mem_read nav ~addr ~len in
          String.iteri
            (fun i c ->
              if i mod 16 = 0 then Printf.printf "%s%08x: " (if i > 0 then "\n" else "") (addr + i);
              Printf.printf "%02x " (Char.code c))
            bytes;
          if String.length bytes > 0 then print_newline ();
          0)
    in
    let addr =
      Arg.(
        required
        & opt (some int) None
        & info [ "addr" ] ~docv:"ADDR" ~doc:"Start address (accepts 0x... notation).")
    in
    let len = Arg.(value & opt int 64 & info [ "len" ] ~docv:"N" ~doc:"Bytes to dump.") in
    Cmd.v
      (Cmd.info "mem" ~doc:"Hex-dump memory at tick T")
      Term.(const run $ bundle_pos $ tick_arg $ addr $ len $ interval_arg)
  in
  let mpu_cmd =
    let run path tick interval =
      with_bundle path (fun b ->
          let nav = nav_to b interval tick in
          print_string (Replay.Navigator.mpu nav);
          (match Replay.Navigator.violations nav with
          | [] -> ()
          | vs ->
            print_endline "violation sites:";
            List.iter
              (fun (at, e) -> Format.printf "  tick %d: %a@." at Obs.Event.pp e)
              vs);
          0)
    in
    Cmd.v
      (Cmd.info "mpu" ~doc:"MPU/PMP configuration and violation sites at tick T")
      Term.(const run $ bundle_pos $ tick_arg $ interval_arg)
  in
  let trace_cmd =
    let run path from_ to_ out =
      try
        let b = Replay.Bundle.load path in
        let hi =
          match to_ with Some t -> t | None -> b.Replay.Bundle.bu_header.Replay.Bundle.hd_horizon
        in
        let r =
          Obs.Recorder.create
            ~capacity:(max 16 (List.length b.Replay.Bundle.bu_events))
            ()
        in
        List.iter
          (fun (at, e) -> Obs.Recorder.record r ~tick:at e)
          b.Replay.Bundle.bu_events;
        let json =
          Obs.Chrome.to_json ~name:(Replay.Bundle.subject b) ~window:(from_, hi) r
        in
        (match out with
        | None -> print_string json
        | Some p ->
          let oc = open_out p in
          output_string oc json;
          close_out oc;
          Printf.eprintf "replay: wrote %s\n" p);
        0
      with Replay.Bundle.Refused m -> Cli_common.usage_error m
    in
    let from_ =
      Arg.(value & opt int 0 & info [ "from" ] ~docv:"T" ~doc:"Window start tick (inclusive).")
    in
    let to_ =
      Arg.(
        value
        & opt (some int) None
        & info [ "to" ] ~docv:"T" ~doc:"Window end tick (inclusive; default: the horizon).")
    in
    Cmd.v
      (Cmd.info "trace"
         ~doc:
           "Export the recorded event log (or any tick window of it) as Chrome trace_event \
            JSON, without re-execution")
      Term.(const run $ bundle_pos $ from_ $ to_ $ Cli_common.out_arg)
  in
  let record_cmd =
    let run board seed fuzzers steps ticks interval note out =
      try
        let b =
          Verify.Violation.with_enabled (Replay.Record.contracts_for board) (fun () ->
              let sched = Replay.Schedule.fleet_cell ~seed ~fuzzers ~steps in
              let lv = Replay.Record.board_live ~board ~horizon:ticks sched in
              Replay.Record.record ~interval ~note lv)
        in
        Replay.Bundle.save b out;
        Printf.eprintf "replay: wrote %s\n" out;
        Format.printf "%a@." Replay.Bundle.pp b;
        0
      with
      | Replay.Bundle.Refused m | Invalid_argument m | Failure m -> Cli_common.usage_error m
    in
    let board =
      Arg.(
        value & opt string "ticktock-arm"
        & info [ "k"; "board" ] ~docv:"BOARD" ~doc:"Board to record.")
    in
    let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Cell seed.") in
    let fuzzers =
      Arg.(value & opt int 3 & info [ "fuzzers" ] ~docv:"N" ~doc:"Hostile apps to load.")
    in
    let steps =
      Arg.(value & opt int 60 & info [ "steps" ] ~docv:"N" ~doc:"Syscalls per hostile stream.")
    in
    let ticks =
      Arg.(value & opt int 1500 & info [ "ticks" ] ~docv:"T" ~doc:"Scheduler ticks to record.")
    in
    let interval =
      Arg.(
        value & opt int 32
        & info [ "interval" ] ~docv:"K" ~doc:"Fingerprint-mark spacing in the bundle.")
    in
    let note = Arg.(value & opt string "" & info [ "note" ] ~docv:"S" ~doc:"Free-form note.") in
    let out =
      Arg.(
        required
        & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Bundle file to write.")
    in
    Cmd.v
      (Cmd.info "record"
         ~doc:
           "Record a fuzz cell (witness + hostile streams) on a board as a replayable \
            TICKRPL bundle")
      Term.(const run $ board $ seed $ fuzzers $ steps $ ticks $ interval $ note $ out)
  in
  Cmd.group
    (Cmd.info "replay"
       ~doc:
         "Time-travel debugging: record executions as TICKRPL bundles, re-run them \
          byte-identically, step backward, inspect registers/memory/MPU state, export \
          traces")
    [
      record_cmd; info_cmd; run_cmd; goto_cmd; back_cmd; regs_cmd; mem_cmd; mpu_cmd; trace_cmd;
    ]

let () =
  let doc = "TickTock: verified isolation in a modeled embedded OS" in
  let info = Cmd.info "ticktock" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            boards_cmd;
            run_cmd;
            difftest_cmd;
            attack_cmd;
            verify_cmd;
            metrics_cmd;
            trace_cmd;
            fuzz_cmd;
            fleet_cmd;
            fabric_cmd;
            fuzzcov_cmd;
            snapshot_cmd;
            chaos_cmd;
            replay_group;
            ps_cmd;
          ]))
