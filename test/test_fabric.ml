(* The multi-board fabric: link faults, radio capsule, OTA updates,
   power-loss sweeps, and the cross-board campaign. *)

let reseed_of id = 0x1000 + id

(* --- link-level tests --- *)

let test_link_clean_delivery () =
  let link = Fabric.Link.create ~nodes:2 ~seed:5 () in
  (match Fabric.Link.send link ~src:0 ~dst:1 ~port:0 "hello" with
  | `Ok -> ()
  | `Busy | `Peer_dead -> Alcotest.fail "send refused on an idle link");
  Fabric.Link.deliver link ~now:0;
  (match Fabric.Link.pop link ~dst:1 ~port:0 with
  | Some f -> Alcotest.(check string) "payload" "hello" f.Fabric.Link.fr_payload
  | None -> Alcotest.fail "frame not delivered");
  let st = Fabric.Link.stats link in
  Alcotest.(check int) "sent" 1 st.Fabric.Link.st_sent;
  Alcotest.(check int) "delivered" 1 st.Fabric.Link.st_delivered;
  Alcotest.(check int) "silent" 0 st.Fabric.Link.st_silent

let test_link_corruption_detected () =
  let faults = { Fabric.Link.no_faults with fa_corrupt = 1000 } in
  let link = Fabric.Link.create ~nodes:2 ~faults ~seed:11 () in
  for i = 0 to 9 do
    ignore (Fabric.Link.send link ~src:0 ~dst:1 ~port:0 (Printf.sprintf "m%d" i));
    Fabric.Link.deliver link ~now:i
  done;
  let st = Fabric.Link.stats link in
  Alcotest.(check int) "all corrupted" 10 st.Fabric.Link.st_corrupted;
  Alcotest.(check int) "none delivered" 0 st.Fabric.Link.st_delivered;
  (* the whole point: corruption is *detected* — never silent *)
  Alcotest.(check int) "no silent corruption" 0 st.Fabric.Link.st_silent;
  Alcotest.(check int) "inbox empty" 0 (Fabric.Link.pending link ~dst:1 ~port:0)

let test_link_fault_determinism () =
  let run () =
    let faults =
      { Fabric.Link.fa_drop = 200; fa_corrupt = 150; fa_duplicate = 100; fa_reorder = 120;
        fa_partition = Some (0, 1, 3, 6) }
    in
    let link = Fabric.Link.create ~nodes:2 ~faults ~seed:77 () in
    for i = 0 to 29 do
      ignore (Fabric.Link.send link ~src:0 ~dst:1 ~port:0 (Printf.sprintf "m%02d" i));
      Fabric.Link.deliver link ~now:i
    done;
    let rec drain acc =
      match Fabric.Link.pop link ~dst:1 ~port:0 with
      | Some f -> drain (f.Fabric.Link.fr_payload :: acc)
      | None -> List.rev acc
    in
    (drain [], Fabric.Link.fingerprint link)
  in
  let p1, f1 = run () and p2, f2 = run () in
  Alcotest.(check (list string)) "same deliveries" p1 p2;
  Alcotest.(check int64) "same fingerprint" f1 f2;
  let faults = { Fabric.Link.no_faults with fa_drop = 200 } in
  let link = Fabric.Link.create ~nodes:2 ~faults ~seed:78 () in
  for i = 0 to 29 do
    ignore (Fabric.Link.send link ~src:0 ~dst:1 ~port:0 (Printf.sprintf "m%02d" i));
    Fabric.Link.deliver link ~now:i
  done;
  Alcotest.(check bool) "different seed diverges" true
    (Fabric.Link.fingerprint link <> f1)

let test_link_backpressure_and_death () =
  let link = Fabric.Link.create ~nodes:2 ~capacity:3 ~seed:9 () in
  let oks = ref 0 and busys = ref 0 in
  for _ = 1 to 5 do
    match Fabric.Link.send link ~src:0 ~dst:1 ~port:0 "x" with
    | `Ok -> incr oks
    | `Busy -> incr busys
    | `Peer_dead -> Alcotest.fail "peer death on a live link"
  done;
  Alcotest.(check int) "capacity accepted" 3 !oks;
  Alcotest.(check int) "rest backpressured" 2 !busys;
  Fabric.Link.set_dead link 1 true;
  (match Fabric.Link.send link ~src:0 ~dst:1 ~port:0 "x" with
  | `Peer_dead -> ()
  | `Ok | `Busy -> Alcotest.fail "send to a dead node must report peer death");
  Fabric.Link.deliver link ~now:0;
  Alcotest.(check int) "in-flight frames died with the node" 0
    (Fabric.Link.pending link ~dst:1 ~port:0);
  Fabric.Link.set_dead link 1 false;
  (match Fabric.Link.send link ~src:0 ~dst:1 ~port:0 "back" with
  | `Ok -> ()
  | `Busy | `Peer_dead -> Alcotest.fail "revived node refuses frames")

let test_link_partition_heals () =
  let faults = { Fabric.Link.no_faults with fa_partition = Some (0, 1, 0, 5) } in
  let link = Fabric.Link.create ~nodes:2 ~faults ~seed:3 () in
  ignore (Fabric.Link.send link ~src:0 ~dst:1 ~port:0 "during");
  Fabric.Link.deliver link ~now:1;
  Alcotest.(check int) "held during partition" 0 (Fabric.Link.pending link ~dst:1 ~port:0);
  Fabric.Link.deliver link ~now:5;
  Alcotest.(check int) "released at heal" 1 (Fabric.Link.pending link ~dst:1 ~port:0);
  Alcotest.(check int) "heal counted" 1 (Fabric.Link.stats link).Fabric.Link.st_healed

let test_link_snapshot_roundtrip () =
  let faults = { Fabric.Link.no_faults with fa_drop = 100; fa_duplicate = 80 } in
  let link = Fabric.Link.create ~nodes:3 ~faults ~seed:21 () in
  for i = 0 to 9 do
    ignore (Fabric.Link.send link ~src:0 ~dst:1 ~port:0 (Printf.sprintf "a%d" i));
    ignore (Fabric.Link.send link ~src:1 ~dst:2 ~port:1 (Printf.sprintf "b%d" i));
    if i mod 2 = 0 then Fabric.Link.deliver link ~now:i
  done;
  let snap = Fabric.Link.capture link in
  let fp = Fabric.Link.fingerprint link in
  (* wreck the state, then restore *)
  for i = 10 to 19 do
    ignore (Fabric.Link.send link ~src:2 ~dst:0 ~port:0 (Printf.sprintf "c%d" i));
    Fabric.Link.deliver link ~now:i
  done;
  Alcotest.(check bool) "state moved on" true (Fabric.Link.fingerprint link <> fp);
  Fabric.Link.restore link snap;
  Alcotest.(check int64) "restored fingerprint" fp (Fabric.Link.fingerprint link);
  (* divergence-free continuation: run the same suffix twice from the snapshot *)
  let continue () =
    Fabric.Link.restore link snap;
    for i = 10 to 19 do
      ignore (Fabric.Link.send link ~src:0 ~dst:2 ~port:0 (Printf.sprintf "d%d" i));
      Fabric.Link.deliver link ~now:i
    done;
    Fabric.Link.fingerprint link
  in
  Alcotest.(check int64) "forked continuations agree" (continue ()) (continue ())

(* --- deployment end-to-end (clean link) --- *)

let test_deploy_clean_ota_and_traffic () =
  let topo, stats = Fabric.Deploy.create ~seed:7 () in
  Fabric.Topology.run topo ~ticks:90 ~reseed_of;
  let oc = Fabric.Deploy.check topo in
  (match oc.Fabric.Deploy.oc_panic with
  | None -> ()
  | Some m -> Alcotest.failf "kernel panic: %s" m);
  Alcotest.(check bool) "isolation held on every board" true oc.Fabric.Deploy.oc_isolation_ok;
  Alcotest.(check int) "no silent corruption" 0 oc.Fabric.Deploy.oc_silent;
  (* every reading arrived at both followers, in order *)
  List.iter
    (fun (id, got) ->
      Alcotest.(check (list string))
        (Printf.sprintf "node %d readings" id)
        Fabric.Deploy.readings got)
    oc.Fabric.Deploy.oc_got;
  Alcotest.(check bool) "no spurious readings" false oc.Fabric.Deploy.oc_spurious;
  (* the OTA committed and activated: v2 owns the home slot and ran *)
  Alcotest.(check int) "one OTA attempt" 1 stats.Fabric.Ota.ot_attempts;
  Alcotest.(check int) "one OTA commit" 1 stats.Fabric.Ota.ot_commits;
  Alcotest.(check int) "no rollbacks" 0 stats.Fabric.Ota.ot_rollbacks;
  Alcotest.(check string) "v2 in the home slot" Fabric.Deploy.v2_name
    oc.Fabric.Deploy.oc_home_app;
  Alcotest.(check bool) "home image byte-exact" true oc.Fabric.Deploy.oc_home_intact;
  Alcotest.(check bool) "staging erased" true oc.Fabric.Deploy.oc_staging_empty;
  Alcotest.(check int) "one planned reboot" 1 oc.Fabric.Deploy.oc_reboots;
  let target_console = oc.Fabric.Deploy.oc_consoles.(Fabric.Deploy.target) in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  Alcotest.(check bool) "v1 ran before the update" true (contains target_console "app-v1 alive");
  Alcotest.(check bool) "v2 ran after activation" true (contains target_console "app-v2 alive")

(* --- hostile OTA traffic (satellite of the loader hardening) --- *)

let test_ota_rejects_hostile_streams () =
  (* forge port-1 frames at the receiver before the real updater gets a
     word in: an oversized announce (typed refusal), then a tiny bogus
     image streamed end-to-end (bad header -> credential rollback). The
     real OTA must still complete afterwards. *)
  let topo, stats = Fabric.Deploy.create ~seed:7 () in
  let link = topo.Fabric.Topology.link in
  let send p =
    match
      Fabric.Link.send link ~src:Fabric.Deploy.follower ~dst:Fabric.Deploy.target ~port:1 p
    with
    | `Ok -> ()
    | `Busy | `Peer_dead -> Alcotest.fail "forged send refused"
  in
  send (Fabric.Ota.announce ~total:(Fabric.Ota.slot_size + 1) ~name:"evil");
  send (Fabric.Ota.announce ~total:32 ~name:"evil");
  send (Fabric.Ota.data ~off:0 (String.make 32 'Z'));
  Fabric.Topology.run topo ~ticks:110 ~reseed_of;
  Alcotest.(check int) "both hostile streams rejected" 2 stats.Fabric.Ota.ot_rejected;
  Alcotest.(check int) "bogus image rolled back" 1 stats.Fabric.Ota.ot_rollbacks;
  Alcotest.(check string) "credential refusal is the last word" "invalid credentials"
    stats.Fabric.Ota.ot_last_reject;
  (* the oversized announce got the typed refusal on its way through *)
  Alcotest.(check int) "real OTA still committed" 1 stats.Fabric.Ota.ot_commits;
  let oc = Fabric.Deploy.check topo in
  Alcotest.(check string) "v2 still lands" Fabric.Deploy.v2_name oc.Fabric.Deploy.oc_home_app;
  Alcotest.(check bool) "home intact" true oc.Fabric.Deploy.oc_home_intact

(* --- power-loss sweep cells --- *)

let test_powerloss_cell_determinism () =
  let env =
    Fabric.Powerloss.make_env ~plan:(Fabric.Powerloss.plan_named "lossy") ~seed:42 ()
  in
  let run () = Fabric.Powerloss.run_cell env ~sweep_seed:42 ~cut:5 ~outage:2 ~horizon:64 in
  let a = run () and b = run () in
  Alcotest.(check int64) "same cell twice, same fingerprint" a.Fabric.Powerloss.pc_fp
    b.Fabric.Powerloss.pc_fp;
  Alcotest.(check string) "same class" a.Fabric.Powerloss.pc_class b.Fabric.Powerloss.pc_class;
  Alcotest.(check bool) "cell passes containment" true a.Fabric.Powerloss.pc_ok;
  let c = Fabric.Powerloss.run_cell env ~sweep_seed:42 ~cut:6 ~outage:2 ~horizon:64 in
  Alcotest.(check bool) "a different cut diverges" true
    (c.Fabric.Powerloss.pc_fp <> a.Fabric.Powerloss.pc_fp)

let test_powerloss_target_cuts_roll_back_and_recover () =
  (* cutting the target board early (cuts 1,4,7,10 land on board 1) must
     tear at least one transfer — fsck rolls it back and the go-back-N
     retry re-streams it; every cell still passes containment *)
  let env =
    Fabric.Powerloss.make_env ~plan:(Fabric.Powerloss.plan_named "clean") ~seed:42 ()
  in
  let rolled = ref 0 in
  List.iter
    (fun cut ->
      let c = Fabric.Powerloss.run_cell env ~sweep_seed:42 ~cut ~outage:2 ~horizon:64 in
      Alcotest.(check int) "board 1 was cut" 1 c.Fabric.Powerloss.pc_board;
      if not c.Fabric.Powerloss.pc_ok then
        Alcotest.failf "cut %d violated containment: %s" cut c.Fabric.Powerloss.pc_why;
      Alcotest.(check int) "never silent" 0 c.Fabric.Powerloss.pc_silent;
      if c.Fabric.Powerloss.pc_rollbacks > 0 then incr rolled)
    [ 1; 4; 7; 10 ];
  Alcotest.(check bool) "at least one cut tore the transfer" true (!rolled > 0)

(* --- the reboot path keeps the flash and nothing else ---

   The fsck hook runs right after the restore and before boot loading, so
   it sees exactly what the restore left: the app flash of the moment of
   the cut, and the pristine image everywhere else. *)

let read_range mem r = Memory.read_bytes mem (Range.start r) (Range.size r)
let sram = Range.make ~start:Layout.sram_base ~size:Layout.sram_size

let test_reboot_keeps_flash () =
  let at_fsck = ref None in
  let probe (s : Fabric.Topology.node_spec) =
    {
      s with
      Fabric.Topology.ns_fsck =
        (fun mem ->
          at_fsck :=
            Some
              ( read_range mem Layout.kernel_flash,
                read_range mem Layout.app_flash,
                read_range mem sram );
          s.Fabric.Topology.ns_fsck mem);
    }
  in
  let stats = Fabric.Ota.stats () in
  let topo =
    Fabric.Topology.create (List.map probe (Fabric.Deploy.specs ~stats ())) ~seed:7 ()
  in
  Fabric.Topology.run topo ~ticks:20 ~reseed_of;
  let id = Fabric.Deploy.target in
  let n = topo.Fabric.Topology.nodes.(id) in
  let flash = read_range n.Fabric.Topology.nd_target.Ticktock.Snapshot.tg_mem Layout.app_flash in
  Fabric.Topology.cut topo id ~outage:2;
  Fabric.Topology.run topo ~ticks:2 ~reseed_of;
  Alcotest.(check int) "the cut board rebooted" 1 n.Fabric.Topology.nd_reboots;
  let pristine = Memory.create () in
  Memory.restore pristine n.Fabric.Topology.nd_pristine.Ticktock.Snapshot.sn_mem;
  match !at_fsck with
  | None -> Alcotest.fail "the reboot ran no fsck"
  | Some (kernel_flash, app_flash, ram) ->
    Alcotest.(check bool) "the board had written app flash" false
      (String.equal flash (read_range pristine Layout.app_flash));
    Alcotest.(check bool) "app flash = its bytes at the cut" true (String.equal app_flash flash);
    Alcotest.(check bool) "kernel flash = the pristine image" true
      (String.equal kernel_flash (read_range pristine Layout.kernel_flash));
    Alcotest.(check bool) "SRAM = the pristine image" true
      (String.equal ram (read_range pristine sram))

(* --- the campaign (determinism, store, metrics) --- *)

let small_spec =
  { Fabric.Campaign.default_spec with fb_plans = [ "clean"; "lossy" ]; fb_cuts = 6 }

let test_campaign_jobs_invariance () =
  let r1 = Fabric.Campaign.run ~jobs:1 small_spec in
  let r2 = Fabric.Campaign.run ~jobs:2 small_spec in
  Alcotest.(check bool) "jobs=1 complete and ok" true (r1.Fabric.Campaign.fb_complete && r1.fb_ok);
  Alcotest.(check bool) "jobs=2 complete and ok" true (r2.Fabric.Campaign.fb_complete && r2.fb_ok);
  Alcotest.(check string) "byte-identical reports" r1.Fabric.Campaign.fb_report
    r2.Fabric.Campaign.fb_report

let test_campaign_kill_resume () =
  let path = Filename.temp_file "fabric_test" ".store" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let whole = Fabric.Campaign.run ~jobs:1 small_spec in
      let killed = Fabric.Campaign.run ~jobs:2 ~store:path ~stop_after:5 small_spec in
      Alcotest.(check bool) "killed run is incomplete" false killed.Fabric.Campaign.fb_complete;
      Alcotest.(check string) "incomplete run renders no report" ""
        killed.Fabric.Campaign.fb_report;
      let resumed = Fabric.Campaign.run ~jobs:2 ~store:path ~resume:true small_spec in
      Alcotest.(check bool) "resume completes" true resumed.Fabric.Campaign.fb_complete;
      Alcotest.(check bool) "resume skipped stored cells" true
        (resumed.Fabric.Campaign.fb_resumed >= 5);
      Alcotest.(check string) "kill+resume report identical to one-shot"
        whole.Fabric.Campaign.fb_report resumed.Fabric.Campaign.fb_report)

let test_campaign_cell_roundtrip () =
  let c =
    {
      Fabric.Campaign.fc_index = 7;
      fc_plan = "storm";
      fc_cut = 12;
      fc_board = 0;
      fc_class = "rolled-back";
      fc_fsck = "rolled-back";
      fc_ok = false;
      fc_why = "staging not reclaimed";
      fc_silent = 0;
      fc_commits = 1;
      fc_rollbacks = 2;
      fc_readings = 17;
      fc_fp = 0x1234_5678_9ABCL;
    }
  in
  match Fabric.Campaign.decode_cell (Fabric.Campaign.encode_cell c) with
  | Some c' -> Alcotest.(check bool) "cell store roundtrip" true (c = c')
  | None -> Alcotest.fail "cell failed to decode"

let test_fabric_metrics_are_host_rows () =
  (* fabric counters surface as [host]-flagged metric rows — visible in
     the unified snapshot, excluded from every determinism comparison *)
  let before = Obs.Metrics.host_read "fabric/frames_sent" in
  let topo, _ = Fabric.Deploy.create ~seed:7 () in
  Fabric.Topology.run topo ~ticks:30 ~reseed_of;
  Alcotest.(check bool) "frame counter advanced" true
    (Obs.Metrics.host_read "fabric/frames_sent" > before);
  let entries = Obs.Metrics.host_entries () in
  let fabric_rows =
    List.filter
      (fun (e : Obs.Metrics.entry) ->
        String.length e.Obs.Metrics.name >= 7 && String.sub e.Obs.Metrics.name 0 7 = "fabric/")
      entries
  in
  Alcotest.(check bool) "fabric rows present" true (List.length fabric_rows >= 3);
  List.iter
    (fun (e : Obs.Metrics.entry) ->
      Alcotest.(check bool) (e.Obs.Metrics.name ^ " is host-flagged") true e.Obs.Metrics.host)
    fabric_rows;
  Alcotest.(check int) "model_only hides them" 0
    (List.length (Obs.Metrics.model_only fabric_rows))

let suite =
  [
    Alcotest.test_case "link: clean delivery" `Quick test_link_clean_delivery;
    Alcotest.test_case "link: corruption detected, never silent" `Quick
      test_link_corruption_detected;
    Alcotest.test_case "link: faults are seed-deterministic" `Quick test_link_fault_determinism;
    Alcotest.test_case "link: backpressure and peer death" `Quick
      test_link_backpressure_and_death;
    Alcotest.test_case "link: partition heals in order" `Quick test_link_partition_heals;
    Alcotest.test_case "link: snapshot roundtrip + forked continuation" `Quick
      test_link_snapshot_roundtrip;
    Alcotest.test_case "deploy: clean OTA + gateway traffic end-to-end" `Quick
      test_deploy_clean_ota_and_traffic;
    Alcotest.test_case "ota: hostile streams rejected, typed" `Quick
      test_ota_rejects_hostile_streams;
    Alcotest.test_case "powerloss: cells are deterministic" `Quick
      test_powerloss_cell_determinism;
    Alcotest.test_case "powerloss: target cuts roll back and recover" `Quick
      test_powerloss_target_cuts_roll_back_and_recover;
    Alcotest.test_case "powerloss: reboot keeps flash, restores the rest" `Quick
      test_reboot_keeps_flash;
    Alcotest.test_case "campaign: report invariant under jobs" `Quick
      test_campaign_jobs_invariance;
    Alcotest.test_case "campaign: kill + resume is byte-identical" `Quick
      test_campaign_kill_resume;
    Alcotest.test_case "campaign: store cell roundtrip" `Quick test_campaign_cell_roundtrip;
    Alcotest.test_case "metrics: fabric counters are host rows" `Quick
      test_fabric_metrics_are_host_rows;
  ]
