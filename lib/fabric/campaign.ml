(** The fabric campaign: every plan × every cut point, on the shared pool.

    The cell lattice is {!Powerloss.plans} × cut ticks [1..cuts]: each
    cell forks the per-worker deployment back to its fork point and runs
    one classified power-loss experiment ({!Powerloss.run_cell}). Cells
    are pure functions of their index, so the report is byte-identical
    across [TICKTOCK_JOBS] settings and kill/resume splits — the same
    contract as the fleet, chaos, and fuzzcov campaigns; the cells run
    through the fleet's resumable-campaign driver ({!Fleet.Driver}).

    The report leads with the {e golden} run (clean link, no cut): the
    classifier's baseline, and a self-check that the deployment itself
    delivers everything and commits the OTA when nothing goes wrong. The
    verdict line the CI gates on is the silent-corruption count summed
    over every injected cell: the link's shadow-payload oracle must have
    caught zero CRC-passing corrupted frames anywhere in the lattice. *)

type spec = {
  fb_plans : string list;  (** {!Powerloss.plans} names, in report order *)
  fb_cuts : int;  (** cut ticks swept per plan: 1..fb_cuts *)
  fb_horizon : int;  (** global ticks per cell (plus outage drain) *)
  fb_outage : int;  (** power outage length per cut *)
  fb_seed : int;
}

let default_spec =
  { fb_plans = [ "clean"; "lossy"; "storm"; "chaos" ]; fb_cuts = 36; fb_horizon = 64;
    fb_outage = 2; fb_seed = 42 }

let no_spaces what s =
  if String.contains s ' ' || String.contains s '\n' then
    invalid_arg (Printf.sprintf "Fabric: %s %S must not contain whitespace" what s)

(** The canonical spec key — written to the store and refused on mismatch
    at resume, because records from a different lattice must not merge. *)
let spec_key s =
  List.iter (no_spaces "plan name") s.fb_plans;
  List.iter (fun p -> ignore (Powerloss.plan_named p)) s.fb_plans;
  if s.fb_cuts < 1 then invalid_arg "Fabric: a spec needs at least one cut point";
  if s.fb_horizon <= s.fb_cuts then
    invalid_arg "Fabric: the horizon must reach past the last cut point";
  Printf.sprintf "fabric-v1 plans=%s cuts=%d horizon=%d outage=%d seed=%d"
    (String.concat "," s.fb_plans)
    s.fb_cuts s.fb_horizon s.fb_outage s.fb_seed

(** One completed cell — exactly what the store serializes. *)
type cell = {
  fc_index : int;
  fc_plan : string;
  fc_cut : int;
  fc_board : int;  (** the board that lost power *)
  fc_class : string;  (** "completed" | "rolled-back" | "recovered" *)
  fc_fsck : string;
  fc_ok : bool;
  fc_why : string;  (** "" when ok; spaces encoded as [_] in the store *)
  fc_silent : int;
  fc_commits : int;
  fc_rollbacks : int;
  fc_readings : int;
  fc_fp : int64;
}

let mangle s =
  if s = "" then "-" else String.map (fun c -> if c = ' ' then '_' else c) s

let demangle s = if s = "-" then "" else String.map (fun c -> if c = '_' then ' ' else c) s

(* Stable one-line record encoding, hand-rolled like every store's so a
   store written by one build reads back under another. *)
let encode_cell c =
  Printf.sprintf "%d %s %d %d %s %s %b %s %d %d %d %d %Ld" c.fc_index c.fc_plan c.fc_cut
    c.fc_board c.fc_class c.fc_fsck c.fc_ok (mangle c.fc_why) c.fc_silent c.fc_commits
    c.fc_rollbacks c.fc_readings c.fc_fp

let decode_cell s =
  try
    Scanf.sscanf s "%d %s %d %d %s %s %B %s %d %d %d %d %Ld"
      (fun fc_index fc_plan fc_cut fc_board fc_class fc_fsck fc_ok why fc_silent fc_commits
           fc_rollbacks fc_readings fc_fp ->
        Some
          {
            fc_index;
            fc_plan;
            fc_cut;
            fc_board;
            fc_class;
            fc_fsck;
            fc_ok;
            fc_why = demangle why;
            fc_silent;
            fc_commits;
            fc_rollbacks;
            fc_readings;
            fc_fp;
          })
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* --- the cell lattice --- *)

let cell_count s = List.length s.fb_plans * s.fb_cuts

let cell_coords s =
  let plans = Array.of_list s.fb_plans in
  fun i -> (plans.(i / s.fb_cuts), 1 + (i mod s.fb_cuts))

(* --- the deterministic report --- *)

(* Distinct readings the golden run delivered, and how many it should. *)
let golden_readings (golden : Deploy.outcome) =
  ( List.fold_left (fun a (_, got) -> a + List.length (List.sort_uniq compare got)) 0
      golden.Deploy.oc_got,
    2 * List.length Deploy.readings )

(* The campaign verdict, for the report's last line and {!run}'s [fb_ok]:
   every cut point classified and contained, no silent corruption, and a
   golden run that delivered everything and committed the OTA. *)
let verdict (golden : Deploy.outcome) (gstats : Ota.stats) (cells : cell array) =
  let greadings, gfull = golden_readings golden in
  Array.for_all
    (fun c ->
      List.mem c.fc_class [ "completed"; "rolled-back"; "recovered" ] && c.fc_ok
      && c.fc_silent = 0)
    cells
  && greadings = gfull && gstats.Ota.ot_commits > 0 && golden.Deploy.oc_isolation_ok
  && golden.Deploy.oc_silent = 0

let render spec (golden : Deploy.outcome) (gstats : Ota.stats) (cells : cell array) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "# ticktock fabric campaign\n";
  pf "# %s\n\n" (spec_key spec);
  let greadings, gfull = golden_readings golden in
  pf "golden: readings %d/%d  ota %s  isolation %s  silent %d\n\n" greadings gfull
    (if gstats.Ota.ot_commits > 0 then "committed" else "NOT-COMMITTED")
    (if golden.Deploy.oc_isolation_ok then "ok" else "VIOLATED")
    golden.Deploy.oc_silent;
  let sum f sel = Array.fold_left (fun a c -> if sel c then a + f c else a) 0 cells in
  let count p sel = sum (fun c -> if p c then 1 else 0) sel in
  pf "%-8s %6s %10s %12s %10s %6s %7s %8s %10s\n" "plan" "cuts" "completed" "rolled-back"
    "recovered" "ok" "silent" "commits" "rollbacks";
  List.iter
    (fun pl ->
      let sel c = c.fc_plan = pl in
      pf "%-8s %6d %10d %12d %10d %6d %7d %8d %10d\n" pl
        (count (fun _ -> true) sel)
        (count (fun c -> c.fc_class = "completed") sel)
        (count (fun c -> c.fc_class = "rolled-back") sel)
        (count (fun c -> c.fc_class = "recovered") sel)
        (count (fun c -> c.fc_ok) sel)
        (sum (fun c -> c.fc_silent) sel)
        (sum (fun c -> c.fc_commits) sel)
        (sum (fun c -> c.fc_rollbacks) sel))
    spec.fb_plans;
  let all _ = true in
  let total = Array.length cells in
  let classified =
    count (fun c -> List.mem c.fc_class [ "completed"; "rolled-back"; "recovered" ]) all
  in
  let ok = count (fun c -> c.fc_ok) all in
  let silent = sum (fun c -> c.fc_silent) all in
  pf "\n== totals ==\n";
  pf "cut points %d  classified %d  containment ok %d\n" total classified ok;
  (let failures = Array.to_list cells |> List.filter (fun c -> not c.fc_ok) in
   List.iter
     (fun c -> pf "FAILED %s cut=%d board=%d: %s\n" c.fc_plan c.fc_cut c.fc_board c.fc_why)
     failures);
  pf "silent cross-board corruption: %d%s\n" silent
    (if silent = 0 then " (zero — every corrupted frame was caught)" else " (VIOLATION)");
  pf "campaign: %s\n" (if verdict golden gstats cells then "ok" else "FAILED");
  Buffer.contents b

(* --- the campaign --- *)

type result = {
  fb_spec : spec;
  fb_cells : cell option array;  (** index-ordered; [None] = not run *)
  fb_complete : bool;
  fb_report : string;  (** deterministic; rendered only when complete *)
  fb_ok : bool;
  fb_ran : int;  (** cells executed by {e this} run *)
  fb_resumed : int;  (** cells recovered from the store *)
  fb_steals : int;
}

(** Run (or resume) the campaign. Same contract as the fleet campaign:
    [store] + [resume] make it resumable; [stop_after] is the
    deterministic kill for CI resumability checks; the report is rendered
    only when every cell is accounted for. *)
let run ?jobs ?(batch = 4) ?store ?resume ?stop_after (spec : spec) =
  let key = spec_key spec in
  let coords = cell_coords spec in
  (* per-worker state: one deployment environment per plan, built on first
     use on that worker's own domain and forked for every later cell *)
  let init _w : (string, Powerloss.env) Hashtbl.t = Hashtbl.create 4 in
  let cell envs i =
    let plan_name, cut = coords i in
    let env =
      match Hashtbl.find_opt envs plan_name with
      | Some env -> env
      | None ->
        let env =
          Powerloss.make_env ~plan:(Powerloss.plan_named plan_name) ~seed:spec.fb_seed ()
        in
        Obs.Metrics.host_incr "fabric/topologies_booted";
        Hashtbl.add envs plan_name env;
        env
    in
    let c =
      Powerloss.run_cell env ~sweep_seed:spec.fb_seed ~cut ~outage:spec.fb_outage
        ~horizon:spec.fb_horizon
    in
    Obs.Metrics.host_incr "fabric/cells_run";
    Obs.Metrics.host_incr "fabric/topologies_forked";
    {
      fc_index = i;
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
    }
  in
  let d =
    Fleet.Driver.run ?jobs ~batch ?store ?resume ?stop_after ~spec:key ~total:(cell_count spec)
      ~encode:encode_cell ~decode:decode_cell ~index:(fun c -> c.fc_index) ~init ~cell ()
  in
  let open Fleet.Driver in
  if d.resumed > 0 then Obs.Metrics.host_incr ~by:d.resumed "fabric/resume_cells";
  if d.steals > 0 then Obs.Metrics.host_incr ~by:d.steals "fabric/steals";
  let report, ok =
    if not d.complete then ("", false)
    else begin
      let golden, gstats = Powerloss.golden ~seed:spec.fb_seed ~horizon:spec.fb_horizon in
      let cells = Array.map Option.get d.cells in
      (render spec golden gstats cells, verdict golden gstats cells)
    end
  in
  {
    fb_spec = spec;
    fb_cells = d.cells;
    fb_complete = d.complete;
    fb_report = report;
    fb_ok = ok;
    fb_ran = d.ran;
    fb_resumed = d.resumed;
    fb_steals = d.steals;
  }
