(** The coverage-guided evolutionary fuzzing campaign.

    The AFL recipe over the whole-machine model: fork every input from a
    pristine post-boot image ({!Ticktock.Snapshot.Registry}), run it with
    the icache coverage map on ({!Fluxarm.Icache.set_coverage}), keep
    inputs that light buckets no earlier input lit, and breed the next
    generation from the keepers. Everything the campaign externalizes —
    corpus, report, store bytes — is a pure function of the spec:

    - {e across jobs}: a generation's candidates are derived {e before}
      the generation runs, from (seed, generation, slot) and the corpus;
      the pool evaluates them in any order but the results array is
      index-ordered, and corpus/virgin-map updates are merged strictly in
      slot order after the barrier;
    - {e across kill/resume}: the store (a {!Fleet.Store}, opened and
      recovered by {!Fleet.Driver.recover}) holds one record per completed
      generation carrying exactly the inputs of the merge fold — accepted
      entries, newly lit bits, new crashers — so resume replays the fold
      and continues bit-identically;
    - {e across cold and warm icaches, and cov on/off}: the coverage
      hooks note the same (block, edge) stream whether a block is being
      built or runs in a linked trace, and are host-side observation —
      model-visible behaviour is byte-identical with coverage on or off
      (docs/FUZZING.md).

    Crashers are triaged against {!Verify.Taxonomy}; [ticktock fuzzcov
    --bundles] records each as a TICKRPL bundle ([Replay.Record.of_fuzzcov])
    that [ticktock replay run] reproduces. *)

open Ticktock

(* --- boards ---

   Assembled like the fleet's: standard capsule set, devices spliced into
   the snapshot target, RNG reseed hook wired. The upstream/patched Tock
   baselines are schedulable too — that is where the fuzzer has real
   crashes to find (the §2.2 wild-brk panic); note only the [-mc] board
   executes its switch path through [Mc.run], so only it populates the
   coverage map — on every other board the campaign degrades to blind
   fuzzing over the same input space. *)
let board_names =
  [ "ticktock-arm-mc"; "ticktock-arm"; "ticktock-arm-v8"; "tock-arm-upstream";
    "tock-arm-patched" ]

(* Contracts are armed exactly where the verified kernels claim them. *)
let contracts_for board = String.length board >= 8 && String.sub board 0 8 = "ticktock"

let make_board name =
  if not (List.mem name board_names) then
    invalid_arg
      (Printf.sprintf "Fuzzcov: unknown board %S (one of: %s)" name
         (String.concat ", " board_names));
  Capsules.Std_board.make ~what:"Fuzzcov" name

(* --- spec --- *)

type spec = {
  fc_board : string;
  fc_seed : int;  (** campaign master seed *)
  fc_pop : int;  (** candidates per generation *)
  fc_gens : int;
  fc_steps_max : int;  (** genome length cap *)
  fc_ticks_max : int;
  fc_guided : bool;  (** [false]: the blind baseline — same engine, no corpus *)
}

let default_spec =
  {
    fc_board = "ticktock-arm-mc";
    fc_seed = 1;
    fc_pop = 16;
    fc_gens = 24;
    fc_steps_max = 256;
    fc_ticks_max = 8000;
    fc_guided = true;
  }

let no_spaces what s =
  if String.contains s ' ' || String.contains s '\n' then
    invalid_arg (Printf.sprintf "Fuzzcov: %s %S must not contain whitespace" what s)

let spec_key s =
  no_spaces "board name" s.fc_board;
  Printf.sprintf "fuzzcov-v1 board=%s seed=%d pop=%d gens=%d steps=%d ticks=%d mode=%s"
    s.fc_board s.fc_seed s.fc_pop s.fc_gens s.fc_steps_max s.fc_ticks_max
    (if s.fc_guided then "guided" else "blind")

(* --- corpus entries and crashers --- *)

type entry = {
  en_id : int;  (** corpus sequence number (acceptance order) *)
  en_gen : int;  (** generation that produced it *)
  en_new : int;  (** buckets it lit first (0: kept as the depth champion) *)
  en_hits : int;  (** exact (block + edge) hit total — the depth signal *)
  en_input : Input.t;
  en_cov : (int * int) array;  (** its sparse classified bitmap *)
}

type crasher = {
  cr_class : Verify.Taxonomy.cls;
  cr_site : string;
  cr_detail : string;
  cr_gen : int;
  cr_input : Input.t;
}

(* --- one input, one forked board --- *)

(* What a pool cell ships back: the input's sparse classified bitmap and
   its crash, if any. Plain values — merging happens on the caller. *)
type exec = {
  ex_cov : (int * int) array;
  ex_hits : int;  (** exact block + edge hit total: how deep the schedule ran *)
  ex_crash : (Verify.Taxonomy.cls * string * string) option;
}

(** Run one genome against an already-booted (or just-restored) instance:
    the honest witness next to the genome app, coverage map reset first so
    the bitmap read afterwards is a pure function of this input. *)
let run_input (k : Instance.t) (g : Input.t) =
  (match k.Instance.icache () with
  | Some ic ->
    Fluxarm.Icache.set_coverage ic true;
    Fluxarm.Icache.cov_reset ic
  | None -> ());
  let load name payload program =
    k.Instance.load ~name ~payload ~program ~min_ram:2048 ~grant_reserve:1024
      ~heap_headroom:2048
    |> Result.get_ok
  in
  let witness = load "witness" "w" (Apps.App_dsl.to_program Apps.Fuzz.witness_script) in
  let gen_pid = load "gen" "g" (Apps.App_dsl.to_program (Input.script g)) in
  let crash =
    match k.Instance.run ~max_ticks:g.Input.in_ticks with
    | () ->
      (* no exception escaped: the only remaining crash class is silent
         witness corruption — an isolation breach no contract caught *)
      let witness_bad =
        k.Instance.proc_faulted witness
        || (k.Instance.proc_exit witness = Some 0
           && k.Instance.proc_output witness <> Some "true")
      in
      let isolation_bad =
        not (List.for_all (fun pid -> k.Instance.proc_isolation_ok pid) [ witness; gen_pid ])
      in
      if witness_bad || isolation_bad then
        Some
          ( Verify.Taxonomy.Witness_corruption,
            "witness",
            if isolation_bad then "hardware view escaped the logical view"
            else "witness output corrupted" )
      else None
    | exception Tock_cortexm_mpu.Kernel_panic msg ->
      Some (Verify.Taxonomy.Kernel_panic, "kernel", msg)
    | exception Verify.Violation.Violation v ->
      (Some (Verify.Taxonomy.class_of_site v.Verify.Violation.site, v.Verify.Violation.site,
             v.Verify.Violation.detail))
  in
  let cov, hits =
    match k.Instance.icache () with
    | Some ic ->
      let cc = Fluxarm.Icache.cov_counts ic in
      (Fluxarm.Icache.cov_classified ic, cc.cc_block_hits + cc.cc_edge_hits)
    | None -> ([||], 0)
  in
  { ex_cov = cov; ex_hits = hits; ex_crash = crash }

(* --- the virgin map ---

   slot -> bitmask of AFL count classes already seen. A candidate's
   novelty is the number of (slot, class) pairs whose class bit is not
   yet in the mask. *)

type virgin = (int, int) Hashtbl.t

let novelty (v : virgin) cov =
  Array.fold_left
    (fun acc (slot, cls) ->
      let seen = Option.value ~default:0 (Hashtbl.find_opt v slot) in
      if cls land seen = 0 then acc + 1 else acc)
    0 cov

(* Merge a bitmap into the virgin map, returning the delta actually new,
   in bitmap (ascending slot) order — what the store records. *)
let merge (v : virgin) cov =
  let delta = ref [] in
  Array.iter
    (fun (slot, cls) ->
      let seen = Option.value ~default:0 (Hashtbl.find_opt v slot) in
      if cls land seen = 0 then begin
        Hashtbl.replace v slot (seen lor cls);
        delta := (slot, cls) :: !delta
      end)
    cov;
  List.rev !delta

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

(* (block slots, edge slots, total (slot, class) buckets) lit so far. The
   bucket count is the AFL-style "map coverage": a slot lit at a new hit
   count class is a discovery even when the slot itself is old — it is
   what separates an input that context-switches 128 times from one that
   switches once, and the only axis with room to climb on a kernel whose
   handler code is small. *)
let lit (v : virgin) =
  Hashtbl.fold
    (fun slot mask (blocks, edges, bits) ->
      let bits = bits + popcount mask in
      if slot < Fluxarm.Icache.cov_slots then (blocks + 1, edges, bits)
      else (blocks, edges + 1, bits))
    v (0, 0, 0)

(* --- candidate derivation: pure in (spec, corpus, gen, slot) --- *)

let champion (corpus : entry array) =
  Array.fold_left
    (fun best e ->
      match best with
      | None -> Some e
      | Some b -> if e.en_hits > b.en_hits then Some e else Some b)
    None corpus

let candidate spec ~(corpus : entry array) ~gen ~slot =
  let rng = Random.State.make [| spec.fc_seed; gen; slot; 0xFC0C |] in
  let fresh () =
    Input.fresh ~rng ~steps_max:spec.fc_steps_max ~ticks_max:spec.fc_ticks_max
  in
  if (not spec.fc_guided) || Array.length corpus = 0 then fresh ()
  else begin
    let roll = Random.State.int rng 100 in
    if roll < 10 then fresh () (* keep exploring from scratch *)
    else
      (* AFL-style scheduling: a third of the children descend from the
         depth champion (the ladder the doubling moves climb), a third
         from the last few accepted entries (they carry the rarest
         buckets), the rest from anywhere *)
      let n = Array.length corpus in
      let parent =
        if roll < 40 then Option.get (champion corpus)
        else if roll < 70 then corpus.(n - 1 - Random.State.int rng (min 4 n))
        else corpus.(Random.State.int rng n)
      in
      Input.mutate ~rng ~steps_max:spec.fc_steps_max ~ticks_max:spec.fc_ticks_max
        parent.en_input
  end

(* --- corpus minimization ---

   Greedy set cover over the corpus's own buckets: take entries by
   descending bitmap size (ties by id), keep one only if it still
   contributes a bucket no keeper covers. Because acceptance guarantees
   novelty against the corpus {e so far}, id-order greedy would keep
   everything; size-order lets rich later entries subsume their
   ancestors. The current depth champion (max [en_hits], lowest id on
   ties) is always kept even when its buckets are subsumed — dropping it
   would cut the count-class ladder the doubling mutation climbs.
   Survivors are re-sorted by id, so parent selection stays stable. Runs
   every [minimize_every] generations and is part of the deterministic
   fold — resume replays it bit-identically. *)

let minimize_every = 8

let minimize (corpus : entry array) =
  let by_size = Array.copy corpus in
  Array.sort
    (fun a b ->
      match compare (Array.length b.en_cov) (Array.length a.en_cov) with
      | 0 -> compare a.en_id b.en_id
      | c -> c)
    by_size;
  let covered : virgin = Hashtbl.create 1024 in
  let keep =
    Array.to_list by_size
    |> List.filter (fun e ->
           let n = novelty covered e.en_cov in
           if n > 0 then ignore (merge covered e.en_cov);
           n > 0)
  in
  let keep =
    match champion corpus with
    | Some ch when not (List.exists (fun e -> e.en_id = ch.en_id) keep) -> ch :: keep
    | _ -> keep
  in
  let keep = List.sort (fun a b -> compare a.en_id b.en_id) keep in
  Array.of_list keep

(* --- per-generation summary: the store record and the fold input --- *)

type gen_summary = {
  gs_gen : int;
  gs_execs : int;  (** cumulative execs after this generation *)
  gs_edges : int;  (** edge slots lit after this generation *)
  gs_blocks : int;
  gs_bits : int;  (** (slot, count class) buckets lit — the guidance signal *)
  gs_corpus : int;  (** corpus size after this generation (post-minimize) *)
  gs_crashers : int;  (** cumulative distinct crashers *)
  gs_new_bits : (int * int) list;  (** delta merged into the virgin map, in order *)
  gs_entries : entry list;  (** accepted this generation, in order *)
  gs_new_crashers : crasher list;
}

let encode_pairs = function
  | [] -> "-"
  | ps ->
    String.concat "," (List.map (fun (s, c) -> Printf.sprintf "%d:%d" s c) ps)

let decode_pairs s =
  if s = "-" then Some []
  else
    try
      Some
        (List.map
           (fun tok -> Scanf.sscanf tok "%d:%d" (fun a b -> (a, b)))
           (String.split_on_char ',' s))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let encode_gen gs =
  let b = Buffer.create 1024 in
  Printf.bprintf b "G %d %d %d %d %d %d %d\n" gs.gs_gen gs.gs_execs gs.gs_edges gs.gs_blocks
    gs.gs_bits gs.gs_corpus gs.gs_crashers;
  Printf.bprintf b "N %s\n" (encode_pairs gs.gs_new_bits);
  List.iter
    (fun e ->
      Printf.bprintf b "A %d %d %d %d %s %s\n" e.en_id e.en_gen e.en_new e.en_hits
        (Input.encode e.en_input)
        (encode_pairs (Array.to_list e.en_cov)))
    gs.gs_entries;
  List.iter
    (fun c ->
      Printf.bprintf b "X %s %d %S %S %s\n" (Verify.Taxonomy.name c.cr_class) c.cr_gen
        c.cr_site c.cr_detail (Input.encode c.cr_input))
    gs.gs_new_crashers;
  Buffer.contents b

let decode_gen data =
  let lines = String.split_on_char '\n' data |> List.filter (fun l -> l <> "") in
  try
    let gs =
      match lines with
      | first :: _ ->
        Scanf.sscanf first "G %d %d %d %d %d %d %d" (fun g e ed bl bi co cr ->
            {
              gs_gen = g;
              gs_execs = e;
              gs_edges = ed;
              gs_blocks = bl;
              gs_bits = bi;
              gs_corpus = co;
              gs_crashers = cr;
              gs_new_bits = [];
              gs_entries = [];
              gs_new_crashers = [];
            })
      | [] -> raise Exit
    in
    let gs =
      List.fold_left
        (fun gs line ->
          match line.[0] with
          | 'G' -> gs
          | 'N' ->
            let pairs =
              match decode_pairs (String.sub line 2 (String.length line - 2)) with
              | Some p -> p
              | None -> raise Exit
            in
            { gs with gs_new_bits = pairs }
          | 'A' ->
            Scanf.sscanf line "A %d %d %d %d %s %s" (fun id gen nw hits inp cov ->
                match (Input.decode inp, decode_pairs cov) with
                | Some input, Some cov ->
                  {
                    gs with
                    gs_entries =
                      gs.gs_entries
                      @ [
                          {
                            en_id = id;
                            en_gen = gen;
                            en_new = nw;
                            en_hits = hits;
                            en_input = input;
                            en_cov = Array.of_list cov;
                          };
                        ];
                  }
                | _ -> raise Exit)
          | 'X' ->
            Scanf.sscanf line "X %s %d %S %S %s" (fun cls gen site detail inp ->
                match (Verify.Taxonomy.of_name cls, Input.decode inp) with
                | Some cr_class, Some cr_input ->
                  {
                    gs with
                    gs_new_crashers =
                      gs.gs_new_crashers
                      @ [ { cr_class; cr_site = site; cr_detail = detail; cr_gen = gen; cr_input } ];
                  }
                | _ -> raise Exit)
          | _ -> raise Exit)
        gs (List.tl lines)
    in
    Some gs
  with Scanf.Scan_failure _ | Failure _ | End_of_file | Exit | Invalid_argument _ -> None

(* --- the deterministic report: rendered only from gen summaries --- *)

let render spec (gens : gen_summary array) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "# ticktock fuzzcov campaign\n";
  pf "# %s\n\n" (spec_key spec);
  pf "%5s %8s %7s %7s %8s %6s %9s\n" "gen" "execs" "corpus" "edges" "blocks" "bits" "crashers";
  Array.iter
    (fun gs ->
      pf "%5d %8d %7d %7d %8d %6d %9d\n" gs.gs_gen gs.gs_execs gs.gs_corpus gs.gs_edges
        gs.gs_blocks gs.gs_bits gs.gs_crashers)
    gens;
  let entries = Array.to_list gens |> List.concat_map (fun gs -> gs.gs_entries) in
  let final_corpus =
    (* replay the fold's minimization points to list the surviving corpus *)
    Array.to_list
      (Array.fold_left
         (fun corpus gs ->
           let corpus = Array.append corpus (Array.of_list gs.gs_entries) in
           if (gs.gs_gen + 1) mod minimize_every = 0 then minimize corpus else corpus)
         [||] gens)
  in
  let crashers = Array.to_list gens |> List.concat_map (fun gs -> gs.gs_new_crashers) in
  pf "\n== corpus == (%d accepted over the campaign, %d after minimization)\n"
    (List.length entries) (List.length final_corpus);
  pf "%5s %5s %5s %6s %5s %6s\n" "id" "gen" "new" "hits" "ops" "ticks";
  List.iter
    (fun e ->
      pf "%5d %5d %5d %6d %5d %6d\n" e.en_id e.en_gen e.en_new e.en_hits
        (Array.length e.en_input.Input.in_ops)
        e.en_input.Input.in_ticks)
    final_corpus;
  pf "\n== crashers == (%d distinct)\n" (List.length crashers);
  List.iter
    (fun c ->
      pf "%-20s gen %d  site %S  detail %S  input %d ops / %d ticks\n"
        (Verify.Taxonomy.name c.cr_class) c.cr_gen c.cr_site c.cr_detail
        (Array.length c.cr_input.Input.in_ops)
        c.cr_input.Input.in_ticks)
    crashers;
  let last = if Array.length gens = 0 then None else Some gens.(Array.length gens - 1) in
  pf "\n== totals ==\n";
  (match last with
  | Some gs ->
    pf "execs %d  edges %d  blocks %d  bits %d  corpus %d  crashers %d\n" gs.gs_execs
      gs.gs_edges gs.gs_blocks gs.gs_bits gs.gs_corpus gs.gs_crashers
  | None -> pf "empty campaign\n");
  pf "campaign: %s\n"
    (match last with Some gs when gs.gs_crashers > 0 -> "CRASHERS" | _ -> "ok");
  Buffer.contents b

(* --- the campaign --- *)

type result = {
  fz_spec : spec;
  fz_complete : bool;  (** every generation accounted for *)
  fz_report : string;  (** deterministic; rendered only when complete *)
  fz_ok : bool;  (** complete and crasher-free *)
  fz_execs : int;
  fz_edges : int;
  fz_blocks : int;
  fz_bits : int;  (** (slot, count class) buckets lit *)
  fz_corpus : entry list;  (** final corpus, id order *)
  fz_crashers : crasher list;
  fz_curve : (int * int * int) list;
      (** (cumulative execs, edge slots lit, buckets lit) per generation *)
  fz_ran_gens : int;  (** generations executed by {e this} run *)
  fz_resumed_gens : int;  (** generations recovered from the store *)
}

(* Runners persist across the per-generation pool runs: worker [w] of
   generation [g] and worker [w] of generation [g+1] are different
   domains, but never live at once, so each slot is used by at most one
   domain at a time and every worker boots its board exactly once per
   campaign. Always forked execution — the AFL recipe is fork-per-input. *)
let make_runners () =
  let runners = Array.make (Jobs.max_jobs + 1) None in
  fun w ->
    match runners.(w) with
    | Some r -> r
    | None ->
      let r = Replayable.Runner.create ~exec:Replayable.Exec.Fork () in
      runners.(w) <- Some r;
      r

(** Run (or resume) a campaign.

    - [jobs] overrides [TICKTOCK_JOBS] for every generation's pool.
    - [store] makes the run resumable: one record per completed
      generation; [resume = true] first replays every committed
      generation through the merge fold and executes only the rest.
    - [stop_after n] stops after [n] {e newly executed} generations —
      the deterministic kill for resumability tests and CI. *)
let run ?jobs ?store ?resume ?stop_after (spec : spec) =
  if spec.fc_pop <= 0 || spec.fc_gens < 0 then invalid_arg "Fuzzcov: pop/gens out of range";
  let st, recovered_gens =
    Fleet.Driver.recover ?store ?resume ~spec:(spec_key spec) ~total:spec.fc_gens
      ~decode:decode_gen ~index:(fun gs -> gs.gs_gen) ()
  in
  (* campaign state, advanced by the same fold whether a generation was
     executed or recovered *)
  let virgin : virgin = Hashtbl.create 4096 in
  let corpus = ref [||] in
  let max_hits = ref 0 in
  (* the depth record: inputs beating it are kept even without novel
     buckets, so the count-class ladder has its intermediate rungs *)
  let accepted = ref 0 in
  (* monotonic id source: minimization shrinks [corpus], so its length
     cannot name the next entry *)
  let crash_seen : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let all_crashers = ref [] in
  let execs = ref 0 in
  let gens : gen_summary list ref = ref [] in
  let apply gs =
    List.iter (fun (slot, cls) ->
        let seen = Option.value ~default:0 (Hashtbl.find_opt virgin slot) in
        Hashtbl.replace virgin slot (seen lor cls))
      gs.gs_new_bits;
    corpus := Array.append !corpus (Array.of_list gs.gs_entries);
    accepted := !accepted + List.length gs.gs_entries;
    List.iter (fun e -> if e.en_hits > !max_hits then max_hits := e.en_hits) gs.gs_entries;
    List.iter
      (fun c ->
        Hashtbl.replace crash_seen (Verify.Taxonomy.name c.cr_class, c.cr_site) ();
        all_crashers := !all_crashers @ [ c ])
      gs.gs_new_crashers;
    if (gs.gs_gen + 1) mod minimize_every = 0 then begin
      let before = Array.length !corpus in
      corpus := minimize !corpus;
      let dropped = before - Array.length !corpus in
      if dropped > 0 then Obs.Metrics.host_incr ~by:dropped "fuzzcov/minimized"
    end;
    execs := gs.gs_execs;
    gens := !gens @ [ gs ]
  in
  let runner_for = make_runners () in
  let contracts = contracts_for spec.fc_board in
  let ran = ref 0 in
  let resumed = ref 0 in
  let stopped = ref false in
  (* one generation: derive candidates from the current state, evaluate
     them on the pool, merge strictly in slot order *)
  let execute_gen g =
    let cands = Array.init spec.fc_pop (fun s -> candidate spec ~corpus:!corpus ~gen:g ~slot:s) in
    let init w = runner_for w in
    let cell runner i =
      let r =
        Replayable.Runner.cell runner ~key:spec.fc_board
          ~boot:(fun () ->
            let k = make_board spec.fc_board in
            Obs.Metrics.host_incr "fuzzcov/boards_booted";
            (k, k.Instance.snap_target))
          (fun k ->
            k.Instance.reseed (((g * spec.fc_pop) + i + 1) * 0x9E3779B1);
            run_input k cands.(i))
      in
      Obs.Metrics.host_incr "fuzzcov/execs";
      r
    in
    let results, _stats = Pool.run ?jobs ~batch:1 ~cells:spec.fc_pop ~init ~cell () in
    (* index-ordered merge: the only place campaign state advances *)
    let new_bits = ref [] in
    let new_entries = ref [] in
    let new_crashers = ref [] in
    Array.iteri
      (fun slot r ->
        match r with
        | None -> ()
        | Some { ex_cov; ex_hits; ex_crash } ->
          (match ex_crash with
          | Some (cls, site, detail) ->
            let k = (Verify.Taxonomy.name cls, site) in
            if not (Hashtbl.mem crash_seen k) then begin
              Hashtbl.replace crash_seen k ();
              new_crashers :=
                !new_crashers
                @ [
                    {
                      cr_class = cls;
                      cr_site = site;
                      cr_detail = detail;
                      cr_gen = g;
                      cr_input = cands.(slot);
                    };
                  ]
            end
          | None -> ());
          (* crashing inputs still feed the virgin map (so the same crash
             region is not "novel" forever) but never join the corpus *)
          let n = novelty virgin ex_cov in
          let delta = merge virgin ex_cov in
          new_bits := !new_bits @ delta;
          let gen_max =
            List.fold_left (fun m e -> max m e.en_hits) !max_hits !new_entries
          in
          if spec.fc_guided && (n > 0 || ex_hits > gen_max) && ex_crash = None then begin
            let id = !accepted + List.length !new_entries in
            new_entries :=
              !new_entries
              @ [
                  {
                    en_id = id;
                    en_gen = g;
                    en_new = n;
                    en_hits = ex_hits;
                    en_input = cands.(slot);
                    en_cov = ex_cov;
                  };
                ]
          end)
      results;
    (* fold bookkeeping happens in [apply]; here we just assemble the
       summary exactly as a resume would read it back *)
    let blocks, edges, bits = lit virgin in
    {
      gs_gen = g;
      gs_execs = !execs + spec.fc_pop;
      gs_edges = edges;
      gs_blocks = blocks;
      gs_bits = bits;
      gs_corpus =
        (let after = Array.length !corpus + List.length !new_entries in
         if (g + 1) mod minimize_every = 0 then
           Array.length
             (minimize (Array.append !corpus (Array.of_list !new_entries)))
         else after);
      gs_crashers = Hashtbl.length crash_seen;
      gs_new_bits = !new_bits;
      gs_entries = !new_entries;
      gs_new_crashers = !new_crashers;
    }
  in
  Verify.Violation.with_enabled contracts (fun () ->
      let g = ref 0 in
      while !g < spec.fc_gens && not !stopped do
        (match recovered_gens.(!g) with
        | Some gs ->
          incr resumed;
          apply gs
        | None ->
          let budget_left =
            match stop_after with Some n -> !ran < n | None -> true
          in
          if not budget_left then stopped := true
          else begin
            let gs = execute_gen !g in
            (* the subtle ordering bug to avoid: [execute_gen] computes
               novelty against the pre-merge virgin map, so [apply] (which
               merges) must run after; but the summary above already
               carries post-merge totals because [merge] mutated [virgin]
               in place — [apply]'s re-merge of the delta is idempotent. *)
            (match st with
            | Some t -> Fleet.Store.append t ~index:!g ~data:(encode_gen gs)
            | None -> ());
            incr ran;
            apply gs
          end);
        if not !stopped then incr g
      done);
  if !resumed > 0 then Obs.Metrics.host_incr ~by:!resumed "fuzzcov/resume_gens";
  (match st with Some t -> Fleet.Store.close t | None -> ());
  let gens_arr = Array.of_list !gens in
  let complete = Array.length gens_arr = spec.fc_gens in
  let report = if complete then render spec gens_arr else "" in
  let blocks, edges, bits = lit virgin in
  {
    fz_spec = spec;
    fz_complete = complete;
    fz_report = report;
    fz_ok = complete && Hashtbl.length crash_seen = 0;
    fz_execs = !execs;
    fz_edges = edges;
    fz_blocks = blocks;
    fz_bits = bits;
    fz_corpus = Array.to_list !corpus;
    fz_crashers = !all_crashers;
    fz_curve =
      Array.to_list gens_arr |> List.map (fun gs -> (gs.gs_execs, gs.gs_edges, gs.gs_bits));
    fz_ran_gens = !ran;
    fz_resumed_gens = !resumed;
  }
