(* Shared command-line conventions for the campaign subcommands.

   Three conventions the campaign subcommands share, spelled once here:

   - the execution spec of fuzz, difftest and chaos:
     `--exec boot|fork|snapshot:FILE`, parsed by Replayable.Exec.parse;

   - the resumable-campaign flags of fleet, fabric and fuzzcov
     (`-j/--jobs`, `--store`, `--resume`, `--stop-after`: one term,
     [campaign_term]) and the work around running one ([run_campaign]);

   - the exit-code and output discipline: 0 clean / 2 findings /
     3 interrupted / 1 usage error, stdout carrying only the
     deterministic report (so CI can byte-diff it across jobs settings
     and kill/resume splits) and everything else — throughput, "wrote
     FILE" notices, errors — going to stderr. *)

open Ticktock
open Cmdliner

(* --- the execution spec --- *)

let exec_term =
  let exec =
    Arg.(
      value & opt string "boot"
      & info [ "exec" ] ~docv:"SPEC"
          ~doc:
            "How to obtain a board per cell: $(b,boot) (build a fresh board every time), \
             $(b,fork) (boot once per worker, restore the pristine post-boot image in front \
             of every cell), or $(b,snapshot:FILE) (fork from the on-disk image in FILE; \
             refuses a mismatched architecture, board or memory layout). Outputs must be \
             byte-identical across all three.")
  in
  Term.(const Replayable.Exec.parse $ exec)

(* --- exit codes and the report stream --- *)

let exit_clean = 0
let exit_usage = 1
let exit_findings = 2
let exit_interrupted = 3

let usage_error m =
  prerr_endline m;
  exit_usage

(** Deliver the deterministic report (stdout, or [-o FILE] with a stderr
    notice) and map the verdict to the shared exit-code convention. *)
let finish ~label ~ok ~out report =
  (match out with
  | None -> print_string report
  | Some path ->
    let oc = open_out path in
    output_string oc report;
    close_out oc;
    Printf.eprintf "%s: wrote %s\n" label path);
  if ok then exit_clean else exit_findings

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the report to $(docv) instead of stdout.")

(* --- failure-cell bundle emission --- *)

let bundle_cap = 8

let bundles_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bundles" ] ~docv:"DIR"
        ~doc:
          (Printf.sprintf
             "Record a TICKRPL replay bundle into $(docv) for each failing cell (first %d), \
              replayable with $(b,ticktock replay)."
             bundle_cap))

(** Record and write up to {!bundle_cap} bundles, one per failing cell.
    [cells] pairs a file stem with a thunk that records the bundle (a
    re-execution of the cell); recording and I/O failures are reported to
    stderr and skipped, never fatal — the campaign verdict stands on its
    own. *)
let write_bundles ~label ~dir (cells : (string * (unit -> Replay.Bundle.t)) list) =
  if cells = [] then Printf.eprintf "%s: no failing cells, no bundles written\n" label
  else
    try
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iteri
        (fun i (stem, make) ->
          if i < bundle_cap then begin
            let path = Filename.concat dir (stem ^ ".tickrpl") in
            match make () with
            | b ->
              Replay.Bundle.save b path;
              Printf.eprintf "%s: wrote %s\n" label path
            | exception (Replay.Bundle.Refused m | Invalid_argument m | Failure m) ->
              Printf.eprintf "%s: could not record %s: %s\n" label stem m
          end)
        cells;
      let n = List.length cells in
      if n > bundle_cap then
        Printf.eprintf "%s: %d failing cells, bundles capped at %d\n" label n bundle_cap
    with Sys_error m -> Printf.eprintf "%s: could not write bundles: %s\n" label m

(* --- resumable campaigns (fleet, fabric, fuzzcov) --- *)

type campaign = {
  jobs : int option;
  store : string option;
  resume : bool;
  stop_after : int option;
}

(** The flags every resumable campaign takes; [units] ("cells" or
    "generations") is what the store holds one record per. *)
let campaign_term ~units =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (default: $(b,TICKTOCK_JOBS) or the host core count).")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            (Printf.sprintf
               "Persist completed %s to $(docv) (versioned, append-only, resumable)." units))
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            (Printf.sprintf "Recover committed %s from $(b,--store) and run only the rest."
               units))
  in
  let stop_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "stop-after" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Stop after about $(docv) newly executed %s (deterministic kill, for \
                resumability testing; needs $(b,--store))."
               units))
  in
  Term.(
    const (fun jobs store resume stop_after -> { jobs; store; resume; stop_after })
    $ jobs $ store $ resume $ stop_after)

(** What a campaign command hands back to {!run_campaign}. *)
type outcome = {
  complete : bool;
  ok : bool;
  report : string;  (** the deterministic report; "" when incomplete *)
  summary : string;  (** the stderr throughput line, before its timing *)
  executed : int;  (** units executed by this run, for the rate *)
  rate_unit : string;
  failing : (string * (unit -> Replay.Bundle.t)) list;  (** for [--bundles] *)
}

(** Run one resumable campaign command: refuse [--resume]/[--stop-after]
    without [--store], time [run ()], print its throughput line, and map the
    outcome to an exit code — 3 when interrupted, else the report (with
    [--bundles] written first) through {!finish}. A bad spec, a refused
    store or an unwritable [--store]/[-o] path is a usage error. *)
let run_campaign ~label ~out ~bundles campaign run =
  if campaign.store = None && (campaign.resume || campaign.stop_after <> None) then
    usage_error (label ^ ": --resume and --stop-after need --store")
  else
    try
      let t0 = Unix.gettimeofday () in
      let o = run () in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.eprintf "%s: %s, %.2fs (%.1f %s/sec)\n" label o.summary dt
        (if dt > 0. then float_of_int o.executed /. dt else 0.)
        o.rate_unit;
      if not o.complete then begin
        Printf.eprintf "%s: campaign interrupted (resume it with --resume)\n" label;
        exit_interrupted
      end
      else begin
        Option.iter (fun dir -> write_bundles ~label ~dir o.failing) bundles;
        finish ~label ~ok:o.ok ~out o.report
      end
    with Invalid_argument m | Failure m | Fleet.Store.Refused m | Sys_error m -> usage_error m
