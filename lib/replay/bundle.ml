(** TICKRPL: the on-disk record/replay bundle.

    A bundle is everything a later process needs to reconstruct a recorded
    execution tick-for-tick and then navigate it:

    - the {e pristine image}: the post-boot memory pages of the recorded
      board (board sessions; fabric topologies are rebuilt from their plan
      instead — three boards of pristine pages would triple the file for
      state the plan already determines);
    - the {e input schedule} ({!Schedule}): reseeds and program loads, as
      re-resolvable tokens;
    - {e interval marks}: (tick, whole-board fingerprint) pairs at every
      interval boundary of the recording. Interval {e snapshots} are
      process images holding closures and cannot be marshalled; the
      navigator rebuilds them in one forward pass on load and verifies
      that pass against the marks — any divergence from the recorded
      execution refuses loudly instead of navigating garbage;
    - the {e event log}: the obs ring as recorded, so the trace of the
      original run is inspectable without re-execution;
    - the terminal state: total ticks, final fingerprint, the crash (if
      the recorded run panicked or tripped a contract).

    Like TICKSNAP, loading refuses on magic/version/layout mismatch; the
    memory-fingerprint and mark checks happen when a session is built from
    the bundle ({!Record.session_of_bundle}, {!Navigator}). *)

exception Refused of string

let refuse fmt = Printf.ksprintf (fun m -> raise (Refused m)) fmt
let magic = "TICKRPL"
let version = 1

(** What was recorded: a single campaign board, or one fabric power-loss
    cell (fully determined by plan, sweep seed, cut tick and outage). *)
type kind =
  | Board of string  (** a {!Capsules.Std_board} board name *)
  | Fabric of { fa_plan : string; fa_sweep_seed : int; fa_cut : int; fa_outage : int }

type header = {
  hd_version : int;
  hd_kind : kind;
  hd_arch : string;
  hd_layout_fp : int64;
  hd_interval : int;  (** recording interval K: marks every K ticks *)
  hd_horizon : int;  (** total ticks recorded (fabric: incl. settle drain) *)
  hd_note : string;
  hd_schedule : string;  (** {!Schedule.encode}d; [""] for fabric cells *)
  hd_mem_fp : int64;  (** pristine post-boot memory fp ([0L] for fabric) *)
  hd_final_fp : int64;  (** whole-board fp at [hd_horizon] *)
  hd_crash : (int * string) option;  (** (tick, reason) if the run crashed *)
}

type t = {
  bu_header : header;
  bu_pages : (int * string) list;  (** pristine image; [[]] for fabric *)
  bu_marks : (int * int64) array;  (** (tick, fp) at interval boundaries, ascending *)
  bu_events : (int * Obs.Event.t) list;  (** the recorded obs ring, oldest first *)
}

let kind_name = function Board _ -> "board" | Fabric _ -> "fabric"

let subject (t : t) =
  match t.bu_header.hd_kind with
  | Board b -> b
  | Fabric f -> Printf.sprintf "%s cut=%d outage=%d" f.fa_plan f.fa_cut f.fa_outage

let schedule (t : t) = Schedule.decode t.bu_header.hd_schedule

let save (t : t) path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      Marshal.to_channel oc t.bu_header [];
      Marshal.to_channel oc t.bu_pages [];
      Marshal.to_channel oc t.bu_marks [];
      Marshal.to_channel oc t.bu_events [])

(* A file cut short raises [End_of_file] (before a value) or [Failure]
   (inside one) from the channel readers; both are the same refusal. *)
let load path : t =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        let m = really_input_string ic (String.length magic) in
        if m <> magic then refuse "%s: not a replay bundle" path;
        let header : header = Marshal.from_channel ic in
        if header.hd_version <> version then
          refuse "%s: unsupported bundle version %d (supported: %d)" path header.hd_version
            version;
        if header.hd_layout_fp <> Ticktock.Snapshot.layout_fingerprint () then
          refuse "%s: memory-layout mismatch (bundle built against a different map)" path;
        let bu_pages : (int * string) list = Marshal.from_channel ic in
        let bu_marks : (int * int64) array = Marshal.from_channel ic in
        let bu_events : (int * Obs.Event.t) list = Marshal.from_channel ic in
        { bu_header = header; bu_pages; bu_marks; bu_events }
      with End_of_file | Failure _ -> refuse "%s: not a replay bundle (truncated)" path)

let pp ppf (t : t) =
  let h = t.bu_header in
  Format.fprintf ppf
    "@[<v>TICKRPL v%d %s %s (%s)@,\
     interval %d  horizon %d  marks %d  events %d  pages %d@,\
     final fp %s%s%s@]"
    h.hd_version (kind_name h.hd_kind) (subject t) h.hd_arch h.hd_interval h.hd_horizon
    (Array.length t.bu_marks)
    (List.length t.bu_events) (List.length t.bu_pages)
    (Fp.to_hex h.hd_final_fp)
    (match h.hd_crash with
    | None -> ""
    | Some (tick, reason) -> Printf.sprintf "\ncrash at tick %d: %s" tick reason)
    (if h.hd_note = "" then "" else "\nnote: " ^ h.hd_note)
