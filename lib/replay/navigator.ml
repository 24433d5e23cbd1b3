(** Time-travel navigation over a {!Ticktock.Replayable} session.

    The navigator owns one live session and two sets of in-memory
    whole-board checkpoints:
    - the {e ladder}: every [interval]-th tick a forward pass crosses;
    - the {e trail}: log-spaced checkpoints behind the current tick. A
      forward pass toward tick [g] captures each tick [g-1, g-2, g-4, ...]
      it crosses (ticks the ladder holds are skipped), and once a command
      lands at tick [p] the trail keeps only the nearest checkpoint of each
      distance class [[2^k, 2^(k+1))] below [p]: at most [floor(log2 p)+1]
      of them.

    A {e backward} step restores the greatest checkpoint at or below the
    target and re-executes forward from it, never a from-scratch replay. A
    [back 1] right after a command that stepped to its tick is therefore a
    restore with no re-execution, and a longer backward jump re-executes at
    most [interval - 1] ticks. Checkpoints are cheap to hold: board memory
    and the obs event ring are both captured copy-on-write. Sessions whose
    mid-run capture is not exact (fabric topologies: host-side agents hold
    in-flight state a capture cannot see) run with [~snapshots:false], keep
    neither ladder nor trail, and pay a restart-and-replay per backward jump
    instead; correctness is the same, only the cost model differs.

    When created [~marks] (from a {!Bundle}), every forward pass verifies
    the session fingerprint against the recorded mark at each boundary it
    crosses and raises {!Bundle.Refused} on divergence: a bundle that no
    longer reproduces its recording refuses to navigate rather than
    silently showing a different execution. *)

open Ticktock

type t = {
  nv_interval : int;
  nv_snapshots : bool;
  nv_marks : (int, int64) Hashtbl.t;  (** tick → expected fp, from the bundle *)
  mutable nv_session : Replayable.t;
  nv_restart : unit -> Replayable.t;
      (** back to tick 0 in post-schedule state (may rebuild the session) *)
  mutable nv_snaps : (int * (unit -> unit)) list;  (** the ladder: ascending (tick, restore) *)
  mutable nv_trail : (int * (unit -> unit)) list;
      (** the trail: (tick, restore), nearest first after each command *)
}

let session t = t.nv_session
let tick t = t.nv_session.Replayable.rp_tick ()
let fingerprint t = t.nv_session.Replayable.rp_fingerprint ()
let crash t = t.nv_session.Replayable.rp_crash ()
let snapshots_held t = List.length t.nv_snaps + List.length t.nv_trail

(** [create ~interval ~restart session]: [restart] must bring the session
    back to tick 0 in its exact post-schedule state (rebuilding the session
    value is allowed — fabric restarts do). [session] must {e be} at tick 0
    when handed over. [~snapshots:false] disables the interval ladder for
    sessions whose mid-run capture is inexact, and the trail with it. *)
let create ?(interval = 32) ?(snapshots = true) ?(marks = [||]) ~restart session =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun (tk, fp) -> Hashtbl.replace tbl tk fp) marks;
  if interval < 1 then invalid_arg "Navigator.create: interval must be >= 1";
  {
    nv_interval = interval;
    nv_snapshots = snapshots;
    nv_marks = tbl;
    nv_session = session;
    nv_restart = restart;
    nv_snaps = [];
    nv_trail = [];
  }

let check_mark t now =
  match Hashtbl.find_opt t.nv_marks now with
  | None -> ()
  | Some expected ->
    let got = fingerprint t in
    if got <> expected then
      raise
        (Bundle.Refused
           (Printf.sprintf
              "replay diverged from recording at tick %d (recorded %s, got %s)" now
              (Fp.to_hex expected) (Fp.to_hex got)))

let snap_here t now =
  if t.nv_snapshots && now mod t.nv_interval = 0 && not (List.mem_assoc now t.nv_snaps)
  then
    t.nv_snaps <-
      List.merge
        (fun (a, _) (b, _) -> compare a b)
        t.nv_snaps
        [ (now, t.nv_session.Replayable.rp_capture ()) ]

(* Capture [now] for the trail if it is [target - 2^k] and on neither
   ladder nor trail. The ladder holds exactly the multiples of the interval
   a pass crossed, and [snap_here] has just run. *)
let trail_here t now ~target =
  let d = target - now in
  if
    t.nv_snapshots && d land (d - 1) = 0 && now mod t.nv_interval <> 0
    && not (List.mem_assoc now t.nv_trail)
  then t.nv_trail <- (now, t.nv_session.Replayable.rp_capture ()) :: t.nv_trail

(** Step forward to [target], single-tick, capturing ladder and trail
    checkpoints and verifying marks on the way. Stops early if the session
    crashes (state frozen at the crash tick) or quiesces (no tick progress:
    nothing left to schedule). *)
let forward_to t target =
  let rec go () =
    let now = tick t in
    snap_here t now;
    if now < target && crash t = None then begin
      trail_here t now ~target;
      t.nv_session.Replayable.rp_step ~ticks:1;
      let now' = tick t in
      if now' > now then begin
        check_mark t now';
        go ()
      end
    end
  in
  go ()

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* Keep the nearest trail checkpoint of each distance class [2^k, 2^(k+1))
   below the current tick, and none at or above it. *)
let prune_trail t =
  let p = tick t in
  let rec nearest_per_class cls = function
    | [] -> []
    | ((tk, _) as c) :: rest ->
      let k = log2 (p - tk) in
      if k = cls then nearest_per_class cls rest else c :: nearest_per_class k rest
  in
  let below = List.filter (fun (tk, _) -> tk < p) t.nv_trail in
  t.nv_trail <- nearest_per_class (-1) (List.sort (fun (a, _) (b, _) -> compare b a) below)

(** Travel to absolute tick [target]. Forward is plain stepping; backward
    restores the greatest checkpoint, ladder or trail, at or below
    [target] (or restarts to tick 0) and re-executes. *)
let goto t target =
  if target < 0 then invalid_arg "Navigator.goto: negative tick";
  let now = tick t in
  if target < now then begin
    let greatest best ((tk, _) as c) =
      match best with
      | Some (b, _) when b >= tk -> best
      | _ -> if tk <= target then Some c else best
    in
    (match List.fold_left greatest (List.fold_left greatest None t.nv_snaps) t.nv_trail with
    | Some (_, restore) -> restore ()
    | None -> t.nv_session <- t.nv_restart ());
    (* checkpoints above the restore point stay valid: they restore
       absolute state, not deltas, so a later forward pass may reuse the
       ladder's; the trail is re-spaced around the landing tick below *)
    ()
  end;
  forward_to t target;
  prune_trail t

(** [back t n]: step backward [n] ticks — restore-and-re-execute. *)
let back t n =
  if n < 0 then invalid_arg "Navigator.back: negative count";
  goto t (max 0 (tick t - n))

(* --- inspectors: the debugger surface --- *)

let regs t = t.nv_session.Replayable.rp_regs ()
let mem_read t ~addr ~len = t.nv_session.Replayable.rp_mem_read ~addr ~len
let mpu t = t.nv_session.Replayable.rp_mpu ()

(** Contract/fault events at or before the current tick, oldest first:
    where the verifier (or the hardware) objected on the way here. *)
let violations t =
  match t.nv_session.Replayable.rp_events () with
  | None -> []
  | Some rec_ ->
    let now = tick t in
    List.filter_map
      (fun (e : Obs.Recorder.entry) ->
        if e.Obs.Recorder.at > now then None
        else
          match e.Obs.Recorder.event with
          | Obs.Event.Contract_failed _ | Obs.Event.Faulted _ ->
            Some (e.Obs.Recorder.at, e.Obs.Recorder.event)
          | _ -> None)
      (Obs.Recorder.entries rec_)

(** Chrome-trace JSON of the events in the inclusive tick window. *)
let trace t ~window:(lo, hi) =
  match t.nv_session.Replayable.rp_events () with
  | None -> None
  | Some rec_ ->
    Some (Obs.Chrome.to_json ~name:t.nv_session.Replayable.rp_name ~window:(lo, hi) rec_)
