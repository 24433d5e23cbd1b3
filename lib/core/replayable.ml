(** The unified execution contract behind record/replay.

    Two things live here, both grown out of plumbing the campaign harnesses
    (fuzz, difftest, chaos, fleet, fuzzcov, fabric) each hand-rolled across
    PRs 5–9:

    - {!Exec}: the one parsed spelling of "how should a campaign obtain a
      board per cell" — boot fresh, fork a cached pristine image, or fork a
      pristine image overlaid from an on-disk snapshot.
    - {!Runner}: the single fork-per-cell code path implementing an
      {!Exec.spec} on top of {!Snapshot.Registry}, so every harness shares
      one boot-once/restore-per-cell implementation instead of six.

    On top of those, a {e session} ({!t}) is the type-erased view the replay
    navigator drives: deterministic single-tick stepping, whole-board
    capture/restore, a fingerprint oracle, and the register/memory/MPU
    inspectors. {!of_instance} builds one from any board {!Instance.t} that
    carries a snapshot target. *)

(* --- execution specs --- *)

module Exec = struct
  type spec =
    | Boot  (** boot a fresh board for every cell *)
    | Fork  (** boot once per worker, fork the pristine image per cell *)
    | Snapshot_file of string
        (** like [Fork], but overlay this on-disk pristine snapshot onto the
            freshly-booted board before capturing the fork image *)

  let to_string = function
    | Boot -> "boot"
    | Fork -> "fork"
    | Snapshot_file p -> "snapshot:" ^ p

  let parse s =
    match s with
    | "boot" -> Ok Boot
    | "fork" -> Ok Fork
    | _ ->
      (match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "snapshot" ->
        let p = String.sub s (i + 1) (String.length s - i - 1) in
        if p = "" then Error "--exec snapshot: needs a file (snapshot:FILE)"
        else Ok (Snapshot_file p)
      | _ ->
        Error
          (Printf.sprintf "bad execution spec %S (expected boot | fork | snapshot:FILE)" s))
end

(* --- the shared fork-per-cell runner --- *)

module Runner = struct
  type t = {
    rn_exec : Exec.spec;
    rn_registry : Obj.t Snapshot.Registry.t;
        (** payloads are type-erased so one runner serves cells of any
            payload type; [cell] re-erases and un-erases on either side of
            the registry, which is safe because each key is only ever used
            with one payload type by construction. *)
    mutable rn_boots : int;  (** boots in [Boot] mode (registry counts its own) *)
  }

  let create ~exec () =
    { rn_exec = exec; rn_registry = Snapshot.Registry.create (); rn_boots = 0 }

  let exec t = t.rn_exec

  let boots t = t.rn_boots + Snapshot.Registry.boots t.rn_registry
  let forks t = Snapshot.Registry.forks t.rn_registry

  (** [cell t ~key ~boot f] runs one campaign cell: under [Boot] it boots a
      fresh board and applies [f]; under [Fork] it boots at most once per
      [key] (capturing the pristine post-boot image) and restores that image
      in front of [f]; under [Snapshot_file p] it additionally overlays the
      on-disk snapshot [p] onto the board post-boot, pre-capture, so every
      fork starts from the file's image. [boot] returns the payload and its
      snapshot target post-boot, pre-load; the target may be [None] only
      under [Boot], which never snapshots. *)
  let cell (type k a) t ~key ~(boot : unit -> k * Snapshot.target option) (f : k -> a) : a =
    let need = function
      | Some tgt -> tgt
      | None ->
        invalid_arg
          (Printf.sprintf
             "Replayable.Runner: %s: forked execution needs an instance with a snapshot \
              target"
             key)
    in
    match t.rn_exec with
    | Exec.Boot ->
      t.rn_boots <- t.rn_boots + 1;
      let payload, _ = boot () in
      f payload
    | Exec.Fork ->
      let e =
        Snapshot.Registry.find_or_boot t.rn_registry key ~boot:(fun () ->
            let payload, tgt = boot () in
            (Obj.repr payload, need tgt))
      in
      Snapshot.Registry.fork e (fun payload -> f (Obj.obj payload : k))
    | Exec.Snapshot_file path ->
      let e =
        Snapshot.Registry.find_or_boot t.rn_registry key ~boot:(fun () ->
            let payload, tgt = boot () in
            let tgt = need tgt in
            Snapshot.load tgt path;
            (Obj.repr payload, tgt))
      in
      Snapshot.Registry.fork e (fun payload -> f (Obj.obj payload : k))
end

(* --- replayable sessions --- *)

(** What stopped a session mid-step, recorded so stepping is total: after a
    crash, further [step]s are no-ops and the session state stays frozen at
    the crash point — exactly what the navigator wants to inspect. *)
type crash = { cr_tick : int; cr_reason : string }

type t = {
  rp_kind : string;  (** "board" | "fabric" | ... — what booted this session *)
  rp_name : string;  (** board (or topology) name *)
  rp_arch : string;
  rp_tick : unit -> int;
  rp_step : ticks:int -> unit;
      (** Advance up to [ticks] kernel ticks, deterministically. Totals:
          panics and verifier violations are caught, recorded in
          [rp_crash], and freeze the session. *)
  rp_crash : unit -> crash option;
  rp_capture : unit -> unit -> unit;
      (** Capture the whole board; the returned thunk restores it. *)
  rp_fingerprint : unit -> int64;  (** whole-board fingerprint oracle *)
  rp_reseed : int -> unit;
  rp_regs : unit -> (string * string) list;
  rp_mem_read : addr:int -> len:int -> string;
  rp_mpu : unit -> string;
  rp_events : unit -> Obs.Recorder.t option;
}

(** Build a session from a board instance. Requires the instance's snapshot
    target (every board constructor in {!Boards} attaches one); the target
    is what makes capture/restore and the fingerprint whole-board rather
    than kernel-only. *)
let of_instance ?(kind = "board") ~name (k : Instance.t) =
  let tgt =
    match k.Instance.snap_target with
    | Some t -> t
    | None ->
      invalid_arg
        (Printf.sprintf "Replayable.of_instance: instance %S has no snapshot target" name)
  in
  let crash = ref None in
  {
    rp_kind = kind;
    rp_name = name;
    rp_arch = tgt.Snapshot.tg_arch;
    rp_tick = (fun () -> k.Instance.ticks ());
    rp_step =
      (fun ~ticks ->
        if !crash = None then
          try k.Instance.run ~max_ticks:ticks with
          | Tock_cortexm_mpu.Kernel_panic msg ->
            crash := Some { cr_tick = k.Instance.ticks (); cr_reason = "panic: " ^ msg }
          | Verify.Violation.Violation v ->
            crash :=
              Some
                {
                  cr_tick = k.Instance.ticks ();
                  cr_reason = "violation: " ^ v.Verify.Violation.site;
                });
    rp_crash = (fun () -> !crash);
    rp_capture =
      (fun () ->
        let snap = Snapshot.capture tgt in
        let crash_at = !crash in
        fun () ->
          Snapshot.restore tgt snap;
          crash := crash_at);
    rp_fingerprint = (fun () -> Snapshot.fingerprint tgt);
    rp_reseed = k.Instance.reseed;
    rp_regs = k.Instance.regs;
    rp_mem_read = (fun ~addr ~len -> k.Instance.mem_read ~addr:(Word32.of_int addr) ~len);
    rp_mpu = k.Instance.mpu_describe;
    rp_events = k.Instance.obs;
  }
