(** Whole-board snapshot, restore and fork — the substrate for fleet-scale
    campaigns (fuzzing, differential testing, chaos) that boot a board
    {e once} and fork thousands of rounds from the post-boot image instead
    of paying a cold boot per round.

    A board assembles a {!target}: its memory plus an ordered list of
    {!component}s, one per stateful layer (CPU, SysTick, NVIC, UART, GPIO,
    SCB, the MPU hardware device, and — {e always last} — the kernel). The
    ordering contract matters twice on restore: memory is restored first
    (which flushes the bus decision cache, bumps the code generation so no
    stale decoded block or micro-TLB entry survives, and emits a
    [Buscache_flush] observability event), then the component thunks run in
    list order — the MPU's configuration id follows its restored registers
    — so the kernel component, which rewrites the observability recorder
    ring, runs last and erases that flush event from the record.
    A forked run is therefore byte-for-byte identical to a booted run: same
    console, same trace, same obs event stream, same cycle counter.

    In-memory snapshots capture everything. On-disk snapshots
    (["TICKSNAP"], versioned) carry only the memory image — component state
    is OCaml closures and does not serialize — so {!save} refuses
    non-pristine targets (processes already loaded): a pristine post-boot
    image restored onto a freshly-booted identical board reconstructs the
    full state by construction. {!load} verifies magic, version,
    architecture, board name and the memory-layout fingerprint before
    touching the board, and the memory fingerprint after. *)

(** One stateful layer of a board. [co_capture] captures {e now} and
    returns the thunk that writes that state back; [co_fingerprint]
    digests the live state (the roundtrip oracle). Component captures and
    restores are host-side: they charge no model cycles and emit no
    observability events of their own. *)
type component = {
  co_name : string;
  co_capture : unit -> unit -> unit;
  co_fingerprint : unit -> int64;
}

(** A snapshotable board: architecture and board identity (checked on
    restore and load), the machine memory, the stateful components in
    restore order ({e kernel last}), and the live process count (pristine
    gate for {!save}). *)
type target = {
  tg_arch : string;  (** e.g. ["armv7m"], ["armv8m"], ["rv32-pmp"] *)
  tg_board : string;  (** the board constructor's name *)
  tg_mem : Memory.t;
  tg_components : component list;
  tg_proc_count : unit -> int;
}

type t = {
  sn_arch : string;
  sn_board : string;
  sn_procs : int;  (** process count at capture (pristine gate) *)
  sn_mem : Memory.snapshot;
  sn_restores : (string * (unit -> unit)) list;  (** component order *)
}

(** Splice extra components (capsule-owned devices like UARTs and GPIO
    banks, which only the capsule set knows about) into a board's target,
    {e before} the final component — the kernel stays last, preserving the
    restore-order contract. *)
let add_components target extra =
  let components =
    match List.rev target.tg_components with
    | last :: rev_init -> List.rev rev_init @ extra @ [ last ]
    | [] -> extra
  in
  { target with tg_components = components }

let fingerprint target =
  List.fold_left
    (fun h c -> Fp.int64 (Fp.string h c.co_name) (c.co_fingerprint ()))
    (Fp.int64
       (Fp.string (Fp.string Fp.seed target.tg_arch) target.tg_board)
       (Memory.fingerprint target.tg_mem))
    target.tg_components

let capture target =
  {
    sn_arch = target.tg_arch;
    sn_board = target.tg_board;
    sn_procs = target.tg_proc_count ();
    sn_mem = Memory.capture target.tg_mem;
    sn_restores =
      List.map (fun c -> (c.co_name, c.co_capture ())) target.tg_components;
  }

let check_identity ~what target ~arch ~board =
  if arch <> target.tg_arch then
    invalid_arg
      (Printf.sprintf "Snapshot.%s: architecture mismatch (snapshot %s, board %s)" what arch
         target.tg_arch);
  if board <> target.tg_board then
    invalid_arg
      (Printf.sprintf "Snapshot.%s: board mismatch (snapshot %s, board %s)" what board
         target.tg_board)

(** [restore ?keep target snap]. With [~keep], the live memory pages of
    that page-aligned range survive the restore (see {!Memory.restore}) —
    a power-cut board keeps its flash. *)
let restore ?keep target t =
  check_identity ~what:"restore" target ~arch:t.sn_arch ~board:t.sn_board;
  (* Memory first: flushes the decision cache and bumps the code
     generation, so nothing cached against pre-restore bytes survives.
     Then the components in capture order — the MPU's configuration id
     follows its restored registers, and the kernel runs last, restoring
     the obs recorder ring over the memory-restore flush event. *)
  Memory.restore ?keep target.tg_mem t.sn_mem;
  List.iter (fun (_, thunk) -> thunk ()) t.sn_restores

(** [fork target snap f]: restore and run one campaign round. The named
    entry point for the boot-once/fork-per-round pattern; exactly
    [restore] followed by [f ()]. *)
let fork target t f =
  restore target t;
  f ()

(* --- the on-disk format --- *)

let magic = "TICKSNAP"
let version = 1

(** Digest of the compiled-in memory map. Two builds agree on this iff
    flash/SRAM bases and sizes and the kernel/app split all agree — the
    precondition for a pristine memory image meaning the same thing. *)
let layout_fingerprint () =
  let range h r = Fp.int (Fp.int h (Range.start r)) (Range.size r) in
  List.fold_left range
    (Fp.ints Fp.seed
       [ Layout.flash_base; Layout.flash_size; Layout.sram_base; Layout.sram_size ])
    [ Layout.kernel_flash; Layout.kernel_sram; Layout.app_flash; Layout.app_sram ]

type header = {
  hd_version : int;
  hd_arch : string;
  hd_board : string;
  hd_layout_fp : int64;
  hd_mem_fp : int64;
}

let save target path =
  let procs = target.tg_proc_count () in
  if procs > 0 then
    invalid_arg
      (Printf.sprintf
         "Snapshot.save: board has %d live process(es); on-disk snapshots must be pristine \
          (capture before loading processes)"
         procs);
  let snap = Memory.capture target.tg_mem in
  let header =
    {
      hd_version = version;
      hd_arch = target.tg_arch;
      hd_board = target.tg_board;
      hd_layout_fp = layout_fingerprint ();
      hd_mem_fp = Memory.fingerprint target.tg_mem;
    }
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      Marshal.to_channel oc header [];
      Marshal.to_channel oc (Memory.snapshot_pages snap) [])

(* A file cut short raises [End_of_file] (before a value) or [Failure]
   (inside one) from the channel readers; both are the same refusal. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        let m = really_input_string ic (String.length magic) in
        if m <> magic then invalid_arg ("Snapshot.load: not a snapshot file: " ^ path);
        let header : header = Marshal.from_channel ic in
        if header.hd_version <> version then
          invalid_arg
            (Printf.sprintf "Snapshot.load: unsupported version %d (supported: %d)"
               header.hd_version version);
        let pages : (int * string) list = Marshal.from_channel ic in
        (header, pages)
      with End_of_file | Failure _ ->
        invalid_arg ("Snapshot.load: truncated snapshot file: " ^ path))

(** Inspect a snapshot file's header without needing a board. *)
let describe path =
  let header, pages = read_file path in
  (header, List.length pages)

(** Load a pristine on-disk snapshot onto a freshly-booted [target].
    Refuses (raises [Invalid_argument]) on magic/version/arch/board/layout
    mismatch, and verifies the restored memory fingerprint against the
    header before returning. *)
let load target path =
  let header, pages = read_file path in
  check_identity ~what:"load" target ~arch:header.hd_arch ~board:header.hd_board;
  if header.hd_layout_fp <> layout_fingerprint () then
    invalid_arg "Snapshot.load: memory-layout mismatch (snapshot built against a different map)";
  Memory.restore target.tg_mem (Memory.snapshot_of_pages pages);
  let live_fp = Memory.fingerprint target.tg_mem in
  if live_fp <> header.hd_mem_fp then
    invalid_arg
      (Printf.sprintf "Snapshot.load: memory fingerprint mismatch (header %s, restored %s)"
         (Fp.to_hex header.hd_mem_fp) (Fp.to_hex live_fp))

(* --- the pristine-image registry --- *)

(** Per-worker registry of pristine post-boot images, keyed by board name:
    the fleet orchestrator boots each (arch, board) combination {e once}
    per worker, captures the post-boot snapshot, and restores it in front
    of every campaign cell scheduled onto that worker — thousands of
    board-instances for the price of a handful of boots. Registries are
    not thread-safe and are meant to be worker-local (one per domain);
    the boot/fork counters feed the fleet's host-side metrics. *)
module Registry = struct
  type snap = t

  type 'a entry = {
    re_payload : 'a;  (** whatever the boot produced, typically an [Instance.t] *)
    re_target : target;
    re_snap : snap;  (** the pristine post-boot image *)
    mutable re_forks : int;
  }

  type 'a t = {
    rg_tbl : (string, 'a entry) Hashtbl.t;
    mutable rg_boots : int;
  }

  let create () = { rg_tbl = Hashtbl.create 8; rg_boots = 0 }
  let boots r = r.rg_boots
  let forks r = Hashtbl.fold (fun _ e acc -> acc + e.re_forks) r.rg_tbl 0

  (** [find_or_boot r key ~boot] returns the registered entry for [key],
      booting (and capturing the pristine image of) a fresh board via
      [boot] on first use. [boot] must return the payload and its
      snapshot target {e post-boot, pre-load} — the captured image is
      what every subsequent {!fork} restores. *)
  let find_or_boot r key ~boot =
    match Hashtbl.find_opt r.rg_tbl key with
    | Some e -> e
    | None ->
      let payload, target = boot () in
      let e = { re_payload = payload; re_target = target; re_snap = capture target; re_forks = 0 } in
      Hashtbl.add r.rg_tbl key e;
      r.rg_boots <- r.rg_boots + 1;
      e

  (** [fork e f]: restore the entry's pristine image and run one campaign
      cell — the registry-level twin of the top-level {!val:fork}. *)
  let fork e f =
    e.re_forks <- e.re_forks + 1;
    restore e.re_target e.re_snap;
    f e.re_payload
end
