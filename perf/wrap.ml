(** Span wrappers around the closures each layer exposes. Every wrapper
    calls the original and only adds timing: a wrapped board produces the
    same outputs, model counters and fingerprints as a plain one, which
    the traced run checks against the untraced one. *)

open Ticktock

let classify : Userland.action -> int = function
  | Userland.Load8 _ | Userland.Store8 _ | Userland.Load32 _ | Userland.Store32 _ -> Span.k_mem
  | Userland.Syscall _ -> Span.k_sys
  | Userland.Compute _ | Userland.Print _ | Userland.Exit _ -> Span.k_other

(** A process program (an [App_dsl] closure) under [userland] spans. *)
let program (p : Userland.program) : Userland.program =
  let id = Span.fresh_prog () in
  fun r -> Span.prog id classify p r

(** A suite app whose program is built under a [load] span: building a
    process's program is part of creating the process. *)
let suite_app (a : Apps.Suite.app) =
  { a with Apps.Suite.script = (fun () -> Span.span Span.load a.Apps.Suite.script) }

(** The board's MPU checker under [mpu] spans. The checker only runs on a
    decision-cache miss, so every span is one full MPU walk. *)
let checker mem =
  match Memory.get_checker mem with
  | None -> ()
  | Some c ->
    Memory.set_checker mem
      (Some { c with Memory.check = (fun a acc -> Span.span Span.mpu (fun () -> c.Memory.check a acc)) })

(** A capsule's syscall-facing hooks under [capsules] spans. The per-tick
    bottom half ([cap_tick]) stays unwrapped: it runs for every capsule on
    every scheduler tick, mostly as a no-op, and a span there would cost
    more than the hook; its time stays in the kernel run's gaps. *)
let capsule (c : Capsule_intf.t) : Capsule_intf.t =
  let sp f = Span.span Span.capsules f in
  {
    c with
    Capsule_intf.cap_command =
      (fun ph ~cmd ~arg1 ~arg2 -> sp (fun () -> c.Capsule_intf.cap_command ph ~cmd ~arg1 ~arg2));
    cap_allowed_ro = (fun ph r -> sp (fun () -> c.Capsule_intf.cap_allowed_ro ph r));
    cap_allowed_rw = (fun ph r -> sp (fun () -> c.Capsule_intf.cap_allowed_rw ph r));
    cap_subscribed = (fun ph ~upcall_id -> sp (fun () -> c.Capsule_intf.cap_subscribed ph ~upcall_id));
    cap_proc_died = (fun ~pid -> sp (fun () -> c.Capsule_intf.cap_proc_died ~pid));
  }

(* Decision-cache and icache counters are read around every run call, so
   the deltas cover exactly the traced kernel work. *)
let count_caches (k : Instance.t) f =
  let h0, m0 = k.Instance.buscache_stats () in
  let i0 = k.Instance.icache_stats () in
  Fun.protect f ~finally:(fun () ->
      let h1, m1 = k.Instance.buscache_stats () in
      Span.count "bus.hits" (h1 - h0);
      Span.count "bus.misses" (m1 - m0);
      match (i0, k.Instance.icache_stats ()) with
      | Some a, Some b ->
        let open Fluxarm.Icache in
        Span.count "icache.hits" (b.hits - a.hits);
        Span.count "icache.misses" (b.misses - a.misses);
        Span.count "icache.link_hits" (b.link_hits - a.link_hits);
        Span.count "icache.link_misses" (b.link_misses - a.link_misses)
      | _ -> ())

(** Wrap an instance's process-creation, run and isolation closures.
    Programs handed to [load]/[load_factory] are wrapped too, so every
    process the board runs is traced. [boot_load] resolves programs
    through the caller's registry, which the caller wraps. Process and
    console queries stay unwrapped: a span costs more than they do. *)
let instance (k : Instance.t) : Instance.t =
  let carry = Span.carry () in
  {
    k with
    Instance.load =
      (fun ~name ~payload ~program:p ~min_ram ~grant_reserve ~heap_headroom ->
        Span.span Span.load (fun () ->
            k.Instance.load ~name ~payload ~program:(program p) ~min_ram ~grant_reserve
              ~heap_headroom));
    load_factory =
      (fun ~name ~payload ~factory ~min_ram ->
        Span.span Span.load (fun () ->
            k.Instance.load_factory ~name ~payload ~factory:(fun () -> program (factory ())) ~min_ram));
    boot_load =
      (fun ~registry ~require_credentials ->
        Span.span Span.load (fun () -> k.Instance.boot_load ~registry ~require_credentials));
    run =
      (fun ~max_ticks ->
        count_caches k (fun () -> Span.run_span carry (fun () -> k.Instance.run ~max_ticks)));
    proc_isolation_ok =
      (fun pid -> Span.span Span.isolation (fun () -> k.Instance.proc_isolation_ok pid));
  }

(** [Capsules.Std_board.make], assembled from the same parts with every
    capsule, the checker and the instance wrapped, under a [boot] span. *)
let board name =
  Span.span Span.boot (fun () ->
      let mk = List.assoc name Capsules.Std_board.builders in
      let caps, devs = Capsules.Board_set.standard ~rng_seed:0x5EED () in
      let k = mk ~capsules:(List.map capsule caps) () in
      let tgt = Option.get k.Instance.snap_target in
      checker tgt.Snapshot.tg_mem;
      instance
        {
          k with
          Instance.snap_target =
            Some (Snapshot.add_components tgt (Capsules.Board_set.components devs));
          reseed = devs.Capsules.Board_set.reseed;
        })

(** A replay session whose step, capture, restore and fingerprint run
    under spans. *)
let session (s : Replayable.t) : Replayable.t =
  {
    s with
    Replayable.rp_step = (fun ~ticks -> Span.span Span.replay_step (fun () -> s.Replayable.rp_step ~ticks));
    rp_capture =
      (fun () ->
        let undo = Span.span Span.capture s.Replayable.rp_capture in
        fun () -> Span.span Span.restore undo);
    rp_fingerprint = (fun () -> Span.span Span.fingerprint s.Replayable.rp_fingerprint);
  }
