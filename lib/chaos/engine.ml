(** The seeded, deterministic fault-injection engine.

    A fault plan is drawn up-front from a [Random.State] seeded by the
    campaign, then replayed against a running board through the two
    {!Ticktock.Chaos_intf} hooks the kernel polls:

    - {b tick-driven} faults fire from [ch_tick] (once per kernel tick,
      before capsules): memory bit flips in app/kernel SRAM and transient
      device errors (UART shifter stuck busy, RNG entropy stall, IPC
      shared-buffer copy NACK, DMA bus NACK);
    - {b slice-driven} faults fire from [ch_pre_slice] (right after the
      kernel configured the MPU for the process about to run): MPU register
      corruption in the live register file, and CPU-level perturbations
      (spurious SysTick/SVC, a dropped SysTick, a corrupted EXC_RETURN).

    Everything the engine does is a function of the seed and the board's
    own deterministic execution, so a campaign replays byte-for-byte.

    Memory flips use the raw (MPU-bypassing) {!Mach.Memory} byte path, the
    same one DMA masters use: a flip landing in a registered code page
    bumps the code generation and thereby invalidates both the bus's
    access-decision cache lines and the CPU's decoded-instruction cache for
    that page. MPU corruption goes through each model's register-write
    front door ([write_region] / [set_entry]) exactly like a real
    reconfiguration — a changed register moves the model's configuration
    id, so access decisions cached under the old contents stop validating,
    and malformed values the hardware would reject raise and are recorded
    as rejected (masked at the injection site). *)

open Ticktock

type kind =
  | Mem_flip  (** one bit in app or kernel SRAM *)
  | Mpu_corrupt  (** one live MPU/PMP register, via the arch hook *)
  | Cpu_spurious_systick
  | Cpu_spurious_svc
  | Cpu_drop_systick
  | Cpu_corrupt_exc_return
  | Dev_uart_busy
  | Dev_rng_stall
  | Dev_ipc_nack
  | Dev_dma_nack

let kind_name = function
  | Mem_flip -> "mem-flip"
  | Mpu_corrupt -> "mpu-corrupt"
  | Cpu_spurious_systick -> "spurious-systick"
  | Cpu_spurious_svc -> "spurious-svc"
  | Cpu_drop_systick -> "dropped-systick"
  | Cpu_corrupt_exc_return -> "corrupt-exc-return"
  | Dev_uart_busy -> "uart-busy"
  | Dev_rng_stall -> "rng-stall"
  | Dev_ipc_nack -> "ipc-copy-nack"
  | Dev_dma_nack -> "dma-nack"

type injection = {
  inj_id : int;
  inj_kind : kind;
  inj_tick : int;  (** kernel tick at injection *)
  inj_pid : int option;
      (** the process attributable at injection time: the owner of a
          flipped byte, or the process whose slice was perturbed *)
  inj_effective : bool;
      (** [false] when the fault could not land — the register file
          rejected a malformed write, or no target existed *)
  inj_detail : string;
}

(** What the engine needs from a concrete board; built by {!Targets}. *)
type hooks = {
  hk_mem : Memory.t;
  hk_blocks : unit -> (int * Word32.t * int) list;
      (** live process memory blocks: pid, start, size *)
  hk_kernel_sram : Range.t;
  hk_corrupt_mpu : Random.State.t -> (string, string) result;
      (** flip one bit of one live MPU register through the model's write
          path; [Error reason] when the hardware rejected the value *)
  hk_uart_busy : cycles:int -> unit;
  hk_rng_stall : int ref;
  hk_ipc_nack : int ref;
  hk_dma_nack : (unit -> unit) option;
  hk_obs : Obs.Event.sink option;
}

type t = {
  rng : Random.State.t;
  chaos : Chaos_intf.t;
  hooks : hooks;
  tick_gap : int;
  slice_gap : int;
  mutable tick_queue : kind list;
  mutable tick_countdown : int;
  mutable slice_queue : kind list;
  mutable slice_countdown : int;
  mutable log : injection list;  (* newest first *)
  mutable next_id : int;
}

let default_mix =
  [
    (Mem_flip, 26);
    (Mpu_corrupt, 22);
    (Cpu_spurious_systick, 7);
    (Cpu_spurious_svc, 7);
    (Cpu_drop_systick, 5);
    (Cpu_corrupt_exc_return, 7);
    (Dev_uart_busy, 7);
    (Dev_rng_stall, 7);
    (Dev_ipc_nack, 7);
    (Dev_dma_nack, 5);
  ]

let is_slice_kind = function
  | Mpu_corrupt | Cpu_spurious_systick | Cpu_spurious_svc | Cpu_drop_systick
  | Cpu_corrupt_exc_return ->
    true
  | Mem_flip | Dev_uart_busy | Dev_rng_stall | Dev_ipc_nack | Dev_dma_nack -> false

let draw_kind rng mix total =
  let r = Random.State.int rng total in
  let rec go acc = function
    | [] -> assert false
    | (k, w) :: rest -> if r < acc + w then k else go (acc + w) rest
  in
  go 0 mix

let record t ~kind ~tick ~pid ~effective ~info detail =
  let inj =
    {
      inj_id = t.next_id;
      inj_kind = kind;
      inj_tick = tick;
      inj_pid = pid;
      inj_effective = effective;
      inj_detail = detail;
    }
  in
  t.next_id <- t.next_id + 1;
  t.log <- inj :: t.log;
  if effective then begin
    t.chaos.Chaos_intf.ch_injected <- t.chaos.Chaos_intf.ch_injected + 1;
    match t.hooks.hk_obs with
    | None -> ()
    | Some emit ->
      emit
        (Obs.Event.Chaos_injected
           { kind = kind_name kind; target = Option.value pid ~default:(-1); info })
  end

let fire_tick_fault t ~tick kind =
  match kind with
  | Mem_flip ->
    let blocks = t.hooks.hk_blocks () in
    let n = List.length blocks in
    (* mostly app SRAM (a live process block), sometimes the kernel's *)
    let pid, start, size =
      if n = 0 || Random.State.int t.rng 8 = 0 then
        ( None,
          Range.start t.hooks.hk_kernel_sram,
          Range.size t.hooks.hk_kernel_sram )
      else
        let p, s, z = List.nth blocks (Random.State.int t.rng n) in
        (Some p, s, z)
    in
    let addr = Word32.add start (Random.State.int t.rng size) in
    let bit = Random.State.int t.rng 8 in
    let v = Memory.read8 t.hooks.hk_mem addr in
    Memory.write8 t.hooks.hk_mem addr (v lxor (1 lsl bit));
    record t ~kind ~tick ~pid ~effective:true ~info:bit
      (Printf.sprintf "bit %d at %s%s" bit (Word32.to_hex addr)
         (if pid = None then " (kernel sram)" else ""))
  | Dev_uart_busy ->
    let cycles = 200 + Random.State.int t.rng 1800 in
    t.hooks.hk_uart_busy ~cycles;
    record t ~kind ~tick ~pid:None ~effective:true ~info:cycles
      (Printf.sprintf "shifter busy +%d cycles" cycles)
  | Dev_rng_stall ->
    let stalls = 1 + Random.State.int t.rng 3 in
    t.hooks.hk_rng_stall := !(t.hooks.hk_rng_stall) + stalls;
    record t ~kind ~tick ~pid:None ~effective:true ~info:stalls
      (Printf.sprintf "entropy dry for %d gets" stalls)
  | Dev_ipc_nack ->
    let nacks = 1 + Random.State.int t.rng 3 in
    t.hooks.hk_ipc_nack := !(t.hooks.hk_ipc_nack) + nacks;
    record t ~kind ~tick ~pid:None ~effective:true ~info:nacks
      (Printf.sprintf "%d copy NACKs" nacks)
  | Dev_dma_nack -> (
    match t.hooks.hk_dma_nack with
    | Some f ->
      f ();
      record t ~kind ~tick ~pid:None ~effective:true ~info:1 "bus NACKs next burst"
    | None -> record t ~kind ~tick ~pid:None ~effective:false ~info:0 "no dma engine")
  | Mpu_corrupt | Cpu_spurious_systick | Cpu_spurious_svc | Cpu_drop_systick
  | Cpu_corrupt_exc_return ->
    assert false

let fire_slice_fault t ~pid ~tick kind =
  match kind with
  | Mpu_corrupt ->
    (match t.hooks.hk_corrupt_mpu t.rng with
    | Ok detail ->
      (* stamp for the scrubber's detection-latency measurement *)
      t.chaos.Chaos_intf.ch_mpu_injected_at <- Some (Cycles.read Cycles.global);
      record t ~kind ~tick ~pid:(Some pid) ~effective:true ~info:0 detail
    | Error why ->
      record t ~kind ~tick ~pid:(Some pid) ~effective:false ~info:0 ("rejected: " ^ why));
    Chaos_intf.P_none
  | Cpu_spurious_systick ->
    record t ~kind ~tick ~pid:(Some pid) ~effective:true ~info:0 "slice preempted at entry";
    Chaos_intf.P_spurious_systick
  | Cpu_spurious_svc ->
    record t ~kind ~tick ~pid:(Some pid) ~effective:true ~info:0 "absorbed exception round-trip";
    Chaos_intf.P_spurious_svc
  | Cpu_drop_systick ->
    record t ~kind ~tick ~pid:(Some pid) ~effective:true ~info:0 "slice runs unpreempted";
    Chaos_intf.P_drop_systick
  | Cpu_corrupt_exc_return ->
    let v = 0xFFFF_0000 lor Random.State.int t.rng 0x1_0000 in
    record t ~kind ~tick ~pid:(Some pid) ~effective:true ~info:v
      (Printf.sprintf "EXC_RETURN := %s" (Word32.to_hex v));
    Chaos_intf.P_corrupt_exc_return v
  | Mem_flip | Dev_uart_busy | Dev_rng_stall | Dev_ipc_nack | Dev_dma_nack ->
    assert false

let on_tick t ~tick =
  match t.tick_queue with
  | [] -> ()
  | k :: rest ->
    t.tick_countdown <- t.tick_countdown - 1;
    if t.tick_countdown <= 0 then begin
      t.tick_queue <- rest;
      t.tick_countdown <- 1 + Random.State.int t.rng t.tick_gap;
      fire_tick_fault t ~tick k
    end

let on_pre_slice t ~pid ~tick =
  match t.slice_queue with
  | [] -> Chaos_intf.P_none
  | k :: rest ->
    t.slice_countdown <- t.slice_countdown - 1;
    if t.slice_countdown <= 0 then begin
      t.slice_queue <- rest;
      t.slice_countdown <- 1 + Random.State.int t.rng t.slice_gap;
      fire_slice_fault t ~pid ~tick k
    end
    else Chaos_intf.P_none

let create ~seed ~count ?(mix = default_mix) ?(tick_gap = 6) ?(slice_gap = 12) ~hooks
    (chaos : Chaos_intf.t) =
  let rng = Random.State.make [| 0x71C7; seed |] in
  let total = List.fold_left (fun a (_, w) -> a + w) 0 mix in
  let kinds = List.init count (fun _ -> draw_kind rng mix total) in
  let t =
    {
      rng;
      chaos;
      hooks;
      tick_gap;
      slice_gap;
      tick_queue = List.filter (fun k -> not (is_slice_kind k)) kinds;
      tick_countdown = 1 + Random.State.int rng tick_gap;
      slice_queue = List.filter is_slice_kind kinds;
      slice_countdown = 1 + Random.State.int rng slice_gap;
      log = [];
      next_id = 0;
    }
  in
  chaos.Chaos_intf.ch_tick <- (fun ~tick -> on_tick t ~tick);
  chaos.Chaos_intf.ch_pre_slice <- (fun ~pid ~tick -> on_pre_slice t ~pid ~tick);
  t

let injections t = List.rev t.log

let pending t = List.length t.tick_queue + List.length t.slice_queue
(** faults planned but not yet fired (the run ended first) *)
