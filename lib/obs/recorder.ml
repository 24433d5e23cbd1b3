(* Bounded ring of timestamped events — the cross-layer analog of the
   scheduler-only [Core.Trace]. Timestamps are kernel ticks (model time),
   never host time, so a recording is a pure function of the program run
   and two runs of the same seed export byte-identical traces. *)

type entry = { at : int; event : Event.t }

(* The ring stores events *unboxed*: each record writes the constructor
   tag and up to four int fields into a flat int array (plus one slot in a
   string array for the constructors that carry one). The [Event.t] built
   at the hook site dies in the next minor collection, recorded or not, so
   tracing adds no GC retention — without this, a few thousand live event
   blocks get promoted out of the minor heap and the "enabled" overhead is
   dominated by collector work rather than by the hooks.

   The ring is a table of fixed-size chunks of min(256, capacity) events.
   A chunk is allocated on its first write, so a recorder that records
   little (or nothing — the "disabled" determinism mode attaches one per
   instance) never pays for the full ring. Capacity is rounded up to a
   power of two so the ring index is a mask, not a division, and its chunk
   and slot are a shift and a mask.

   Capture and restore are copy-on-write, as [Mach.Memory]'s pages are:
   [era] advances on every capture and restore, and [owner] maps a chunk
   to the era in which this [t] came to own it exclusively. A capture
   copies the chunk table only (32 pointers at the default capacity), so
   every chunk is then shared with it; a record into a chunk owned in an
   older era clones the chunk first, which costs the recording one int
   compare per event. A capture stays frozen, and a replay session that
   captures and restores at every tick pays for the chunks it writes, not
   for the whole ring. *)

let stride = 6 (* tick, tag, a, b, c, d *)
let chunk_max = 256

type chunk = { ints : int array; (* stride-sized slots *) strs : string array }

(* the table entry of a chunk that was never written *)
let unwritten = { ints = [||]; strs = [||] }

type t = {
  capacity : int;
  mask : int;  (* capacity - 1 *)
  chunk_bits : int;  (* log2 of the events per chunk *)
  chunks : chunk array;
  owner : int array;  (* per chunk: the era this [t] owns it in, -1 if none *)
  mutable era : int;
  mutable next : int;  (* total events offered while enabled *)
  mutable enabled : bool;
}

let rec pow2_above n acc = if acc >= n then acc else pow2_above n (acc * 2)
let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(capacity = 8192) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  let capacity = pow2_above capacity 1 in
  let chunk_bits = log2 (min chunk_max capacity) in
  let n = capacity lsr chunk_bits in
  {
    capacity;
    mask = capacity - 1;
    chunk_bits;
    chunks = Array.make n unwritten;
    owner = Array.make n (-1);
    era = 0;
    next = 0;
    enabled = true;
  }

let capacity t = t.capacity
let enabled t = t.enabled

(* ring index -> offset in its chunk (the chunk is [i lsr chunk_bits]) *)
let slot t i = i land ((1 lsl t.chunk_bits) - 1)
let set_enabled t on = t.enabled <- on

(* Make chunk [c] private to the current era: allocate it on its first
   write, clone it if a capture may share it. *)
let own t c =
  let old = t.chunks.(c) in
  let fresh =
    if old == unwritten then begin
      let size = 1 lsl t.chunk_bits in
      { ints = Array.make (size * stride) 0; strs = Array.make size "" }
    end
    else { ints = Array.copy old.ints; strs = Array.copy old.strs }
  in
  t.chunks.(c) <- fresh;
  t.owner.(c) <- t.era;
  fresh

(* Own every chunk up front. Recording allocates or clones a chunk on its
   first write in an era, each a fresh array plus a copy; a harness that
   wants the steady-state recording cost — the overhead bench — can pay
   for the whole ring before the timed region instead. *)
let reserve t =
  Array.iteri (fun c e -> if e <> t.era then ignore (own t c)) t.owner

let int_of_bool b = if b then 1 else 0

let record t ~tick event =
  if t.enabled then begin
    let i = t.next land t.mask in
    let ci = i lsr t.chunk_bits in
    let ch = if t.owner.(ci) = t.era then t.chunks.(ci) else own t ci in
    let j = slot t i in
    let base = j * stride in
    let tag, a, b, c, d, s =
      match event with
      | Event.Proc_created { pid; name } -> (0, pid, 0, 0, 0, name)
      | Event.Scheduled { pid } -> (1, pid, 0, 0, 0, "")
      | Event.Syscall { pid; call; result } -> (2, pid, result, 0, 0, call)
      | Event.Upcall { pid; upcall_id; arg } -> (3, pid, upcall_id, arg, 0, "")
      | Event.Faulted { pid; reason } -> (4, pid, 0, 0, 0, reason)
      | Event.Exited { pid; code } -> (5, pid, code, 0, 0, "")
      | Event.Restarted { pid } -> (6, pid, 0, 0, 0, "")
      | Event.Switch_to_user { pid } -> (7, pid, 0, 0, 0, "")
      | Event.Exc_entry { exc } -> (8, exc, 0, 0, 0, "")
      | Event.Exc_return { to_handler } -> (9, int_of_bool to_handler, 0, 0, 0, "")
      | Event.Mpu_region_write { arch; index; generation } -> (10, index, generation, 0, 0, arch)
      | Event.Mpu_enable { arch; on; generation } ->
          (11, int_of_bool on, generation, 0, 0, arch)
      | Event.Region_update { start; size; app_break; kernel_break } ->
          (12, start, size, app_break, kernel_break, "")
      | Event.Grant_placed { addr; size } -> (13, addr, size, 0, 0, "")
      | Event.Brk { pid; app_break; ok } -> (14, pid, app_break, int_of_bool ok, 0, "")
      | Event.Grant { pid; driver; addr; ok } -> (15, pid, driver, addr, int_of_bool ok, "")
      | Event.Buscache_flush { reason } -> (16, 0, 0, 0, 0, reason)
      | Event.Icache_invalidated { generation; addr } -> (17, generation, addr, 0, 0, "")
      | Event.Contract_failed { site } -> (18, 0, 0, 0, 0, site)
      | Event.Chaos_injected { kind; target; info } -> (19, target, info, 0, 0, kind)
      | Event.Mpu_scrub { pid; mismatched; repaired; latency } ->
          (20, pid, mismatched, int_of_bool repaired, latency, "")
      | Event.Watchdog_fired { pid; ran } -> (21, pid, ran, 0, 0, "")
    in
    let ints = ch.ints in
    ints.(base) <- tick;
    ints.(base + 1) <- tag;
    ints.(base + 2) <- a;
    ints.(base + 3) <- b;
    ints.(base + 4) <- c;
    ints.(base + 5) <- d;
    ch.strs.(j) <- s;
    t.next <- t.next + 1
  end

(* The event in ring slot [i] (which must have been written). *)
let event_at t i =
  let ch = t.chunks.(i lsr t.chunk_bits) in
  let j = slot t i in
  let base = j * stride in
  let ints = ch.ints in
  let a = ints.(base + 2)
  and b = ints.(base + 3)
  and c = ints.(base + 4)
  and d = ints.(base + 5)
  and s = ch.strs.(j) in
  match ints.(base + 1) with
  | 0 -> Event.Proc_created { pid = a; name = s }
  | 1 -> Event.Scheduled { pid = a }
  | 2 -> Event.Syscall { pid = a; call = s; result = b }
  | 3 -> Event.Upcall { pid = a; upcall_id = b; arg = c }
  | 4 -> Event.Faulted { pid = a; reason = s }
  | 5 -> Event.Exited { pid = a; code = b }
  | 6 -> Event.Restarted { pid = a }
  | 7 -> Event.Switch_to_user { pid = a }
  | 8 -> Event.Exc_entry { exc = a }
  | 9 -> Event.Exc_return { to_handler = a <> 0 }
  | 10 -> Event.Mpu_region_write { arch = s; index = a; generation = b }
  | 11 -> Event.Mpu_enable { arch = s; on = a <> 0; generation = b }
  | 12 -> Event.Region_update { start = a; size = b; app_break = c; kernel_break = d }
  | 13 -> Event.Grant_placed { addr = a; size = b }
  | 14 -> Event.Brk { pid = a; app_break = b; ok = c <> 0 }
  | 15 -> Event.Grant { pid = a; driver = b; addr = c; ok = d <> 0 }
  | 16 -> Event.Buscache_flush { reason = s }
  | 17 -> Event.Icache_invalidated { generation = a; addr = b }
  | 18 -> Event.Contract_failed { site = s }
  | 19 -> Event.Chaos_injected { kind = s; target = a; info = b }
  | 20 -> Event.Mpu_scrub { pid = a; mismatched = b; repaired = c <> 0; latency = d }
  | 21 -> Event.Watchdog_fired { pid = a; ran = b }
  | _ -> assert false

(* Ring capture/restore for the board snapshot subsystem, copy-on-write
   (see above): both bump the era, so every chunk the two tables share is
   cloned before its next write. Restore writes back through the same [t],
   so the sinks the layers were wired with keep recording into the
   restored ring. *)
type captured = { cap_chunks : chunk array; cap_next : int; cap_enabled : bool }

let capture t =
  t.era <- t.era + 1;
  { cap_chunks = Array.copy t.chunks; cap_next = t.next; cap_enabled = t.enabled }

let restore t c =
  t.era <- t.era + 1;
  Array.blit c.cap_chunks 0 t.chunks 0 (Array.length t.chunks);
  t.next <- c.cap_next;
  t.enabled <- c.cap_enabled

let recorded t = min t.next t.capacity
let dropped t = max 0 (t.next - t.capacity)

(* Back to an empty ring: every chunk is dropped, to be allocated afresh
   on its next write. *)
let clear t =
  Array.fill t.chunks 0 (Array.length t.chunks) unwritten;
  Array.fill t.owner 0 (Array.length t.owner) (-1);
  t.next <- 0

(* Oldest-first. *)
let entries t =
  let n = recorded t in
  let first = if t.next > t.capacity then t.next land t.mask else 0 in
  List.init n (fun i ->
      let j = (first + i) land t.mask in
      { at = t.chunks.(j lsr t.chunk_bits).ints.(slot t j * stride); event = event_at t j })

let events t = List.map (fun e -> e.event) (entries t)

(* Build the sink closure the layers are wired with. [now] reads the
   owning kernel's tick counter at emission time. *)
let sink t ~now = fun event -> record t ~tick:(now ()) event

let pp ppf t =
  let es = entries t in
  Format.fprintf ppf "@[<v>obs trace: %d recorded, %d dropped@," (recorded t) (dropped t);
  List.iter (fun e -> Format.fprintf ppf "%6d  %a@," e.at Event.pp e.event) es;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
