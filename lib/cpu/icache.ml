(* Decoded-instruction, basic-block and trace-link caches for the Mc
   engine. See icache.mli for the invalidation story. *)

(* The stop type lives here (rather than in Mc) so compiled micro-ops —
   built by Cpu, stored in blocks — can return it without a dependency
   cycle. Mc re-exports it under its historical name. *)
type stop =
  | Svc_taken of int
  | Exc_return of Word32.t
  | Bx_reg of Word32.t
  | Decode_error of string
  | Out_of_fuel

type entry = {
  eaddr : Word32.t;
  instr : Thumb.instr;
  isize : int;
  next_pc : Word32.t;  (* eaddr + isize, precomputed for the dispatcher *)
}

(* How a block hands control to its successor — decided once at publish
   from the final instruction, so the dispatcher picks a link slot with
   one enum compare instead of re-inspecting the instruction. *)
type term =
  | Term_fall  (* no control transfer (cap/granule end): successor is fall_pc *)
  | Term_cond  (* B_cond: successor is fall_pc or taken_pc *)
  | Term_exit  (* isb/svc/bx/pop-pc: never linked (isb is the privilege commit point) *)

type block = {
  start : Word32.t;
  entries : entry array;
  byte_len : int;
  built_gen : int;
  (* permission stamp: the (checker epoch, generation, privilege) under
     which every halfword of the block was last execute-checked. MPU
     reprogramming or a privilege flip invalidates only this stamp; the
     decoded bodies stay until the underlying bytes change. *)
  mutable stamp_epoch : int;
  mutable stamp_gen : int;
  mutable stamp_priv : int;
  (* compiled macro-ops (see Cpu.compile_block): consecutive pure ALU
     instructions fused into one closure, everything else one closure per
     instruction. Parallel arrays give the instruction count of each
     macro-op and whether it can write memory (and hence bump the code
     generation — the only points where a mid-block re-validation is
     needed). [entries] stay the interpreted form, for a dispatch whose
     remaining fuel is shorter than the block. *)
  ops : (unit -> stop option) array;
  wmask : bool array;
  mcount : int array;
  (* trace links: host-side successor pointers in QEMU-TB-chaining style.
     Pure cache state — validated against (built_gen, stamp triple) at
     every follow, severed by reset, never part of any snapshot. *)
  term : term;
  fall_pc : Word32.t;
  taken_pc : Word32.t;  (* meaningful only when term = Term_cond *)
  mutable link_next : block option;
  mutable link_taken : block option;
}

let no_stamp = min_int

(* Direct-mapped tables; PCs are halfword-aligned so index on pc/2. *)
let block_bits = 11
let block_slots = 1 lsl block_bits
let dec_bits = 12
let dec_slots = 1 lsl dec_bits

(* log2 buckets for the trace-length histogram, same convention as
   Obs.Metrics: bucket i counts traces whose block count has bit length i. *)
let th_buckets = 32

(* --- coverage map (AFL-style) ---

   Host-side (block-entry, edge) hit maps over the dispatch stream. Two
   2^cov_bits maps of saturating byte counts, kept end to end in one
   buffer: block slots [0, cov_slots) indexed by a multiplicative hash of
   the block start PC, edge slots [cov_slots, 2*cov_slots) by
   [cur lxor (prev lsr 1)] in the classic AFL scheme (the shift makes
   A->B and B->A distinct, and A->A nonzero). Every slot is logged the
   first time it lights, so reset, classify and count walk the slots an
   exec touched — a few dozen — instead of the 128 KiB of map. Allocated
   only when coverage is switched on, so the default-path cost is one
   [None] check per block dispatch. Never part of any snapshot,
   fingerprint or model-visible metric. *)
let cov_bits = 16
let cov_slots = 1 lsl cov_bits

type cov = {
  cv_map : Bytes.t;  (* block map, then edge map *)
  mutable cv_log : int array;  (* slots lit since the last reset, in first-light order *)
  mutable cv_lit : int;  (* used prefix of [cv_log] *)
  mutable cv_prev : int;
  mutable cv_block_hits : int;  (* exact totals; the byte maps saturate *)
  mutable cv_edge_hits : int;
}

type t = {
  mutable enabled : bool;
  mutable cov : cov option;
  blocks : block option array;
  dec_addr : int array;  (* -1 = empty *)
  dec_gen : int array;
  dec_instr : Thumb.instr array;
  dec_size : int array;
  mutable block_hits : int;
  mutable block_misses : int;
  mutable cached_instrs : int;  (* instructions dispatched from cached blocks *)
  mutable total_instrs : int;  (* all instructions executed through [Mc.run] *)
  mutable link_hits : int;
  mutable link_misses : int;
  mutable link_flushes : int;
  mutable traces : int;
  mutable trace_blocks : int;
  mutable tl_min : int;
  mutable tl_max : int;
  trace_hist : int array;
}

let create () =
  {
    enabled = true;
    cov = None;
    blocks = Array.make block_slots None;
    dec_addr = Array.make dec_slots (-1);
    dec_gen = Array.make dec_slots (-1);
    dec_instr = Array.make dec_slots Thumb.Nop;
    dec_size = Array.make dec_slots 0;
    block_hits = 0;
    block_misses = 0;
    cached_instrs = 0;
    total_instrs = 0;
    link_hits = 0;
    link_misses = 0;
    link_flushes = 0;
    traces = 0;
    trace_blocks = 0;
    tl_min = 0;
    tl_max = 0;
    trace_hist = Array.make th_buckets 0;
  }

let set_enabled t v = t.enabled <- v
let enabled t = t.enabled

(* --- coverage --- *)

let set_coverage t v =
  match (v, t.cov) with
  | true, None ->
    t.cov <-
      Some
        {
          cv_map = Bytes.make (2 * cov_slots) '\000';
          cv_log = Array.make 64 0;
          cv_lit = 0;
          cv_prev = 0;
          cv_block_hits = 0;
          cv_edge_hits = 0;
        }
  | true, Some _ -> ()
  | false, _ -> t.cov <- None

let coverage t = t.cov <> None

let cov_reset t =
  match t.cov with
  | None -> ()
  | Some c ->
    for i = 0 to c.cv_lit - 1 do
      Bytes.unsafe_set c.cv_map (Array.unsafe_get c.cv_log i) '\000'
    done;
    c.cv_lit <- 0;
    c.cv_prev <- 0;
    c.cv_block_hits <- 0;
    c.cv_edge_hits <- 0

(* Fibonacci-hash the halfword index of the block start into the map.
   Flash PCs span a few KiB, so after the multiply the top [cov_bits] of
   the low 32 carry well-mixed entropy. *)
let cov_hash pc = ((pc lsr 1) * 0x9E3779B1) lsr (32 - cov_bits) land (cov_slots - 1)

(* A slot lit for the first time since the last reset joins the log. The
   log never holds a slot twice, so it is at most [2 * cov_slots] long. *)
let log_slot c i =
  if c.cv_lit = Array.length c.cv_log then begin
    let log = Array.make (2 * c.cv_lit) 0 in
    Array.blit c.cv_log 0 log 0 c.cv_lit;
    c.cv_log <- log
  end;
  Array.unsafe_set c.cv_log c.cv_lit i;
  c.cv_lit <- c.cv_lit + 1

let sat_incr c i =
  let v = Char.code (Bytes.unsafe_get c.cv_map i) in
  if v < 255 then begin
    Bytes.unsafe_set c.cv_map i (Char.unsafe_chr (v + 1));
    if v = 0 then log_slot c i
  end

let note c pc =
  let cur = cov_hash pc in
  sat_incr c cur;
  sat_incr c (cov_slots + (cur lxor c.cv_prev));
  c.cv_prev <- cur lsr 1;
  c.cv_block_hits <- c.cv_block_hits + 1;
  c.cv_edge_hits <- c.cv_edge_hits + 1

(* Every block dispatch calls this. With coverage off it is one [None]
   check and a return, and needs no stack frame. *)
let cov_note t pc = match t.cov with None -> () | Some c -> note c pc

(* AFL's 8-class count bucketing: a slot's saturating count collapses to
   a one-bit-per-class byte, so "this edge fired 4 times" and "5 times"
   look the same while 1 vs 2 vs 3 vs 4+ transitions still count as new
   behaviour. *)
(* AFL's ladder, but strictly power-of-two above 3 (AFL merges 32..127
   into one class): a schedule that runs twice as long always crosses a
   class boundary, so doubling a kept input is always a discovery until
   the byte saturates — the property the evolutionary loop climbs on. *)
let classify v =
  if v = 0 then 0
  else if v = 1 then 1
  else if v = 2 then 2
  else if v = 3 then 4
  else if v < 8 then 8
  else if v < 16 then 16
  else if v < 32 then 32
  else if v < 64 then 64
  else if v < 128 then 128
  else 256

(* Sparse classified export: (slot, class) pairs in ascending slot order,
   block slots [0, cov_slots), edge slots offset by [cov_slots]. A round
   lights a few hundred slots out of 128k, so sparse keeps per-input
   results small enough to ship through the pool and the corpus store. *)
let cov_classified t =
  match t.cov with
  | None -> [||]
  | Some c ->
    let slots = Array.sub c.cv_log 0 c.cv_lit in
    Array.sort Int.compare slots;
    Array.map (fun i -> (i, classify (Char.code (Bytes.unsafe_get c.cv_map i)))) slots

type cov_counts = { cc_blocks_lit : int; cc_edges_lit : int; cc_block_hits : int; cc_edge_hits : int }

let cov_counts t =
  match t.cov with
  | None -> { cc_blocks_lit = 0; cc_edges_lit = 0; cc_block_hits = 0; cc_edge_hits = 0 }
  | Some c ->
    let blocks = ref 0 in
    for i = 0 to c.cv_lit - 1 do
      if c.cv_log.(i) < cov_slots then incr blocks
    done;
    {
      cc_blocks_lit = !blocks;
      cc_edges_lit = c.cv_lit - !blocks;
      cc_block_hits = c.cv_block_hits;
      cc_edge_hits = c.cv_edge_hits;
    }

(* Sever every trace link before dropping the block array: a block that
   outlives the reset in some caller's hands must not keep a chain of
   stale successors reachable (for the GC, and for any dispatcher that
   might still hold it across the reset). *)
let sever_links t =
  Array.iter
    (function
      | None -> ()
      | Some b ->
        b.link_next <- None;
        b.link_taken <- None)
    t.blocks

let reset (t : t) =
  sever_links t;
  Array.fill t.blocks 0 block_slots None;
  Array.fill t.dec_addr 0 dec_slots (-1);
  t.block_hits <- 0;
  t.block_misses <- 0;
  t.cached_instrs <- 0;
  t.total_instrs <- 0;
  t.link_hits <- 0;
  t.link_misses <- 0;
  t.link_flushes <- 0;
  t.traces <- 0;
  t.trace_blocks <- 0;
  t.tl_min <- 0;
  t.tl_max <- 0;
  Array.fill t.trace_hist 0 th_buckets 0

type stats = {
  hits : int;
  misses : int;
  cached : int;
  total : int;
  link_hits : int;
  link_misses : int;
  link_flushes : int;
  traces : int;
  trace_blocks : int;
}

let stats (t : t) =
  {
    hits = t.block_hits;
    misses = t.block_misses;
    cached = t.cached_instrs;
    total = t.total_instrs;
    link_hits = t.link_hits;
    link_misses = t.link_misses;
    link_flushes = t.link_flushes;
    traces = t.traces;
    trace_blocks = t.trace_blocks;
  }

type trace_hist = {
  th_count : int;
  th_sum : int;
  th_min : int;
  th_max : int;
  th_buckets : (int * int) list;  (* (inclusive upper bound, count), non-empty only *)
}

let trace_len_summary (t : t) =
  let buckets = ref [] in
  for i = th_buckets - 1 downto 0 do
    if t.trace_hist.(i) > 0 then buckets := ((1 lsl i) - 1, t.trace_hist.(i)) :: !buckets
  done;
  {
    th_count = t.traces;
    th_sum = t.trace_blocks;
    th_min = t.tl_min;
    th_max = t.tl_max;
    th_buckets = !buckets;
  }

let record_hit t n =
  t.block_hits <- t.block_hits + 1;
  t.cached_instrs <- t.cached_instrs + n;
  t.total_instrs <- t.total_instrs + n

let record_miss t = t.block_misses <- t.block_misses + 1
let record_instrs t n = t.total_instrs <- t.total_instrs + n
let record_link_hit (t : t) = t.link_hits <- t.link_hits + 1
let record_link_miss (t : t) = t.link_misses <- t.link_misses + 1
let record_link_flush (t : t) = t.link_flushes <- t.link_flushes + 1

let bucket_of v =
  let v = if v < 0 then 0 else v in
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
  bits v 0

let record_trace (t : t) ~blocks =
  t.traces <- t.traces + 1;
  t.trace_blocks <- t.trace_blocks + blocks;
  if t.traces = 1 then begin
    t.tl_min <- blocks;
    t.tl_max <- blocks
  end
  else begin
    if blocks < t.tl_min then t.tl_min <- blocks;
    if blocks > t.tl_max then t.tl_max <- blocks
  end;
  let b = bucket_of blocks in
  let b = if b >= th_buckets then th_buckets - 1 else b in
  t.trace_hist.(b) <- t.trace_hist.(b) + 1

(* --- decoded-instruction cache --- *)

let dec_idx pc = (pc lsr 1) land (dec_slots - 1)

let probe_decode t ~gen pc =
  let i = dec_idx pc in
  if t.dec_addr.(i) = pc && t.dec_gen.(i) = gen then
    Some (t.dec_instr.(i), t.dec_size.(i))
  else None

let insert_decode t ~gen pc instr isize =
  let i = dec_idx pc in
  t.dec_addr.(i) <- pc;
  t.dec_gen.(i) <- gen;
  t.dec_instr.(i) <- instr;
  t.dec_size.(i) <- isize

(* --- basic-block cache --- *)

let block_idx pc = (pc lsr 1) land (block_slots - 1)

let find_block t ~gen pc =
  match t.blocks.(block_idx pc) with
  | Some b when b.start = pc && b.built_gen = gen -> Some b
  | _ -> None

let publish_block t ~gen pc entries ~compile =
  let entries = Array.of_list (List.rev entries) in
  let byte_len = Array.fold_left (fun acc e -> acc + e.isize) 0 entries in
  let n = Array.length entries in
  if n > 0 then begin
    let last = entries.(n - 1) in
    let term, taken_pc =
      match last.instr with
      | Thumb.B_cond (_, off) -> (Term_cond, Word32.add last.next_pc ((off * 2) + 2))
      | Thumb.Isb | Thumb.Svc _ | Thumb.Bx _ | Thumb.Pop (_, true) -> (Term_exit, 0)
      | _ -> (Term_fall, 0)
    in
    let ops, wmask, mcount = compile entries in
    t.blocks.(block_idx pc) <-
      Some
        {
          start = pc;
          entries;
          byte_len;
          built_gen = gen;
          stamp_epoch = no_stamp;
          stamp_gen = no_stamp;
          stamp_priv = no_stamp;
          ops;
          wmask;
          mcount;
          term;
          fall_pc = last.next_pc;
          taken_pc;
          link_next = None;
          link_taken = None;
        }
  end
