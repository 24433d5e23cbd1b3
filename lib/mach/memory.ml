type fault = {
  fault_addr : Word32.t;
  fault_access : Perms.access;
  fault_reason : string;
}

exception Access_fault of fault

let page_bits = 12
let page_size = 1 lsl page_bits

type checker = {
  check : Word32.t -> Perms.access -> (unit, string) result;
  generation : unit -> int;
  privilege : unit -> int;
  granule_bits : unit -> int;
}

(* Direct-mapped MPU decision cache. Each entry remembers one *allow*
   decision for a (granule-block, privilege, access-kind) key together with
   the checker generation it was taken under. The MPU models report a
   configuration id as their generation — the same register contents give
   the same id — so an entry is valid exactly while the configuration it
   was taken under is live, and validates again when a context switch
   brings that configuration back. The generation is mixed into the slot
   index, so the configurations of one board's processes spread over the
   slots instead of evicting each other's entries. Deny decisions are never
   cached: the slow path owns the fault message and the fault-status side
   effects (SCB latching). *)
let dc_bits = 10
let dc_size = 1 lsl dc_bits

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  mutable checker : checker option;
  (* single-entry page cache: instruction fetch and stack traffic are
     highly local, so most accesses hit the page of the previous one *)
  mutable last_key : int;
  mutable last_page : Bytes.t;
  dc_key : int array;
  dc_gen : int array;
  mutable dc_hits : int;
  mutable dc_misses : int;
  (* icache support: pages that decoded instructions were fetched from.
     A write into any registered page bumps [code_gen], invalidating every
     cached decode at once, and drops the registrations (the next decode
     re-registers its pages). [last_wkey] memoizes the most recent
     known-not-code page so data-heavy write loops pay one compare. *)
  code_pages : (int, unit) Hashtbl.t;
  mutable code_gen : int;
  (* model-visible invalidation sequence: counts code-page invalidations
     and is what trace events carry. Unlike [code_gen] — which only ever
     moves forward, including across [restore] — this is part of the
     snapshot state, so forked reruns emit identical traces. *)
  mutable ic_seq : int;
  mutable last_wkey : int;
  (* copy-on-write snapshot support: [era] advances on every capture and
     restore; [owner] maps a page key to the era in which this [t] came to
     own its Bytes exclusively. A write to a page owned in an older era
     (i.e. one whose Bytes a snapshot may share) clones it first, so
     capture is O(pages touched) pointer copies and snapshots stay frozen.
     [last_wpriv] memoizes the most recent known-private page so the write
     fast path pays one integer compare. *)
  owner : (int, int) Hashtbl.t;
  mutable era : int;
  mutable last_wpriv : int;
  (* bumped whenever the checker is replaced, so permission stamps taken
     under one checker can never validate against another *)
  mutable checker_epoch : int;
  (* hoisted decision-cache context for the superblock engine: [hoist]
     snapshots the checker's generation/privilege/granule closures into
     plain ints once per trace entry, and [load32_fast]/[store32_fast]
     probe the decision cache against them without a closure call per
     access. Sound only while none of the three can change — i.e. inside
     one Mc trace (see mc.ml). [fp_on] is false whenever the aligned-word
     fast path does not apply (no checker, or sub-word granule). *)
  mutable fp_on : bool;
  mutable fp_gen : int;
  mutable fp_priv : int;
  mutable fp_gbits : int;
  (* observability sink: the access-check fast paths never consult it;
     only the rare invalidation events (checker swap, code-page write)
     emit, and only when a sink is attached *)
  mutable obs : Obs.Event.sink option;
}

let no_page = Bytes.create 0

let create () =
  {
    pages = Hashtbl.create 64;
    checker = None;
    last_key = -1;
    last_page = no_page;
    dc_key = Array.make dc_size (-1);
    dc_gen = Array.make dc_size (-1);
    dc_hits = 0;
    dc_misses = 0;
    code_pages = Hashtbl.create 16;
    code_gen = 0;
    ic_seq = 0;
    last_wkey = -1;
    owner = Hashtbl.create 64;
    era = 0;
    last_wpriv = -1;
    checker_epoch = 0;
    fp_on = false;
    fp_gen = -1;
    fp_priv = 0;
    fp_gbits = 0;
    obs = None;
  }

let set_obs t sink = t.obs <- sink

let flush_decision_cache t =
  Array.fill t.dc_key 0 dc_size (-1);
  Array.fill t.dc_gen 0 dc_size (-1)

let set_checker t checker =
  t.checker <- checker;
  t.checker_epoch <- t.checker_epoch + 1;
  flush_decision_cache t;
  match t.obs with
  | None -> ()
  | Some emit -> emit (Obs.Event.Buscache_flush { reason = "set_checker" })

let get_checker t = t.checker
let checker_epoch t = t.checker_epoch

(* --- icache generation plumbing --- *)

let code_generation t = t.code_gen

let note_code_page t addr =
  let key = addr lsr page_bits in
  if t.last_wkey = key then t.last_wkey <- -1;
  Hashtbl.replace t.code_pages key ()

let code_page_registered t addr = Hashtbl.mem t.code_pages (addr lsr page_bits)

(* Called on every raw write path. Cheap when no code has been decoded
   (one length read) and when writing repeatedly to the same data page
   (one compare); a write that lands in a code page invalidates. *)
let code_write_check t addr =
  if Hashtbl.length t.code_pages > 0 then begin
    let key = addr lsr page_bits in
    if key <> t.last_wkey then begin
      if Hashtbl.mem t.code_pages key then begin
        t.code_gen <- t.code_gen + 1;
        t.ic_seq <- t.ic_seq + 1;
        Hashtbl.reset t.code_pages;
        t.last_wkey <- -1;
        match t.obs with
        | None -> ()
        | Some emit -> emit (Obs.Event.Icache_invalidated { generation = t.ic_seq; addr })
      end
      else t.last_wkey <- key
    end
  end

let checker_enabled t = t.checker <> None

let checker_of_fn f =
  (* Wrap a bare checking function (tests, ad-hoc harnesses). Such a
     closure may be stateful, so it must never be cached: a generation
     that changes on every read guarantees no probe ever matches. *)
  let gen = ref 0 in
  {
    check = f;
    generation =
      (fun () ->
        incr gen;
        !gen);
    privilege = (fun () -> 0);
    granule_bits = (fun () -> 0);
  }

let set_checker_fn t f = set_checker t (Option.map checker_of_fn f)

let cache_stats t = (t.dc_hits, t.dc_misses)

let reset_cache_stats t =
  t.dc_hits <- 0;
  t.dc_misses <- 0

(* The page every unwritten key reads as. Shared by every memory and never
   handed out by a write path: [wpage] is the only place a page is created. *)
let zero_page = Bytes.make page_size '\000'

(* Page resolution for the read paths. A key with no page reads as
   [zero_page]; reading never materialises anything. *)
let page t addr =
  let key = addr lsr page_bits in
  if key = t.last_key then t.last_page
  else begin
    let p = match Hashtbl.find_opt t.pages key with Some p -> p | None -> zero_page in
    t.last_key <- key;
    t.last_page <- p;
    p
  end

(* Install [q] as this memory's private page for [key], repointing the
   read memo at it. *)
let own t key q =
  Hashtbl.replace t.pages key q;
  Hashtbl.replace t.owner key t.era;
  if t.last_key = key then t.last_page <- q

(* Page resolution for the write paths: materialises a missing page, and
   clones a page whose Bytes an outstanding snapshot may still reference
   (owned in an earlier era), before handing it out. *)
let wpage t addr =
  let key = addr lsr page_bits in
  if key <> t.last_wpriv then begin
    (match Hashtbl.find_opt t.pages key with
    | Some p -> (
      match Hashtbl.find_opt t.owner key with
      | Some e when e = t.era -> ()
      | Some _ | None -> own t key (Bytes.copy p))
    | None -> own t key (Bytes.make page_size '\000'));
    t.last_wpriv <- key
  end;
  page t addr

let read8 t addr =
  assert (Word32.is_valid addr);
  Char.code (Bytes.get (page t addr) (addr land (page_size - 1)))

let write8 t addr v =
  assert (Word32.is_valid addr);
  code_write_check t addr;
  Bytes.set (wpage t addr) (addr land (page_size - 1)) (Char.chr (v land 0xff))

let read32 t addr =
  assert (Word32.is_valid addr);
  if addr land 3 = 0 then
    (* aligned: one page lookup, one 32-bit read (never page-straddling) *)
    Int32.to_int (Bytes.get_int32_le (page t addr) (addr land (page_size - 1)))
    land 0xFFFF_FFFF
  else begin
    let b i = read8 t (Word32.add addr i) in
    b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
  end

let write32 t addr v =
  assert (Word32.is_valid addr);
  if addr land 3 = 0 then begin
    code_write_check t addr;
    Bytes.set_int32_le (wpage t addr) (addr land (page_size - 1)) (Int32.of_int v)
  end
  else begin
    let b i x = write8 t (Word32.add addr i) x in
    b 0 v;
    b 1 (v lsr 8);
    b 2 (v lsr 16);
    b 3 (v lsr 24)
  end

let blit_string t addr s =
  let len = String.length s in
  let rec go src addr =
    if src < len then begin
      code_write_check t addr;
      let p = wpage t addr in
      let off = addr land (page_size - 1) in
      let n = min (len - src) (page_size - off) in
      Bytes.blit_string s src p off n;
      go (src + n) (Word32.add addr n)
    end
  in
  go 0 addr

let read_bytes t addr n =
  let out = Bytes.create n in
  let rec go dst addr =
    if dst < n then begin
      let p = page t addr in
      let off = addr land (page_size - 1) in
      let k = min (n - dst) (page_size - off) in
      Bytes.blit p off out dst k;
      go (dst + k) (Word32.add addr k)
    end
  in
  go 0 addr;
  Bytes.unsafe_to_string out

(* --- access checking --- *)

let access_code = function Perms.Read -> 0 | Perms.Write -> 1 | Perms.Execute -> 2

(* The key carries the full identity of a decision: granule block,
   privilege level, access kind. The index spreads R/W/X of one block over
   distinct entries so an execute-heavy loop does not evict its data, and
   offsets the block by an odd multiple of the generation, so up to
   [dc_size / 4] consecutive generations place one block in distinct
   slots. *)
let dc_index block code gen = (((block + (gen * 0x9E5)) lsl 2) lor code) land (dc_size - 1)

let dc_probe t c addr access =
  let block = addr lsr c.granule_bits () in
  let code = access_code access in
  let key = (block lsl 3) lor (c.privilege () lsl 2) lor code in
  let gen = c.generation () in
  let idx = dc_index block code gen in
  if t.dc_key.(idx) = key && t.dc_gen.(idx) = gen then begin
    t.dc_hits <- t.dc_hits + 1;
    true
  end
  else begin
    t.dc_misses <- t.dc_misses + 1;
    false
  end

let dc_insert t c addr access =
  let block = addr lsr c.granule_bits () in
  let code = access_code access in
  let key = (block lsl 3) lor (c.privilege () lsl 2) lor code in
  let gen = c.generation () in
  let idx = dc_index block code gen in
  t.dc_key.(idx) <- key;
  t.dc_gen.(idx) <- gen

let check t addr access =
  match t.checker with
  | None -> Ok ()
  | Some c ->
    if dc_probe t c addr access then Ok ()
    else begin
      match c.check addr access with
      | Ok () as ok ->
        dc_insert t c addr access;
        ok
      | Error _ as e -> e
    end

let checked t addr access k =
  match check t addr access with
  | Ok () -> k ()
  | Error fault_reason ->
    raise (Access_fault { fault_addr = addr; fault_access = access; fault_reason })

let check_byte t c addr access =
  if not (dc_probe t c addr access) then begin
    match c.check addr access with
    | Ok () -> dc_insert t c addr access
    | Error fault_reason ->
      raise (Access_fault { fault_addr = addr; fault_access = access; fault_reason })
  end

let check_word t addr access =
  (* A 4-byte access faults if any covered byte is denied, matching the
     byte-granular view the MPU models expose. An aligned word lies inside
     one decision granule whenever the granule is at least a word, so a
     single cached allow covers all four bytes; the miss path still walks
     byte by byte so the faulting byte address is exact. *)
  match t.checker with
  | None -> ()
  | Some c ->
    if addr land 3 = 0 && c.granule_bits () >= 2 then begin
      if not (dc_probe t c addr access) then begin
        for i = 0 to 3 do
          match c.check (Word32.add addr i) access with
          | Ok () -> ()
          | Error fault_reason ->
            raise
              (Access_fault
                 { fault_addr = Word32.add addr i; fault_access = access; fault_reason })
        done;
        dc_insert t c addr access
      end
    end
    else
      for i = 0 to 3 do
        check_byte t c (Word32.add addr i) access
      done

let load8 t addr = checked t addr Perms.Read (fun () -> read8 t addr)
let store8 t addr v = checked t addr Perms.Write (fun () -> write8 t addr v)

let load32 t addr =
  check_word t addr Perms.Read;
  read32 t addr

let store32 t addr v =
  check_word t addr Perms.Write;
  write32 t addr v

let fetch32 t addr =
  check_word t addr Perms.Execute;
  read32 t addr

let check_fetch16 t addr =
  match t.checker with
  | None -> ()
  | Some c ->
    if addr land 1 = 0 && c.granule_bits () >= 1 then begin
      if not (dc_probe t c addr Perms.Execute) then begin
        for i = 0 to 1 do
          match c.check (Word32.add addr i) Perms.Execute with
          | Ok () -> ()
          | Error fault_reason ->
            raise
              (Access_fault
                 {
                   fault_addr = Word32.add addr i;
                   fault_access = Perms.Execute;
                   fault_reason;
                 })
        done;
        dc_insert t c addr Perms.Execute
      end
    end
    else begin
      check_byte t c addr Perms.Execute;
      check_byte t c (Word32.add addr 1) Perms.Execute
    end

(* --- hoisted fast path (superblock traces) ---

   [hoist] resolves the checker's generation/privilege/granule closures to
   ints; the fast accessors then replicate [check_word]'s aligned-word
   decision-cache probe with pure integer arithmetic. A probe hit counts a
   [dc_hits] exactly like [dc_probe]; any other case falls into the full
   checked access, which owns the miss counting, the cache fill, the exact
   fault address and the unaligned/no-checker cases — so the counters and
   the observable behaviour are identical to the unhoisted path. *)

let hoist t =
  match t.checker with
  | None -> t.fp_on <- false
  | Some c ->
    let g = c.granule_bits () in
    if g >= 2 then begin
      t.fp_on <- true;
      t.fp_gbits <- g;
      t.fp_gen <- c.generation ();
      t.fp_priv <- c.privilege ()
    end
    else t.fp_on <- false

let load32_fast t addr =
  if t.fp_on && addr land 3 = 0 then begin
    let block = addr lsr t.fp_gbits in
    let key = (block lsl 3) lor (t.fp_priv lsl 2) (* access_code Read = 0 *) in
    let idx = dc_index block 0 t.fp_gen in
    if Array.unsafe_get t.dc_key idx = key && Array.unsafe_get t.dc_gen idx = t.fp_gen
    then begin
      t.dc_hits <- t.dc_hits + 1;
      read32 t addr
    end
    else load32 t addr
  end
  else load32 t addr

let store32_fast t addr v =
  if t.fp_on && addr land 3 = 0 then begin
    let block = addr lsr t.fp_gbits in
    let key = (block lsl 3) lor (t.fp_priv lsl 2) lor 1 (* access_code Write *) in
    let idx = dc_index block 1 t.fp_gen in
    if Array.unsafe_get t.dc_key idx = key && Array.unsafe_get t.dc_gen idx = t.fp_gen
    then begin
      t.dc_hits <- t.dc_hits + 1;
      write32 t addr v
    end
    else store32 t addr v
  end
  else store32 t addr v

let fetch16 t addr =
  check_fetch16 t addr;
  let off = addr land (page_size - 1) in
  if off < page_size - 1 then Bytes.get_uint16_le (page t addr) off
  else read8 t addr lor (read8 t (Word32.add addr 1) lsl 8)

let touched_pages t = Hashtbl.length t.pages

(* --- snapshots --- *)

type snapshot = { snap_pages : (int, Bytes.t) Hashtbl.t; snap_ic_seq : int }

let capture t =
  (* everything currently materialised becomes shared with the snapshot;
     the next write to any of it clones first *)
  t.era <- t.era + 1;
  t.last_wpriv <- -1;
  { snap_pages = Hashtbl.copy t.pages; snap_ic_seq = t.ic_seq }

let restore ?keep t s =
  (* [keep]: the live pages of a page-aligned range stay (an absent one
     stays absent) and every other key comes from the snapshot. A kept
     page this memory owned stays owned; every other page may be shared
     with a snapshot, so its next write clones it. *)
  let in_keep, kept =
    match keep with
    | None -> ((fun _ -> false), [])
    | Some r ->
      if Range.start r land (page_size - 1) <> 0 || Range.size r land (page_size - 1) <> 0 then
        invalid_arg "Memory.restore: keep range is not page-aligned";
      let lo = Range.start r lsr page_bits and hi = Range.end_ r lsr page_bits in
      let in_keep k = k >= lo && k < hi in
      ( in_keep,
        Hashtbl.fold
          (fun k p acc ->
            if in_keep k then (k, p, Hashtbl.find_opt t.owner k = Some t.era) :: acc else acc)
          t.pages [] )
  in
  Hashtbl.reset t.pages;
  Hashtbl.iter (fun k p -> if not (in_keep k) then Hashtbl.replace t.pages k p) s.snap_pages;
  t.ic_seq <- s.snap_ic_seq;
  Hashtbl.reset t.owner;
  t.era <- t.era + 1;
  List.iter
    (fun (k, p, owned) ->
      Hashtbl.replace t.pages k p;
      if owned then Hashtbl.replace t.owner k t.era)
    kept;
  t.last_wpriv <- -1;
  t.last_key <- -1;
  t.last_page <- no_page;
  (* Restore hazard: the bytes under every cached decode and access
     decision may just have changed. The code generation only ever moves
     forward — rewinding it to the captured value could let blocks decoded
     *after* the capture validate against the restored bytes. *)
  t.code_gen <- t.code_gen + 1;
  Hashtbl.reset t.code_pages;
  t.last_wkey <- -1;
  flush_decision_cache t;
  match t.obs with
  | None -> ()
  | Some emit -> emit (Obs.Event.Buscache_flush { reason = "restore" })

(* --- snapshot (de)serialization, for the on-disk board-snapshot format.
   All-zero pages are elided: an absent page reads as zeros, so the
   round-trip through [(key, bytes)] pairs is exact. *)

let snapshot_pages s =
  Hashtbl.fold
    (fun k p acc -> if Bytes.equal p zero_page then acc else (k, Bytes.to_string p) :: acc)
    s.snap_pages []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot_of_pages pages =
  let snap_pages = Hashtbl.create (max 16 (List.length pages)) in
  List.iter
    (fun (k, data) ->
      if String.length data <> page_size then
        invalid_arg "Memory.snapshot_of_pages: bad page size";
      Hashtbl.replace snap_pages k (Bytes.of_string data))
    pages;
  (* on-disk snapshots are pristine (nothing executed), so no code page was
     ever registered, let alone invalidated *)
  { snap_pages; snap_ic_seq = 0 }

let fingerprint t =
  (* Absent pages read as zeros, so a page written back to all zeros must
     hash like no page at all: skip all-zero pages. *)
  let keys =
    Hashtbl.fold (fun k p acc -> if Bytes.equal p zero_page then acc else k :: acc) t.pages []
    |> List.sort compare
  in
  List.fold_left
    (fun h k -> Fp.bytes (Fp.int h k) (Hashtbl.find t.pages k))
    (Fp.int Fp.seed (List.length keys))
    keys
