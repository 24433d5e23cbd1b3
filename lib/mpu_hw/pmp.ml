type chip = { chip_name : string; entry_count : int; granularity : int; epmp : bool }

let sifive_e310 = { chip_name = "sifive-e310"; entry_count = 8; granularity = 4; epmp = false }
let earlgrey = { chip_name = "earlgrey"; entry_count = 16; granularity = 4; epmp = true }

let qemu_rv32_virt =
  { chip_name = "qemu-rv32-virt"; entry_count = 16; granularity = 4; epmp = false }

let chips = [ sifive_e310; earlgrey; qemu_rv32_virt ]

type mode = Off | Tor | Na4 | Napot

let mode_code = function Off -> 0 | Tor -> 1 | Na4 -> 2 | Napot -> 3
let mode_of_code = function 0 -> Off | 1 -> Tor | 2 -> Na4 | 3 -> Napot | _ -> assert false

let encode_cfg ~r ~w ~x ~mode ~lock =
  (if r then 1 else 0)
  lor (if w then 2 else 0)
  lor (if x then 4 else 0)
  lor (mode_code mode lsl 3)
  lor if lock then 0x80 else 0

let decode_cfg_r c = c land 1 <> 0
let decode_cfg_w c = c land 2 <> 0
let decode_cfg_x c = c land 4 <> 0
let decode_cfg_mode c = mode_of_code ((c lsr 3) land 3)
let decode_cfg_lock c = c land 0x80 <> 0

let cfg_of_perms p ~mode =
  encode_cfg ~r:(Perms.readable p) ~w:(Perms.writable p) ~x:(Perms.executable p) ~mode
    ~lock:false

let napot_addr ~start ~size =
  if not (Math32.is_pow2 size) || size < 8 then invalid_arg "napot_addr: size";
  if not (Math32.is_aligned start ~align:size) then invalid_arg "napot_addr: alignment";
  (* addr = (start >> 2) | 0b0111..1 with (log2 size - 3) + 1 ones *)
  let ones = Math32.log2 size - 3 in
  (start lsr 2) lor ((1 lsl ones) - 1)

type t = {
  chip : chip;
  cfg : int array;
  addr : Word32.t array;
  mutable mmwp : bool;
  mutable mml : bool;
  (* Everything below [dirty] is derived from the CSRs on the first check
     or cache query after a change, as in Armv7m_mpu. *)
  mutable dirty : bool;
  mutable ranges : Range.t option array;  (* per-entry decode; shared with [ids] *)
  mutable dgran : int;  (* decision granularity of the active config *)
  mutable generation : int;
  ids : (Range.t option array * int) Config_ids.t;
  (* model-visible configuration sequence carried by trace events; unlike
     [generation] (host-side cache state) it is captured and restored with
     the registers — see Armv7m_mpu. *)
  mutable cfg_seq : int;
  mutable obs : Obs.Event.sink option;
}

let max_granule_bits = 12

let create chip =
  {
    chip;
    cfg = Array.make chip.entry_count 0;
    addr = Array.make chip.entry_count 0;
    mmwp = false;
    mml = false;
    dirty = true;
    ranges = Array.make chip.entry_count None;
    dgran = max_granule_bits;
    generation = 0;
    ids = Config_ids.create ~words:((2 * chip.entry_count) + 2);
    cfg_seq = 0;
    obs = None;
  }

let set_obs t sink = t.obs <- sink

(* Only a write that changes a CSR dirties the derived state and emits:
   every context switch re-pushes the full config, and identical rewrites
   keep the configuration — and its id — as they are. *)
let note_change t =
  t.dirty <- true;
  t.cfg_seq <- t.cfg_seq + 1

let note_entry_write t index =
  note_change t;
  match t.obs with
  | None -> ()
  | Some emit ->
      emit (Obs.Event.Mpu_region_write { arch = "rv32-pmp"; index; generation = t.cfg_seq })

let chip t = t.chip

(* PMP decisions can change at NA4 granularity (and TOR bounds are
   pmpaddr << 2, i.e. 4-byte aligned), so 4 bytes is the finest block the
   decision cache may ever treat as uniform. *)
let granule_bits t = Math32.log2 t.chip.granularity

let decode_entry_range t i =
  match decode_cfg_mode t.cfg.(i) with
  | Off -> None
  | Na4 -> Some (Range.make ~start:(t.addr.(i) lsl 2 land Word32.mask) ~size:4)
  | Tor ->
    let lo = if i = 0 then 0 else (t.addr.(i - 1) lsl 2) land Word32.mask in
    let hi = (t.addr.(i) lsl 2) land Word32.mask in
    if lo >= hi then Some Range.empty else Some (Range.of_bounds ~lo ~hi)
  | Napot ->
    (* Trailing ones of pmpaddr encode the size. *)
    let a = t.addr.(i) in
    let rec trailing_ones n v = if v land 1 = 1 then trailing_ones (n + 1) (v lsr 1) else n in
    let ones = trailing_ones 0 a in
    let size = 1 lsl (ones + 3) in
    let base = (a land lnot ((1 lsl (ones + 1)) - 1)) lsl 2 land Word32.mask in
    Some (Range.make_checked ~start:base ~size |> Option.value ~default:Range.empty)

(* A pmpaddr write moves the bound of the *next* TOR entry too, so the
   whole (small) table is decoded together. Decisions are constant between
   entry boundaries, so the cache granule is the minimum boundary alignment
   of the active entries (capped at 4 KiB). *)
let derive t =
  let ranges = Array.init t.chip.entry_count (decode_entry_range t) in
  let g = ref max_granule_bits in
  Array.iter
    (function
      | Some r when not (Range.is_empty r) ->
        let note a =
          let b = Math32.trailing_zero_bits a in
          if b < !g then g := b
        in
        note (Range.start r);
        note (Range.end_ r)
      | Some _ | None -> ())
    ranges;
  (ranges, max (granule_bits t) (min max_granule_bits !g))

let sync t =
  let n = t.chip.entry_count in
  let key = Config_ids.key t.ids in
  Array.blit t.cfg 0 key 0 n;
  Array.blit t.addr 0 key n n;
  key.(2 * n) <- Bool.to_int t.mmwp;
  key.((2 * n) + 1) <- Bool.to_int t.mml;
  let id, (ranges, dgran) = Config_ids.intern t.ids (fun () -> derive t) in
  t.ranges <- ranges;
  t.dgran <- dgran;
  t.generation <- id;
  t.dirty <- false

let generation t =
  if t.dirty then sync t;
  t.generation

let decision_granule_bits t =
  if t.dirty then sync t;
  t.dgran

let set_entry t ~index ~cfg ~addr =
  if index < 0 || index >= t.chip.entry_count then invalid_arg "set_entry: index";
  if decode_cfg_lock t.cfg.(index) then invalid_arg "set_entry: entry locked";
  Cycles.tick ~n:(2 * Cycles.mpu_reg_write) Cycles.global;
  if t.cfg.(index) <> cfg land 0xff || t.addr.(index) <> Word32.of_int addr then begin
    t.cfg.(index) <- cfg land 0xff;
    t.addr.(index) <- Word32.of_int addr;
    note_entry_write t index
  end

let clear_entry t ~index =
  if index < 0 || index >= t.chip.entry_count then invalid_arg "clear_entry: index";
  if decode_cfg_lock t.cfg.(index) then invalid_arg "clear_entry: entry locked";
  Cycles.tick ~n:Cycles.mpu_reg_write Cycles.global;
  if t.cfg.(index) <> 0 then begin
    t.cfg.(index) <- 0;
    note_entry_write t index
  end

let read_entry t ~index = (t.cfg.(index), t.addr.(index))

let set_mmwp t v =
  if not t.chip.epmp then invalid_arg "set_mmwp: chip has no ePMP";
  Cycles.tick ~n:Cycles.mpu_reg_write Cycles.global;
  if t.mmwp <> v then begin
    t.mmwp <- v;
    note_change t;
    match t.obs with
    | None -> ()
    | Some emit ->
        emit (Obs.Event.Mpu_enable { arch = "rv32-pmp.mmwp"; on = v; generation = t.cfg_seq })
  end

let set_mml t v =
  if not t.chip.epmp then invalid_arg "set_mml: chip has no ePMP";
  Cycles.tick ~n:Cycles.mpu_reg_write Cycles.global;
  if t.mml <> v then begin
    t.mml <- v;
    note_change t;
    match t.obs with
    | None -> ()
    | Some emit ->
        emit (Obs.Event.Mpu_enable { arch = "rv32-pmp.mml"; on = v; generation = t.cfg_seq })
  end

let mml t = t.mml

let entry_range t i =
  if t.dirty then sync t;
  t.ranges.(i)

let entry_allows cfg access =
  match access with
  | Perms.Read -> decode_cfg_r cfg
  | Perms.Write -> decode_cfg_w cfg
  | Perms.Execute -> decode_cfg_x cfg

let check_access t ~machine_mode a access =
  if t.dirty then sync t;
  let rec find i =
    if i >= t.chip.entry_count then None
    else
      match t.ranges.(i) with
      | Some r when Range.contains r a -> Some i
      | Some _ | None -> find (i + 1)
  in
  match find 0 with
  | Some i ->
    let cfg = t.cfg.(i) in
    let deny reason =
      Error
        (Printf.sprintf "pmp: %s access to %s %s entry %d"
           (match access with Perms.Read -> "read" | Write -> "write" | Execute -> "execute")
           (Word32.to_hex a) reason i)
    in
    if t.mml then begin
      (* Smepmp machine-mode lockdown: locked entries are M-mode-only,
         unlocked entries are U-mode-only. *)
      let locked = decode_cfg_lock cfg in
      if machine_mode && not locked then deny "hits U-mode-only"
      else if (not machine_mode) && locked then deny "hits M-mode-only"
      else if entry_allows cfg access then Ok ()
      else deny "denied by"
    end
    else if machine_mode && not (decode_cfg_lock cfg) then Ok ()
    else if entry_allows cfg access then Ok ()
    else deny "denied by"
  | None ->
    if machine_mode && not t.mmwp then Ok ()
    else Error (Printf.sprintf "pmp: no entry covers %s" (Word32.to_hex a))

let accessible_ranges t access =
  let points = ref [ 0; Word32.mask + 1 ] in
  for i = 0 to t.chip.entry_count - 1 do
    match entry_range t i with
    | Some r when not (Range.is_empty r) -> points := Range.start r :: Range.end_ r :: !points
    | Some _ | None -> ()
  done;
  let points = List.sort_uniq compare !points in
  let rec intervals acc = function
    | lo :: (hi :: _ as rest) ->
      let allowed =
        match check_access t ~machine_mode:false lo access with Ok () -> true | Error _ -> false
      in
      let acc =
        if not allowed then acc
        else
          match acc with
          | r :: tl when Range.end_ r = lo -> Range.of_bounds ~lo:(Range.start r) ~hi :: tl
          | _ -> Range.of_bounds ~lo ~hi :: acc
      in
      intervals acc rest
    | _ -> List.rev acc
  in
  intervals [] points

let checker t ~cpu_machine_mode =
  {
    Memory.check =
      (fun a access -> check_access t ~machine_mode:(cpu_machine_mode ()) a access);
    generation = (fun () -> generation t);
    privilege = (fun () -> if cpu_machine_mode () then 1 else 0);
    granule_bits = (fun () -> decision_granule_bits t);
  }

(* --- whole-state capture (snapshot subsystem) --- *)

type state = {
  s_cfg : int array;
  s_addr : Word32.t array;
  s_mmwp : bool;
  s_mml : bool;
  s_seq : int;
}

let capture_state t =
  {
    s_cfg = Array.copy t.cfg;
    s_addr = Array.copy t.addr;
    s_mmwp = t.mmwp;
    s_mml = t.mml;
    s_seq = t.cfg_seq;
  }

(* Host-side restore: bypasses the lock check deliberately — it reinstates
   a configuration that existed, it is not a CSR write. The derived state
   follows the restored contents. *)
let restore_state t s =
  Array.blit s.s_cfg 0 t.cfg 0 t.chip.entry_count;
  Array.blit s.s_addr 0 t.addr 0 t.chip.entry_count;
  t.mmwp <- s.s_mmwp;
  t.mml <- s.s_mml;
  t.cfg_seq <- s.s_seq;
  t.dirty <- true

let fingerprint t =
  let h = Array.fold_left Fp.int Fp.seed t.cfg in
  let h = Array.fold_left Fp.int h t.addr in
  Fp.int (Fp.bool (Fp.bool h t.mmwp) t.mml) t.cfg_seq

let pp ppf t =
  Format.fprintf ppf "@[<v>PMP %s mmwp=%b@," t.chip.chip_name t.mmwp;
  for i = 0 to t.chip.entry_count - 1 do
    match entry_range t i with
    | Some r ->
      Format.fprintf ppf "  entry %2d: %a %s%s%s%s@," i Range.pp r
        (if decode_cfg_r t.cfg.(i) then "r" else "-")
        (if decode_cfg_w t.cfg.(i) then "w" else "-")
        (if decode_cfg_x t.cfg.(i) then "x" else "-")
        (if decode_cfg_lock t.cfg.(i) then " L" else "")
    | None -> ()
  done;
  Format.fprintf ppf "@]"
