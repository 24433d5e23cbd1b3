let region_count = 8
let min_region_size = 32
let min_subregion_region_size = 256

(* Decisions are constant within aligned 32-byte blocks: regions are
   size-aligned powers of two >= 32 bytes, and subregions are size/8 >= 32
   bytes. This is the granularity hint handed to the bus decision cache. *)
let granule_bits = 5

(* Per-region decode of the RBAR/RASR pair, derived once per configuration
   so the per-access check never re-extracts bit fields. *)
type decoded = {
  d_enabled : bool;
  d_base : Word32.t;
  d_size : int;
  d_srd : int;  (* 0 when the region has no disabled subregions *)
  d_sub_size : int;  (* size / 8; meaningful only when d_srd <> 0 *)
  d_ap : int;
  d_xn : bool;
}

let decoded_disabled =
  { d_enabled = false; d_base = 0; d_size = 0; d_srd = 0; d_sub_size = 1; d_ap = 0; d_xn = false }

type t = {
  rbar : Word32.t array;
  rasr : Word32.t array;
  mutable ctrl_enable : bool;
  (* Everything below [dirty] is derived from the registers. A write that
     changes a register only sets [dirty]; the first check or cache query
     after it re-derives the decode, the decision granule and the
     configuration id (the bus decision-cache generation) in one go. *)
  mutable dirty : bool;
  mutable dec : decoded array;  (* shared with [ids]: never mutated *)
  mutable dgran : int;  (* decision granularity of the active config *)
  mutable generation : int;
  ids : (decoded array * int) Config_ids.t;
  (* model-visible configuration sequence: counts effective configuration
     changes and is what trace events carry. Unlike [generation], which is
     host-side cache state, this is captured and restored with the
     registers, so forked reruns emit identical traces. *)
  mutable cfg_seq : int;
  mutable obs : Obs.Event.sink option;
}

(* --- RBAR: ADDR[31:5] | VALID[4] | REGION[3:0] --- *)

let encode_rbar ~addr ~region =
  if region < 0 || region >= region_count then invalid_arg "encode_rbar: region";
  if addr land 0x1f <> 0 then invalid_arg "encode_rbar: unaligned base";
  addr lor 0x10 lor region

let decode_rbar_addr rbar = rbar land 0xFFFF_FFE0
let decode_rbar_region rbar = rbar land 0xf

(* --- RASR: XN[28] | AP[26:24] | SRD[15:8] | SIZE[5:1] | ENABLE[0] --- *)

let ap_of_perms = function
  (* Tock's mapping: the kernel always keeps privileged read-write. *)
  | Perms.Read_write_execute | Perms.Read_write_only -> 0b011
  | Perms.Read_execute_only | Perms.Read_only -> 0b010
  | Perms.Execute_only -> 0b001

let xn_of_perms p = not (Perms.executable p)

let encode_rasr ~enable ~size ~srd ~perms =
  if not (Mach.Math32.is_pow2 size) || size < min_region_size then
    invalid_arg "encode_rasr: size";
  if srd < 0 || srd > 0xff then invalid_arg "encode_rasr: srd";
  let size_field = Mach.Math32.log2 size - 1 in
  let w = if enable then 1 else 0 in
  let w = Word32.set_bits w ~hi:5 ~lo:1 size_field in
  let w = Word32.set_bits w ~hi:15 ~lo:8 srd in
  let w = Word32.set_bits w ~hi:26 ~lo:24 (ap_of_perms perms) in
  Word32.set_bit w 28 (xn_of_perms perms)

let decode_rasr_enable rasr = Word32.bit rasr 0
let decode_rasr_size rasr = 1 lsl (Word32.bits rasr ~hi:5 ~lo:1 + 1)
let decode_rasr_srd rasr = Word32.bits rasr ~hi:15 ~lo:8
let decode_rasr_ap rasr = Word32.bits rasr ~hi:26 ~lo:24
let decode_rasr_xn rasr = Word32.bit rasr 28

let decode_rasr_perms rasr =
  let xn = decode_rasr_xn rasr in
  match decode_rasr_ap rasr with
  | 0b011 -> Some (if xn then Perms.Read_write_only else Perms.Read_write_execute)
  | 0b010 | 0b110 | 0b111 -> Some (if xn then Perms.Read_only else Perms.Read_execute_only)
  | _ -> None

let decode_pair ~rbar ~rasr =
  if not (decode_rasr_enable rasr) then decoded_disabled
  else begin
    let size = decode_rasr_size rasr in
    {
      d_enabled = true;
      d_base = decode_rbar_addr rbar;
      d_size = size;
      d_srd = (if size >= min_subregion_region_size then decode_rasr_srd rasr else 0);
      d_sub_size = (if size >= 8 then size / 8 else 1);
      d_ap = decode_rasr_ap rasr;
      d_xn = decode_rasr_xn rasr;
    }
  end

(* Coarsest safe decision-cache granularity for the active register file:
   every region/subregion boundary is aligned to the region's step (the
   subregion size when SRD is in use, the full size otherwise — bases are
   size-aligned), so decisions are constant within blocks of the minimum
   step. Capped at 4 KiB to keep cache indices well distributed. *)
let max_granule_bits = 12

let decision_granule_bits_of dec =
  let g = ref max_granule_bits in
  Array.iter
    (fun d ->
      if d.d_enabled then begin
        let step = if d.d_srd <> 0 then d.d_sub_size else d.d_size in
        let b = Mach.Math32.log2 step in
        if b < !g then g := b
      end)
    dec;
  max granule_bits (min max_granule_bits !g)

let create () =
  {
    rbar = Array.make region_count 0;
    rasr = Array.make region_count 0;
    ctrl_enable = false;
    dirty = true;
    dec = Array.make region_count decoded_disabled;
    dgran = max_granule_bits;
    generation = 0;
    ids = Config_ids.create ~words:((2 * region_count) + 1);
    cfg_seq = 0;
    obs = None;
  }

let set_obs t sink = t.obs <- sink

(* --- register file --- *)

let sync t =
  let key = Config_ids.key t.ids in
  Array.blit t.rbar 0 key 0 region_count;
  Array.blit t.rasr 0 key region_count region_count;
  key.(2 * region_count) <- Bool.to_int t.ctrl_enable;
  let id, (dec, dgran) =
    Config_ids.intern t.ids (fun () ->
        let dec =
          Array.init region_count (fun i -> decode_pair ~rbar:t.rbar.(i) ~rasr:t.rasr.(i))
        in
        (dec, decision_granule_bits_of dec))
  in
  t.dec <- dec;
  t.dgran <- dgran;
  t.generation <- id;
  t.dirty <- false

let generation t =
  if t.dirty then sync t;
  t.generation

let decision_granule_bits t =
  if t.dirty then sync t;
  t.dgran

(* A register write that changes nothing — every context switch re-pushes
   the full config — neither dirties the derived state nor emits: the
   configuration, and so its id, is the same. *)
let note_change t =
  t.dirty <- true;
  t.cfg_seq <- t.cfg_seq + 1

let note_region_write t index =
  note_change t;
  match t.obs with
  | None -> ()
  | Some emit ->
      emit (Obs.Event.Mpu_region_write { arch = "armv7m"; index; generation = t.cfg_seq })

let validate ~rbar ~rasr =
  if decode_rasr_enable rasr then begin
    let size = decode_rasr_size rasr in
    let addr = decode_rbar_addr rbar in
    if size < min_region_size then invalid_arg "mpu: region smaller than 32 bytes";
    if not (Mach.Math32.is_aligned addr ~align:size) then
      invalid_arg "mpu: base not aligned to region size";
    if decode_rasr_srd rasr <> 0 && size < min_subregion_region_size then
      invalid_arg "mpu: SRD used on region below 256 bytes"
  end

let write_region t ~index ~rbar ~rasr =
  if index < 0 || index >= region_count then invalid_arg "write_region: index";
  validate ~rbar ~rasr;
  Mach.Cycles.tick ~n:(2 * Mach.Cycles.mpu_reg_write) Mach.Cycles.global;
  if t.rbar.(index) <> rbar || t.rasr.(index) <> rasr then begin
    t.rbar.(index) <- rbar;
    t.rasr.(index) <- rasr;
    note_region_write t index
  end

let clear_region t ~index =
  if index < 0 || index >= region_count then invalid_arg "clear_region: index";
  Mach.Cycles.tick ~n:Mach.Cycles.mpu_reg_write Mach.Cycles.global;
  if Word32.bit t.rasr.(index) 0 then begin
    t.rasr.(index) <- Word32.set_bit t.rasr.(index) 0 false;
    note_region_write t index
  end

let read_region t ~index = (t.rbar.(index), t.rasr.(index))

let set_enabled t v =
  Mach.Cycles.tick ~n:Mach.Cycles.mpu_reg_write Mach.Cycles.global;
  if t.ctrl_enable <> v then begin
    t.ctrl_enable <- v;
    note_change t;
    match t.obs with
    | None -> ()
    | Some emit ->
        emit (Obs.Event.Mpu_enable { arch = "armv7m"; on = v; generation = t.cfg_seq })
  end

let enabled t = t.ctrl_enable

(* --- access semantics --- *)

(* Does region [i] match byte address [a]?  A region matches when the
   address falls inside its power-of-two block and the covering subregion is
   not disabled. *)
let region_matches t i a =
  let d = t.dec.(i) in
  d.d_enabled
  && a - d.d_base >= 0
  && a - d.d_base < d.d_size
  && (d.d_srd = 0 || not (Word32.bit d.d_srd ((a - d.d_base) / d.d_sub_size)))

let perm_allows_dec ~privileged d access =
  let readable, writable =
    if privileged then
      match d.d_ap with
      | 0b001 | 0b010 | 0b011 -> (true, true)
      | 0b101 | 0b110 | 0b111 -> (true, false)
      | _ -> (false, false)
    else
      match d.d_ap with
      | 0b011 -> (true, true)
      | 0b010 | 0b110 | 0b111 -> (true, false)
      | _ -> (false, false)
  in
  match access with
  | Perms.Read -> readable
  | Perms.Write -> writable
  | Perms.Execute -> readable && not d.d_xn

let check_access t ~privileged a access =
  if not t.ctrl_enable then Ok ()
  else begin
    if t.dirty then sync t;
    (* Highest-numbered matching region takes priority (PMSAv7). *)
    let rec find i = if i < 0 then None else if region_matches t i a then Some i else find (i - 1) in
    match find (region_count - 1) with
    | Some i ->
      if perm_allows_dec ~privileged t.dec.(i) access then Ok ()
      else
        Error
          (Printf.sprintf "mpu: %s access to %s denied by region %d"
             (match access with Perms.Read -> "read" | Write -> "write" | Execute -> "execute")
             (Word32.to_hex a) i)
    | None ->
      (* PRIVDEFENA = 1: privileged falls through to the default map. *)
      if privileged then Ok ()
      else Error (Printf.sprintf "mpu: no region covers %s" (Word32.to_hex a))
  end

let accessible_ranges t access =
  (* Collect every region/subregion boundary, then evaluate the checker on a
     representative byte of each elementary interval and merge. *)
  let points = ref [ 0; Word32.mask + 1 ] in
  for i = 0 to region_count - 1 do
    let rasr = t.rasr.(i) in
    if decode_rasr_enable rasr then begin
      let base = decode_rbar_addr t.rbar.(i) in
      let size = decode_rasr_size rasr in
      points := base :: (base + size) :: !points;
      if size >= min_subregion_region_size then
        for s = 1 to 7 do
          points := (base + (s * size / 8)) :: !points
        done
    end
  done;
  let points = List.sort_uniq compare !points in
  let rec intervals acc = function
    | lo :: (hi :: _ as rest) ->
      let allowed =
        match check_access t ~privileged:false lo access with Ok () -> true | Error _ -> false
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

let checker t ~cpu_privileged =
  {
    Memory.check =
      (fun a access -> check_access t ~privileged:(cpu_privileged ()) a access);
    generation = (fun () -> generation t);
    privilege = (fun () -> if cpu_privileged () then 1 else 0);
    granule_bits = (fun () -> decision_granule_bits t);
  }

(* --- whole-state capture (snapshot subsystem) --- *)

type state = {
  s_rbar : Word32.t array;
  s_rasr : Word32.t array;
  s_enable : bool;
  s_seq : int;
}

let capture_state t =
  {
    s_rbar = Array.copy t.rbar;
    s_rasr = Array.copy t.rasr;
    s_enable = t.ctrl_enable;
    s_seq = t.cfg_seq;
  }

(* A host-side restore, not a modeled register write: no cycle charge and
   no trace events. The derived state follows the restored contents. *)
let restore_state t s =
  Array.blit s.s_rbar 0 t.rbar 0 region_count;
  Array.blit s.s_rasr 0 t.rasr 0 region_count;
  t.ctrl_enable <- s.s_enable;
  t.cfg_seq <- s.s_seq;
  t.dirty <- true

let fingerprint t =
  let h = Array.fold_left Mach.Fp.int Mach.Fp.seed t.rbar in
  let h = Array.fold_left Mach.Fp.int h t.rasr in
  Mach.Fp.int (Mach.Fp.bool h t.ctrl_enable) t.cfg_seq

let pp ppf t =
  Format.fprintf ppf "@[<v>MPU ctrl.enable=%b@," t.ctrl_enable;
  for i = 0 to region_count - 1 do
    let rasr = t.rasr.(i) in
    if decode_rasr_enable rasr then
      Format.fprintf ppf "  region %d: base=%a size=%d srd=%02x perms=%s@," i Word32.pp
        (decode_rbar_addr t.rbar.(i))
        (decode_rasr_size rasr) (decode_rasr_srd rasr)
        (match decode_rasr_perms rasr with Some p -> Perms.to_string p | None -> "priv-only")
  done;
  Format.fprintf ppf "@]"
