let region_count = 8
let granule = 32

(* Base and limit are both 32-byte aligned, so decisions are constant
   within aligned 32-byte blocks — the bus decision-cache granularity. *)
let granule_bits = 5

type t = {
  rbar : Word32.t array;
  rlar : Word32.t array;
  mutable ctrl_enable : bool;
  (* [dgran] and [generation] are derived from the registers on the first
     cache query after a change, as in Armv7m_mpu. *)
  mutable dirty : bool;
  mutable dgran : int;  (* decision granularity of the active config *)
  mutable generation : int;
  ids : int Config_ids.t;
  (* model-visible configuration sequence carried by trace events; unlike
     [generation] (host-side cache state) it is captured and restored with
     the registers — see Armv7m_mpu. *)
  mutable cfg_seq : int;
  mutable obs : Obs.Event.sink option;
}

let max_granule_bits = 12

let create () =
  {
    rbar = Array.make region_count 0;
    rlar = Array.make region_count 0;
    ctrl_enable = false;
    dirty = true;
    dgran = max_granule_bits;
    generation = 0;
    ids = Config_ids.create ~words:((2 * region_count) + 1);
    cfg_seq = 0;
    obs = None;
  }

let set_obs t sink = t.obs <- sink

(* Only a write that changes a register dirties the derived state and
   emits: every context switch re-pushes the full config, and identical
   rewrites keep the configuration — and its id — as they are. *)
let note_change t =
  t.dirty <- true;
  t.cfg_seq <- t.cfg_seq + 1

let note_region_write t index =
  note_change t;
  match t.obs with
  | None -> ()
  | Some emit ->
      emit (Obs.Event.Mpu_region_write { arch = "armv8m"; index; generation = t.cfg_seq })

(* AP[2:1] (v8 encoding): 00 priv RW only; 01 RW any; 10 priv RO only;
   11 RO any.  XN is bit 0. *)
let ap_of_perms = function
  | Perms.Read_write_execute | Perms.Read_write_only -> 0b01
  | Perms.Read_execute_only | Perms.Read_only -> 0b11
  | Perms.Execute_only -> 0b00

let encode_rbar ~base ~perms =
  if base land (granule - 1) <> 0 then invalid_arg "encode_rbar: unaligned base";
  base
  lor (ap_of_perms perms lsl 1)
  lor if Perms.executable perms then 0 else 1

let encode_rlar ~limit ~enable =
  if limit land (granule - 1) <> granule - 1 then invalid_arg "encode_rlar: unaligned limit";
  limit land 0xFFFF_FFE0 lor if enable then 1 else 0

let decode_rbar_base rbar = rbar land 0xFFFF_FFE0

let decode_rbar_ap rbar = Word32.bits rbar ~hi:2 ~lo:1
let decode_rbar_xn rbar = Word32.bit rbar 0

let decode_rbar_perms rbar =
  let xn = decode_rbar_xn rbar in
  match decode_rbar_ap rbar with
  | 0b01 -> Some (if xn then Perms.Read_write_only else Perms.Read_write_execute)
  | 0b11 -> Some (if xn then Perms.Read_only else Perms.Read_execute_only)
  | _ -> None

let decode_rlar_limit rlar = rlar lor (granule - 1)
let decode_rlar_enable rlar = Word32.bit rlar 0

(* Boundaries of enabled regions are base and limit+1, both 32-byte
   aligned at minimum; decisions are constant between boundaries, so the
   cache granule is the minimum boundary alignment (capped at 4 KiB). *)
let granule_of t =
  let g = ref max_granule_bits in
  for i = 0 to region_count - 1 do
    if decode_rlar_enable t.rlar.(i) then begin
      let note a =
        let b = Math32.trailing_zero_bits a in
        if b < !g then g := b
      in
      note (decode_rbar_base t.rbar.(i));
      note (decode_rlar_limit t.rlar.(i) + 1)
    end
  done;
  max granule_bits (min max_granule_bits !g)

let sync t =
  let key = Config_ids.key t.ids in
  Array.blit t.rbar 0 key 0 region_count;
  Array.blit t.rlar 0 key region_count region_count;
  key.(2 * region_count) <- Bool.to_int t.ctrl_enable;
  let id, dgran = Config_ids.intern t.ids (fun () -> granule_of t) in
  t.dgran <- dgran;
  t.generation <- id;
  t.dirty <- false

let write_region t ~index ~rbar ~rasr =
  if index < 0 || index >= region_count then invalid_arg "write_region: index";
  let rlar = rasr in
  if decode_rlar_enable rlar && decode_rlar_limit rlar < decode_rbar_base rbar then
    invalid_arg "mpu v8: limit below base";
  Cycles.tick ~n:(2 * Cycles.mpu_reg_write) Cycles.global;
  if t.rbar.(index) <> rbar || t.rlar.(index) <> rlar then begin
    t.rbar.(index) <- rbar;
    t.rlar.(index) <- rlar;
    note_region_write t index
  end

let clear_region t ~index =
  if index < 0 || index >= region_count then invalid_arg "clear_region: index";
  Cycles.tick ~n:Cycles.mpu_reg_write Cycles.global;
  if Word32.bit t.rlar.(index) 0 then begin
    t.rlar.(index) <- Word32.set_bit t.rlar.(index) 0 false;
    note_region_write t index
  end

let read_region t ~index = (t.rbar.(index), t.rlar.(index))

let set_enabled t v =
  Cycles.tick ~n:Cycles.mpu_reg_write Cycles.global;
  if t.ctrl_enable <> v then begin
    t.ctrl_enable <- v;
    note_change t;
    match t.obs with
    | None -> ()
    | Some emit ->
        emit (Obs.Event.Mpu_enable { arch = "armv8m"; on = v; generation = t.cfg_seq })
  end

let enabled t = t.ctrl_enable

let generation t =
  if t.dirty then sync t;
  t.generation

let decision_granule_bits t =
  if t.dirty then sync t;
  t.dgran

let region_matches t i a =
  decode_rlar_enable t.rlar.(i)
  && a >= decode_rbar_base t.rbar.(i)
  && a <= decode_rlar_limit t.rlar.(i)

let perm_allows ~privileged rbar access =
  let xn = decode_rbar_xn rbar in
  let readable, writable =
    if privileged then
      match decode_rbar_ap rbar with
      | 0b00 | 0b01 -> (true, true)
      | 0b10 | 0b11 -> (true, false)
      | _ -> (false, false)
    else
      match decode_rbar_ap rbar with
      | 0b01 -> (true, true)
      | 0b11 -> (true, false)
      | _ -> (false, false)
  in
  match access with
  | Perms.Read -> readable
  | Perms.Write -> writable
  | Perms.Execute -> readable && not xn

let check_access t ~privileged a access =
  if not t.ctrl_enable then Ok ()
  else begin
    (* Allocation-free match walk: this runs per byte on the bus slow path. *)
    let first = ref (-1) and count = ref 0 in
    for i = 0 to region_count - 1 do
      if region_matches t i a then begin
        if !first < 0 then first := i;
        incr count
      end
    done;
    if !count > 1 then
      (* PMSAv8: overlapping enabled regions fault, even for privileged
         access with PRIVDEFENA — overlap is a configuration bug. *)
      Error (Printf.sprintf "mpu v8: overlapping regions at %s" (Word32.to_hex a))
    else if !count = 1 then begin
      let i = !first in
      if perm_allows ~privileged t.rbar.(i) access then Ok ()
      else
        Error
          (Printf.sprintf "mpu v8: %s access to %s denied by region %d"
             (match access with Perms.Read -> "read" | Write -> "write" | Execute -> "execute")
             (Word32.to_hex a) i)
    end
    else if privileged then Ok ()
    else Error (Printf.sprintf "mpu v8: no region covers %s" (Word32.to_hex a))
  end

let accessible_ranges t access =
  let points = ref [ 0; Word32.mask + 1 ] in
  for i = 0 to region_count - 1 do
    if decode_rlar_enable t.rlar.(i) then begin
      points := decode_rbar_base t.rbar.(i) :: (decode_rlar_limit t.rlar.(i) + 1) :: !points
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
  s_rlar : Word32.t array;
  s_enable : bool;
  s_seq : int;
}

let capture_state t =
  {
    s_rbar = Array.copy t.rbar;
    s_rlar = Array.copy t.rlar;
    s_enable = t.ctrl_enable;
    s_seq = t.cfg_seq;
  }

let restore_state t s =
  Array.blit s.s_rbar 0 t.rbar 0 region_count;
  Array.blit s.s_rlar 0 t.rlar 0 region_count;
  t.ctrl_enable <- s.s_enable;
  t.cfg_seq <- s.s_seq;
  t.dirty <- true

let fingerprint t =
  let h = Array.fold_left Fp.int Fp.seed t.rbar in
  let h = Array.fold_left Fp.int h t.rlar in
  Fp.int (Fp.bool h t.ctrl_enable) t.cfg_seq

let pp ppf t =
  Format.fprintf ppf "@[<v>MPUv8 ctrl.enable=%b@," t.ctrl_enable;
  for i = 0 to region_count - 1 do
    if decode_rlar_enable t.rlar.(i) then
      Format.fprintf ppf "  region %d: [%a, %a] perms=%s@," i Word32.pp
        (decode_rbar_base t.rbar.(i))
        Word32.pp
        (decode_rlar_limit t.rlar.(i))
        (match decode_rbar_perms t.rbar.(i) with
        | Some p -> Perms.to_string p
        | None -> "priv-only")
  done;
  Format.fprintf ppf "@]"
