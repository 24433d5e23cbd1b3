type mode = Thread | Handler

type t = {
  regs : Word32.t array;  (* r0-r12 *)
  mutable msp : Word32.t;
  mutable psp : Word32.t;
  mutable lr : Word32.t;
  mutable pc : Word32.t;
  mutable psr : Word32.t;
  mutable control : Word32.t;  (* committed value, post-ISB *)
  mutable control_pending : Word32.t option;
  mutable cpu_mode : mode;
  mem : Memory.t;
  icache : Icache.t;  (* decoded-instruction/basic-block cache for Mc *)
  cyc : Cycles.handle;  (* the global counter, resolved once per create *)
  mutable obs : Obs.Event.sink option;  (* consulted only by Exn entry/return *)
}

let create mem =
  {
    regs = Array.make 13 0;
    msp = Range.end_ Layout.kernel_sram;
    psp = 0;
    lr = 0;
    pc = 0;
    psr = 0;
    control = 0;
    control_pending = None;
    cpu_mode = Thread;
    mem;
    icache = Icache.create ();
    cyc = Cycles.handle Cycles.global;
    obs = None;
  }

let memory t = t.mem
let icache t = t.icache
let set_obs t sink = t.obs <- sink
let obs t = t.obs
let cycles t = t.cyc
let get t r = t.regs.(Regs.gpr_index r)

let set t r v =
  Cycles.charge_handle t.cyc Cycles.alu;
  t.regs.(Regs.gpr_index r) <- Word32.of_int v

let control_committed t = t.control
let mode t = t.cpu_mode

let privileged t =
  match t.cpu_mode with Handler -> true | Thread -> not (Word32.bit t.control 0)

let spsel t = Word32.bit t.control 1

let sp t = match t.cpu_mode with Handler -> t.msp | Thread -> if spsel t then t.psp else t.msp

let set_sp t v =
  match t.cpu_mode with
  | Handler -> t.msp <- v
  | Thread -> if spsel t then t.psp <- v else t.msp <- v

let exception_number t = Word32.bits t.psr ~hi:8 ~lo:0

let get_special t = function
  | Regs.Msp -> t.msp
  | Regs.Psp -> t.psp
  | Regs.Lr -> t.lr
  | Regs.Pc -> t.pc
  | Regs.Psr -> t.psr
  | Regs.Control -> ( match t.control_pending with Some v -> v | None -> t.control)
  | Regs.Ipsr -> exception_number t

let set_special_raw t reg v =
  let v = Word32.of_int v in
  match reg with
  | Regs.Msp -> t.msp <- v
  | Regs.Psp -> t.psp <- v
  | Regs.Lr -> t.lr <- v
  | Regs.Pc -> t.pc <- v
  | Regs.Psr -> t.psr <- v
  | Regs.Control ->
    t.control <- v land 0b11;
    t.control_pending <- None
  | Regs.Ipsr -> t.psr <- Word32.set_bits t.psr ~hi:8 ~lo:0 v

let set_mode t m = t.cpu_mode <- m

(* PC-only raw setter for the block dispatcher: no register match, no
   masking — callers pass already-masked Word32 values. *)
let set_pc t v = t.pc <- v
let pc t = t.pc

(* --- instruction methods --- *)

let mov t ~dst ~src =
  Cycles.charge_handle t.cyc Cycles.alu;
  t.regs.(Regs.gpr_index dst) <- get t src

(* guard first: requiref's happy path still walks the format spine, which
   is measurable at one call per emulated instruction *)
let movw_imm t r imm =
  if imm < 0 || imm > 0xffff then
    Verify.Violation.requiref "movw_imm" false "immediate %d" imm;
  Cycles.charge_handle t.cyc Cycles.alu;
  t.regs.(Regs.gpr_index r) <- imm

let movt_imm t r imm =
  if imm < 0 || imm > 0xffff then
    Verify.Violation.requiref "movt_imm" false "immediate %d" imm;
  Cycles.charge_handle t.cyc Cycles.alu;
  t.regs.(Regs.gpr_index r) <- Word32.set_bits (get t r) ~hi:31 ~lo:16 imm

let add_imm t r imm =
  Cycles.charge_handle t.cyc Cycles.alu;
  t.regs.(Regs.gpr_index r) <- Word32.add (get t r) imm

let sub_imm t r imm =
  Cycles.charge_handle t.cyc Cycles.alu;
  t.regs.(Regs.gpr_index r) <- Word32.sub (get t r) imm

(* The Figure 7 contract: IPSR is never writable; stack pointers must
   receive valid RAM addresses; CONTROL writes require privilege. The
   failure message is built only on failure: msr runs on every switch. *)
let msr t reg src =
  let v = get t src in
  Verify.Violation.require "msr: !is_ipsr(reg)" (not (Regs.is_ipsr reg));
  if (Regs.is_sp reg || Regs.is_psp reg) && not (Layout.in_sram v) then
    Verify.Violation.requiref "msr: sp gets valid ram addr" false "value=%s" (Word32.to_hex v);
  Cycles.charge_handle t.cyc Cycles.alu;
  match reg with
  | Regs.Control ->
    Verify.Violation.require "msr: control write is privileged" (privileged t);
    t.control_pending <- Some (v land 0b11)
  | Regs.Msp | Regs.Psp | Regs.Lr | Regs.Pc | Regs.Psr | Regs.Ipsr -> set_special_raw t reg v

let mrs t dst reg =
  Cycles.charge_handle t.cyc Cycles.alu;
  t.regs.(Regs.gpr_index dst) <- get_special t reg

let isb t =
  Cycles.charge_handle t.cyc Cycles.branch;
  match t.control_pending with
  | Some v ->
    t.control <- v;
    t.control_pending <- None
  | None -> ()

let dsb t = Cycles.charge_handle t.cyc Cycles.branch

let ldr t dst ~base ~offset =
  Cycles.charge_handle t.cyc Cycles.mem;
  t.regs.(Regs.gpr_index dst) <- Memory.load32 t.mem (Word32.add (get t base) offset)

let str t src ~base ~offset =
  Cycles.charge_handle t.cyc Cycles.mem;
  Memory.store32 t.mem (Word32.add (get t base) offset) (get t src)

let ldr_sp t dst ~offset =
  Cycles.charge_handle t.cyc Cycles.mem;
  t.regs.(Regs.gpr_index dst) <- Memory.load32 t.mem (Word32.add (sp t) offset)

let str_sp t src ~offset =
  Cycles.charge_handle t.cyc Cycles.mem;
  Memory.store32 t.mem (Word32.add (sp t) offset) (get t src)

let stmdb_sp t regs =
  let n = List.length regs in
  Cycles.charge_handle t.cyc (n * Cycles.mem);
  let base = Word32.sub (sp t) (4 * n) in
  List.iteri (fun i r -> Memory.store32 t.mem (Word32.add base (4 * i)) (get t r)) regs;
  set_sp t base

let ldmia_sp t regs =
  let n = List.length regs in
  Cycles.charge_handle t.cyc (n * Cycles.mem);
  let base = sp t in
  List.iteri (fun i r -> t.regs.(Regs.gpr_index r) <- Memory.load32 t.mem (Word32.add base (4 * i))) regs;
  set_sp t (Word32.add base (4 * n))

let stmia t ~base regs =
  Cycles.charge_handle t.cyc (List.length regs * Cycles.mem);
  let addr = get t base in
  List.iteri (fun i r -> Memory.store32 t.mem (Word32.add addr (4 * i)) (get t r)) regs

let ldmia t ~base regs =
  Cycles.charge_handle t.cyc (List.length regs * Cycles.mem);
  let addr = get t base in
  List.iteri
    (fun i r -> t.regs.(Regs.gpr_index r) <- Memory.load32 t.mem (Word32.add addr (4 * i)))
    regs

(* APSR flags live in PSR bits 31 (N), 30 (Z), 29 (C), 28 (V). *)
let write_flags_sub t a b =
  let result = Word32.sub a b in
  let n = Word32.bit result 31 in
  let z = result = 0 in
  let c = a >= b (* no borrow *) in
  let sa = Word32.bit a 31 and sb = Word32.bit b 31 and sr = Word32.bit result 31 in
  let v = sa <> sb && sr <> sa in
  let psr = t.psr in
  let psr = Word32.set_bit psr 31 n in
  let psr = Word32.set_bit psr 30 z in
  let psr = Word32.set_bit psr 29 c in
  let psr = Word32.set_bit psr 28 v in
  t.psr <- psr

let set_flags_sub t a b =
  Cycles.charge_handle t.cyc Cycles.alu;
  write_flags_sub t a b

let flag_z t = Word32.bit t.psr 30
let flag_n t = Word32.bit t.psr 31
let flag_c t = Word32.bit t.psr 29
let flag_v t = Word32.bit t.psr 28

let push_special t reg =
  Cycles.charge_handle t.cyc Cycles.mem;
  let base = Word32.sub (sp t) 4 in
  Memory.store32 t.mem base (get_special t reg);
  set_sp t base

let pop_special t reg =
  Cycles.charge_handle t.cyc Cycles.mem;
  let base = sp t in
  set_special_raw t reg (Memory.load32 t.mem base);
  set_sp t (Word32.add base 4)

let pseudo_ldr_special t reg v =
  Verify.Violation.require "pseudo_ldr_special: !is_ipsr(reg)" (not (Regs.is_ipsr reg));
  Cycles.charge_handle t.cyc Cycles.mem;
  set_special_raw t reg v

(* --- block compilation (the superblock engine's execution form) ---

   Compile a decoded block into macro-ops: closures with direct state
   access, specialized per instruction at publish time (register indices
   resolved, branch targets precomputed, immediate contracts pre-validated)
   and with runs of consecutive *pure* ALU instructions fused into a single
   closure. Semantics must be bit-identical to Mc.exec over the same
   entries — same register/memory/flag effects, same cycle charges, same
   fault points with the same architectural state at the fault.

   Invariants the fusion relies on:
   - a "pure" instruction cannot fault, cannot stop, cannot touch memory,
     and neither reads nor writes the PC, so within a pure run only the
     cumulative cycle charge and the final PC are observable — both are
     applied once at the end of the run;
   - every non-pure macro-op sets the PC to its own next_pc *before*
     executing (exactly like the interpreted dispatcher), so at any fault
     or stop the architectural PC is what the uncached engine would show;
   - the caller only runs macro-ops when remaining fuel covers the whole
     block, so Out_of_fuel can never land inside a fused run (the
     dispatcher falls back to the interpreted per-instruction form when
     fuel is short).

   Rare instructions (msr/mrs/isb/bx and out-of-range immediates that must
   fault through the contract checks) defer to [fallback] — Mc.exec — with
   a conservative writes-flag, keeping their runtime contracts verbatim. *)

let compile_block t ~fallback (entries : Icache.entry array) =
  let cyc = t.cyc in
  let mem = t.mem in
  let regs = t.regs in
  let gi = Regs.gpr_index in
  (* accumulated macro-ops, reversed: (op, may_write_memory, instr_count) *)
  let ops = ref [] in
  (* pending run of pure bodies, reversed *)
  let pure = ref [] in
  let pure_cyc = ref 0 in
  let pure_n = ref 0 in
  let pure_npc = ref 0 in
  let flush_pure () =
    if !pure_n > 0 then begin
      let total = !pure_cyc in
      let npc = !pure_npc in
      let op =
        match !pure with
        | [ b0 ] ->
          fun () ->
            b0 ();
            cyc.Cycles.count <- cyc.Cycles.count + total;
            t.pc <- npc;
            None
        | bodies ->
          let bodies = Array.of_list (List.rev bodies) in
          let nb = Array.length bodies in
          fun () ->
            for i = 0 to nb - 1 do
              (Array.unsafe_get bodies i) ()
            done;
            cyc.Cycles.count <- cyc.Cycles.count + total;
            t.pc <- npc;
            None
      in
      ops := (op, false, !pure_n) :: !ops;
      pure := [];
      pure_cyc := 0;
      pure_n := 0
    end
  in
  let add_pure body cost npc =
    pure := body :: !pure;
    pure_cyc := !pure_cyc + cost;
    incr pure_n;
    pure_npc := npc
  in
  let add_full op writes =
    flush_pure ();
    ops := (op, writes, 1) :: !ops
  in
  let reg_indices l = Array.of_list (List.map gi l) in
  Array.iter
    (fun (e : Icache.entry) ->
      let npc = e.Icache.next_pc in
      match e.Icache.instr with
      | Thumb.Nop -> add_pure (fun () -> ()) 0 npc
      | Thumb.Mov_reg (rd, rm) ->
        let rd = gi rd and rm = gi rm in
        add_pure
          (fun () -> Array.unsafe_set regs rd (Array.unsafe_get regs rm))
          Cycles.alu npc
      | Thumb.Movw (rd, v) when v >= 0 && v <= 0xffff ->
        let rd = gi rd in
        add_pure (fun () -> Array.unsafe_set regs rd v) Cycles.alu npc
      | Thumb.Movt (rd, v) when v >= 0 && v <= 0xffff ->
        let rd = gi rd in
        add_pure
          (fun () ->
            Array.unsafe_set regs rd
              (Word32.set_bits (Array.unsafe_get regs rd) ~hi:31 ~lo:16 v))
          Cycles.alu npc
      | Thumb.Addw (rd, rn, v) ->
        let rd = gi rd and rn = gi rn in
        add_pure
          (fun () -> Array.unsafe_set regs rd (Word32.add (Array.unsafe_get regs rn) v))
          Cycles.alu npc
      | Thumb.Subw (rd, rn, v) ->
        let rd = gi rd and rn = gi rn in
        add_pure
          (fun () -> Array.unsafe_set regs rd (Word32.sub (Array.unsafe_get regs rn) v))
          Cycles.alu npc
      | Thumb.Cmp_lr rm ->
        let rm = gi rm in
        add_pure (fun () -> write_flags_sub t t.lr (Array.unsafe_get regs rm)) Cycles.alu npc
      | Thumb.Mov_from_lr rd ->
        let rd = gi rd in
        add_pure (fun () -> Array.unsafe_set regs rd t.lr) Cycles.alu npc
      | Thumb.Mov_to_lr rm ->
        let rm = gi rm in
        add_pure (fun () -> t.lr <- Array.unsafe_get regs rm) Cycles.alu npc
      | Thumb.Cpsid | Thumb.Cpsie -> add_pure (fun () -> ()) Cycles.alu npc
      | Thumb.Dsb | Thumb.Dmb -> add_pure (fun () -> ()) Cycles.branch npc
      | Thumb.Ldr_imm (rt, rn, off) ->
        let rt = gi rt and rn = gi rn in
        add_full
          (fun () ->
            t.pc <- npc;
            cyc.Cycles.count <- cyc.Cycles.count + Cycles.mem;
            Array.unsafe_set regs rt
              (Memory.load32_fast mem (Word32.add (Array.unsafe_get regs rn) off));
            None)
          false
      | Thumb.Str_imm (rt, rn, off) ->
        let rt = gi rt and rn = gi rn in
        add_full
          (fun () ->
            t.pc <- npc;
            cyc.Cycles.count <- cyc.Cycles.count + Cycles.mem;
            Memory.store32_fast mem
              (Word32.add (Array.unsafe_get regs rn) off)
              (Array.unsafe_get regs rt);
            None)
          true
      | Thumb.Ldmia (rn, wb, rl) ->
        let rni = gi rn in
        let idxs = reg_indices rl in
        let n = Array.length idxs in
        let wb' = wb && not (List.mem rn rl) in
        add_full
          (fun () ->
            t.pc <- npc;
            cyc.Cycles.count <- cyc.Cycles.count + (n * Cycles.mem);
            let base = Array.unsafe_get regs rni in
            for i = 0 to n - 1 do
              Array.unsafe_set regs
                (Array.unsafe_get idxs i)
                (Memory.load32_fast mem (Word32.add base (4 * i)))
            done;
            if wb' then begin
              cyc.Cycles.count <- cyc.Cycles.count + Cycles.alu;
              Array.unsafe_set regs rni (Word32.add base (4 * n))
            end;
            None)
          false
      | Thumb.Stmia (rn, wb, rl) ->
        let rni = gi rn in
        let idxs = reg_indices rl in
        let n = Array.length idxs in
        add_full
          (fun () ->
            t.pc <- npc;
            cyc.Cycles.count <- cyc.Cycles.count + (n * Cycles.mem);
            let base = Array.unsafe_get regs rni in
            for i = 0 to n - 1 do
              Memory.store32_fast mem (Word32.add base (4 * i))
                (Array.unsafe_get regs (Array.unsafe_get idxs i))
            done;
            if wb then begin
              cyc.Cycles.count <- cyc.Cycles.count + Cycles.alu;
              Array.unsafe_set regs rni (Word32.add base (4 * n))
            end;
            None)
          true
      | Thumb.Stmdb (rn, wb, rl) ->
        let rni = gi rn in
        let idxs = reg_indices rl in
        let n = Array.length idxs in
        add_full
          (fun () ->
            t.pc <- npc;
            let base = Word32.sub (Array.unsafe_get regs rni) (4 * n) in
            cyc.Cycles.count <- cyc.Cycles.count + (n * Cycles.mem);
            for i = 0 to n - 1 do
              Memory.store32_fast mem (Word32.add base (4 * i))
                (Array.unsafe_get regs (Array.unsafe_get idxs i))
            done;
            if wb then begin
              cyc.Cycles.count <- cyc.Cycles.count + Cycles.alu;
              Array.unsafe_set regs rni base
            end;
            None)
          true
      | Thumb.Push (rl, with_lr) ->
        let idxs = reg_indices rl in
        let n = Array.length idxs in
        add_full
          (fun () ->
            t.pc <- npc;
            if with_lr then begin
              cyc.Cycles.count <- cyc.Cycles.count + Cycles.mem;
              let base = Word32.sub (sp t) 4 in
              Memory.store32_fast mem base t.lr;
              set_sp t base
            end;
            cyc.Cycles.count <- cyc.Cycles.count + (n * Cycles.mem);
            let base = Word32.sub (sp t) (4 * n) in
            for i = 0 to n - 1 do
              Memory.store32_fast mem (Word32.add base (4 * i))
                (Array.unsafe_get regs (Array.unsafe_get idxs i))
            done;
            set_sp t base;
            None)
          true
      | Thumb.Pop (rl, with_pc) ->
        let idxs = reg_indices rl in
        let n = Array.length idxs in
        add_full
          (fun () ->
            t.pc <- npc;
            cyc.Cycles.count <- cyc.Cycles.count + (n * Cycles.mem);
            let base = sp t in
            for i = 0 to n - 1 do
              Array.unsafe_set regs
                (Array.unsafe_get idxs i)
                (Memory.load32_fast mem (Word32.add base (4 * i)))
            done;
            set_sp t (Word32.add base (4 * n));
            if with_pc then begin
              cyc.Cycles.count <- cyc.Cycles.count + Cycles.mem;
              let base = sp t in
              t.pc <- Memory.load32_fast mem base;
              set_sp t (Word32.add base 4)
            end;
            None)
          false
      | Thumb.Svc imm -> add_full (fun () -> t.pc <- npc; Some (Icache.Svc_taken imm)) false
      | Thumb.B_cond (`Eq, off) ->
        let tgt = Word32.add npc ((off * 2) + 2) in
        add_full
          (fun () ->
            t.pc <- npc;
            cyc.Cycles.count <- cyc.Cycles.count + Cycles.branch;
            if Word32.bit t.psr 30 then t.pc <- tgt;
            None)
          false
      | Thumb.B_cond (`Ne, off) ->
        let tgt = Word32.add npc ((off * 2) + 2) in
        add_full
          (fun () ->
            t.pc <- npc;
            cyc.Cycles.count <- cyc.Cycles.count + Cycles.branch;
            if not (Word32.bit t.psr 30) then t.pc <- tgt;
            None)
          false
      | (Thumb.Movw _ | Thumb.Movt _ | Thumb.Mrs _ | Thumb.Msr _ | Thumb.Isb | Thumb.Bx _) as
        instr ->
        (* contract-bearing or stopping instructions: run the interpreter
           case verbatim (conservative writes-flag: re-checking the code
           generation when it cannot have moved is harmless) *)
        add_full (fun () -> t.pc <- npc; fallback instr) true)
    entries;
  flush_pure ();
  let l = List.rev !ops in
  ( Array.of_list (List.map (fun (o, _, _) -> o) l),
    Array.of_list (List.map (fun (_, w, _) -> w) l),
    Array.of_list (List.map (fun (_, _, c) -> c) l) )

(* --- whole-state capture (the snapshot subsystem) --- *)

type state = {
  st_regs : Word32.t array;
  st_msp : Word32.t;
  st_psp : Word32.t;
  st_lr : Word32.t;
  st_pc : Word32.t;
  st_psr : Word32.t;
  st_control : Word32.t;
  st_control_pending : Word32.t option;
  st_mode : mode;
}

let capture_state t =
  {
    st_regs = Array.copy t.regs;
    st_msp = t.msp;
    st_psp = t.psp;
    st_lr = t.lr;
    st_pc = t.pc;
    st_psr = t.psr;
    st_control = t.control;
    st_control_pending = t.control_pending;
    st_mode = t.cpu_mode;
  }

let restore_state t s =
  Array.blit s.st_regs 0 t.regs 0 (Array.length t.regs);
  t.msp <- s.st_msp;
  t.psp <- s.st_psp;
  t.lr <- s.st_lr;
  t.pc <- s.st_pc;
  t.psr <- s.st_psr;
  t.control <- s.st_control;
  t.control_pending <- s.st_control_pending;
  t.cpu_mode <- s.st_mode

let fingerprint t =
  let h = Array.fold_left Fp.int Fp.seed t.regs in
  let h = List.fold_left Fp.int h [ t.msp; t.psp; t.lr; t.pc; t.psr; t.control ] in
  let h = Fp.int h (match t.control_pending with None -> -1 | Some v -> v) in
  Fp.bool h (t.cpu_mode = Handler)

(* --- snapshots and contracts --- *)

type snapshot = {
  snap_callee : Word32.t list;
  snap_msp : Word32.t;
  snap_control : Word32.t;
  snap_mode : mode;
}

let snapshot t =
  {
    snap_callee = List.map (get t) Regs.callee_saved;
    snap_msp = t.msp;
    snap_control = t.control;
    snap_mode = t.cpu_mode;
  }

let callee_saved_of s = s.snap_callee
let msp_of s = s.snap_msp

let cpu_state_correct ~old t =
  let now = List.map (get t) Regs.callee_saved in
  if now <> old.snap_callee then Error "callee-saved registers not preserved"
  else if t.msp <> old.snap_msp then
    Error
      (Printf.sprintf "kernel stack pointer changed: %s -> %s" (Word32.to_hex old.snap_msp)
         (Word32.to_hex t.msp))
  else if t.cpu_mode <> Thread then Error "not back in thread mode"
  else if not (privileged t) then Error "CPU not in privileged execution mode"
  else Ok ()

let pp ppf t =
  Format.fprintf ppf "@[<v>cpu mode=%s priv=%b control=%s@,"
    (match t.cpu_mode with Thread -> "thread" | Handler -> "handler")
    (privileged t) (Word32.to_hex t.control);
  Format.fprintf ppf "  msp=%s psp=%s lr=%s pc=%s psr=%s@," (Word32.to_hex t.msp)
    (Word32.to_hex t.psp) (Word32.to_hex t.lr) (Word32.to_hex t.pc) (Word32.to_hex t.psr);
  List.iteri
    (fun i v -> if i mod 4 = 0 then Format.fprintf ppf "  r%d..: " i;
      Format.fprintf ppf "%s " (Word32.to_hex v);
      if i mod 4 = 3 then Format.fprintf ppf "@,")
    (Array.to_list t.regs);
  Format.fprintf ppf "@]"
