(* The stop type is defined in Icache (compiled micro-ops return it) and
   re-exported here under its historical name and constructors. *)
type stop = Icache.stop =
  | Svc_taken of int
  | Exc_return of Word32.t
  | Bx_reg of Word32.t
  | Decode_error of string
  | Out_of_fuel

let fetch16 cpu addr =
  (* instruction fetch: checked with execute rights, halfword granularity;
     Memory.fetch16 consults the MPU decision cache and the last-page
     cache, so a straight-line fetch loop costs one probe + one 16-bit
     read per instruction *)
  Memory.fetch16 (Cpu.memory cpu) addr

let exec cpu instr =
  let module R = Regs in
  match (instr : Thumb.instr) with
  | Thumb.Nop -> None
  | Thumb.Mov_reg (rd, rm) ->
    Cpu.mov cpu ~dst:rd ~src:rm;
    None
  | Thumb.Movw (rd, v) ->
    Cpu.movw_imm cpu rd v;
    None
  | Thumb.Movt (rd, v) ->
    Cpu.movt_imm cpu rd v;
    None
  | Thumb.Addw (rd, rn, v) ->
    Cpu.set cpu rd (Word32.add (Cpu.get cpu rn) v);
    None
  | Thumb.Subw (rd, rn, v) ->
    Cpu.set cpu rd (Word32.sub (Cpu.get cpu rn) v);
    None
  | Thumb.Ldr_imm (rt, rn, off) ->
    Cpu.ldr cpu rt ~base:rn ~offset:off;
    None
  | Thumb.Str_imm (rt, rn, off) ->
    Cpu.str cpu rt ~base:rn ~offset:off;
    None
  | Thumb.Ldmia (rn, wb, regs) ->
    let base = Cpu.get cpu rn in
    Cpu.ldmia cpu ~base:rn regs;
    if wb && not (List.mem rn regs) then
      Cpu.set cpu rn (Word32.add base (4 * List.length regs));
    None
  | Thumb.Stmia (rn, wb, regs) ->
    let base = Cpu.get cpu rn in
    Cpu.stmia cpu ~base:rn regs;
    if wb then Cpu.set cpu rn (Word32.add base (4 * List.length regs));
    None
  | Thumb.Stmdb (rn, wb, regs) ->
    (* store multiple decrement-before relative to rn *)
    let base = Word32.sub (Cpu.get cpu rn) (4 * List.length regs) in
    let mem = Cpu.memory cpu in
    Cycles.charge_handle (Cpu.cycles cpu) (List.length regs * Cycles.mem);
    List.iteri (fun i r -> Memory.store32 mem (Word32.add base (4 * i)) (Cpu.get cpu r)) regs;
    if wb then Cpu.set cpu rn base;
    None
  | Thumb.Push (regs, with_lr) ->
    if with_lr then Cpu.push_special cpu R.Lr;
    Cpu.stmdb_sp cpu regs;
    None
  | Thumb.Pop (regs, with_pc) ->
    Cpu.ldmia_sp cpu regs;
    if with_pc then Cpu.pop_special cpu R.Pc;
    None
  | Thumb.Mrs (rd, spec) ->
    Cpu.mrs cpu rd spec;
    None
  | Thumb.Msr (spec, rn) ->
    Cpu.msr cpu spec rn;
    None
  | Thumb.Isb ->
    Cpu.isb cpu;
    None
  | Thumb.Dsb | Thumb.Dmb ->
    Cpu.dsb cpu;
    None
  | Thumb.Svc imm ->
    Some (Svc_taken imm)
  | Thumb.Bx `Lr ->
    let lr = Cpu.get_special cpu R.Lr in
    if Exn.is_exc_return lr then Some (Exc_return lr)
    else begin
      Cpu.set_special_raw cpu R.Pc lr;
      Some (Bx_reg lr)
    end
  | Thumb.Bx (`Reg rm) ->
    let target = Cpu.get cpu rm in
    if Exn.is_exc_return target then Some (Exc_return target)
    else begin
      Cpu.set_special_raw cpu R.Pc target;
      Some (Bx_reg target)
    end
  | Thumb.Cpsid | Thumb.Cpsie ->
    Cycles.charge_handle (Cpu.cycles cpu) Cycles.alu;
    None
  | Thumb.Cmp_lr rm ->
    Cpu.set_flags_sub cpu (Cpu.get_special cpu R.Lr) (Cpu.get cpu rm);
    None
  | Thumb.Mov_from_lr rd ->
    Cpu.set cpu rd (Cpu.get_special cpu R.Lr);
    None
  | Thumb.Mov_to_lr rm ->
    Cycles.charge_handle (Cpu.cycles cpu) Cycles.alu;
    Cpu.set_special_raw cpu R.Lr (Cpu.get cpu rm);
    None
  | Thumb.B_cond (cond, off) ->
    Cycles.charge_handle (Cpu.cycles cpu) Cycles.branch;
    let taken = match cond with `Eq -> Cpu.flag_z cpu | `Ne -> not (Cpu.flag_z cpu) in
    if taken then begin
      (* target = address of this instruction + 4 + offset*2; PC has
         already advanced past the 2-byte instruction. *)
      let pc = Cpu.get_special cpu R.Pc in
      Cpu.set_special_raw cpu R.Pc (Word32.add pc ((off * 2) + 2))
    end;
    None

(* A decode failure names the PC it happened at: fuzz-found hangs and
   stray jumps are untriageable without the address. *)
let decode_stop pc e = Decode_error (Printf.sprintf "%s at pc=%s" e (Word32.to_hex pc))

(* Decode the instruction at [pc], reproducing the slow path's execute
   checks exactly: check (and on a miss, fetch) the first halfword, then —
   only for a 32-bit encoding — the second. A cached decode skips the data
   reads and the decoder chain, never the MPU consultation. *)
let decode_at cpu pc =
  let mem = Cpu.memory cpu in
  let ic = Cpu.icache cpu in
  let gen = Memory.code_generation mem in
  match Icache.probe_decode ic ~gen pc with
  | Some (instr, size) ->
    Memory.check_fetch16 mem pc;
    if size = 4 then Memory.check_fetch16 mem (Word32.add pc 2);
    Ok (instr, size)
  | None ->
    let hw1 = Memory.fetch16 mem pc in
    (match Thumb.decode hw1 (fun () -> Memory.fetch16 mem (Word32.add pc 2)) with
    | Error e -> Error e
    | Ok instr ->
      let size = if Thumb.is_32bit hw1 then 4 else 2 in
      Memory.note_code_page mem pc;
      if size = 4 then Memory.note_code_page mem (Word32.add pc 2);
      Icache.insert_decode ic ~gen pc instr size;
      Ok (instr, size))

let step_uncached cpu =
  let pc = Cpu.get_special cpu Regs.Pc in
  let hw1 = fetch16 cpu pc in
  match Thumb.decode hw1 (fun () -> fetch16 cpu (Word32.add pc 2)) with
  | Error e -> Some (decode_stop pc e)
  | Ok instr ->
    let size = if Thumb.is_32bit hw1 then 4 else 2 in
    Cpu.set_special_raw cpu Regs.Pc (Word32.add pc size);
    exec cpu instr

let step cpu =
  if not (Icache.enabled (Cpu.icache cpu)) then step_uncached cpu
  else begin
    let pc = Cpu.get_special cpu Regs.Pc in
    match decode_at cpu pc with
    | Error e -> Some (decode_stop pc e)
    | Ok (instr, size) ->
      Cpu.set_special_raw cpu Regs.Pc (Word32.add pc size);
      exec cpu instr
  end

(* --- basic-block dispatch --- *)

let block_cap = 32

(* Superblock traces end at the cap even when every link keeps hitting: a
   hot loop that never triggers an exit condition would otherwise chain an
   entire measurement window into one unbounded trace, which both skews
   the trace-length statistics (BENCH_icache once reported avg_trace_len
   = the whole window) and starves the dispatcher's revalidation point.
   Exiting at the cap is semantically free — the trace exit re-enters the
   dispatcher at the current pc, exactly like a link miss — and costs one
   dispatch per [trace_cap] blocks. *)
let trace_cap = 256

(* Validate (or refresh) a block's execute-permission stamp. A valid stamp
   means every halfword of the block was allowed under the current
   (checker, MPU generation, privilege) — sound to reuse because none of
   those changed since, and the block never crosses a decision-granule
   boundary, so one allow covers it wholesale. The refresh walks the exact
   per-halfword checks the slow path would perform at each fetch, in fetch
   order, so a denial faults with the identical fault record — and before
   a single instruction of the block has executed, which is also identical:
   inside one granule, a denial anywhere is a denial at the first fetch. *)
let stamp_ok mem (b : Icache.block) =
  match Memory.get_checker mem with
  | None -> true
  | Some c ->
    let epoch = Memory.checker_epoch mem in
    let gen = c.Memory.generation () in
    let priv = c.Memory.privilege () in
    if b.Icache.stamp_epoch = epoch && b.Icache.stamp_gen = gen && b.Icache.stamp_priv = priv
    then true
    else begin
      let g = c.Memory.granule_bits () in
      if g < 1 then false (* byte-stateful checker: never block-checked *)
      else if b.Icache.start lsr g <> (b.Icache.start + b.Icache.byte_len - 1) lsr g then
        false (* granularity became finer than the block: step instead *)
      else begin
        Array.iter
          (fun (e : Icache.entry) ->
            Memory.check_fetch16 mem e.Icache.eaddr;
            if e.Icache.isize = 4 then Memory.check_fetch16 mem (Word32.add e.Icache.eaddr 2))
          b.Icache.entries;
        b.Icache.stamp_epoch <- epoch;
        b.Icache.stamp_gen <- gen;
        b.Icache.stamp_priv <- priv;
        true
      end
    end

(* Interpret a stamped block's entries — the form a trace uses when the
   remaining fuel is shorter than the block. Fuel is charged per
   instruction so [Out_of_fuel] lands on exactly the same instruction as
   single-stepping. Bails out (without a stop) if an executed store
   invalidated the code generation — the remaining decoded entries may be
   stale. Returns (instructions executed, stop). *)
let exec_block cpu mem (b : Icache.block) fuel =
  let gen0 = b.Icache.built_gen in
  let entries = b.Icache.entries in
  let n = Array.length entries in
  let rec go i used =
    if i >= n then (used, None)
    else if used >= fuel then (used, Some Out_of_fuel)
    else begin
      let e = Array.unsafe_get entries i (* i < n = length *) in
      Cpu.set_pc cpu e.Icache.next_pc;
      match exec cpu e.Icache.instr with
      | Some stop -> (used + 1, Some stop)
      | None ->
        if Memory.code_generation mem <> gen0 then (used + 1, None)
        else go (i + 1) (used + 1)
    end
  in
  go 0 0

(* Execute a stamped block's compiled macro-ops. The caller guarantees
   remaining fuel covers the whole block, so Out_of_fuel cannot land
   inside (fuel-short dispatches use the interpreted [exec_block]).
   Per-instruction accounting comes from the per-macro-op counts; the
   code-generation re-check runs only after macro-ops that can write
   memory — the only instructions that can move it. Returns
   (instructions executed, stop). *)
let exec_block_fast mem (b : Icache.block) =
  let gen0 = b.Icache.built_gen in
  let ops = b.Icache.ops in
  let wmask = b.Icache.wmask in
  let mcount = b.Icache.mcount in
  let nm = Array.length ops in
  let rec go i used =
    if i >= nm then (used, None)
    else begin
      let used = used + Array.unsafe_get mcount i in
      match (Array.unsafe_get ops i) () with
      | Some _ as stop -> (used, stop)
      | None ->
        if Array.unsafe_get wmask i && Memory.code_generation mem <> gen0 then (used, None)
        else go (i + 1) used
    end
  in
  go 0 0

let run ?(fuel = 10_000) cpu =
  let mem = Cpu.memory cpu in
  let ic = Cpu.icache cpu in
  if not (Icache.enabled ic) then begin
    (* the pre-cache engine: fetch and decode every instruction *)
    let rec slow n =
      if n <= 0 then Out_of_fuel
      else match step_uncached cpu with None -> slow (n - 1) | Some stop -> stop
    in
    slow fuel
  end
  else begin
    let compile = Cpu.compile_block cpu ~fallback:(fun i -> exec cpu i) in
    let rec loop n =
      if n <= 0 then Out_of_fuel
      else begin
        let pc = Cpu.get_special cpu Regs.Pc in
        match Icache.find_block ic ~gen:(Memory.code_generation mem) pc with
        | Some b when stamp_ok mem b -> trace b n
        | _ -> build pc n
      end
    (* Superblock trace: execute the dispatched block, then follow (or
       install) a link to its successor instead of re-entering the
       dispatcher — the QEMU-TB-chaining shape. The (checker epoch, MPU
       generation, privilege) triple is hoisted once per trace entry; a
       link is followed only while the successor's stamp equals that
       triple and its decode generation equals the trace's, so the chain's
       single entry check covers the union of the linked blocks exactly
       (every member was stamped under the same triple when it joined).
       Soundness of keeping the triple hoisted across the trace:
       - MPU generation and checker epoch cannot change inside [run] (MPU
         registers are not bus-mapped; checker swaps are host-side);
       - privilege can change only at an isb committing a pending CONTROL
         write, and isb terminates its block with [Term_exit], which ends
         the trace before the next dispatch;
       - code changes (stores/loader/blit/restore) bump the code
         generation, which is re-checked after every potentially-writing
         macro-op and ends the trace.
       Links themselves are host cache state: following one produces the
       same architectural steps the dispatcher would. *)
    and trace b0 n0 =
      Memory.hoist mem;
      let gen0 = Memory.code_generation mem in
      let chk, ep, gv, pv =
        match Memory.get_checker mem with
        | None -> (false, 0, 0, 0)
        | Some c ->
          (true, Memory.checker_epoch mem, c.Memory.generation (), c.Memory.privilege ())
      in
      let valid (s : Icache.block) pc' =
        s.Icache.start = pc' && s.Icache.built_gen = gen0
        && ((not chk)
           || (s.Icache.stamp_epoch = ep && s.Icache.stamp_gen = gv
              && s.Icache.stamp_priv = pv))
      in
      (* install: the dispatcher's own dispatch condition (find + stamp),
         so a freshly linked successor was checked exactly as a fresh
         dispatch would have checked it *)
      let install pc' =
        match Icache.find_block ic ~gen:gen0 pc' with
        | Some s when stamp_ok mem s && valid s pc' -> Some s
        | _ -> None
      in
      (* coverage sees one note per block entry here, exactly as [build]
         notes one per block it records — the fuzzer's bitmap does not
         depend on which path ran a block *)
      let rec chain b n blocks =
        Icache.cov_note ic b.Icache.start;
        let used, stop =
          if n >= Array.length b.Icache.entries then exec_block_fast mem b
          else exec_block cpu mem b n
        in
        Icache.record_hit ic used;
        let n = n - used in
        match stop with
        | Some s ->
          Icache.record_trace ic ~blocks;
          s
        | None ->
          if Memory.code_generation mem <> gen0 then exit_trace n blocks
          else if n <= 0 then begin
            Icache.record_trace ic ~blocks;
            Out_of_fuel
          end
          else if blocks >= trace_cap then exit_trace n blocks
          else begin
            let pc' = Cpu.pc cpu in
            match b.Icache.term with
            | Icache.Term_exit -> exit_trace n blocks
            | Icache.Term_fall | Icache.Term_cond -> (
              let taken = pc' <> b.Icache.fall_pc in
              let slot = if taken then b.Icache.link_taken else b.Icache.link_next in
              match slot with
              | Some s when valid s pc' ->
                Icache.record_link_hit ic;
                chain s n (blocks + 1)
              | stale -> (
                Icache.record_link_miss ic;
                (match stale with
                | Some _ -> Icache.record_link_flush ic
                | None -> ());
                match install pc' with
                | Some s ->
                  if taken then b.Icache.link_taken <- Some s
                  else b.Icache.link_next <- Some s;
                  chain s n (blocks + 1)
                | None -> exit_trace n blocks))
          end
      and exit_trace n blocks =
        Icache.record_trace ic ~blocks;
        loop n
      in
      chain b0 n0 1
    (* Cold path: single-step (through the decode cache) while recording
       decoded entries, ending the block at a control transfer, the length
       cap, a decision-granule edge, a decode error, or fuel exhaustion;
       then publish it for the next visit. Execution is the slow path
       verbatim — the recording is invisible. *)
    and build pc0 n0 =
      Icache.cov_note ic pc0;
      Icache.record_miss ic;
      let gen0 = Memory.code_generation mem in
      let g =
        match Memory.get_checker mem with
        | None -> -1 (* no execute checks: no granule constraint *)
        | Some c -> c.Memory.granule_bits ()
      in
      if g = 0 then begin
        (* byte-stateful checker: blocks could never be stamped — step
           until something stops us, without recording *)
        let rec slow n =
          if n <= 0 then Out_of_fuel
          else begin
            Icache.record_instrs ic 1;
            match step cpu with None -> slow (n - 1) | Some stop -> stop
          end
        in
        slow n0
      end
      else begin
        let fits bytes = g < 0 || pc0 lsr g = (pc0 + bytes - 1) lsr g in
        let publish acc = Icache.publish_block ic ~gen:gen0 pc0 acc ~compile in
        let rec go acc count bytes n =
          if n <= 0 then begin
            publish acc;
            Out_of_fuel
          end
          else begin
            let pc = Cpu.get_special cpu Regs.Pc in
            match decode_at cpu pc with
            | Error e ->
              publish acc;
              decode_stop pc e
            | Ok (instr, size) ->
              if count > 0 && (count >= block_cap || not (fits (bytes + size))) then begin
                publish acc;
                loop n (* start a fresh block at this pc *)
              end
              else if count = 0 && not (fits (bytes + size)) then begin
                (* a single instruction spanning a granule edge (e.g. a
                   32-bit encoding under PMP NA4): execute uncached *)
                Icache.record_instrs ic 1;
                Cpu.set_special_raw cpu Regs.Pc (Word32.add pc size);
                match exec cpu instr with Some stop -> stop | None -> loop (n - 1)
              end
              else begin
                Icache.record_instrs ic 1;
                let npc = Word32.add pc size in
                Cpu.set_special_raw cpu Regs.Pc npc;
                match exec cpu instr with
                | Some stop ->
                  publish ({ Icache.eaddr = pc; instr; isize = size; next_pc = npc } :: acc);
                  stop
                | None ->
                  let acc = { Icache.eaddr = pc; instr; isize = size; next_pc = npc } :: acc in
                  if Memory.code_generation mem <> gen0 then
                    (* self-modifying store: the recorded decodes are
                       suspect — drop them and start over *)
                    loop (n - 1)
                  else if Thumb.terminates_block instr then begin
                    publish acc;
                    loop (n - 1)
                  end
                  else go acc (count + 1) (bytes + size) (n - 1)
              end
          end
        in
        go [] 0 0 n0
      end
    in
    loop fuel
  end

let run_handler cpu ~entry =
  Verify.Violation.require "mc.run_handler: handler mode" (Cpu.mode cpu = Cpu.Handler);
  Cpu.set_special_raw cpu Regs.Pc entry;
  match run cpu with
  | Exc_return v -> v
  | Svc_taken _ -> failwith "mc.run_handler: handler executed svc"
  | Bx_reg a -> failwith (Printf.sprintf "mc.run_handler: stray bx to %s" (Word32.to_hex a))
  | Decode_error e -> failwith ("mc.run_handler: " ^ e)
  | Out_of_fuel ->
    failwith
      (Printf.sprintf "mc.run_handler: out of fuel at pc=%s"
         (Word32.to_hex (Cpu.get_special cpu Regs.Pc)))
