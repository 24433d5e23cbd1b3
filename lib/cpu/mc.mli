(** Machine-code execution: fetch–decode–execute over {!Thumb} encodings.

    This closes FluxArm's loop: handler code assembled into modeled flash
    (real halfwords, checked instruction fetches) executes through the same
    {!Cpu} instruction methods — and hence the same contracts — as the
    method-level model. {!Handlers_mc} uses it to run Tock's actual handler
    sequences from memory and differentially validate them against
    {!Handlers}.

    {2 Decode cache and basic-block dispatch}

    Flash is overwhelmingly immutable between reloads, so the engine keeps
    a decoded-instruction cache and a basic-block cache (see {!Icache}) on
    each {!Cpu.t}. [run] decodes straight-line runs once; after that every
    dispatch enters a trace: blocks chain directly into their successors
    and execute as compiled superblocks — one permission stamp check per
    trace entry and per newly joined block, with the bus fast path hoisted
    across the trace ({!Memory.hoist}). All of it is {e semantically
    invisible}: cycle counts, fault ordering, fuel accounting and stop
    values are bit-identical to the uncached engine
    ([Icache.set_enabled false]), the lockstep reference. Invalidation is
    automatic — stores and loader writes into pages that ever fed the
    decoder bump a code generation ({!Memory.code_generation}), and MPU
    reprogramming or privilege changes invalidate only the per-block
    permission stamp, not the decoded bodies; trace links revalidate both
    on every follow. *)

type stop = Icache.stop =
  | Svc_taken of int  (** an [svc #imm] was executed; PC points after it *)
  | Exc_return of Word32.t  (** [bx lr] with LR holding an EXC_RETURN value *)
  | Bx_reg of Word32.t  (** [bx] to an ordinary address *)
  | Decode_error of string  (** message includes the faulting PC in hex *)
  | Out_of_fuel

val step : Cpu.t -> stop option
(** Fetch at PC (a {e checked} execute access — fetching from memory the
    MPU denies faults like any other access), decode, advance PC, execute.
    [None] means normal fall-through to the next instruction. *)

val run : ?fuel:int -> Cpu.t -> stop
(** Step until something stops execution (default fuel 10_000). *)

val run_handler : Cpu.t -> entry:Word32.t -> Word32.t
(** Run a handler body at [entry] in handler mode until it executes
    [bx lr] with an EXC_RETURN value; returns that value. Raises
    [Failure] on any other stop — handlers are straight-line code ending
    in an exception return. *)
