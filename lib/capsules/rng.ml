(** RNG capsule (Tock's [rng] driver, number 8 here).

    The process allows a read-write buffer and commands [get n]: the
    capsule fills [n] bytes through the mediated handle from a
    deterministic xorshift32 stream (seeded per board, so runs are
    reproducible) and schedules the completion upcall with the count.

    [stall] is a fault-injection hook: while positive, each [get] command
    decrements it and fails — the modeled entropy source has transiently
    run dry, and a retrying client masks the fault. *)

open Ticktock

let driver_num = 8

let capsule_reseed ?(seed = 0x2545_F491) ?(stall = ref 0) () =
  let norm seed = if seed = 0 then 1 else seed land Word32.mask in
  let state = ref (norm seed) in
  let next_byte () =
    (* xorshift32 *)
    let x = !state in
    let x = x lxor (x lsl 13) land Word32.mask in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) land Word32.mask in
    state := x;
    x land 0xff
  in
  let command (ph : Capsule_intf.process_handle) ~cmd ~arg1 ~arg2 =
    ignore arg2;
    if cmd = 0 then Userland.success
    else if cmd = 1 && !stall > 0 then begin
      decr stall;
      Userland.failure
    end
    else if cmd = 1 then begin
      match ph.Capsule_intf.ph_allowed_rw () with
      | None -> Userland.failure
      | Some buf ->
        let len = min arg1 (Range.size buf) in
        let filled = ref 0 in
        (try
           for i = 0 to len - 1 do
             match ph.Capsule_intf.ph_write_byte (Range.start buf + i) (next_byte ()) with
             | Ok () -> incr filled
             | Error _ -> raise Exit
           done
         with Exit -> ());
        ph.Capsule_intf.ph_schedule_upcall ~upcall_id:0 ~arg:!filled;
        !filled
    end
    else Userland.failure
  in
  let snapshotter =
    {
      Capsule_intf.sn_name = "rng";
      sn_capture =
        (fun () ->
          let s = !state and st = !stall in
          fun () ->
            state := s;
            stall := st);
      sn_fingerprint = (fun () -> Fp.int (Fp.int Fp.seed !state) !stall);
    }
  in
  ( { (Capsule_intf.stub ~driver_num ~name:"rng") with
      Capsule_intf.cap_command = command;
      cap_snapshot = Some snapshotter;
      cap_quiet = Some Capsule_intf.always_quiet;
    },
    (* cheap per-fork reseeding: fleet cells forked from one pristine image
       re-point the xorshift stream here, right after the restore, instead
       of rebuilding the board to change its entropy *)
    fun seed -> state := norm seed )

let capsule ?seed ?stall () = fst (capsule_reseed ?seed ?stall ())
