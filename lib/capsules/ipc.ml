(** Inter-process communication capsule, after Tock's [ipc] driver.

    Services register under their process name; clients discover a service
    by writing its name into an allowed buffer, then exchange notifications
    (upcalls) and share their allowed read-write buffer with the service.
    All cross-process reach goes through driver-scoped handles obtained
    from the kernel services — a capsule can only touch what each process
    explicitly allowed to {e this} driver.

    Driver number 9. Commands:
    - 0: register the calling process as a service; returns its pid
    - 1: discover — match the allowed-ro buffer's contents against
         registered service names; returns the service pid
    - 2 (arg1 = pid): notify the service; its upcall argument is the
         client's pid
    - 3 (arg1 = pid): notify that client back
    - 4 (arg1 = pid, arg2 = offset): read one byte from the {e peer}'s
         shared (allowed-rw) buffer — the shared-memory path
    - 5 (arg1 = pid, arg2 = offset << 8 | byte): write one byte into the
         peer's shared buffer (only possible because the peer allowed it
         read-write to this driver)

    The capsule tracks outstanding requests (a cmd-2 notify not yet
    answered by cmd 3): when a process dies mid-exchange, every peer still
    waiting on it is woken with an error upcall instead of staying wedged
    in [yield] forever.

    [copy_nack] is a fault-injection hook: while positive, each
    shared-buffer copy command (4/5) decrements it and fails — a transient
    bus NACK a retrying client masks. *)

open Ticktock

let driver_num = 9

(* The error a dead peer delivers: the upcall argument clients get instead
   of the server's pid. Pids are small non-negative ints, so this is
   unambiguous. *)
let peer_died = Userland.failure

type state = {
  mutable services : (string * int) list;  (** name -> pid *)
  mutable pending : (int * int) list;  (** (server pid, waiting client pid) *)
  mutable svc : Capsule_intf.services option;
}

let read_name (ph : Capsule_intf.process_handle) =
  match ph.Capsule_intf.ph_allowed_ro () with
  | None -> None
  | Some buf ->
    let len = min (Range.size buf) 32 in
    let rec go i acc =
      if i >= len then Some acc
      else
        match ph.Capsule_intf.ph_read_byte (Range.start buf + i) with
        | Ok 0 -> Some acc
        | Ok b -> go (i + 1) (acc ^ String.make 1 (Char.chr b))
        | Error _ -> None
    in
    go 0 ""

let capsule ?(copy_nack = ref 0) () =
  let st = { services = []; pending = []; svc = None } in
  let init svc = st.svc <- Some svc in
  let peer_handle pid =
    match st.svc with
    | None -> None
    | Some svc -> svc.Capsule_intf.svc_handle ~pid ~driver:driver_num
  in
  let command (ph : Capsule_intf.process_handle) ~cmd ~arg1 ~arg2 =
    if cmd = 0 then begin
      st.services <-
        (ph.Capsule_intf.ph_name, ph.Capsule_intf.ph_pid)
        :: List.remove_assoc ph.Capsule_intf.ph_name st.services;
      ph.Capsule_intf.ph_pid
    end
    else if cmd = 1 then begin
      match read_name ph with
      | None -> Userland.failure
      | Some name -> (
        match List.assoc_opt name st.services with
        | Some pid -> pid
        | None -> Userland.failure)
    end
    else if cmd = 2 || cmd = 3 then begin
      match peer_handle arg1 with
      | None -> Userland.failure
      | Some peer ->
        let me = ph.Capsule_intf.ph_pid in
        (* track the exchange: a cmd-2 notify leaves the client waiting on
           the server until the server's cmd-3 reply *)
        if cmd = 2 then st.pending <- (arg1, me) :: st.pending
        else st.pending <- List.filter (fun p -> p <> (me, arg1)) st.pending;
        peer.Capsule_intf.ph_schedule_upcall ~upcall_id:cmd ~arg:me;
        Userland.success
    end
    else if (cmd = 4 || cmd = 5) && !copy_nack > 0 then begin
      decr copy_nack;
      Userland.failure
    end
    else if cmd = 4 then begin
      (* read a byte of the peer's shared buffer *)
      match peer_handle arg1 with
      | None -> Userland.failure
      | Some peer -> (
        match peer.Capsule_intf.ph_allowed_rw () with
        | Some buf when arg2 >= 0 && arg2 < Range.size buf -> (
          match peer.Capsule_intf.ph_read_byte (Range.start buf + arg2) with
          | Ok b -> b
          | Error _ -> Userland.failure)
        | Some _ | None -> Userland.failure)
    end
    else if cmd = 5 then begin
      (* write a byte into the peer's shared buffer *)
      let offset = arg2 lsr 8 and byte = arg2 land 0xff in
      match peer_handle arg1 with
      | None -> Userland.failure
      | Some peer -> (
        match peer.Capsule_intf.ph_allowed_rw () with
        | Some buf when offset >= 0 && offset < Range.size buf -> (
          match peer.Capsule_intf.ph_write_byte (Range.start buf + offset) byte with
          | Ok () -> Userland.success
          | Error _ -> Userland.failure)
        | Some _ | None -> Userland.failure)
    end
    else Userland.failure
  in
  let proc_died ~pid =
    (* wake every client still waiting on the dead process with an error
       upcall (delivered as the cmd-3 reply it will never get), then forget
       the dead process's service registration and exchanges *)
    List.iter
      (fun (server, client) ->
        if server = pid then
          match peer_handle client with
          | None -> ()
          | Some peer -> peer.Capsule_intf.ph_schedule_upcall ~upcall_id:3 ~arg:peer_died)
      st.pending;
    st.pending <- List.filter (fun (server, client) -> server <> pid && client <> pid) st.pending;
    st.services <- List.filter (fun (_, p) -> p <> pid) st.services
  in
  let snapshotter =
    {
      Capsule_intf.sn_name = "ipc";
      sn_capture =
        (fun () ->
          (* immutable assoc lists: sharing by reference is a deep capture;
             [svc] is wiring, not state, and survives untouched *)
          let services = st.services and pending = st.pending and nack = !copy_nack in
          fun () ->
            st.services <- services;
            st.pending <- pending;
            copy_nack := nack);
      sn_fingerprint =
        (fun () ->
          let h =
            List.fold_left
              (fun h (name, pid) -> Fp.int (Fp.string h name) pid)
              (Fp.int Fp.seed (List.length st.services))
              st.services
          in
          let h =
            List.fold_left
              (fun h (server, client) -> Fp.int (Fp.int h server) client)
              (Fp.int h (List.length st.pending))
              st.pending
          in
          Fp.int h !copy_nack);
    }
  in
  { (Capsule_intf.stub ~driver_num ~name:"ipc") with
    Capsule_intf.cap_init = init;
    cap_command = command;
    cap_proc_died = proc_died;
    cap_snapshot = Some snapshotter;
    cap_quiet = Some Capsule_intf.always_quiet;
  }
