(** A virtualized alarm capsule — Tock's [MuxAlarm] pattern.

    One underlying time source (the kernel tick) is multiplexed into any
    number of per-process alarms. Each process can keep one outstanding
    alarm (like Tock's userspace alarm driver); the capsule keeps its
    bookkeeping in a grant-backed record and fires upcalls from its tick
    (bottom half), never from the command (top half) — the layering §2.1
    describes.

    Driver number 4 (the builtin kernel alarm keeps 0).

    Commands: 0 = driver check; 1 = set alarm in [arg1] ticks (returns the
    absolute deadline); 2 = read the current time; 3 = cancel. *)

open Ticktock

let driver_num = 4

type outstanding = {
  o_pid : int;
  o_deadline : int;
  o_upcall : Capsule_intf.process_handle;
}

type state = {
  mutable queue : outstanding list;  (** sorted by deadline *)
  mutable now : int;
  mutable fired : int;
}

let insert q o =
  let rec go = function
    | [] -> [ o ]
    | x :: rest when x.o_deadline <= o.o_deadline -> x :: go rest
    | rest -> o :: rest
  in
  go q

let capsule () =
  let st = { queue = []; now = 0; fired = 0 } in
  let command (ph : Capsule_intf.process_handle) ~cmd ~arg1 ~arg2 =
    ignore arg2;
    if cmd = 0 then Userland.success
    else if cmd = 1 then begin
      (* one outstanding alarm per process: a new set replaces the old *)
      let deadline = st.now + max arg1 1 in
      st.queue <-
        insert
          (List.filter (fun o -> o.o_pid <> ph.Capsule_intf.ph_pid) st.queue)
          { o_pid = ph.Capsule_intf.ph_pid; o_deadline = deadline; o_upcall = ph };
      deadline
    end
    else if cmd = 2 then st.now
    else if cmd = 3 then begin
      st.queue <- List.filter (fun o -> o.o_pid <> ph.Capsule_intf.ph_pid) st.queue;
      Userland.success
    end
    else Userland.failure
  in
  let tick ~now =
    st.now <- now;
    let due, later = List.partition (fun o -> o.o_deadline <= now) st.queue in
    st.queue <- later;
    List.iter
      (fun o ->
        st.fired <- st.fired + 1;
        o.o_upcall.Capsule_intf.ph_schedule_upcall ~upcall_id:0 ~arg:o.o_deadline)
      due
  in
  (* Snapshot: [outstanding] records are immutable and process handles
     stay valid across a restore (the kernel restores processes in place),
     so sharing the queue list by reference is a deep-enough capture. *)
  let snapshotter =
    {
      Capsule_intf.sn_name = "virtual-alarm";
      sn_capture =
        (fun () ->
          let queue = st.queue and now = st.now and fired = st.fired in
          fun () ->
            st.queue <- queue;
            st.now <- now;
            st.fired <- fired);
      sn_fingerprint =
        (fun () ->
          let h =
            List.fold_left
              (fun h o -> Fp.int (Fp.int h o.o_pid) o.o_deadline)
              (Fp.int Fp.seed (List.length st.queue))
              st.queue
          in
          Fp.int (Fp.int h st.now) st.fired);
    }
  in
  (* quiet until the earliest deadline; a quiet tick only moves [now] *)
  let quiet =
    {
      Capsule_intf.q_next =
        (fun ~now:_ -> match st.queue with [] -> max_int | o :: _ -> o.o_deadline);
      q_advance = (fun ~from:_ ~upto -> st.now <- upto);
    }
  in
  ( { (Capsule_intf.stub ~driver_num ~name:"virtual-alarm") with
      Capsule_intf.cap_command = command;
      cap_tick = tick;
      cap_snapshot = Some snapshotter;
      cap_quiet = Some quiet;
    },
    st )

let make () = fst (capsule ())
let outstanding st = List.length st.queue
let fired st = st.fired
