(** Outside-in host-time spans.

    The benchmark never instruments the program: it wraps the closures a
    layer exposes (see {!Wrap}) and opens a span around every call into the
    layer. Each span has a layer, a start, an end, a parent and the unit of
    work it belongs to. A layer's {e self} time is its spans' durations
    minus the parts their child spans cover, so self times partition the
    traced wall time exactly; whatever the harness itself spends (frames
    of layer {!glue}) is the unattributed remainder.

    A kernel [run] span is split further. Inside it, the kernel calls the
    process program closures; the time between two consecutive program
    spans is attributed by the action the earlier one returned: a load or
    store to [bus]; a syscall followed by the same process to [syscall];
    a different next process to [switch]; anything else to
    [kernel_other]. The time after the last program span of a run goes to
    [bus] after a load or store, to [syscall] after a syscall, else to
    [kernel_other].

    State is global: the benchmark runs on one domain. Aggregates cover
    every span; individual spans are kept only for the first
    {!keep_units} units, for the Chrome trace. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let names =
  [|
    "userland"; "bus"; "mpu"; "syscall"; "switch"; "kernel_other"; "capsules"; "load";
    "isolation"; "restore"; "capture"; "fingerprint"; "boot"; "store"; "pool";
    "fuzzcov_engine"; "fabric_step"; "fabric_check"; "replay_step";
  |]

let userland = 0
let bus = 1
let mpu = 2
let syscall = 3
let switch = 4
let kernel_other = 5
let capsules = 6
let load = 7
let isolation = 8
let restore = 9
let capture = 10
let fingerprint = 11
let boot = 12
let store = 13
let pool = 14
let fuzzcov_engine = 15
let fabric_step = 16
let fabric_check = 17
let replay_step = 18
let n_layers = Array.length names

(** Harness code between layer calls: its self time is unattributed. *)
let glue = n_layers

(** A kernel run: its self time is split by the rules above. *)
let run = n_layers + 1

let name l = if l < n_layers then names.(l) else if l = glue then "harness" else "run"

(* What a program span returned, for the attribution of the gap after it. *)
let k_none = 0
let k_mem = 1
let k_sys = 2
let k_other = 3

let keep_units = 20
let max_depth = 256

type recorded = { r_name : string; r_start : int; r_end : int; r_id : int; r_parent : int; r_unit : int }

type state = {
  self_ns : int array;
  calls : int array;
  counters : (string, int) Hashtbl.t;
  (* the frame stack, one slot per depth *)
  lay : int array;
  start : int array;
  child : int array;
  seg : int array;  (** run frames: start of the current gap *)
  segchild : int array;  (** run frames: child time inside the current gap *)
  kind : int array;  (** run frames: what the last program span returned *)
  prog : int array;  (** run frames: which program that was *)
  sid : int array;
  mutable depth : int;
  mutable units : int;
  mutable cur_unit : int;
  mutable next_prog : int;
  mutable next_sid : int;
  mutable recorded : recorded list;
  mutable recording_ns : int;  (** time spent storing spans, in no layer *)
}

let st =
  let a () = Array.make max_depth 0 in
  {
    self_ns = Array.make (n_layers + 2) 0;
    calls = Array.make (n_layers + 2) 0;
    counters = Hashtbl.create 16;
    lay = a ();
    start = a ();
    child = a ();
    seg = a ();
    segchild = a ();
    kind = a ();
    prog = a ();
    sid = a ();
    depth = 0;
    units = 0;
    cur_unit = -1;
    next_prog = 0;
    next_sid = 0;
    recorded = [];
    recording_ns = 0;
  }

let reset () =
  Array.fill st.self_ns 0 (Array.length st.self_ns) 0;
  Array.fill st.calls 0 (Array.length st.calls) 0;
  Hashtbl.reset st.counters;
  st.depth <- 0;
  st.lay.(0) <- glue;
  st.units <- 0;
  st.cur_unit <- -1;
  st.next_sid <- 0;
  st.recorded <- [];
  st.recording_ns <- 0

let () = reset ()

let count name n =
  Hashtbl.replace st.counters name (n + Option.value ~default:0 (Hashtbl.find_opt st.counters name))

let counter name = Option.value ~default:0 (Hashtbl.find_opt st.counters name)
let self_ns l = st.self_ns.(l)
let calls l = st.calls.(l)
let recording_ns () = st.recording_ns
let fresh_prog () =
  st.next_prog <- st.next_prog + 1;
  st.next_prog

let recording () = st.units <= keep_units

(* Storing a span for the Chrome trace takes time of its own, which is
   kept out of every layer's self time and counted in [recording_ns]. *)
let record name ~start ~stop ~id ~parent =
  st.recorded <-
    { r_name = name; r_start = start; r_end = stop; r_id = id; r_parent = parent; r_unit = st.cur_unit }
    :: st.recorded

let parent_sid d = if d > 0 then st.sid.(d - 1) else -1

let push l t =
  let d = st.depth + 1 in
  if d >= max_depth then failwith "Span: nesting too deep";
  st.depth <- d;
  st.lay.(d) <- l;
  st.start.(d) <- t;
  st.child.(d) <- 0;
  st.sid.(d) <-
    (if recording () then begin
       st.next_sid <- st.next_sid + 1;
       st.next_sid
     end
     else -1);
  d

(* Pop frame [d], which ended at [t]: store it when recorded, charge its
   time to the parent as child time, and return when the parent resumes.
   [kept] says a gap span was already stored after [t]. *)
let pop ?(kept = false) d t =
  let kept =
    if st.sid.(d) >= 0 then begin
      record (name st.lay.(d)) ~start:st.start.(d) ~stop:t ~id:st.sid.(d) ~parent:(parent_sid d);
      true
    end
    else kept
  in
  let resume = if kept then now () else t in
  st.recording_ns <- st.recording_ns + (resume - t);
  st.depth <- d - 1;
  let p = d - 1 in
  let spent = resume - st.start.(d) in
  st.child.(p) <- st.child.(p) + spent;
  if st.lay.(p) = run then st.segchild.(p) <- st.segchild.(p) + spent;
  resume

let charge l ns =
  st.self_ns.(l) <- st.self_ns.(l) + ns;
  st.calls.(l) <- st.calls.(l) + 1

let enter l = ignore (push l (now ()))

let exit () =
  let t = now () in
  let d = st.depth in
  let l = st.lay.(d) in
  charge l (t - st.start.(d) - st.child.(d));
  ignore (pop d t)

let span l f =
  enter l;
  match f () with
  | v ->
    exit ();
    v
  | exception e ->
    exit ();
    raise e

(* The gap of run frame [d] ending at [t], charged to layer [l]. Returns
   whether the gap was stored as a span. *)
let close_gap d t l =
  charge l (t - st.seg.(d) - st.segchild.(d));
  st.sid.(d) >= 0
  && begin
       st.next_sid <- st.next_sid + 1;
       record names.(l) ~start:st.seg.(d) ~stop:t ~id:st.next_sid ~parent:st.sid.(d);
       true
     end

let gap_layer ~kind ~prev ~next =
  if kind = k_mem then bus
  else if kind = k_sys && next = prev then syscall
  else if kind <> k_none && next >= 0 && next <> prev then switch
  else kernel_other

let trailing_layer kind = if kind = k_mem then bus else if kind = k_sys then syscall else kernel_other

(** A per-instance carry: what the last program span of the previous run
    call on this board returned, so a run's first gap is attributed as if
    the runs were one. *)
type carry = { mutable c_kind : int; mutable c_prog : int }

let carry () = { c_kind = k_none; c_prog = -1 }

let run_span (c : carry) f =
  let t = now () in
  let d = push run t in
  st.seg.(d) <- t;
  st.segchild.(d) <- 0;
  st.kind.(d) <- c.c_kind;
  st.prog.(d) <- c.c_prog;
  let finish () =
    let t = now () in
    let kept = close_gap d t (trailing_layer st.kind.(d)) in
    c.c_kind <- st.kind.(d);
    c.c_prog <- st.prog.(d);
    ignore (pop ~kept d t)
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(** [prog id classify p r]: one call of program [id] under a span. *)
let prog id classify p r =
  let t = now () in
  let pd = st.depth in
  let t =
    if st.lay.(pd) = run && close_gap pd t (gap_layer ~kind:st.kind.(pd) ~prev:st.prog.(pd) ~next:id)
    then begin
      let t' = now () in
      st.recording_ns <- st.recording_ns + (t' - t);
      t'
    end
    else t
  in
  let d = push userland t in
  let finish k =
    let t = now () in
    charge userland (t - st.start.(d) - st.child.(d));
    let resume = pop d t in
    if st.lay.(pd) = run then begin
      st.seg.(pd) <- resume;
      st.segchild.(pd) <- 0;
      st.kind.(pd) <- k;
      st.prog.(pd) <- id
    end
  in
  match p r with
  | a ->
    finish (classify a);
    a
  | exception e ->
    finish k_other;
    raise e

(** Runs after every unit, outside its span: the GC event ring is drained
    here, often enough that it never wraps. *)
let after_unit = ref ignore

(** Whether a traced sample is running; untraced samples mark units at
    no cost. *)
let active = ref false

(** One unit of work (a cell, a board run, an exec, a command). *)
let unit f =
  if not !active then f ()
  else begin
    let saved = st.cur_unit in
    st.cur_unit <- st.units;
    st.units <- st.units + 1;
    Fun.protect
      ~finally:(fun () ->
        st.cur_unit <- saved;
        !after_unit ())
      (fun () -> span glue f)
  end

(** The recorded spans of the first {!keep_units} units as Chrome
    trace_event JSON (complete events, microsecond timestamps). *)
let chrome_json () =
  let evs = List.rev st.recorded in
  let t0 = List.fold_left (fun m r -> min m r.r_start) max_int evs in
  let us ns = Json.Num (float_of_int ns /. 1e3) in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.Str r.r_name);
                   ("cat", Json.Str "host");
                   ("ph", Json.Str "X");
                   ("ts", us (r.r_start - t0));
                   ("dur", us (r.r_end - r.r_start));
                   ("pid", Json.Num 1.);
                   ("tid", Json.Num 1.);
                   ( "args",
                     Json.Obj
                       [
                         ("span", Json.Num (float_of_int r.r_id));
                         ("parent", Json.Num (float_of_int r.r_parent));
                         ("unit", Json.Num (float_of_int r.r_unit));
                       ] );
                 ])
             evs) );
      ("displayTimeUnit", Json.Str "ns");
    ]
