(** Garbage-collector attribution for the traced run: minor and major GC
    wall time from the runtime's own event ring ([runtime_events]), and
    allocation from [Gc.quick_stat] deltas.

    The ring is a file [<pid>.events] in [OCAML_RUNTIME_EVENTS_DIR] (the
    current directory when unset); the runtime deletes it at exit. *)

type t = {
  mutable minor_ns : int;
  mutable major_ns : int;
  mutable lost : int;
  begun : (Runtime_events.runtime_phase, int) Hashtbl.t;
  mutable cursor : Runtime_events.cursor option;
}

let st = { minor_ns = 0; major_ns = 0; lost = 0; begun = Hashtbl.create 8; cursor = None }

(* The top-level phases: a minor collection and a major slice. Nested
   phases (mark, sweep, roots) are inside these and not counted again. *)
let tracked = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let callbacks =
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t ph -> if tracked ph then Hashtbl.replace st.begun ph (ts t))
    ~runtime_end:(fun _ t ph ->
      match Hashtbl.find_opt st.begun ph with
      | Some t0 ->
        Hashtbl.remove st.begun ph;
        let d = ts t - t0 in
        if ph = Runtime_events.EV_MINOR then st.minor_ns <- st.minor_ns + d
        else st.major_ns <- st.major_ns + d
      | None -> ())
    ~lost_events:(fun _ n -> st.lost <- st.lost + n)
    ()

let poll () =
  match st.cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

(** Start the ring, once. The accumulators only grow: callers take deltas
    between two {!poll}s. *)
let start () =
  if st.cursor = None then begin
    Runtime_events.start ();
    st.cursor <- Some (Runtime_events.create_cursor None)
  end

let minor_ns () = st.minor_ns
let major_ns () = st.major_ns
let lost () = st.lost

(** Words allocated in the minor heap and promoted, since process start. *)
let words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.promoted_words)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
