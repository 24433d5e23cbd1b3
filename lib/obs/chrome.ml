(* Chrome trace_event JSON export (the "JSON Array Format" both
   about://tracing and Perfetto load). One Chrome "process" represents the
   board; each simulated process gets its own lane (thread), alongside
   fixed kernel / mpu / bus / contracts lanes. Timestamps are kernel ticks
   reported in the "ts" microsecond field — model time, so exports are
   deterministic and zooming in Perfetto shows ticks directly. *)

let board_pid = 1

(* Lane (Chrome tid) layout: fixed lanes first, then one per simulated pid. *)
let tid_of_lane = function
  | Event.Kernel -> 0
  | Event.Mpu -> 1
  | Event.Bus -> 2
  | Event.Contracts -> 3
  | Event.Chaos -> 4
  | Event.Process p -> 10 + p

(* [name] labels the board (Chrome process_name); [window] keeps only the
   events whose tick falls in the inclusive [(lo, hi)] range — the replay
   navigator's arbitrary-window export. *)
let to_json ?(name = "ticktock") ?window recorder =
  let entries = Recorder.entries recorder in
  let entries =
    match window with
    | None -> entries
    | Some (lo, hi) ->
      List.filter (fun (e : Recorder.entry) -> e.Recorder.at >= lo && e.Recorder.at <= hi) entries
  in
  (* Collect the lanes actually used, fixed lanes always present. *)
  let module IS = Set.Make (Int) in
  let pids =
    List.fold_left
      (fun acc (e : Recorder.entry) ->
        match Event.lane e.event with Event.Process p -> IS.add p acc | _ -> acc)
      IS.empty entries
  in
  let lanes =
    Event.[ Kernel; Mpu; Bus; Contracts; Chaos ]
    @ List.map (fun p -> Event.Process p) (IS.elements pids)
  in
  let open Json in
  let args kvs = Obj (List.map (fun (k, v) -> (k, Str v)) kvs) in
  let meta name tid a =
    Obj
      [ ("name", Str name); ("ph", Str "M"); ("pid", Int board_pid); ("tid", Int tid); ("args", a) ]
  in
  let thread_name lane =
    let label = match lane with Event.Bus -> "bus/icache" | l -> Event.lane_name l in
    meta "thread_name" (tid_of_lane lane) (args [ ("name", label) ])
  in
  let sort_index lane =
    let tid = tid_of_lane lane in
    meta "thread_sort_index" tid (Obj [ ("sort_index", Int tid) ])
  in
  let event (e : Recorder.entry) =
    let lane = Event.lane e.event in
    Obj
      [
        ("name", Str (Event.name e.event));
        ("cat", Str (Event.lane_name lane));
        ("ph", Str "i");
        ("s", Str "t");
        ("ts", Int e.at);
        ("pid", Int board_pid);
        ("tid", Int (tid_of_lane lane));
        ("args", args (Event.args e.event));
      ]
  in
  let events =
    (meta "process_name" 0 (args [ ("name", name) ]) :: List.map thread_name lanes)
    @ List.map sort_index lanes @ List.map event entries
  in
  to_string (Obj [ ("displayTimeUnit", Str "ms"); ("traceEvents", Arr events) ])
