(* The unified observability layer: recorder ring + encode/decode, the
   kernel's event trace, trace determinism, metrics-snapshot invariance across engine caches, and
   Chrome trace_event export well-formedness. *)

open Ticktock

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- recorder ring --- *)

(* One of every constructor: the ring stores events unboxed, so this
   doubles as the encode/decode round-trip test. *)
let one_of_each =
  Obs.Event.
    [
      Proc_created { pid = 1; name = "app" };
      Scheduled { pid = 1 };
      Syscall { pid = 1; call = "memop"; result = 3 };
      Upcall { pid = 1; upcall_id = 2; arg = 7 };
      Faulted { pid = 1; reason = "mpu" };
      Exited { pid = 1; code = 0 };
      Restarted { pid = 1 };
      Switch_to_user { pid = 1 };
      Exc_entry { exc = 11 };
      Exc_return { to_handler = true };
      Mpu_region_write { arch = "armv7m"; index = 3; generation = 17 };
      Mpu_enable { arch = "armv7m"; on = true; generation = 18 };
      Region_update { start = 0x2000_8000; size = 4096; app_break = 0x2000_8800; kernel_break = 0x2000_8c00 };
      Grant_placed { addr = 0x2000_8e00; size = 64 };
      Brk { pid = 1; app_break = 0x2000_8900; ok = true };
      Grant { pid = 1; driver = 4; addr = 0x2000_8e40; ok = false };
      Buscache_flush { reason = "set_checker" };
      Icache_invalidated { generation = 5; addr = 0x2000_0100 };
      Contract_failed { site = "allocate_grant" };
    ]

let test_roundtrip () =
  let r = Obs.Recorder.create ~capacity:64 () in
  List.iteri (fun i ev -> Obs.Recorder.record r ~tick:i ev) one_of_each;
  let back = Obs.Recorder.entries r in
  check_int "all recorded" (List.length one_of_each) (List.length back);
  List.iteri
    (fun i (e : Obs.Recorder.entry) ->
      check_int "tick preserved" i e.Obs.Recorder.at;
      check_bool
        (Format.asprintf "event %d round-trips (%a)" i Obs.Event.pp e.Obs.Recorder.event)
        true
        (e.Obs.Recorder.event = List.nth one_of_each i))
    back

let test_wraparound () =
  let r = Obs.Recorder.create ~capacity:4 () in
  (* 19 mixed-type events through a 4-slot ring *)
  List.iteri (fun i ev -> Obs.Recorder.record r ~tick:(100 + i) ev) one_of_each;
  check_int "recorded caps at capacity" 4 (Obs.Recorder.recorded r);
  check_int "dropped the rest" 15 (Obs.Recorder.dropped r);
  let back = Obs.Recorder.entries r in
  check_int "oldest surviving tick" 115 (List.hd back).Obs.Recorder.at;
  check_int "newest tick" 118 (List.nth back 3).Obs.Recorder.at;
  List.iteri
    (fun i (e : Obs.Recorder.entry) ->
      check_bool "survivors decode to the right events" true
        (e.Obs.Recorder.event = List.nth one_of_each (15 + i)))
    back

let test_disabled_records_nothing () =
  let r = Obs.Recorder.create ~capacity:8 () in
  Obs.Recorder.set_enabled r false;
  List.iter (Obs.Recorder.record r ~tick:0) one_of_each;
  check_int "nothing recorded" 0 (Obs.Recorder.recorded r);
  check_int "nothing dropped" 0 (Obs.Recorder.dropped r)

(* --- copy-on-write capture against a reference model ---

   Random sequences of record, capture, restore of any earlier capture,
   clear and set_enabled, at ring capacities from 1 (one one-event chunk)
   to 8192 (32 chunks), with wraparound. The model keeps the ring as an
   immutable newest-first list, so each of its captures is a deep copy by
   construction; after every operation the recorder's entries, recorded
   and dropped must equal the model's. A capture or restore that forgets
   to share-then-clone (no era bump, or a write into a shared chunk)
   leaks later records into an earlier capture and fails this. *)

type ring_op =
  | Rec of int * int  (* count, first event seed *)
  | Capture
  | Restore of int  (* index into the captures so far *)
  | Clear
  | Set_enabled of bool

(* mixes string-carrying and int-only constructors, so both halves of a
   chunk are exercised *)
let ring_event n =
  Obs.Event.(
    match n mod 5 with
    | 0 -> Proc_created { pid = n land 15; name = "p" ^ string_of_int n }
    | 1 -> Syscall { pid = n land 15; call = "c" ^ string_of_int (n mod 7); result = n }
    | 2 -> Region_update { start = n; size = 2 * n; app_break = n + 1; kernel_break = n + 3 }
    | 3 -> Faulted { pid = n land 15; reason = string_of_int n }
    | _ -> Grant { pid = n land 15; driver = n + 1; addr = 4 * n; ok = n land 1 = 0 })

let gen_ring_ops =
  let open QCheck.Gen in
  let* capacity = oneofl [ 1; 4; 8; 64; 300; 8192 ] in
  (* batches up to ~3/4 of the ring, so a few of them wrap it *)
  let big = max 1 (3 * capacity / 4) in
  let op =
    frequency
      [
        (6, map2 (fun n s -> Rec (n, s)) (int_range 1 3) (int_bound 10_000));
        (3, map2 (fun n s -> Rec (n, s)) (int_range 1 big) (int_bound 10_000));
        (3, return Capture);
        (3, map (fun i -> Restore i) (int_bound 1000));
        (1, return Clear);
        (1, map (fun b -> Set_enabled b) (frequencyl [ (1, false); (3, true) ]));
      ]
  in
  pair (return capacity) (list_size (int_range 1 40) op)

let print_ring_ops =
  let op = function
    | Rec (n, s) -> Printf.sprintf "rec %d@%d" n s
    | Capture -> "capture"
    | Restore i -> Printf.sprintf "restore %d" i
    | Clear -> "clear"
    | Set_enabled b -> Printf.sprintf "enabled %b" b
  in
  QCheck.Print.(pair int (list op))

type ring_model = { m_ring : (int * Obs.Event.t) list; m_next : int; m_on : bool }

let prop_ring_matches_model =
  QCheck.Test.make ~name:"ring capture = deep-copy model" ~count:300
    (QCheck.make ~print:print_ring_ops gen_ring_ops)
    (fun (capacity, ops) ->
      let r = Obs.Recorder.create ~capacity () in
      let cap = Obs.Recorder.capacity r in
      let m = ref { m_ring = []; m_next = 0; m_on = true } in
      let captures = ref [||] in
      let agrees () =
        let mm = !m in
        List.map (fun (e : Obs.Recorder.entry) -> (e.Obs.Recorder.at, e.Obs.Recorder.event))
          (Obs.Recorder.entries r)
        = List.rev mm.m_ring
        && Obs.Recorder.recorded r = min mm.m_next cap
        && Obs.Recorder.dropped r = max 0 (mm.m_next - cap)
      in
      List.for_all
        (fun op ->
          (match op with
          | Rec (n, seed) ->
            for i = seed to seed + n - 1 do
              Obs.Recorder.record r ~tick:i (ring_event i)
            done;
            if !m.m_on then begin
              let newest_first = List.init n (fun k -> seed + n - 1 - k) in
              let ring = List.map (fun i -> (i, ring_event i)) newest_first @ !m.m_ring in
              m := { !m with m_ring = List.filteri (fun i _ -> i < cap) ring; m_next = !m.m_next + n }
            end
          | Capture -> captures := Array.append !captures [| (Obs.Recorder.capture r, !m) |]
          | Restore i ->
            let n = Array.length !captures in
            if n > 0 then begin
              let c, mm = !captures.(i mod n) in
              Obs.Recorder.restore r c;
              m := mm
            end
          | Clear ->
            Obs.Recorder.clear r;
            m := { !m with m_ring = []; m_next = 0 }
          | Set_enabled b ->
            Obs.Recorder.set_enabled r b;
            m := { !m with m_on = b });
          agrees ())
        ops)

(* --- the kernel's event trace ---

   A kernel created with [~obs] records what the scheduler sees: process
   creation, slices, syscalls with their results, upcalls, faults with
   their reasons and exits with their codes. *)

module K = Boards.Ticktock_arm

let kernel_with_obs ?capacity () =
  let m = Machine.create_arm () in
  let r = Obs.Recorder.create ?capacity () in
  let caps, _ = Capsules.Board_set.standard () in
  let k =
    K.create ~mem:m.Machine.arm_mem ~hw:m.Machine.arm_mpu
      ~switcher:(Kernel.Arm_switch m.Machine.arm_cpu) ~capsules:caps ~obs:r ()
  in
  (k, r)

let create_proc k ~name script =
  Result.get_ok
    (K.create_process k ~name ~payload:name ~program:(Apps.App_dsl.to_program script)
       ~min_ram:2048 ())

(* A bounded recorder on the kernel keeps exactly the newest events of
   the same run recorded in full, and counts the rest as dropped. *)
let test_kernel_ring () =
  let run ?capacity () =
    let k, r = kernel_with_obs ?capacity () in
    let _ = create_proc k ~name:"ringed" Apps.App_dsl.(let* _ = sbrk 64 in return 0) in
    K.run k ~max_ticks:50;
    r
  in
  let full = run () and ring = run ~capacity:4 () in
  let all = Obs.Recorder.entries full in
  let total = List.length all in
  check_int "full run dropped nothing" 0 (Obs.Recorder.dropped full);
  check_bool "the run overflows the ring" true (total > 4);
  check_int "ring holds its capacity" 4 (Obs.Recorder.recorded ring);
  check_int "the rest are dropped" (total - 4) (Obs.Recorder.dropped ring);
  check_bool "survivors are the newest events, oldest first" true
    (Obs.Recorder.entries ring = List.filteri (fun i _ -> i >= total - 4) all)

let test_kernel_lifecycle () =
  let k, r = kernel_with_obs () in
  let p = create_proc k ~name:"traced" Apps.App_dsl.(let* _ = sbrk 64 in return 3) in
  K.run k ~max_ticks:50;
  let pid = p.Process.pid in
  let seen f = List.exists f (Obs.Recorder.events r) in
  check_bool "created recorded" true
    (seen (function Obs.Event.Proc_created e -> e.pid = pid && e.name = "traced" | _ -> false));
  check_bool "scheduled recorded" true
    (seen (function Obs.Event.Scheduled e -> e.pid = pid | _ -> false));
  check_bool "memop syscall recorded" true
    (seen (function Obs.Event.Syscall e -> e.pid = pid && e.call = "memop" | _ -> false));
  check_bool "and it was the sbrk" true
    (seen (function Obs.Event.Brk e -> e.pid = pid && e.ok | _ -> false));
  check_bool "exit code 3 recorded" true
    (seen (function Obs.Event.Exited e -> e.pid = pid && e.code = 3 | _ -> false))

let test_kernel_fault () =
  let k, r = kernel_with_obs () in
  let p = create_proc k ~name:"crasher" Apps.App_dsl.(let* _ = load8 0 in return 0) in
  K.run k ~max_ticks:50;
  match
    List.filter_map
      (function Obs.Event.Faulted e -> Some (e.pid, e.reason) | _ -> None)
      (Obs.Recorder.events r)
  with
  | [ (pid, reason) ] ->
    check_int "faulting pid" p.Process.pid pid;
    check_bool "reason names the mpu" true
      (String.length reason >= 3 && String.sub reason 0 3 = "mpu")
  | fs -> Alcotest.failf "expected one fault, got %d" (List.length fs)

let test_kernel_upcall () =
  let k, r = kernel_with_obs () in
  let p =
    create_proc k ~name:"alarmed"
      Apps.App_dsl.(
        let* _ = subscribe ~driver:4 ~upcall_id:0 in
        let* _ = command ~driver:4 ~cmd:1 ~arg1:2 () in
        let* _ = yield in
        return 0)
  in
  K.run k ~max_ticks:50;
  check_bool "upcall recorded" true
    (List.exists
       (function Obs.Event.Upcall e -> e.pid = p.Process.pid | _ -> false)
       (Obs.Recorder.events r))

let test_kernel_syscalls_per_pid () =
  let k, r = kernel_with_obs () in
  let p =
    create_proc k ~name:"s"
      Apps.App_dsl.(
        let* _ = memory_start in
        let* _ = memory_end in
        return 0)
  in
  K.run k ~max_ticks:50;
  check_int "two syscalls attributed" 2
    (List.length
       (List.filter
          (function Obs.Event.Syscall e -> e.pid = p.Process.pid | _ -> false)
          (Obs.Recorder.events r)))

let test_kernel_rendering () =
  let k, r = kernel_with_obs () in
  let _ = create_proc k ~name:"r" (Apps.App_dsl.return 0) in
  K.run k ~max_ticks:10;
  let s = Obs.Recorder.to_string r in
  check_bool "mentions the creation" true
    (let needle = "proc_created {pid=0, name=r}" in
     let n = String.length needle in
     let rec go i = i + n <= String.length s && (String.sub s i n = needle || go (i + 1)) in
     go 0)

(* --- trace determinism --- *)

let suite_trace () =
  Verify.Violation.set_enabled false;
  let r = Obs.Recorder.create () in
  let k = Boards.instance_ticktock_arm ~obs:r () in
  ignore (Apps.Difftest.run_suite k);
  Obs.Chrome.to_json ~name:"det" r

let test_trace_deterministic () =
  let a = suite_trace () and b = suite_trace () in
  check_bool "trace is non-trivial" true (String.length a > 1000);
  check_string "two identical runs export byte-identical traces" a b

(* Recording must not perturb the model: the console transcript and tick
   count of a traced run equal those of an untraced run. *)
let test_trace_nonperturbing () =
  Verify.Violation.set_enabled false;
  let bare = Boards.instance_ticktock_arm () in
  ignore (Apps.Difftest.run_suite bare);
  let traced = Boards.instance_ticktock_arm ~obs:(Obs.Recorder.create ()) () in
  ignore (Apps.Difftest.run_suite traced);
  check_string "console identical" (bare.Instance.console ()) (traced.Instance.console ());
  check_int "ticks identical" (bare.Instance.ticks ()) (traced.Instance.ticks ())

(* --- metrics --- *)

let metrics_text_of ~icache_enabled () =
  Verify.Violation.set_enabled false;
  let m, k = Boards.make_ticktock_arm_mc () in
  Fluxarm.Icache.set_enabled (Fluxarm.Cpu.icache m.Machine.arm_cpu) icache_enabled;
  let inst = Boards.Ticktock_arm.instance k in
  ignore (Apps.Difftest.run_suite inst);
  Obs.Metrics.to_text (Obs.Metrics.model_only (inst.Instance.metrics ()))

(* The icache and its trace links are host-side accelerators: switching
   them off changes the host-observational counters but no model-visible
   metric. *)
let test_metrics_engine_invariant () =
  check_string "model metrics identical cached vs uncached"
    (metrics_text_of ~icache_enabled:true ())
    (metrics_text_of ~icache_enabled:false ())

(* The superblock engine's own counters surface in the unified snapshot
   (host-flagged, so the invariance above doesn't see them). *)
let test_metrics_link_stats () =
  Verify.Violation.set_enabled false;
  let _, k = Boards.make_ticktock_arm_mc () in
  let inst = Boards.Ticktock_arm.instance k in
  ignore (Apps.Difftest.run_suite inst);
  let snap = inst.Instance.metrics () in
  let get name =
    match Obs.Metrics.find snap name with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  let counter name =
    match get name with
    | Obs.Metrics.Counter n -> n
    | _ -> Alcotest.failf "%s should be a counter" name
  in
  let link_hits = counter "icache/link_hits" in
  let _ : int = counter "icache/link_flushes" (* present even when zero *) in
  let traces = counter "icache/traces_entered" in
  check_bool "suite entered traces" true (traces > 0);
  (match get "icache/avg_trace_len_x100" with
  | Obs.Metrics.Gauge v -> check_bool "avg trace len >= 1 block" true (v >= 100)
  | _ -> Alcotest.fail "icache/avg_trace_len_x100 should be a gauge");
  (match get "icache/trace_len" with
  | Obs.Metrics.Histogram { count; sum; vmin; vmax; _ } ->
    check_int "one histogram sample per trace" traces count;
    check_bool "blocks per trace >= 1" true (vmin >= 1 && vmax >= vmin);
    (* every trace contributes its entry block, every link follow (hit or
       fresh install) one more *)
    check_bool "histogram sum covers entries + link follows" true
      (sum >= traces + link_hits)
  | _ -> Alcotest.fail "icache/trace_len should be a histogram");
  (* all of it is host-observational, invisible to determinism checks *)
  let model = Obs.Metrics.model_only snap in
  List.iter
    (fun n -> check_bool (n ^ " is host-only") true (Obs.Metrics.find model n = None))
    [
      "icache/link_hits"; "icache/link_flushes"; "icache/traces_entered";
      "icache/avg_trace_len_x100"; "icache/trace_len";
    ]

let test_metrics_snapshot_contents () =
  Verify.Violation.set_enabled false;
  let k = Boards.instance_ticktock_arm () in
  ignore (Apps.Difftest.run_suite k);
  let snap = k.Instance.metrics () in
  let get name =
    match Obs.Metrics.find snap name with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  (match get "kernel/syscalls" with
  | Obs.Metrics.Counter n -> check_bool "syscalls counted" true (n > 0)
  | _ -> Alcotest.fail "kernel/syscalls should be a counter");
  (match get "kernel/processes" with
  | Obs.Metrics.Gauge n -> check_int "all suite apps created" 21 n
  | _ -> Alcotest.fail "kernel/processes should be a gauge");
  (match get "syscall_cycles/memop" with
  | Obs.Metrics.Histogram { count; sum; vmin; vmax; _ } ->
    check_bool "memop latencies observed" true (count > 0);
    check_bool "histogram sums are consistent" true (vmin <= vmax && sum >= count * vmin)
  | _ -> Alcotest.fail "syscall_cycles/memop should be a histogram");
  (* the hooks table and both cache stats fold into the one snapshot *)
  check_bool "hooks rows present" true (Obs.Metrics.find snap "hooks/create/calls" <> None);
  check_bool "bus cache stats present" true
    (Obs.Metrics.find snap "bus/decision_cache/hits" <> None);
  (* per-process watermark gauges *)
  (match get "proc/0/mem_watermark" with
  | Obs.Metrics.Gauge w -> check_bool "watermark positive" true (w > 0)
  | _ -> Alcotest.fail "proc/0/mem_watermark should be a gauge")

(* host-flagged entries are excluded from the determinism view *)
let test_model_only_excludes_host () =
  Verify.Violation.set_enabled false;
  let k = Boards.instance_ticktock_arm () in
  ignore (Apps.Difftest.run_suite k);
  let snap = k.Instance.metrics () in
  check_bool "full snapshot has host entries" true
    (Obs.Metrics.find snap "bus/decision_cache/hits" <> None);
  check_bool "model_only drops them" true
    (Obs.Metrics.find (Obs.Metrics.model_only snap) "bus/decision_cache/hits" = None)

(* --- Chrome export well-formedness --- *)

(* A tiny recursive-descent JSON parser: enough to validate structure
   without pulling in a JSON dependency. *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'u' ->
          advance ();
          let code = ref 0 in
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F' as h) ->
              code := (!code * 16) + int_of_string ("0x" ^ String.make 1 h);
              advance ()
            | _ -> fail "bad unicode escape"
          done;
          Buffer.add_utf_8_uchar b (Uchar.of_int !code)
        | Some c ->
          advance ();
          Buffer.add_char b
            (match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | 'b' -> '\b' | 'f' -> '\012' | c -> c)
        | None -> fail "unterminated escape");
        go ()
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
        advance ();
        go ()
      | _ -> ()
    in
    go ();
    if !pos = start then fail "expected number";
    J_num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      J_obj []
    end
    else begin
      let fields = ref [] in
      let rec member () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          member ()
        | Some '}' -> advance ()
        | _ -> fail "expected , or }"
      in
      member ();
      J_obj (List.rev !fields)
    end
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      J_arr []
    end
    else begin
      let items = ref [] in
      let rec element () =
        let v = parse_value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          element ()
        | Some ']' -> advance ()
        | _ -> fail "expected , or ]"
      in
      element ();
      J_arr (List.rev !items)
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let test_chrome_wellformed () =
  let json = suite_trace () in
  match parse_json json with
  | J_obj fields ->
    let events =
      match List.assoc_opt "traceEvents" fields with
      | Some (J_arr es) -> es
      | _ -> Alcotest.fail "traceEvents must be an array"
    in
    check_bool "has events" true (List.length events > 100);
    let is_num k obj = match List.assoc_opt k obj with Some (J_num _) -> true | _ -> false in
    let is_str k obj = match List.assoc_opt k obj with Some (J_str _) -> true | _ -> false in
    List.iter
      (fun ev ->
        match ev with
        | J_obj o ->
          check_bool "every event has name/ph/pid/tid" true
            (is_str "name" o && is_str "ph" o && is_num "pid" o && is_num "tid" o);
          (match List.assoc_opt "ph" o with
          | Some (J_str "i") ->
            check_bool "instants have ts and args" true
              (is_num "ts" o && match List.assoc_opt "args" o with Some (J_obj _) -> true | _ -> false)
          | Some (J_str "M") -> ()
          | _ -> Alcotest.fail "unexpected event phase")
        | _ -> Alcotest.fail "traceEvents elements must be objects")
      events;
    (* one lane per pid alongside the fixed lanes, declared via metadata *)
    let lane_names =
      List.filter_map
        (fun ev ->
          match ev with
          | J_obj o when List.assoc_opt "name" o = Some (J_str "thread_name") -> (
            match List.assoc_opt "args" o with
            | Some (J_obj a) -> (
              match List.assoc_opt "name" a with Some (J_str s) -> Some s | _ -> None)
            | _ -> None)
          | _ -> None)
        events
    in
    List.iter
      (fun lane ->
        check_bool (lane ^ " lane declared") true (List.mem lane lane_names))
      [ "kernel"; "mpu"; "bus/icache"; "contracts"; "pid 0" ]
  | _ -> Alcotest.fail "export must be a JSON object"

(* metrics JSON goes through the same parser *)
let test_metrics_json_wellformed () =
  Verify.Violation.set_enabled false;
  let k = Boards.instance_ticktock_arm () in
  ignore (Apps.Difftest.run_suite k);
  match parse_json (Obs.Metrics.to_json (k.Instance.metrics ())) with
  | J_obj [ ("metrics", J_arr entries) ] ->
    check_bool "has entries" true (List.length entries > 20);
    List.iter
      (fun e ->
        match e with
        | J_obj o ->
          check_bool "entry has name and type" true
            (List.mem_assoc "name" o && List.mem_assoc "type" o && List.mem_assoc "host" o)
        | _ -> Alcotest.fail "metrics entries must be objects")
      entries
  | _ -> Alcotest.fail "metrics dump must be {metrics: [...]}"

(* --- the one JSON printer --- *)

(* Both exports' exact bytes, recorded from the hand-written printers
   that [Obs.Json] replaced. *)
let test_chrome_pinned () =
  let r = Obs.Recorder.create ~capacity:8 () in
  Obs.Recorder.record r ~tick:3 (Obs.Event.Proc_created { pid = 0; name = "app \"one\"" });
  Obs.Recorder.record r ~tick:5
    (Obs.Event.Mpu_region_write { arch = "armv7m"; index = 2; generation = 9 });
  check_string "chrome bytes"
    {|{
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "pin"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "kernel"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "mpu"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "bus/icache"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3, "args": {"name": "contracts"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 4, "args": {"name": "chaos"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 10, "args": {"name": "pid 0"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 0, "args": {"sort_index": 0}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 1, "args": {"sort_index": 1}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 2, "args": {"sort_index": 2}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 3, "args": {"sort_index": 3}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 4, "args": {"sort_index": 4}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 10, "args": {"sort_index": 10}},
    {"name": "proc_created", "cat": "pid 0", "ph": "i", "s": "t", "ts": 3, "pid": 1, "tid": 10, "args": {"pid": "0", "name": "app \"one\""}},
    {"name": "armv7m region[2] write", "cat": "mpu", "ph": "i", "s": "t", "ts": 5, "pid": 1, "tid": 1, "args": {"arch": "armv7m", "index": "2", "generation": "9"}}
  ]
}
|}
    (Obs.Chrome.to_json ~name:"pin" r)

let test_metrics_pinned () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:4 m "kernel/syscalls";
  Obs.Metrics.set_gauge m "procs/live" 3;
  List.iter (Obs.Metrics.observe (Obs.Metrics.hist m "lat/brk")) [ 0; 3; 100 ];
  check_string "metrics bytes"
    {|{
  "metrics": [
    {"name": "kernel/syscalls", "host": false, "type": "counter", "value": 4},
    {"name": "lat/brk", "host": false, "type": "histogram", "count": 3, "sum": 103, "min": 0, "max": 100, "buckets": [{"le": 0, "count": 1}, {"le": 3, "count": 1}, {"le": 127, "count": 1}]},
    {"name": "procs/live", "host": false, "type": "gauge", "value": 3}
  ]
}
|}
    (Obs.Metrics.to_json (Obs.Metrics.snapshot m))

let test_json_escapes () =
  check_string "quote, backslash, \\n, \\t, \\r and \\001 escaped; others kept"
    {|"q\" b\\ n\n t\t r\r c\u0001 /é"
|}
    (Obs.Json.to_string (Obs.Json.Str "q\" b\\ n\n t\t r\r c\001 /\xc3\xa9"))

let test_json_non_finite () =
  List.iter
    (fun f ->
      check_string (Printf.sprintf "%h prints as null" f) "null\n"
        (Obs.Json.to_string (Obs.Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* The fewest of 15, 16 or 17 digits that read back, and a point kept. *)
let test_json_float_text () =
  List.iter
    (fun (f, text) ->
      check_string (Printf.sprintf "%h" f) (text ^ "\n") (Obs.Json.to_string (Obs.Json.Float f)))
    [
      (0.1, "0.1");
      (8.0, "8.0");
      (-0.0, "-0.0");
      (1e21, "1e+21");
      (1. /. 3., "0.3333333333333333");
      (0.1 +. 0.2, "0.30000000000000004");
    ]

(* Any value with finite floats prints to text the independent parser
   above reads back to the same value, floats bit for bit. *)
let gen_json =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let leaf =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) int;
        map (fun f -> Obs.Json.Float f) finite;
        map (fun s -> Obs.Json.Str s) (string_size ~gen:char (0 -- 12));
      ]
  in
  sized_size (0 -- 4)
    (fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (2, map (fun l -> Obs.Json.Arr l) (list_size (0 -- 4) (self (n - 1))));
               ( 2,
                 map
                   (fun l -> Obs.Json.Obj l)
                   (list_size (0 -- 4) (pair (string_size ~gen:char (0 -- 6)) (self (n - 1)))) );
             ]))

let rec json_agrees (v : Obs.Json.t) (j : json) =
  let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  match (v, j) with
  | Null, J_null -> true
  | Bool a, J_bool b -> a = b
  | Int a, J_num b -> same_float (float_of_int a) b
  | Float a, J_num b -> same_float a b
  | Str a, J_str b -> a = b
  | Arr a, J_arr b -> List.length a = List.length b && List.for_all2 json_agrees a b
  | Obj a, J_obj b ->
    List.length a = List.length b
    && List.for_all2 (fun (ka, va) (kb, vb) -> ka = kb && json_agrees va vb) a b
  | _ -> false

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json prints to text the parser reads back" ~count:500
    (QCheck.make ~print:Obs.Json.to_string gen_json)
    (fun v -> json_agrees v (parse_json (Obs.Json.to_string v)))

(* Fleet campaign throughput counters are process-global host counters:
   once bumped, they surface (host-flagged) in every instance's unified
   snapshot, and stay invisible to the determinism view. *)
let test_metrics_fleet_counters () =
  Verify.Violation.set_enabled false;
  Obs.Metrics.host_reset ();
  let names =
    [ "fleet/boards_forked"; "fleet/cells_run"; "fleet/steals"; "fleet/resume_rounds" ]
  in
  List.iteri (fun i n -> Obs.Metrics.host_incr ~by:(i + 1) n) names;
  let k = Boards.instance_ticktock_arm () in
  ignore (Apps.Difftest.run_suite ~max_ticks:200 k);
  let snap = k.Instance.metrics () in
  let model = Obs.Metrics.model_only snap in
  List.iteri
    (fun i n ->
      (match Obs.Metrics.find snap n with
      | Some (Obs.Metrics.Counter v) -> check_int (n ^ " surfaces its count") (i + 1) v
      | Some _ -> Alcotest.failf "%s should be a counter" n
      | None -> Alcotest.failf "%s missing from the unified snapshot" n);
      check_bool (n ^ " is host-flagged") true
        (List.exists (fun e -> e.Obs.Metrics.name = n && e.Obs.Metrics.host) snap);
      check_bool (n ^ " is invisible to model_only") true (Obs.Metrics.find model n = None))
    names;
  Obs.Metrics.host_reset ()

let suite =
  [
    Alcotest.test_case "event encode/decode round-trip" `Quick test_roundtrip;
    Alcotest.test_case "ring wraparound, mixed event types" `Quick test_wraparound;
    Alcotest.test_case "disabled recorder records nothing" `Quick test_disabled_records_nothing;
    QCheck_alcotest.to_alcotest prop_ring_matches_model;
    Alcotest.test_case "trace export is deterministic" `Quick test_trace_deterministic;
    Alcotest.test_case "tracing does not perturb the run" `Quick test_trace_nonperturbing;
    Alcotest.test_case "model metrics invariant to icache" `Quick test_metrics_engine_invariant;
    Alcotest.test_case "superblock link stats in snapshot" `Quick test_metrics_link_stats;
    Alcotest.test_case "snapshot unifies the stats" `Quick test_metrics_snapshot_contents;
    Alcotest.test_case "model_only excludes host counters" `Quick test_model_only_excludes_host;
    Alcotest.test_case "fleet counters in snapshot, host-flagged" `Quick
      test_metrics_fleet_counters;
    Alcotest.test_case "chrome export is well-formed JSON" `Quick test_chrome_wellformed;
    Alcotest.test_case "metrics JSON is well-formed" `Quick test_metrics_json_wellformed;
    Alcotest.test_case "chrome export bytes pinned" `Quick test_chrome_pinned;
    Alcotest.test_case "metrics JSON bytes pinned" `Quick test_metrics_pinned;
    Alcotest.test_case "json string escapes" `Quick test_json_escapes;
    Alcotest.test_case "json non-finite floats are null" `Quick test_json_non_finite;
    Alcotest.test_case "json float text" `Quick test_json_float_text;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
  ]

(* The kernel's event trace, recorded through [~obs]. *)
let kernel_trace_suite =
  [
    Alcotest.test_case "ring buffer basics" `Quick test_kernel_ring;
    Alcotest.test_case "lifecycle events" `Quick test_kernel_lifecycle;
    Alcotest.test_case "fault event" `Quick test_kernel_fault;
    Alcotest.test_case "upcall event" `Quick test_kernel_upcall;
    Alcotest.test_case "per-pid syscall filter" `Quick test_kernel_syscalls_per_pid;
    Alcotest.test_case "rendering" `Quick test_kernel_rendering;
  ]
