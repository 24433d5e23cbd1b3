(* Named counters, gauges and histograms, plus the snapshot type that
   unifies them with values *polled* from elsewhere (per-method cycle
   hooks, cache hit rates, per-process gauges). A snapshot entry carries a
   [host] flag: host-observational values (bus/icache hit counters — facts
   about the simulator, not the simulated machine) are excluded by
   {!model_only}, which is what determinism comparisons use.

   Histograms are fixed log2 buckets over non-negative ints: bucket [i]
   holds values whose bit length is [i] (0 -> bucket 0, 1 -> 1, 2..3 -> 2,
   4..7 -> 3, ...). Deterministic, allocation-free to update, and wide
   enough for model-cycle latencies. *)

let nbuckets = 63

type hist = {
  buckets : int array;  (* length [nbuckets] *)
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
}

let bucket_of v =
  let v = if v < 0 then 0 else v in
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
  bits v 0

let observe h v =
  let v = if v < 0 then 0 else v in
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if h.count = 1 then begin
    h.vmin <- v;
    h.vmax <- v
  end
  else begin
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v
  end

type value =
  | Counter of int
  | Gauge of int
  | Histogram of {
      count : int;
      sum : int;
      vmin : int;
      vmax : int;
      buckets : (int * int) list;  (* (inclusive upper bound, count), non-empty buckets only *)
    }

type entry = { name : string; host : bool; value : value }
type snapshot = entry list

(* The live registry. *)
type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 16; gauges = Hashtbl.create 16; hists = Hashtbl.create 16 }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counters name (ref by)

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.add t.gauges name (ref v)

let hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = { buckets = Array.make nbuckets 0; count = 0; sum = 0; vmin = 0; vmax = 0 } in
      Hashtbl.add t.hists name h;
      h

(* Registry capture/restore for the board snapshot subsystem. Restore
   mutates through existing refs and hist records wherever possible: the
   kernel retains direct references to its syscall-latency hists, and those
   must keep observing the restored state. *)
type captured = {
  cap_counters : (string * int) list;
  cap_gauges : (string * int) list;
  cap_hists : (string * hist) list;  (* private copies of each hist *)
}

let capture t =
  {
    cap_counters = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters [];
    cap_gauges = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.gauges [];
    cap_hists =
      Hashtbl.fold
        (fun k h acc -> (k, { h with buckets = Array.copy h.buckets }) :: acc)
        t.hists [];
  }

let restore t c =
  let prune tbl keep =
    Hashtbl.fold (fun k _ acc -> if List.mem_assoc k keep then acc else k :: acc) tbl []
    |> List.iter (Hashtbl.remove tbl)
  in
  prune t.counters c.cap_counters;
  prune t.gauges c.cap_gauges;
  prune t.hists c.cap_hists;
  let put tbl (k, v) =
    match Hashtbl.find_opt tbl k with Some r -> r := v | None -> Hashtbl.add tbl k (ref v)
  in
  List.iter (put t.counters) c.cap_counters;
  List.iter (put t.gauges) c.cap_gauges;
  List.iter
    (fun (k, hs) ->
      let h = hist t k in
      Array.blit hs.buckets 0 h.buckets 0 nbuckets;
      h.count <- hs.count;
      h.sum <- hs.sum;
      h.vmin <- hs.vmin;
      h.vmax <- hs.vmax)
    c.cap_hists

(* Polled-entry constructors, for values owned by other modules. *)
let c ?(host = false) name v = { name; host; value = Counter v }
let g ?(host = false) name v = { name; host; value = Gauge v }

let h ?(host = false) name ~count ~sum ~vmin ~vmax ~buckets =
  { name; host; value = Histogram { count; sum; vmin; vmax; buckets } }

let hist_value h =
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.buckets.(i) > 0 then
      (* Upper bound of bucket i is 2^i - 1 (bit length <= i). *)
      buckets := ((1 lsl i) - 1, h.buckets.(i)) :: !buckets
  done;
  Histogram { count = h.count; sum = h.sum; vmin = h.vmin; vmax = h.vmax; buckets = !buckets }

(* --- process-global host counters ---

   Campaign-level facts about the simulator itself — boards forked, fleet
   cells run, work-steals between worker domains — that no single kernel
   instance owns. They live in one process-global registry of [Atomic]s
   (workers on other domains bump them concurrently) and surface in every
   unified snapshot as [host]-flagged entries, so [model_only] — and with
   it every determinism comparison — never sees them. *)

let host_mu = Mutex.create ()
let host_tbl : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 8

let host_counter name =
  Mutex.lock host_mu;
  let a =
    match Hashtbl.find_opt host_tbl name with
    | Some a -> a
    | None ->
      let a = Atomic.make 0 in
      Hashtbl.add host_tbl name a;
      a
  in
  Mutex.unlock host_mu;
  a

let host_incr ?(by = 1) name = ignore (Atomic.fetch_and_add (host_counter name) by)
let host_read name = Atomic.get (host_counter name)

let host_reset () =
  Mutex.lock host_mu;
  Hashtbl.iter (fun _ a -> Atomic.set a 0) host_tbl;
  Mutex.unlock host_mu

let compare_entries a b = compare a.name b.name

let host_entries () =
  Mutex.lock host_mu;
  let acc =
    Hashtbl.fold
      (fun name a acc -> { name; host = true; value = Counter (Atomic.get a) } :: acc)
      host_tbl []
  in
  Mutex.unlock host_mu;
  List.sort compare_entries acc

let snapshot t =
  let acc = ref [] in
  Hashtbl.iter (fun name r -> acc := { name; host = false; value = Counter !r } :: !acc) t.counters;
  Hashtbl.iter (fun name r -> acc := { name; host = false; value = Gauge !r } :: !acc) t.gauges;
  Hashtbl.iter (fun name h -> acc := { name; host = false; value = hist_value h } :: !acc) t.hists;
  List.sort compare_entries !acc

let sorted s = List.sort compare_entries s
let model_only s = List.filter (fun e -> not e.host) s
let find s name = List.find_map (fun e -> if e.name = name then Some e.value else None) s

let pp_value ppf = function
  | Counter v -> Format.fprintf ppf "%d" v
  | Gauge v -> Format.fprintf ppf "%d" v
  | Histogram { count; sum; vmin; vmax; buckets } ->
      if count = 0 then Format.fprintf ppf "count=0"
      else begin
        Format.fprintf ppf "count=%d sum=%d min=%d max=%d mean=%d" count sum vmin vmax (sum / count);
        List.iter (fun (le, n) -> Format.fprintf ppf " le(%d)=%d" le n) buckets
      end

let pp ppf s =
  let s = sorted s in
  let width = List.fold_left (fun w e -> max w (String.length e.name)) 0 s in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-*s  %a%s@," width e.name pp_value e.value (if e.host then "  [host]" else ""))
    s;
  Format.fprintf ppf "@]"

let to_text s = Format.asprintf "%a" pp s

(* Stable JSON dump: one object per entry, sorted by name, ints only. *)
let to_json s =
  let open Json in
  let entry e =
    let fields =
      match e.value with
      | Counter v -> [ ("type", Str "counter"); ("value", Int v) ]
      | Gauge v -> [ ("type", Str "gauge"); ("value", Int v) ]
      | Histogram { count; sum; vmin; vmax; buckets } ->
        let bucket (le, n) = Obj [ ("le", Int le); ("count", Int n) ] in
        [ ("type", Str "histogram"); ("count", Int count); ("sum", Int sum); ("min", Int vmin);
          ("max", Int vmax); ("buckets", Arr (List.map bucket buckets)) ]
    in
    Obj (("name", Str e.name) :: ("host", Bool e.host) :: fields)
  in
  to_string (Obj [ ("metrics", Arr (List.map entry (sorted s))) ])
