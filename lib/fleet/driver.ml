(** The one resumable-campaign driver.

    Fleet and fabric run their cells through {!run}; fuzzcov's generation
    fold, which is sequential because generation [g] breeds from
    generation [g - 1]'s corpus, shares its first step ({!recover}) and
    then appends and closes the {!Store} itself. The protocol:

    - create the store under the campaign's spec key, or with [resume]
      reopen it (a different spec key is refused by {!Store.resume});
    - decode the recovered records into an index-ordered array;
    - run every cell the store does not hold on the shared {!Pool},
      stopping after about [stop_after] new cells;
    - append each cell as it commits, then close the store.

    Cells are pure functions of their index and the caller renders from
    the index-ordered array, so a report is byte-identical at any jobs
    setting and across a kill/resume split. *)

open Ticktock

type 'a outcome = {
  cells : 'a option array;  (** index-ordered; [None] = not run (stopped early) *)
  ran : int;  (** cells executed by {e this} run *)
  resumed : int;  (** cells recovered from the store *)
  steals : int;  (** batches stolen between workers *)
  complete : bool;  (** every cell accounted for *)
}

(** Open the store at [store] (if any) for the campaign keyed [spec] and
    decode its committed records into an array of [total] cells. A record
    whose index is out of range, that does not decode, or whose decoded
    cell names another index ([index c]) is dropped, so its cell re-runs. *)
let recover ?store ?(resume = false) ~spec ~total ~decode ~index () =
  let st, recs =
    match store with
    | None -> (None, [])
    | Some path when resume ->
      let t, recs = Store.resume ~path ~spec in
      (Some t, recs)
    | Some path -> (Some (Store.create ~path ~spec), [])
  in
  let cells = Array.make total None in
  List.iter
    (fun (r : Store.record) ->
      if r.Store.rc_index >= 0 && r.Store.rc_index < total then
        match decode r.Store.rc_data with
        | Some c when index c = r.Store.rc_index -> cells.(r.Store.rc_index) <- Some c
        | _ -> ())
    recs;
  (st, cells)

(** Run (or resume) a campaign of [total] cells: {!recover}, then
    [cell (init w) i] on the pool for every missing index, each result
    appended to the store as [encode c] when it commits. *)
let run ?jobs ~batch ?store ?resume ?stop_after ~spec ~total ~encode ~decode ~index ~init
    ~cell () =
  let st, cells = recover ?store ?resume ~spec ~total ~decode ~index () in
  let resumed = Array.fold_left (fun a c -> if c = None then a else a + 1) 0 cells in
  let ran = Atomic.make 0 in
  let stop () = match stop_after with Some n -> Atomic.get ran >= n | None -> false in
  let cell w i =
    let c = cell w i in
    Atomic.incr ran;
    c
  in
  let commit i c = Option.iter (fun t -> Store.append t ~index:i ~data:(encode c)) st in
  let results, pstats =
    Pool.run ?jobs ~batch ~cells:total
      ~skip:(fun i -> cells.(i) <> None || stop ())
      ~commit ~init ~cell ()
  in
  Array.iteri (fun i r -> if r <> None then cells.(i) <- r) results;
  Option.iter Store.close st;
  {
    cells;
    ran = Atomic.get ran;
    resumed;
    steals = pstats.Pool.ps_steals;
    complete = Array.for_all Option.is_some cells;
  }
