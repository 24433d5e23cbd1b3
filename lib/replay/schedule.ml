(** The input schedule of a recorded session: what was loaded onto (and fed
    into) the board, in order, expressed in terms a later process can
    re-resolve. Programs are closures and cannot be serialized, so a
    schedule stores {e program tokens} ({!Programs.resolve}) — "witness",
    "fuzz:SEED:STEPS", "genome:ENC", "app:NAME" — each of which rebuilds
    the exact program deterministically. Applying a schedule uses
    [Instance.load_factory] rather than [load]: a factory-backed process
    snapshots exactly, which is what lets the navigator capture interval
    snapshots {e mid-run} with processes live. The load geometry (min_ram
    2048 / grant 1024 / headroom 2048) is the campaign geometry, so a
    replayed board is layout-identical to the recorded one. *)

open Ticktock

type op =
  | Reseed of int  (** drive the board RNG to this seed *)
  | Load of {
      ld_name : string;
      ld_payload : string;
      ld_prog : string;  (** a {!Programs} token *)
      ld_min_ram : int;
    }

type t = op list

(* --- text codec: one op per line, embedded in the bundle header ---

   Names/payloads/tokens are printed with %S so arbitrary bytes roundtrip;
   the grammar stays greppable ("reseed N" / "load NAME PAYLOAD PROG RAM"). *)

let encode (t : t) =
  String.concat ""
    (List.map
       (function
         | Reseed n -> Printf.sprintf "reseed %d\n" n
         | Load l ->
           Printf.sprintf "load %S %S %S %d\n" l.ld_name l.ld_payload l.ld_prog l.ld_min_ram)
       t)

let decode s : t =
  String.split_on_char '\n' s
  |> List.filter (fun line -> line <> "")
  |> List.map (fun line ->
         try
           if String.length line >= 7 && String.sub line 0 7 = "reseed " then
             Reseed (int_of_string (String.sub line 7 (String.length line - 7)))
           else
             Scanf.sscanf line "load %S %S %S %d" (fun ld_name ld_payload ld_prog ld_min_ram ->
                 Load { ld_name; ld_payload; ld_prog; ld_min_ram })
         with Scanf.Scan_failure _ | Failure _ | End_of_file ->
           invalid_arg (Printf.sprintf "Replay.Schedule: bad op %S" line))

(** Apply a schedule to a freshly-booted (or just-restored) pristine board.
    Loads go through [load_factory] so the processes snapshot exactly. *)
let apply (k : Instance.t) (t : t) =
  List.iter
    (function
      | Reseed n -> k.Instance.reseed n
      | Load l -> (
        let factory = Programs.resolve l.ld_prog in
        match
          k.Instance.load_factory ~name:l.ld_name ~payload:l.ld_payload ~factory
            ~min_ram:l.ld_min_ram
        with
        | Ok _ -> ()
        | Error e ->
          invalid_arg
            (Printf.sprintf "Replay.Schedule: load %S failed: %s" l.ld_name (Kerror.to_string e))))
    t

(* --- the campaign schedules, as data ---

   These mirror the corresponding harness cell bodies op for op; the
   conformance tests pin the equivalence (same loads, same seeds ⇒ same
   fingerprints as the live campaign cell). *)

(** What {!Fleet.Campaign} runs in one cell: the per-cell reseed, the
    honest witness, then [fuzzers] hostile streams derived from [seed]. *)
let fleet_cell ~seed ~fuzzers ~steps : t =
  Reseed (seed * 0x9E3779B1)
  :: Load { ld_name = "witness"; ld_payload = "w"; ld_prog = "witness"; ld_min_ram = 2048 }
  :: List.init fuzzers (fun i ->
         Load
           {
             ld_name = Printf.sprintf "fuzz%d" i;
             ld_payload = "f";
             ld_prog = Printf.sprintf "fuzz:%d:%d" (seed + (1000 * i)) steps;
             ld_min_ram = 2048;
           })

(** What {!Fuzzcov.Engine} runs per genome: witness + the genome app (a
    crasher replays on a fresh boot, without the campaign's reseed). *)
let fuzzcov_cell (g : Fuzzcov.Input.t) : t =
  [
    Load { ld_name = "witness"; ld_payload = "w"; ld_prog = "witness"; ld_min_ram = 2048 };
    Load
      {
        ld_name = "gen";
        ld_payload = "g";
        ld_prog = "genome:" ^ Fuzzcov.Input.encode g;
        ld_min_ram = 2048;
      };
  ]
