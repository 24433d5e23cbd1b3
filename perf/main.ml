(* The benchmark's command line. See perf/README.md. *)

open Perf

let usage =
  "usage:\n\
  \  main.exe run WORKLOAD [--seed N] [--seconds S] [--out FILE]\n\
  \  main.exe trace WORKLOAD [--seed N] [--seconds S] [--chrome FILE]\n\
  \  main.exe compare A.jsonl B.jsonl [--bench BENCHMARK.json]\n\
  \  main.exe bless\n\
  \  main.exe --workload WORKLOAD --seed N --seconds S --trace 0|1\n\
   workloads: "
  ^ String.concat " " (List.map (fun w -> w.Workloads.name) Workloads.all)

let fail msg =
  prerr_endline ("perf: " ^ msg);
  prerr_endline usage;
  exit 2

(* Split argv into positionals and [--flag value] pairs. *)
let rec parse pos flags = function
  | [] -> (List.rev pos, flags)
  | f :: v :: rest when String.length f > 2 && String.sub f 0 2 = "--" -> parse pos ((f, v) :: flags) rest
  | [ f ] when String.length f > 2 && String.sub f 0 2 = "--" -> fail (f ^ " needs a value")
  | p :: rest -> parse (p :: pos) flags rest

let () =
  let pos, flags = parse [] [] (List.tl (Array.to_list Sys.argv)) in
  let flag name = List.assoc_opt name flags in
  let int_flag name default =
    match flag name with
    | None -> default
    | Some v -> (match int_of_string_opt v with Some n -> n | None -> fail (name ^ ": not a number"))
  in
  let seed = int_flag "--seed" 1 in
  let seconds = float_of_int (int_flag "--seconds" 15) in
  let workload name =
    match Workloads.find name with Some w -> w | None -> fail ("unknown workload " ^ name)
  in
  let chrome w =
    Some
      (Option.value (flag "--chrome")
         ~default:(Filename.concat !Workloads.scratch_dir (Printf.sprintf "trace-%s-seed%d.json" w seed)))
  in
  let size = Workloads.Full in
  let code =
    match pos with
    | [ "run"; w ] -> Harness.run (workload w) ~size ~seed ~seconds ~out:(flag "--out")
    | [ "trace"; w ] -> Harness.trace (workload w) ~size ~seed ~seconds ~chrome:(chrome w)
    | [ "compare"; a; b ] ->
      Harness.compare ~bench:(Option.value (flag "--bench") ~default:"BENCHMARK.json") a b
    | [ "bless" ] -> Harness.bless ()
    | [] -> (
      match (flag "--workload", flag "--trace") with
      | Some w, (None | Some "0") -> Harness.run (workload w) ~size ~seed ~seconds ~out:None
      | Some w, Some "1" -> Harness.trace (workload w) ~size ~seed ~seconds ~chrome:(chrome w)
      | _ -> fail "expected --workload W and --trace 0|1")
    | _ -> fail "bad arguments"
  in
  exit code
