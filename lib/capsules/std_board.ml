(** The standard campaign board assembly.

    Every campaign subsystem (fleet, fuzzcov, fabric, replay) used to carry
    its own copy of the same three steps: look a board constructor up by
    name, assemble it with the standard capsule set ({!Board_set.standard},
    RNG seed [0x5EED]), and splice the capsule devices into the snapshot
    target while wiring the RNG reseed hook into [Instance.reseed]. This
    module is that code path, once. Harnesses keep their own board-name
    subsets (and their own error messages) and delegate the assembly here.

    The [0x5EED] seed is load-bearing: it is what makes two boards of the
    same name byte-identical across processes, which is what lets a TICKRPL
    bundle recorded by one campaign be replayed by another process. *)

open Ticktock

(** Every named board a campaign can assemble: the fleet's verified six
    plus the upstream/patched monolithic pair the coverage fuzzer targets. *)
let builders : (string * (capsules:Capsule_intf.t list -> unit -> Instance.t)) list =
  [
    ("ticktock-arm", fun ~capsules () -> Boards.instance_ticktock_arm ~capsules ());
    ("ticktock-arm-mc", fun ~capsules () -> Boards.instance_ticktock_arm_mc ~capsules ());
    ("ticktock-arm-v8", fun ~capsules () -> Boards.instance_ticktock_arm_v8 ~capsules ());
    ("ticktock-e310", fun ~capsules () -> Boards.instance_ticktock_e310 ~capsules ());
    ("ticktock-earlgrey", fun ~capsules () -> Boards.instance_ticktock_earlgrey ~capsules ());
    ("ticktock-qemu", fun ~capsules () -> Boards.instance_ticktock_qemu ~capsules ());
    ("tock-arm-upstream", fun ~capsules () -> Boards.instance_tock_arm ~capsules ());
    ("tock-arm-patched", fun ~capsules () -> Boards.instance_tock_arm_patched ~capsules ());
  ]

let board_names = List.map fst builders

(** [assemble ?what ?extra name] boots the named board with the standard
    capsule set (plus [extra] capsules, prepended — the fabric's radio
    endpoint), splices the capsule devices into the snapshot target and
    wires the RNG reseed hook. It returns the board and the devices, for a
    caller that pokes them. [what] names the caller in error messages. *)
let assemble ?(what = "Std_board") ?(extra = []) name =
  let mk =
    match List.assoc_opt name builders with
    | Some mk -> mk
    | None ->
      invalid_arg
        (Printf.sprintf "%s: unknown board %S (one of: %s)" what name
           (String.concat ", " board_names))
  in
  let capsules, devs = Board_set.standard ~rng_seed:0x5EED () in
  let k = mk ~capsules:(extra @ capsules) () in
  let tgt =
    match k.Instance.snap_target with
    | Some tgt -> tgt
    | None -> invalid_arg (Printf.sprintf "%s: board %s has no snapshot target" what name)
  in
  ( {
      k with
      Instance.snap_target = Some (Snapshot.add_components tgt (Board_set.components devs));
      reseed = devs.Board_set.reseed;
    },
    devs )

(** [make ?what ?extra name] is the board {!assemble} builds. *)
let make ?what ?extra name = fst (assemble ?what ?extra name)
