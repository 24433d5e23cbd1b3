(** The release-test application suite (§6.1).

    Twenty-one applications modeled on the Tock 2.2 release-testing list
    the paper ran for differential testing. Five are deliberately
    {e layout sensitive} — they print absolute addresses of their memory
    layout or data derived from it (the "sensor" reads) — and are therefore
    the ones whose output is expected to differ between the Tock and
    TickTock kernels, matching the paper's 5-of-21 result. The rest print
    layout-independent text and must agree exactly. *)

open Ticktock
open App_dsl

type app = {
  app_name : string;
  min_ram : int;
  grant_reserve : int;
  layout_sensitive : bool;
  (* [true] when the app is expected to end in an MPU fault (deliberate
     overrun tests). *)
  expect_fault : bool;
  script : unit -> int App_dsl.t;
}

let default_app name script =
  {
    app_name = name;
    min_ram = 2048;
    grant_reserve = 1024;
    layout_sensitive = false;
    expect_fault = false;
    script;
  }

(* Fake payload bytes standing in for the app's machine code; size varies
   per app so flash placement is exercised, identically on both kernels.
   The bytes are the name repeated, filled by doubling copies of the
   prefix: every process load builds one, so it costs a few blits rather
   than a quadratic chain of concatenations. *)
let payload_of (app : app) =
  let name = app.app_name in
  let want = 256 + (String.length name * 37 mod 700) in
  let b = Bytes.create want in
  let first = min (String.length name) want in
  Bytes.blit_string name 0 b 0 first;
  let rec double len =
    if len < want then begin
      Bytes.blit b 0 b len (min len (want - len));
      double (2 * len)
    end
  in
  double first;
  Bytes.unsafe_to_string b

(* Print through the console capsule the way a real app would: share a
   buffer with allow_ro, then command the driver. Exercises
   build_readonly_buffer on every print. *)
let console_print s =
  let* base = memory_start in
  let* _ = allow_ro ~driver:1 ~addr:base ~len:(min (String.length s) 16) in
  let* _ = command ~driver:1 ~cmd:1 ~arg1:(String.length s) () in
  print s

(* --- the 21 apps --- *)

let c_hello =
  default_app "c_hello" (fun () ->
      let* () = console_print "Hello World!\r\n" in
      return 0)

let lua_hello =
  default_app "lua-hello" (fun () ->
      let* () = console_print "Hello from Lua!\r\n" in
      return 0)

let printf_long =
  default_app "printf_long" (fun () ->
      let* () = console_print "Hi welcome to Tock. This test makes sure that a greater than \
                               64 byte message can be printed.\r\n" in
      let* () = console_print "And a short message.\r\n" in
      return 0)

let blink =
  default_app "blink" (fun () ->
      let* () =
        repeat 5 (fun () ->
            let* _ = command ~driver:3 ~cmd:1 ~arg1:1 () in
            print "led toggle\r\n")
      in
      return 0)

let buttons =
  default_app "buttons" (fun () ->
      let* r = command ~driver:3 ~cmd:0 () in
      let* () =
        if r = Userland.success then console_print "buttons: driver present\r\n"
        else console_print "buttons: no driver\r\n"
      in
      return 0)

let malloc_test01 =
  default_app "malloc_test01" (fun () ->
      let* heap = memory_end in
      let* r = sbrk 1024 in
      if r = Userland.failure then
        let* () = console_print "malloc01: sbrk failed\r\n" in
        return 1
      else
        let* () =
          iter_list (fun i -> let* _ = store8 (heap + i) (i land 0xff) in return ())
            [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        in
        let* v = load8 (heap + 5) in
        let* () =
          if v = 5 then console_print "malloc01: success\r\n"
          else console_print "malloc01: MISMATCH\r\n"
        in
        return 0)

let malloc_test02 =
  default_app "malloc_test02" (fun () ->
      let* ok =
        let rec go n acc =
          if n = 0 then return acc
          else
            let* heap = memory_end in
            let* r = sbrk 512 in
            if r = Userland.failure then return false
            else
              let* _ = store8 heap 0xAA in
              let* v = load8 heap in
              go (n - 1) (acc && v = 0xAA)
        in
        go 3 true
      in
      let* () =
        if ok then console_print "malloc02: success\r\n" else console_print "malloc02: fail\r\n"
      in
      return 0)

let stack_size_test01 =
  {
    (default_app "stack_size_test01" (fun () ->
         let* ms = memory_start in
         let* ab = memory_end in
         let* () = printf "stack: memory_start=%s\r\n" (Word32.to_hex ms) in
         let* () = printf "stack: app_break=%s\r\n" (Word32.to_hex ab) in
         return 0))
    with
    layout_sensitive = true;
  }

let stack_size_test02 =
  {
    (default_app "stack_size_test02" (fun () ->
         let* ms = memory_start in
         let* ab = memory_end in
         let* gb = grant_begins in
         let* () = printf "stack2: layout %s..%s grant@%s\r\n" (Word32.to_hex ms)
             (Word32.to_hex ab) (Word32.to_hex gb)
         in
         return 0))
    with
    layout_sensitive = true;
    min_ram = 4096;
  }

let mpu_stack_growth =
  {
    (default_app "mpu_stack_growth" (fun () ->
         let* ms = memory_start in
         let* ab = memory_end in
         let* () = printf "stack_growth: block %s..%s\r\n" (Word32.to_hex ms) (Word32.to_hex ab)
         in
         let* () = print "stack_growth: overrunning stack (fault expected)\r\n" in
         (* Deliberately overrun the stack below the start of process
            memory — must fault on every kernel. *)
         let* _ = store8 (ms - 4) 0xEE in
         (* unreachable *)
         let* () = print "stack_growth: SURVIVED (isolation broken!)\r\n" in
         return 1))
    with
    layout_sensitive = true;
    expect_fault = true;
  }

let mpu_walk_region =
  {
    (default_app "mpu_walk_region" (fun () ->
         let* ms = memory_start in
         (* Walk a fixed-size prefix so output is layout independent. *)
         let rec walk off acc =
           if off >= 1024 then return acc
           else
             let* v = load8 (ms + off) in
             walk (off + 64) (acc + v)
         in
         let* sum = walk 0 0 in
         let* () = printf "walk_region: walked 1024 bytes (sum=%d)\r\n" sum in
         let* () = print "walk_region: overrun expected\r\n" in
         let* gb = grant_begins in
         let* _ = load8 gb in
         let* () = print "walk_region: SURVIVED grant read (isolation broken!)\r\n" in
         return 1))
    with
    expect_fault = true;
    min_ram = 4096;
  }

let sensors =
  {
    (default_app "sensors" (fun () ->
         let* base = memory_start in
         let* _ = allow_rw ~driver:2 ~addr:base ~len:8 in
         let* v = command ~driver:2 ~cmd:1 () in
         let* () = printf "sensors: temperature reading %d\r\n" v in
         return 0))
    with
    layout_sensitive = true;
  }

let adc =
  {
    (default_app "adc" (fun () ->
         let* base = memory_start in
         let* _ = allow_rw ~driver:2 ~addr:base ~len:8 in
         let* v = command ~driver:2 ~cmd:2 () in
         let* () = printf "adc: channel 0 = %d\r\n" v in
         return 0))
    with
    layout_sensitive = true;
  }

let ip_sense =
  default_app "ip_sense" (fun () ->
      let* _ = command ~driver:2 ~cmd:1 () in
      let* () = console_print "ip_sense: packet sent\r\n" in
      return 0)

let whileone =
  default_app "whileone" (fun () ->
      let* () = print "whileone: spinning\r\n" in
      let* () = repeat 40 (fun () -> let* _ = compute 50 in return ()) in
      return 0)

let timer_oneshot =
  default_app "timer_oneshot" (fun () ->
      let* _ = subscribe ~driver:0 ~upcall_id:0 in
      let* _ = command ~driver:0 ~cmd:1 ~arg1:3 () in
      let* _ = yield in
      let* () = console_print "timer: oneshot fired\r\n" in
      return 0)

let timer_repeat =
  default_app "timer_repeat" (fun () ->
      let* _ = subscribe ~driver:0 ~upcall_id:0 in
      let* () =
        repeat 3 (fun () ->
            let* _ = command ~driver:0 ~cmd:1 ~arg1:2 () in
            let* _ = yield in
            print "timer: tick\r\n")
      in
      return 0)

let tictactoe =
  default_app "tictactoe" (fun () ->
      (* Deterministic self-play: X wins on the diagonal. *)
      let moves = [ 0; 1; 4; 2; 8 ] in
      let board = Bytes.make 9 '.' in
      let* () =
        iter_list
          (fun (i, cell) ->
            Bytes.set board cell (if i mod 2 = 0 then 'X' else 'O');
            let* _ = compute 5 in
            return ())
          (List.mapi (fun i c -> (i, c)) moves)
      in
      let* () = printf "tictactoe: %s X wins\r\n" (Bytes.to_string board) in
      return 0)

let rot13_pair =
  default_app "rot13_client_service" (fun () ->
      let input = "Hello" in
      let* base = memory_end in
      let* r = sbrk 64 in
      if r = Userland.failure then
        let* () = print "rot13: no memory\r\n" in
        return 1
      else
        let* () =
          iter_list
            (fun (i, c) ->
              let* _ = store8 (base + i) (Char.code c) in
              return ())
            (List.mapi (fun i c -> (i, c)) (List.init (String.length input) (String.get input)))
        in
        (* the "service": rot13 in place *)
        let* () =
          iter_list
            (fun i ->
              let* c = load8 (base + i) in
              let rot c =
                if c >= Char.code 'a' && c <= Char.code 'z' then
                  ((c - Char.code 'a' + 13) mod 26) + Char.code 'a'
                else if c >= Char.code 'A' && c <= Char.code 'Z' then
                  ((c - Char.code 'A' + 13) mod 26) + Char.code 'A'
                else c
              in
              let* _ = store8 (base + i) (rot c) in
              return ())
            (List.init (String.length input) Fun.id)
        in
        let rec read_back i acc =
          if i >= String.length input then return acc
          else
            let* c = load8 (base + i) in
            read_back (i + 1) (acc ^ String.make 1 (Char.chr c))
        in
        let* out = read_back 0 "" in
        let* () = printf "rot13: %s -> %s\r\n" input out in
        return 0)

let app_state =
  default_app "app_state" (fun () ->
      let* fs = flash_start in
      let* magic = load32 fs in
      let* () = printf "app_state: flash magic %s\r\n" (Word32.to_hex magic) in
      return 0)

let ble_advertising =
  default_app "ble_advertising" (fun () ->
      let* _ = subscribe ~driver:3 ~upcall_id:1 in
      let* _ = command ~driver:3 ~cmd:0 () in
      let* () = console_print "ble: advertising started\r\n" in
      return 0)

let all : app list =
  [
    c_hello;
    lua_hello;
    printf_long;
    blink;
    buttons;
    malloc_test01;
    malloc_test02;
    stack_size_test01;
    stack_size_test02;
    mpu_stack_growth;
    mpu_walk_region;
    sensors;
    adc;
    ip_sense;
    whileone;
    timer_oneshot;
    timer_repeat;
    tictactoe;
    rot13_pair;
    app_state;
    ble_advertising;
  ]

let expected_differing = List.filter (fun a -> a.layout_sensitive) all
