(* Sparse physical memory with the MPU access-checker hook. *)

let check_int = Alcotest.(check int)

let test_rw8 () =
  let m = Memory.create () in
  Memory.write8 m 0x2000_0000 0xAB;
  check_int "read back" 0xAB (Memory.read8 m 0x2000_0000);
  check_int "default zero" 0 (Memory.read8 m 0x2000_0001)

let test_rw32_little_endian () =
  let m = Memory.create () in
  Memory.write32 m 0x2000_0000 0xDEAD_BEEF;
  check_int "word" 0xDEAD_BEEF (Memory.read32 m 0x2000_0000);
  check_int "LSB first" 0xEF (Memory.read8 m 0x2000_0000);
  check_int "MSB last" 0xDE (Memory.read8 m 0x2000_0003)

let test_cross_page () =
  let m = Memory.create () in
  (* a word spanning a 4 KiB page boundary *)
  Memory.write32 m 0x2000_0FFE 0x1234_5678;
  check_int "cross-page word" 0x1234_5678 (Memory.read32 m 0x2000_0FFE)

let test_blit_and_read () =
  let m = Memory.create () in
  Memory.blit_string m 0x100 "hello tock";
  Alcotest.(check string) "roundtrip" "hello tock" (Memory.read_bytes m 0x100 10)

let test_sparse () =
  let m = Memory.create () in
  Memory.write8 m 0 1;
  Memory.write8 m 0xF000_0000 2;
  check_int "two pages only" 2 (Memory.touched_pages m)

(* --- pages materialise only on write --- *)

let test_read_materialises_nothing () =
  let m = Memory.create () in
  Memory.write8 m 0x2000_0000 1;
  check_int "byte read" 0 (Memory.read8 m 0x3000_0000);
  check_int "word read" 0 (Memory.read32 m 0x3000_1000);
  Alcotest.(check string)
    "span read" (String.make 8192 '\000')
    (Memory.read_bytes m 0x3000_2000 8192);
  check_int "fetch" 0 (Memory.fetch16 m 0x3000_4000);
  check_int "reads left the page count alone" 1 (Memory.touched_pages m)

let test_write_after_read () =
  let m = Memory.create () and other = Memory.create () in
  let a = 0x2000_0040 in
  (* the read memoises the shared zero page for this key *)
  check_int "unwritten" 0 (Memory.read32 m a);
  Memory.write32 m a 0xCAFE_F00D;
  check_int "the write made a private page" 1 (Memory.touched_pages m);
  check_int "the read memo sees it" 0xCAFE_F00D (Memory.read32 m a);
  check_int "the byte path sees it" 0x0D (Memory.read8 m a);
  Memory.blit_string m (a + 4) "\255\255";
  check_int "blit lands in the same page" 0xFFFF (Memory.read32 m (a + 4));
  (* the shared zero page is still zero for every other key and memory *)
  check_int "other key" 0 (Memory.read32 m (a + 0x1000));
  check_int "other memory" 0 (Memory.read32 other a);
  check_int "other memory materialised nothing" 0 (Memory.touched_pages other)

(* --- restore ~keep --- *)

let page = 0x1000
let keep = Range.make ~start:0x1_0000 ~size:(4 * page)

let test_restore_keep () =
  (* the snapshot: one page outside the range, two inside it *)
  let m = Memory.create () in
  Memory.write8 m 0x2000_0000 0x11;
  Memory.write8 m 0x1_0000 0x22;
  Memory.write8 m 0x1_2000 0x33;
  let snap = Memory.capture m in
  (* the live memory: outside, one page changed and one is new; inside,
     one page changed, one is new, and 0x1_2000 was never written *)
  let live = Memory.create () in
  Memory.write8 live 0x2000_0000 0x99;
  Memory.write8 live 0x2000_1000 0x98;
  Memory.write8 live 0x1_0000 0x44;
  Memory.write8 live 0x1_1000 0x55;
  Memory.restore ~keep live snap;
  check_int "outside: from the snapshot" 0x11 (Memory.read8 live 0x2000_0000);
  check_int "outside, absent in the snapshot: gone" 0 (Memory.read8 live 0x2000_1000);
  check_int "inside: the live page stays" 0x44 (Memory.read8 live 0x1_0000);
  check_int "inside, absent in the snapshot: stays" 0x55 (Memory.read8 live 0x1_1000);
  check_int "inside, absent live: stays absent" 0 (Memory.read8 live 0x1_2000);
  check_int "three pages" 3 (Memory.touched_pages live);
  (* the kept pages are copy-on-write against the snapshot taken of them *)
  let kept_snap = Memory.capture live in
  Memory.write8 live 0x1_0000 0x66;
  Memory.restore live kept_snap;
  check_int "the capture stayed frozen" 0x44 (Memory.read8 live 0x1_0000);
  (* and the original snapshot is untouched by all of it *)
  Memory.restore live snap;
  check_int "snapshot inside" 0x22 (Memory.read8 live 0x1_0000);
  check_int "snapshot inside, second page" 0x33 (Memory.read8 live 0x1_2000);
  check_int "snapshot outside" 0x11 (Memory.read8 live 0x2000_0000)

let test_restore_keep_cow () =
  (* a kept page a snapshot shares is cloned on its next write *)
  let m = Memory.create () in
  Memory.write8 m 0x1_0000 0x22;
  let pristine = Memory.capture m in
  Memory.write8 m 0x1_0000 0x44;
  let mid = Memory.capture m in
  Memory.restore ~keep m pristine;
  check_int "kept" 0x44 (Memory.read8 m 0x1_0000);
  Memory.write8 m 0x1_0000 0x77;
  Memory.restore m mid;
  check_int "the snapshot sharing the kept page is unchanged" 0x44 (Memory.read8 m 0x1_0000);
  Memory.restore m pristine;
  check_int "the pristine snapshot is unchanged" 0x22 (Memory.read8 m 0x1_0000)

let test_restore_keep_unaligned () =
  let m = Memory.create () in
  let snap = Memory.capture m in
  List.iter
    (fun r ->
      Alcotest.check_raises "unaligned keep range"
        (Invalid_argument "Memory.restore: keep range is not page-aligned") (fun () ->
          Memory.restore ~keep:r m snap))
    [ Range.make ~start:0x1_0004 ~size:page; Range.make ~start:0x1_0000 ~size:(page + 4) ]

let deny_writes _addr access =
  match access with Perms.Write -> Error "read-only world" | Perms.Read | Perms.Execute -> Ok ()

let test_checker_applies () =
  let m = Memory.create () in
  Memory.set_checker_fn m (Some deny_writes);
  Alcotest.(check bool) "checker installed" true (Memory.checker_enabled m);
  check_int "load allowed" 0 (Memory.load8 m 0x2000_0000);
  Alcotest.check_raises "store denied"
    (Memory.Access_fault
       { Memory.fault_addr = 0x2000_0000; fault_access = Perms.Write; fault_reason = "read-only world" })
    (fun () -> Memory.store8 m 0x2000_0000 1)

let test_checker_word_granularity () =
  (* A 4-byte store faults if any covered byte is denied. *)
  let m = Memory.create () in
  let deny_byte addr _ = if addr = 0x2000_0003 then Error "hole" else Ok () in
  Memory.set_checker_fn m (Some deny_byte);
  (try
     Memory.store32 m 0x2000_0000 0xFFFF_FFFF;
     Alcotest.fail "expected fault on covered byte"
   with Memory.Access_fault f -> check_int "faulting byte" 0x2000_0003 f.Memory.fault_addr);
  (* And the partial store must not have happened. *)
  check_int "no partial write" 0 (Memory.read8 m 0x2000_0000)

let test_raw_bypasses_checker () =
  let m = Memory.create () in
  Memory.set_checker_fn m (Some (fun _ _ -> Error "deny all"));
  (* raw accesses model DMA / kernel: never checked *)
  Memory.write8 m 0x2000_0000 7;
  check_int "raw read" 7 (Memory.read8 m 0x2000_0000)

let test_fetch_checked_as_execute () =
  let m = Memory.create () in
  let record = ref None in
  Memory.set_checker_fn m
    (Some
       (fun _ access ->
         record := Some access;
         Ok ()));
  ignore (Memory.fetch32 m 0x0002_0000);
  Alcotest.(check bool) "fetch uses Execute" true (!record = Some Perms.Execute)

let test_checker_removal () =
  let m = Memory.create () in
  Memory.set_checker_fn m (Some (fun _ _ -> Error "deny"));
  Memory.set_checker_fn m None;
  check_int "unchecked after removal" 0 (Memory.load8 m 0x1000)

let suite =
  [
    Alcotest.test_case "byte read/write" `Quick test_rw8;
    Alcotest.test_case "word little-endian" `Quick test_rw32_little_endian;
    Alcotest.test_case "cross-page word" `Quick test_cross_page;
    Alcotest.test_case "blit/read_bytes" `Quick test_blit_and_read;
    Alcotest.test_case "sparse pages" `Quick test_sparse;
    Alcotest.test_case "reads materialise no page" `Quick test_read_materialises_nothing;
    Alcotest.test_case "write after read makes a private page" `Quick test_write_after_read;
    Alcotest.test_case "restore ~keep keeps the range" `Quick test_restore_keep;
    Alcotest.test_case "restore ~keep is copy-on-write" `Quick test_restore_keep_cow;
    Alcotest.test_case "restore ~keep refuses unaligned ranges" `Quick
      test_restore_keep_unaligned;
    Alcotest.test_case "checker gates checked access" `Quick test_checker_applies;
    Alcotest.test_case "word access checks every byte" `Quick test_checker_word_granularity;
    Alcotest.test_case "raw access bypasses checker (DMA)" `Quick test_raw_bypasses_checker;
    Alcotest.test_case "fetch checked as execute" `Quick test_fetch_checked_as_execute;
    Alcotest.test_case "checker removal" `Quick test_checker_removal;
  ]
