(* Tests for the memory map, memory, bus routing, and device models. *)

module M = Opec_machine

let board = M.Memmap.stm32f4_discovery

let kind_testable =
  Alcotest.testable
    (fun fmt k ->
      Fmt.string fmt
        (match k with
        | M.Memmap.Code -> "code"
        | M.Memmap.Sram -> "sram"
        | M.Memmap.Peripheral -> "peripheral"
        | M.Memmap.External_ram -> "external-ram"
        | M.Memmap.External_device -> "external-device"
        | M.Memmap.Ppb -> "ppb"
        | M.Memmap.Vendor -> "vendor"))
    ( = )

let test_memmap () =
  let check name exp addr =
    Alcotest.check kind_testable name exp (M.Memmap.classify addr)
  in
  check "flash" M.Memmap.Code 0x0800_0000;
  check "sram" M.Memmap.Sram 0x2000_0000;
  check "apb peripheral" M.Memmap.Peripheral 0x4000_4400;
  check "ahb2 peripheral" M.Memmap.Peripheral 0x5005_0000;
  check "external device" M.Memmap.External_device 0xA000_0000;
  check "ppb" M.Memmap.Ppb 0xE000_E010;
  check "vendor" M.Memmap.Vendor 0xE010_0000

let test_memory_rw () =
  let m = M.Memory.create ~base:0x2000_0000 ~size:1024 in
  M.Memory.write m 0x2000_0010 4 0xDEADBEEFL;
  Alcotest.(check int64) "word readback" 0xDEADBEEFL (M.Memory.read m 0x2000_0010 4);
  Alcotest.(check int64) "little-endian byte" 0xEFL (M.Memory.read m 0x2000_0010 1);
  Alcotest.(check int64) "byte 3" 0xDEL (M.Memory.read m 0x2000_0013 1);
  M.Memory.write m 0x2000_0011 1 0x42L;
  Alcotest.(check int64) "byte patch" 0xDEAD42EFL (M.Memory.read m 0x2000_0010 4);
  Alcotest.check_raises "out of range"
    (M.Fault.Bus { M.Fault.addr = 0x2000_0400; access = M.Fault.Read; privileged = true })
    (fun () -> ignore (M.Memory.read m 0x2000_0400 4))

let test_bus_routing () =
  let bus = M.Bus.create ~board in
  (* flash is writable only via the raw loader interface *)
  M.Bus.write_raw bus 0x0800_0100 4 77L;
  Alcotest.(check int64) "flash readable" 77L (M.Bus.read bus 0x0800_0100 4);
  (try
     M.Bus.write bus 0x0800_0100 4 1L;
     Alcotest.fail "flash write should bus-fault"
   with M.Fault.Bus _ -> ());
  (* SRAM read/write through the bus *)
  M.Bus.write bus 0x2000_0040 4 5L;
  Alcotest.(check int64) "sram" 5L (M.Bus.read bus 0x2000_0040 4);
  (* unmapped peripheral faults *)
  try
    ignore (M.Bus.read bus 0x4000_9999 4);
    Alcotest.fail "unmapped peripheral should bus-fault"
  with M.Fault.Bus _ -> ()

let test_ppb_privilege () =
  let bus = M.Bus.create ~board in
  M.Bus.attach bus (M.Core_periph.dwt ~cycles:(fun () -> 123L));
  Alcotest.(check int64) "privileged DWT read" 123L (M.Bus.read bus 0xE000_1004 4);
  M.Cpu.drop_privilege bus.M.Bus.cpu;
  try
    ignore (M.Bus.read bus 0xE000_1004 4);
    Alcotest.fail "unprivileged PPB access should bus-fault"
  with M.Fault.Bus info ->
    Alcotest.(check bool) "fault is unprivileged" false info.M.Fault.privileged

let test_mpu_on_bus () =
  let bus = M.Bus.create ~board in
  M.Bus.write_raw bus 0x2000_0000 4 9L;
  let mpu = M.Mpu.create () in
  M.Mpu.set mpu 0
    (Some
       (M.Mpu.region ~base:0x2000_0000 ~size_log2:8 ~privileged:M.Mpu.Read_write
          ~unprivileged:M.Mpu.Read_only ()));
  M.Mpu.enable mpu;
  M.Bus.set_protection bus (M.Backend.Mpu_state mpu);
  M.Cpu.drop_privilege bus.M.Bus.cpu;
  Alcotest.(check int64) "unpriv read allowed" 9L (M.Bus.read bus 0x2000_0000 4);
  (try
     M.Bus.write bus 0x2000_0000 4 1L;
     Alcotest.fail "unpriv write should MemManage-fault"
   with M.Fault.Mem_manage _ -> ());
  (* the monitor path: raw access bypasses the MPU *)
  M.Bus.write_raw bus 0x2000_0000 4 11L;
  Alcotest.(check int64) "raw write landed" 11L (M.Bus.read bus 0x2000_0000 4)

(* --- devices ------------------------------------------------------------ *)

let test_uart_device () =
  let dev, h = M.Uart.create ~ready_interval:3 "U" ~base:0x4000_4400 in
  M.Uart.inject h "AB";
  (* RXNE stays clear for [ready_interval] polls *)
  Alcotest.(check int64) "poll 1 not ready" 2L (dev.M.Device.read M.Uart.sr 4);
  Alcotest.(check int64) "poll 2 not ready" 2L (dev.M.Device.read M.Uart.sr 4);
  Alcotest.(check int64) "poll 3 not ready" 2L (dev.M.Device.read M.Uart.sr 4);
  Alcotest.(check int64) "poll 4 ready" 3L (dev.M.Device.read M.Uart.sr 4);
  Alcotest.(check int64) "read A" (Int64.of_int (Char.code 'A'))
    (dev.M.Device.read M.Uart.dr 4);
  (* interval re-arms after the read *)
  Alcotest.(check int64) "re-armed" 2L (dev.M.Device.read M.Uart.sr 4);
  dev.M.Device.write M.Uart.dr 4 (Int64.of_int (Char.code 'z'));
  Alcotest.(check string) "tx log" "z" (M.Uart.transmitted h)

let test_sd_device () =
  let dev, h = M.Sd_card.create ~busy_interval:2 "SD" ~base:0x4001_2C00 in
  M.Sd_card.preload h 5 "hello world";
  dev.M.Device.write M.Sd_card.arg 4 5L;
  dev.M.Device.write M.Sd_card.cmd 4 17L;
  (* busy for two polls, then present+ready *)
  Alcotest.(check int64) "busy 1" 1L (dev.M.Device.read M.Sd_card.status 4);
  Alcotest.(check int64) "busy 2" 1L (dev.M.Device.read M.Sd_card.status 4);
  Alcotest.(check int64) "ready" 3L (dev.M.Device.read M.Sd_card.status 4);
  let w0 = dev.M.Device.read M.Sd_card.data 4 in
  Alcotest.(check int64) "first word little-endian 'hell'" 0x6C6C6568L w0;
  (* writes land in the block *)
  dev.M.Device.write M.Sd_card.arg 4 9L;
  dev.M.Device.write M.Sd_card.cmd 4 24L;
  dev.M.Device.write M.Sd_card.data 4 0x64636261L;
  Alcotest.(check string) "written block" "abcd"
    (String.sub (M.Sd_card.block h 9) 0 4)

let test_ethernet_device () =
  let dev, h = M.Ethernet.create "E" ~base:0x4002_8000 in
  Alcotest.(check int64) "no frame" 0L (dev.M.Device.read M.Ethernet.status 4);
  M.Ethernet.inject_frame h "xy";
  Alcotest.(check int64) "frame waiting" 1L (dev.M.Device.read M.Ethernet.status 4);
  Alcotest.(check int64) "length" 2L (dev.M.Device.read M.Ethernet.rx_len 4);
  Alcotest.(check int64) "byte x" (Int64.of_int (Char.code 'x'))
    (dev.M.Device.read M.Ethernet.rx_data 4);
  Alcotest.(check int64) "byte y pops" (Int64.of_int (Char.code 'y'))
    (dev.M.Device.read M.Ethernet.rx_data 4);
  Alcotest.(check int64) "queue drained" 0L (dev.M.Device.read M.Ethernet.status 4);
  dev.M.Device.write M.Ethernet.tx_data 4 65L;
  dev.M.Device.write M.Ethernet.tx_ctrl 4 1L;
  Alcotest.(check (option string)) "transmitted" (Some "A")
    (M.Ethernet.pop_transmitted h)

let test_dcmi_device () =
  let dev, h = M.Dcmi.create ~ready_interval:1 "D" ~base:0x5005_0000 in
  M.Dcmi.stage_frame h "pix";
  Alcotest.(check int64) "not captured" 0L (dev.M.Device.read M.Dcmi.status 4);
  dev.M.Device.write M.Dcmi.ctrl 4 1L;
  Alcotest.(check int64) "exposure delay" 0L (dev.M.Device.read M.Dcmi.status 4);
  Alcotest.(check int64) "frame ready" 1L (dev.M.Device.read M.Dcmi.status 4);
  Alcotest.(check int64) "length" 3L (dev.M.Device.read M.Dcmi.length 4)

let test_gpio_device () =
  let dev, h = M.Gpio.create "G" ~base:0x4002_0C00 in
  M.Gpio.set_input ~delay:2 h 0b100;
  Alcotest.(check int64) "delayed 1" 0L (dev.M.Device.read M.Gpio.idr 4);
  Alcotest.(check int64) "delayed 2" 0L (dev.M.Device.read M.Gpio.idr 4);
  Alcotest.(check int64) "visible" 4L (dev.M.Device.read M.Gpio.idr 4);
  dev.M.Device.write M.Gpio.odr 4 0xFFL;
  Alcotest.(check int) "output" 0xFF (M.Gpio.output h)

let test_usb_device () =
  let dev, h = M.Usb_msc.create "USB" ~base:0x5000_0000 in
  dev.M.Device.write M.Usb_msc.ctrl 4 1L;
  String.iter
    (fun ch -> dev.M.Device.write M.Usb_msc.data 4 (Int64.of_int (Char.code ch)))
    "photo";
  dev.M.Device.write M.Usb_msc.ctrl 4 2L;
  Alcotest.(check (option string)) "file" (Some "photo") (M.Usb_msc.pop_file h)

let test_lcd_device () =
  let dev, h = M.Lcd.create "L" ~base:0x4001_6800 in
  dev.M.Device.write M.Lcd.ctrl 4 1L;
  dev.M.Device.write M.Lcd.pixel 4 7L;
  dev.M.Device.write M.Lcd.pixel 4 8L;
  Alcotest.(check int) "frames" 1 (M.Lcd.frames h);
  Alcotest.(check int) "pixels" 2 (M.Lcd.pixels h);
  Alcotest.(check int64) "checksum" (Int64.add (Int64.mul 7L 31L) 8L) (M.Lcd.checksum h)

(* --- device routing: the page table against the linear scan ------------- *)

(* Every bundled app's devices, then the core peripherals in the order
   [Runner.prepare] attaches them (SysTick, NVIC and SCB share the page
   at 0xE000E000; PinLock, FatFs-uSD and Camera attach scripted GPIO
   ports over the latched defaults), plus the switch-storm world: its
   request generator's window at 0x40000000 and the core peripherals. *)
let core_devices () =
  [ M.Core_periph.systick ~cycles:(fun () -> 0L);
    M.Core_periph.dwt ~cycles:(fun () -> 0L);
    M.Core_periph.scb () ]

let bundled_device_sets =
  lazy
    (("switch-storm",
      M.Device.stub "REQGEN" ~base:0x4000_0000 ~size:0x400 :: core_devices ())
    :: List.map
         (fun (app : Opec_apps.App.t) ->
           ( app.Opec_apps.App.app_name,
             (app.Opec_apps.App.make_world ()).Opec_apps.App.devices
             @ core_devices () ))
         (Opec_apps.Registry.all_small ()))

(* Random overlapping windows: some share pages, some span more pages
   than the table has slots, some sit at or beyond 2^32. *)
let gen_random_devices =
  let open QCheck.Gen in
  let base =
    oneof
      [ map (fun o -> 0x4000_0000 + o) (int_bound 0x3000);
        map (fun o -> 0xE000_E000 + o) (int_bound 0x1000);
        map (fun o -> (1 lsl 32) - 0x1000 + o) (int_bound 0x2000);
        map (fun o -> o * 0x1000) (int_bound 0x600) ]
  in
  let size =
    oneofl [ 0; 1; 4; 0x10; 0x400; 0x1000; 0x1400; 0x3000; 0x100000; 0x101000 ]
  in
  list_size (int_range 1 12)
    (map2 (fun base size -> M.Device.stub "rnd" ~base ~size) base size)

(* Addresses at device edges, at page boundaries around them, on the
   shared PPB page, anywhere in the 32-bit space, below 0, and at or
   above 2^32 (including the aliases of device addresses there). *)
let gen_addr (devices : M.Device.t list) =
  let open QCheck.Gen in
  let dev = oneofl devices in
  frequency
    [ ( 4,
        map2
          (fun (d : M.Device.t) k ->
            match k with
            | 0 -> d.base - 1
            | 1 -> d.base
            | 2 -> d.base + d.size - 1
            | 3 -> d.base + d.size
            | _ -> d.base + (k * 37 mod max 1 d.size))
          dev (int_bound 6) );
      ( 2,
        map3
          (fun (d : M.Device.t) dp e -> (((d.base asr 12) + dp) lsl 12) + e)
          dev (int_range (-2) 2) (int_range (-1) 1) );
      (1, map (fun o -> 0xE000_E000 + o) (int_bound 0xFFF));
      (1, int_bound ((1 lsl 32) - 1));
      (1, map (fun o -> -1 - o) (int_bound 0x10000));
      ( 1,
        map2
          (fun (d : M.Device.t) k -> d.base + (k lsl 20))
          dev (oneofl [ 1; 4096; -4096 ]) ) ]

let prop_device_table =
  let open QCheck in
  let gen =
    Gen.(
      frequency
        [ ( 3,
            map (fun i -> List.nth (Lazy.force bundled_device_sets) i)
              (int_bound (List.length (Lazy.force bundled_device_sets) - 1)) );
          (1, map (fun ds -> ("random", ds)) gen_random_devices) ]
      >>= fun (label, devices) ->
      map (fun addrs -> (label, devices, addrs))
        (list_size (int_range 50 200) (gen_addr devices)))
  in
  let print (label, devices, addrs) =
    Printf.sprintf "%s [%s] at [%s]" label
      (String.concat "; "
         (List.map
            (fun (d : M.Device.t) -> Printf.sprintf "%s 0x%X+0x%X" d.name d.base d.size)
            devices))
      (String.concat "; " (List.map (Printf.sprintf "0x%X") addrs))
  in
  Test.make ~count:300 ~name:"device table = linear scan"
    (make ~print gen)
    (fun (_, devices, addrs) ->
      let bus = M.Bus.create ~board in
      List.iter (M.Bus.attach bus) devices;
      List.for_all
        (fun addr ->
          match (M.Bus.find_device bus addr, M.Bus.find_device_linear bus addr) with
          | Some a, Some b -> a == b
          | None, None -> true
          | _ -> false)
        addrs)

let suite () =
  [ ( "machine",
      [ Alcotest.test_case "memory map" `Quick test_memmap;
        Alcotest.test_case "memory read/write" `Quick test_memory_rw;
        Alcotest.test_case "bus routing" `Quick test_bus_routing;
        Alcotest.test_case "PPB privilege" `Quick test_ppb_privilege;
        Alcotest.test_case "MPU on the bus" `Quick test_mpu_on_bus;
        QCheck_alcotest.to_alcotest prop_device_table ] );
    ( "devices",
      [ Alcotest.test_case "uart" `Quick test_uart_device;
        Alcotest.test_case "sd card" `Quick test_sd_device;
        Alcotest.test_case "ethernet" `Quick test_ethernet_device;
        Alcotest.test_case "dcmi" `Quick test_dcmi_device;
        Alcotest.test_case "gpio" `Quick test_gpio_device;
        Alcotest.test_case "usb" `Quick test_usb_device;
        Alcotest.test_case "lcd" `Quick test_lcd_device ] ) ]
