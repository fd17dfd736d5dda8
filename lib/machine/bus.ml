(* The system bus: routes accesses to flash, SRAM, mapped devices, and the
   PPB, enforcing the MPU and the privilege rules of Section 2.

   Check order models the hardware:
   1. PPB accesses require the privileged level, else bus fault;
   2. the MPU checks every non-PPB access (the ARM MPU does not confine
      PPB accesses);
   3. unmapped addresses bus-fault;
   4. flash writes bus-fault (the model has no flash programming).

   Step 2 goes through a permitted-window cache, a software TLB in the
   manner of QEMU's softmmu: one small direct-mapped table per access
   kind (read, write, execute), indexed by the 4 KiB page of the
   address.  An entry holds a window [lo, hi) in which the backend
   allowed the access ({!Backend.window}), tagged with the privilege
   level and the backend's generation counter.  Every backend setter bumps the
   counter, so a hit is exactly an access {!Backend.check} would allow;
   misses, denials and faults take {!Backend.check} itself, so fault
   info, region virtualization, key recycling and PPB emulation never
   see the cache.

   Devices are routed by the same 4 KiB pages, through a direct-mapped
   table of [device_slots] candidate arrays indexed by the page's low
   bits.  [attach] files the device under the slot of every page its
   window touches (every slot, for a window of [device_slots] pages or
   more), newest first, so a lookup returns the first candidate of the
   address's slot that contains the address: the device attached last,
   the same one the attach-order list scan ([find_device_linear], the
   test reference) finds, for any address.  A slot holds an array, not
   one device: devices share a page (SysTick, NVIC and SCB on
   0xE000E000; a world's scripted GPIO port over the latched default),
   and pages that differ only in high bits share a slot.  Hot paths use
   [lookup], which returns the [no_device] sentinel instead of an
   option.

   A route ([route]) is a lookup done ahead of time, for an address the
   interpreter knows at translation: it remembers the device and the
   bus's device generation, which [attach] bumps.  [read_routed] and
   [write_routed] use the remembered device while the generation is
   unchanged and look the address up again otherwise, so a device
   attached after translation still takes precedence. *)

let cache_slots = 8 (* per access kind; a power of two *)
let page_bits = 12

(* entry layout in [cache]: lo, hi, tag *)
let entry_words = 3
let no_tag = -1

(* device table slots: a power of two, small enough for the table to be
   a minor-heap block *)
let device_slots = 256

let no_device = Device.stub "none" ~base:0 ~size:0

type t = {
  flash : Memory.t;
  sram : Memory.t;
  mutable devices : Device.t list;
      (** attached devices, newest first: the reference order *)
  device_table : Device.t array array;
      (** [device_slots] candidate arrays, newest attach first *)
  mutable device_gen : int;  (** bumped by every {!attach} *)
  mutable prot : Backend.state;
      (** the active enforcement backend; a fresh, disabled MPU until
          {!set_protection} installs another state *)
  cpu : Cpu.t;
  cache : int array;
      (** the permitted-window cache: [3 * cache_slots] entries of
          [entry_words] ints, read table first, then write, then
          execute *)
}

(* Drop every cached window.  Generation counters of two different
   backend states can be equal, so a new state must not inherit the
   old one's entries. *)
let flush t =
  for e = 0 to (3 * cache_slots) - 1 do
    t.cache.((e * entry_words) + 2) <- no_tag
  done

let create ~(board : Memmap.board) =
  let t =
    { flash = Memory.create ~base:Memmap.flash_base ~size:board.flash_size;
      sram = Memory.create ~base:Memmap.sram_base ~size:board.sram_size;
      devices = [];
      device_table = Array.make device_slots [||];
      device_gen = 0;
      prot = Backend.create Backend.Mpu;
      cpu = Cpu.create ();
      cache = Array.make (3 * cache_slots * entry_words) 0 }
  in
  flush t;
  t

let device_slot addr = (addr asr page_bits) land (device_slots - 1)

let attach t (d : Device.t) =
  t.devices <- d :: t.devices;
  t.device_gen <- t.device_gen + 1;
  if d.size > 0 then begin
    let first = d.base asr page_bits in
    let last = min ((d.base + d.size - 1) asr page_bits) (first + device_slots - 1) in
    for page = first to last do
      let s = page land (device_slots - 1) in
      t.device_table.(s) <- Array.append [| d |] t.device_table.(s)
    done
  end

let rec first_containing (cands : Device.t array) addr i =
  if i >= Array.length cands then no_device
  else
    let d = Array.unsafe_get cands i in
    if addr >= d.base && addr < d.base + d.size then d
    else first_containing cands addr (i + 1)

(* The device owning [addr], or [no_device]. *)
let lookup t addr =
  first_containing (Array.unsafe_get t.device_table (device_slot addr)) addr 0

let find_device t addr =
  let d = lookup t addr in
  if d == no_device then None else Some d

let find_device_linear t addr =
  List.find_opt (fun d -> Device.contains d addr) t.devices

let set_protection t st =
  t.prot <- st;
  flush t

let protection t = t.prot

let table_of (access : Fault.access) =
  match access with Read -> 0 | Write -> 1 | Execute -> 2

let check_miss t ~privileged ~addr ~access ~entry ~tag =
  match Backend.check t.prot ~privileged ~addr ~access with
  | Error info -> raise (Fault.Mem_manage info)
  | Ok () ->
    if t.cache.(entry + 2) <> tag then begin
      (* the slot's first allowed miss under this tag caches the
         address alone: a window pays for itself only if the slot is
         used again before the next generation change, which a
         switch-heavy run rarely does *)
      t.cache.(entry) <- addr;
      t.cache.(entry + 1) <- addr + 1
    end
    else begin
      let lo, hi = Backend.window t.prot ~privileged ~addr ~access in
      t.cache.(entry) <- lo;
      t.cache.(entry + 1) <- hi
    end;
    t.cache.(entry + 2) <- tag

let mpu_check t ~addr ~access =
  let gen =
    match t.prot with
    (* disabled-MPU short circuit: baseline runs take this on every bus
       access, so they don't pay for the cache to learn "allowed" *)
    | Backend.Mpu_state m -> if m.Mpu.enabled then m.Mpu.gen else -1
    | Backend.Pmp_state p -> p.Pmp.gen
    | Backend.Cheri_state c -> c.Cheri.gen
    | Backend.Poe_state p -> p.Poe.gen
  in
  if gen >= 0 then begin
    let privileged = t.cpu.Cpu.privileged in
    let tag = (gen lsl 1) lor if privileged then 1 else 0 in
    let entry =
      ((table_of access * cache_slots)
      + ((addr lsr page_bits) land (cache_slots - 1)))
      * entry_words
    in
    let c = t.cache in
    if
      not
        (Array.unsafe_get c (entry + 2) = tag
        && addr >= Array.unsafe_get c entry
        && addr < Array.unsafe_get c (entry + 1))
    then check_miss t ~privileged ~addr ~access ~entry ~tag
  end

let fault_bus t ~addr ~access =
  raise (Fault.Bus { Fault.addr; access; privileged = t.cpu.Cpu.privileged })

let dispatch_read t (d : Device.t) addr width =
  if d == no_device then fault_bus t ~addr ~access:Fault.Read
  else d.read (addr - d.base) width

let dispatch_write t (d : Device.t) addr width v =
  if d == no_device then fault_bus t ~addr ~access:Fault.Write
  else d.write (addr - d.base) width v

let device_read t addr width = dispatch_read t (lookup t addr) addr width

let device_write t addr width v =
  dispatch_write t (lookup t addr) addr width v

(* Read [width] bytes at [addr] honouring privilege and MPU. *)
let read t addr width =
  Cpu.charge t.cpu 1;
  match Memmap.classify addr with
  | Memmap.Ppb ->
    if not t.cpu.Cpu.privileged then fault_bus t ~addr ~access:Fault.Read;
    device_read t addr width
  | Memmap.Code | Memmap.Sram | Memmap.Peripheral | Memmap.External_ram
  | Memmap.External_device | Memmap.Vendor ->
    mpu_check t ~addr ~access:Fault.Read;
    if Memory.contains t.flash addr then Memory.read t.flash addr width
    else if Memory.contains t.sram addr then Memory.read t.sram addr width
    else device_read t addr width

let write t addr width v =
  Cpu.charge t.cpu 1;
  match Memmap.classify addr with
  | Memmap.Ppb ->
    if not t.cpu.Cpu.privileged then fault_bus t ~addr ~access:Fault.Write;
    device_write t addr width v
  | Memmap.Code | Memmap.Sram | Memmap.Peripheral | Memmap.External_ram
  | Memmap.External_device | Memmap.Vendor ->
    mpu_check t ~addr ~access:Fault.Write;
    if Memory.contains t.flash addr then fault_bus t ~addr ~access:Fault.Write
    else if Memory.contains t.sram addr then Memory.write t.sram addr width v
    else device_write t addr width v

(* Fast paths for translation-time-routed accesses (the closure-compiled
   interpreter engine): same one-cycle charge, same MPU check, same fault
   behaviour as [read]/[write] for an address whose region is already
   known — only the region classification, the memory-range scans and,
   for a routed device access whose generation still holds, the device
   lookup are skipped.  Callers guarantee the routing precondition (e.g.
   the address is in SRAM range for [read_sram], outside flash, SRAM and
   the PPB for [read_routed]). *)
let read_sram t addr width =
  Cpu.charge t.cpu 1;
  mpu_check t ~addr ~access:Fault.Read;
  Memory.read_unchecked t.sram addr width

let write_sram t addr width v =
  Cpu.charge t.cpu 1;
  mpu_check t ~addr ~access:Fault.Write;
  Memory.write_unchecked t.sram addr width v

let read_flash t addr width =
  Cpu.charge t.cpu 1;
  mpu_check t ~addr ~access:Fault.Read;
  Memory.read_unchecked t.flash addr width

type route = { r_device : Device.t; r_gen : int }

let route t addr = { r_device = lookup t addr; r_gen = t.device_gen }

let routed_device t r addr =
  if r.r_gen = t.device_gen then r.r_device else lookup t addr

let read_routed t r addr width =
  Cpu.charge t.cpu 1;
  mpu_check t ~addr ~access:Fault.Read;
  dispatch_read t (routed_device t r addr) addr width

let write_routed t r addr width v =
  Cpu.charge t.cpu 1;
  mpu_check t ~addr ~access:Fault.Write;
  dispatch_write t (routed_device t r addr) addr width v

(* [read]/[write] at the privileged level, for the monitor's copies:
   the same one-cycle charge and the same outcome, without a
   [Cpu.with_privilege] round trip per word.  When the backend lets
   privileged code read and write everywhere
   ({!Backend.privileged_rw_unrestricted}, a field test), an access
   inside SRAM — where the shadows, masters, relocation table and stack
   live — can neither fault nor reach a device, so it goes straight to
   memory; every other access takes [read]/[write] under
   [with_privilege]. *)
let read_priv t addr width =
  if Backend.privileged_rw_unrestricted t.prot
     && Memory.in_range t.sram addr width
  then begin
    Cpu.charge t.cpu 1;
    Memory.read_unchecked t.sram addr width
  end
  else Cpu.with_privilege t.cpu (fun () -> read t addr width)

let write_priv t addr width v =
  if Backend.privileged_rw_unrestricted t.prot
     && Memory.in_range t.sram addr width
  then begin
    Cpu.charge t.cpu 1;
    Memory.write_unchecked t.sram addr width v
  end
  else Cpu.with_privilege t.cpu (fun () -> write t addr width v)

(* Privileged raw accessors for the loader and for instrumentation that
   inspects or tampers with memory: bypass the enforcement check and
   charge nothing, but still route devices. *)
let read_raw t addr width =
  Cpu.with_privilege t.cpu (fun () ->
      if Memory.contains t.flash addr then Memory.read t.flash addr width
      else if Memory.contains t.sram addr then Memory.read t.sram addr width
      else device_read t addr width)

let write_raw t addr width v =
  Cpu.with_privilege t.cpu (fun () ->
      if Memory.contains t.flash addr then Memory.write t.flash addr width v
      else if Memory.contains t.sram addr then Memory.write t.sram addr width v
      else device_write t addr width v)

(* Check an instruction fetch from [addr] (function entry). *)
let check_execute t addr =
  match Memmap.classify addr with
  | Memmap.Ppb -> fault_bus t ~addr ~access:Fault.Execute
  | Memmap.Code | Memmap.Sram | Memmap.Peripheral | Memmap.External_ram
  | Memmap.External_device | Memmap.Vendor ->
    mpu_check t ~addr ~access:Fault.Execute
