(* MPU region planning (paper, Section 5.2).

   Fixed plan per operation:
   - region 0: background — code and SRAM readable, nothing writable at
     the unprivileged level (peripheral space is deliberately outside it,
     so unlisted peripherals fault);
   - region 1: application code, unprivileged read + execute;
   - region 2: the application stack, read-write, with sub-regions
     disabled dynamically by the monitor;
   - region 3: the operation's data section, read-write;
   - regions 4..7: the operation's (merged) peripheral ranges; ranges
     beyond four regions are virtualized by the monitor at runtime.

   A merged peripheral range that cannot be covered by one aligned
   power-of-two region is split into multiple chunks, which is why "one
   peripheral may need two more MPU regions" (Section 5.2).

   This module builds the regions; {!Backend_plan} installs the plan and
   rotates the overflow through the reserved slots. *)

module Mpu = Opec_machine.Mpu

let background_region =
  Mpu.region ~base:0x0 ~size_log2:30 ~privileged:Mpu.Read_write
    ~unprivileged:Mpu.Read_only ()

let code_region ~code_base ~code_bytes =
  let _, log2 = Mpu.region_size_for code_bytes in
  (* align the base down to the region size; flash base is 2^27-aligned *)
  let size = 1 lsl log2 in
  let base = code_base land lnot (size - 1) in
  Mpu.region ~executable:true ~base ~size_log2:log2 ~privileged:Mpu.Read_write
    ~unprivileged:Mpu.Read_only ()

let stack_region ~stack_base ?(srd = 0) () =
  let log2 =
    let rec go k = if 1 lsl k >= Config.stack_size then k else go (k + 1) in
    go Mpu.min_size_log2
  in
  Mpu.region ~srd ~base:stack_base ~size_log2:log2 ~privileged:Mpu.Read_write
    ~unprivileged:Mpu.Read_write ()

(* the heap section: read-write for operations that use the heap *)
let heap_region (section : Layout.section) =
  Mpu.region ~base:section.Layout.base ~size_log2:section.Layout.region_log2
    ~privileged:Mpu.Read_write ~unprivileged:Mpu.Read_write ()

let opdata_region (section : Layout.section) =
  Mpu.region ~base:section.Layout.base ~size_log2:section.Layout.region_log2
    ~privileged:Mpu.Read_write ~unprivileged:Mpu.Read_write ()

(* Cover [lo, hi) with aligned power-of-two regions, greedily taking the
   largest chunk legal at the current base. *)
let cover_range (lo, hi) =
  let rec largest_at base remaining k =
    let size = 1 lsl (k + 1) in
    if size <= remaining && base land (size - 1) = 0 && k + 1 <= 30 then
      largest_at base remaining (k + 1)
    else k
  in
  let rec go base acc =
    if base >= hi then List.rev acc
    else
      let remaining = hi - base in
      let k =
        if remaining < 32 then Mpu.min_size_log2
        else largest_at base remaining (Mpu.min_size_log2 - 1)
      in
      let k = max k Mpu.min_size_log2 in
      go (base + (1 lsl k)) ((base, k) :: acc)
  in
  go lo []

let peripheral_regions (op : Operation.t) =
  List.concat_map cover_range op.Operation.periph_ranges
  |> List.map (fun (base, size_log2) ->
         Mpu.region ~base ~size_log2 ~privileged:Mpu.Read_write
           ~unprivileged:Mpu.Read_write ())
