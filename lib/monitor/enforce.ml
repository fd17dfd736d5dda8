(* Backend-generic enforcement glue: operation-switch installation and
   fault-time virtualization over whatever protection state the bus
   carries.

   Installation is one {!C.Backend_plan.install} call for every
   backend.  The MPU rotates overflowed peripheral regions round-robin
   through its reserved slots; PMP rotates them through its wider entry
   table; POE never evicts a window — it recycles permission keys onto
   the faulting keyless window; CHERI grants are always fully resident,
   so a capability fault is always a real violation. *)

module C = Opec_core
module M = Opec_machine
module Obs = Opec_obs

let install st ~(image : C.Image.t) ~(meta : C.Metadata.op_meta) ~srd =
  let heap =
    if meta.C.Metadata.uses_heap then image.C.Image.layout.C.Layout.heap_section
    else None
  in
  C.Backend_plan.install st ~code_base:image.C.Image.code_base
    ~code_bytes:image.C.Image.code_bytes ~layout:image.C.Image.layout ~srd
    ?heap meta.C.Metadata.section meta.C.Metadata.op

(* One fault-time rotation: which slot (region / entry / key) was
   rotated, what it evicted, and what is now resident there. *)
type swap = {
  sw_slot : int;
  sw_evicted : Obs.Sink.region_id option;
  sw_installed : Obs.Sink.region_id;
}

let covering_region (meta : C.Metadata.op_meta) addr =
  List.find_opt
    (fun (r : M.Mpu.region) ->
      addr >= r.M.Mpu.base && addr < r.M.Mpu.base + (1 lsl r.M.Mpu.size_log2))
    meta.C.Metadata.periph_regions

let pmp_entry_id (e : M.Pmp.entry) =
  match e.M.Pmp.mode with
  | M.Pmp.Off -> None
  | M.Pmp.Napot { base; size_log2 } ->
    Some { Obs.Sink.rg_base = base; rg_size_log2 = size_log2 }
  | M.Pmp.Tor { base; limit } ->
    Some
      { Obs.Sink.rg_base = base;
        rg_size_log2 = C.Layout.log2_ceil (max 1 (limit - base)) }

let overlay_id (ov : M.Poe.overlay) =
  { Obs.Sink.rg_base = ov.M.Poe.ov_base;
    rg_size_log2 = C.Layout.log2_ceil (max 1 (ov.M.Poe.ov_limit - ov.M.Poe.ov_base)) }

(* Rotate protection onto the permitted-but-faulting access at [addr].
   Returns [None] when no planned window covers the address (a real
   violation the monitor must deny) — always the case on CHERI, whose
   grants are never partial. *)
let virtualize st ~cpu ~(meta : C.Metadata.op_meta) ~virt_next ~addr =
  match st with
  | M.Backend.Mpu_state mpu -> (
    match covering_region meta addr with
    | None -> None
    | Some region ->
      let first =
        C.Config.peripheral_region_first
        + if meta.C.Metadata.uses_heap then 1 else 0
      in
      let count =
        (C.Config.peripheral_region_first + C.Config.peripheral_region_count)
        - first
      in
      let slot = first + (virt_next mod max 1 count) in
      let evicted = Option.map Obs.Sink.region_id_of (M.Mpu.get mpu slot) in
      M.Cpu.with_privilege cpu (fun () -> M.Mpu.set mpu slot (Some region));
      Some
        { sw_slot = slot; sw_evicted = evicted;
          sw_installed = Obs.Sink.region_id_of region })
  | M.Backend.Pmp_state pmp -> (
    match covering_region meta addr with
    | None -> None
    | Some region ->
      let has_section = meta.C.Metadata.section <> None in
      let has_heap = meta.C.Metadata.uses_heap in
      let first = C.Backend_plan.pmp_periph_first ~has_section ~has_heap in
      let resident =
        min
          (C.Backend_plan.pmp_periph_capacity ~has_section ~has_heap)
          (List.length meta.C.Metadata.periph_regions)
      in
      let slot = first + (virt_next mod max 1 resident) in
      let evicted = pmp_entry_id (M.Pmp.get pmp slot) in
      M.Cpu.with_privilege cpu (fun () ->
          M.Pmp.set pmp slot (C.Backend_plan.pmp_of_mpu_region region));
      Some
        { sw_slot = slot; sw_evicted = evicted;
          sw_installed = Obs.Sink.region_id_of region })
  | M.Backend.Poe_state poe -> (
    (* key recycling, not region eviction: the faulting window is already
       resident but keyless — strip a key from its current holders and
       tag the window with it *)
    let window =
      List.find_opt
        (fun (ov : M.Poe.overlay) ->
          ov.M.Poe.ov_key = M.Poe.no_key
          && addr >= ov.M.Poe.ov_base && addr < ov.M.Poe.ov_limit)
        (M.Poe.overlays poe)
    in
    match window with
    | None -> None
    | Some ov ->
      let has_heap = meta.C.Metadata.uses_heap in
      let first = C.Backend_plan.poe_recycle_first ~has_heap in
      let count = C.Backend_plan.poe_recycle_count ~has_heap in
      let key = first + (virt_next mod max 1 count) in
      let victims =
        M.Cpu.with_privilege cpu (fun () ->
            let victims = M.Poe.reclaim_key poe key in
            M.Poe.retag poe ov key;
            victims)
      in
      Some
        { sw_slot = key;
          sw_evicted =
            (match victims with v :: _ -> Some (overlay_id v) | [] -> None);
          sw_installed = overlay_id ov })
  | M.Backend.Cheri_state _ -> None
