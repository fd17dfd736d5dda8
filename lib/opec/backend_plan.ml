(* Backend-parameterized protection plans.

   One entry point, [install], maps an operation's policy — code,
   accessible stack prefix, data section, heap, permitted peripherals —
   onto whichever enforcement backend the machine carries, and one,
   [rotate], moves a permitted-but-faulting peripheral window into the
   slots the plan reserves for them (Section 5.2's MPU virtualization
   and its PMP and POE counterparts):

   - MPU:   a fixed 8-region plan (regions beyond the four reserved
            peripheral slots overflow into runtime virtualization);
   - PMP:   a 16-entry translation of the MPU plan (lowest-match-wins,
            TOR stack prefix instead of sub-region masking);
   - CHERI: a per-operation capability table — one precise grant per
            object, no budget, nothing to virtualize;
   - POE:   per-window permission-overlay keys — every window resident,
            peripheral windows beyond the free keys left keyless for the
            monitor to recycle keys onto at fault time.

   The background read-only view (code + SRAM readable, nothing writable
   at the unprivileged level) is part of OPEC's design — relocation
   entries may point straight at public-section masters — so every
   backend grants it: MPU region 0, the PMP's last entry, a CHERI
   default data capability, the POE background overlay on key 0.

   Each budgeted backend's peripheral slots — the first one and how many
   the plan keeps resident — are computed by one function here
   ([mpu_periph_slots], [pmp_periph_slots], [poe_periph_slots]) that the
   installer fills, the rotation cycles through, and lint reads through
   [periph_budget].

   Everything [install] writes is fixed by the image, the operation and
   the stack mask, so [install_cached] remembers the table it leaves
   per (operation id, mask) and restores it on later switches. *)

module M = Opec_machine

(* The stack prefix [stack_base, limit) the MPU expresses as a
   sub-region disable mask: [srd] disables every 1/8th strictly above
   the live frame, so the limit is the base of the lowest disabled
   sub-region. *)
let stack_limit_of_srd ~stack_base ~stack_top srd =
  if srd = 0 then stack_top
  else
    let rec first_disabled i =
      if i > 7 then 8 else if srd land (1 lsl i) <> 0 then i else first_disabled (i + 1)
    in
    stack_base + (first_disabled 0 * Config.stack_subregion_size)

(* --- MPU regions (Section 5.2) ---------------------------------------------- *)

(* Fixed plan per operation:
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
   peripheral may need two more MPU regions" (Section 5.2).  The PMP
   plan below translates these regions. *)

let background_region =
  M.Mpu.region ~base:0x0 ~size_log2:30 ~privileged:M.Mpu.Read_write
    ~unprivileged:M.Mpu.Read_only ()

let code_region ~code_base ~code_bytes =
  let _, log2 = M.Mpu.region_size_for code_bytes in
  (* align the base down to the region size; flash base is 2^27-aligned *)
  let size = 1 lsl log2 in
  let base = code_base land lnot (size - 1) in
  M.Mpu.region ~executable:true ~base ~size_log2:log2
    ~privileged:M.Mpu.Read_write ~unprivileged:M.Mpu.Read_only ()

let stack_region ~stack_base ?(srd = 0) () =
  let log2 =
    let rec go k = if 1 lsl k >= Config.stack_size then k else go (k + 1) in
    go M.Mpu.min_size_log2
  in
  M.Mpu.region ~srd ~base:stack_base ~size_log2:log2
    ~privileged:M.Mpu.Read_write ~unprivileged:M.Mpu.Read_write ()

(* the heap section: read-write for operations that use the heap *)
let heap_region (section : Layout.section) =
  M.Mpu.region ~base:section.Layout.base ~size_log2:section.Layout.region_log2
    ~privileged:M.Mpu.Read_write ~unprivileged:M.Mpu.Read_write ()

let opdata_region (section : Layout.section) =
  M.Mpu.region ~base:section.Layout.base ~size_log2:section.Layout.region_log2
    ~privileged:M.Mpu.Read_write ~unprivileged:M.Mpu.Read_write ()

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
        if remaining < 32 then M.Mpu.min_size_log2
        else largest_at base remaining (M.Mpu.min_size_log2 - 1)
      in
      let k = max k M.Mpu.min_size_log2 in
      go (base + (1 lsl k)) ((base, k) :: acc)
  in
  go lo []

let peripheral_regions (op : Operation.t) =
  List.concat_map cover_range op.Operation.periph_ranges
  |> List.map (fun (base, size_log2) ->
         M.Mpu.region ~base ~size_log2 ~privileged:M.Mpu.Read_write
           ~unprivileged:M.Mpu.Read_write ())

(* --- MPU ------------------------------------------------------------------ *)

(* The reserved peripheral regions 4..7; a heap-using operation's heap
   takes the first of them. *)
let mpu_periph_slots ~has_heap =
  let first = Config.peripheral_region_first + if has_heap then 1 else 0 in
  (first, Config.peripheral_region_first + Config.peripheral_region_count - first)

let install_mpu mpu ~code_base ~code_bytes ~stack_base ~srd ?heap
    (section : Layout.section option) (op : Operation.t) =
  M.Mpu.clear mpu;
  M.Mpu.set mpu Config.region_background (Some background_region);
  M.Mpu.set mpu Config.region_code
    (Some (code_region ~code_base ~code_bytes));
  M.Mpu.set mpu Config.region_stack
    (Some (stack_region ~stack_base ~srd ()));
  M.Mpu.set mpu Config.region_opdata (Option.map opdata_region section);
  Option.iter
    (fun hs ->
      M.Mpu.set mpu Config.peripheral_region_first
        (Some (heap_region hs)))
    heap;
  let first, budget = mpu_periph_slots ~has_heap:(heap <> None) in
  let periphs = peripheral_regions op in
  List.iteri
    (fun i r -> if i < budget then M.Mpu.set mpu (first + i) (Some r))
    periphs;
  M.Mpu.enable mpu;
  List.filteri (fun i _ -> i >= budget) periphs

(* --- PMP ------------------------------------------------------------------ *)

(* RISC-V PMP (paper, Section 7: porting OPEC requires "a memory
   protection unit ... similar to the ARM MPU, e.g., RISC-V PMP").  The
   PMP picks the LOWEST-numbered matching entry, the opposite of the
   MPU's highest-wins rule, so the translation reverses the plan: the
   specific windows come first and the read-only background entry last.
   The 16 entries also leave room for more peripheral windows before
   virtualization is needed. *)

(* One MPU region as a NAPOT entry with its unprivileged permissions.
   The translated regions never use sub-regions (the stack's SRD
   becomes a TOR entry instead). *)
let pmp_of_mpu_region (r : M.Mpu.region) =
  M.Pmp.napot ~base:r.M.Mpu.base ~size_log2:r.M.Mpu.size_log2
    ~r:(r.M.Mpu.unprivileged <> M.Mpu.No_access)
    ~w:(r.M.Mpu.unprivileged = M.Mpu.Read_write)
    ~x:r.M.Mpu.executable ()

(* The windows ahead of the peripherals, in entry order: the accessible
   stack prefix, the operation data section, the heap, then the code
   window.  Code precedes the peripherals so a peripheral-heavy
   operation can never crowd it out of the table (peripheral windows
   overflow into virtualization; the code window must stay resident). *)
let pmp_fixed ~stack ~section ~heap ~code =
  (stack :: Option.to_list section) @ Option.to_list heap @ [ code ]

(* The peripheral entries follow the fixed windows, up to the two
   reserved top entries (a spare and the background). *)
let pmp_periph_slots ~has_section ~has_heap =
  let some b = if b then Some () else None in
  let first =
    List.length
      (pmp_fixed ~stack:() ~section:(some has_section) ~heap:(some has_heap)
         ~code:())
  in
  (first, M.Pmp.entry_count - 2 - first)

let install_pmp pmp ~code_base ~code_bytes ~stack_base ~stack_limit ?heap
    (section : Layout.section option) (op : Operation.t) =
  for i = 0 to M.Pmp.entry_count - 1 do
    M.Pmp.set pmp i
      { M.Pmp.mode = M.Pmp.Off; r = false; w = false; x = false; locked = false }
  done;
  let rw (s : Layout.section) =
    M.Pmp.napot ~base:s.Layout.base ~size_log2:s.Layout.region_log2 ~r:true
      ~w:true ~x:false ()
  in
  let _, code_log2 = M.Mpu.region_size_for code_bytes in
  let fixed =
    pmp_fixed
      ~stack:
        (M.Pmp.tor ~base:stack_base ~limit:stack_limit ~r:true ~w:true ~x:false
           ())
      ~section:(Option.map rw section) ~heap:(Option.map rw heap)
      ~code:
        (M.Pmp.napot
           ~base:(code_base land lnot ((1 lsl code_log2) - 1))
           ~size_log2:code_log2 ~r:true ~w:false ~x:true ())
  in
  let _, room =
    pmp_periph_slots ~has_section:(section <> None) ~has_heap:(heap <> None)
  in
  let periphs = peripheral_regions op in
  List.iteri (M.Pmp.set pmp)
    (fixed
    @ List.map pmp_of_mpu_region (List.filteri (fun i _ -> i < room) periphs));
  (* background: code + SRAM read-only, lowest priority *)
  M.Pmp.set pmp (M.Pmp.entry_count - 1)
    (M.Pmp.napot ~base:0x0 ~size_log2:30 ~r:true ~w:false ~x:false ());
  M.Pmp.enable pmp;
  List.filteri (fun i _ -> i >= room) periphs

(* --- CHERI ---------------------------------------------------------------- *)

(* The operation's capability table.  Bounds are byte-granular; only
   bounds precision (representability) can widen a grant, via
   {!M.Cheri.round_bounds}. *)
let cheri_caps ~code_base ~code_bytes ~stack_base ~stack_limit ?heap
    (section : Layout.section option) (op : Operation.t) =
  let rounded ?(r = true) ?(w = false) ?(x = false) ~base ~len () =
    let base, len = M.Cheri.round_bounds ~base ~len in
    M.Cheri.cap ~r ~w ~x ~base ~len ()
  in
  let background = rounded ~base:0x0 ~len:(1 lsl 30) () in
  let code = rounded ~x:true ~base:code_base ~len:code_bytes () in
  let stack =
    rounded ~w:true ~base:stack_base ~len:(max 1 (stack_limit - stack_base)) ()
  in
  let opdata =
    match section with
    | None -> []
    | Some s -> [ rounded ~w:true ~base:s.Layout.base ~len:s.Layout.span () ]
  in
  let heap_caps =
    match heap with
    | None -> []
    | Some (hs : Layout.section) ->
      [ rounded ~w:true ~base:hs.Layout.base ~len:hs.Layout.span () ]
  in
  let periphs =
    List.map
      (fun (base, limit) -> rounded ~w:true ~base ~len:(limit - base) ())
      op.Operation.periph_ranges
  in
  (background :: code :: stack :: opdata) @ heap_caps @ periphs

let install_cheri c ~code_base ~code_bytes ~stack_base ~stack_limit ?heap
    section op =
  M.Cheri.clear c;
  M.Cheri.grant c
    (cheri_caps ~code_base ~code_bytes ~stack_base ~stack_limit ?heap section
       op);
  M.Cheri.enable c

(* --- POE ------------------------------------------------------------------ *)

(* Fixed key plan mirroring the MPU's region numbering: key 0 the
   read-only background, 1 executable code, 2 the stack prefix, 3 the
   operation data section, 4..7 heap + peripheral windows.  Windows
   beyond the free keys stay resident but keyless; the monitor recycles
   keys onto them from the fault handler. *)
let poe_key_background = 0
let poe_key_code = 1
let poe_key_stack = 2
let poe_key_opdata = 3
let poe_key_first_free = 4

(* The peripheral keys: the free keys after the heap's, when present. *)
let poe_periph_slots ~has_heap =
  let first = poe_key_first_free + if has_heap then 1 else 0 in
  (first, M.Poe.key_count - first)

let round_down g n = n / g * g
let round_up g n = (n + g - 1) / g * g

let poe_window ~base ~limit =
  (round_down M.Poe.granule base, round_up M.Poe.granule limit)

let install_poe p ~code_base ~code_bytes ~stack_base ~stack_limit ?heap
    (section : Layout.section option) (op : Operation.t) =
  M.Poe.clear p;
  let g = M.Poe.granule in
  M.Poe.set_key p poe_key_background M.Poe.Read_only;
  M.Poe.set_key p poe_key_code ~x:true M.Poe.Read_only;
  M.Poe.set_key p poe_key_stack M.Poe.Read_write;
  M.Poe.set_key p poe_key_opdata M.Poe.Read_write;
  for k = poe_key_first_free to M.Poe.key_count - 1 do
    M.Poe.set_key p k M.Poe.Read_write
  done;
  (* specific windows first (first match wins), background last *)
  (if stack_limit > stack_base then
     let base, limit = poe_window ~base:stack_base ~limit:stack_limit in
     M.Poe.add p (M.Poe.overlay ~key:poe_key_stack ~base ~limit ()));
  (match section with
  | None -> ()
  | Some s ->
    let base, limit =
      poe_window ~base:s.Layout.base ~limit:(s.Layout.base + s.Layout.span)
    in
    M.Poe.add p (M.Poe.overlay ~key:poe_key_opdata ~base ~limit ()));
  (match heap with
  | None -> ()
  | Some (hs : Layout.section) ->
    let base, limit =
      poe_window ~base:hs.Layout.base ~limit:(hs.Layout.base + hs.Layout.span)
    in
    M.Poe.add p (M.Poe.overlay ~key:poe_key_first_free ~base ~limit ()));
  let first, budget = poe_periph_slots ~has_heap:(heap <> None) in
  List.iteri
    (fun i (base, limit) ->
      let base, limit = poe_window ~base ~limit in
      let key = if i < budget then first + i else M.Poe.no_key in
      M.Poe.add p (M.Poe.overlay ~key ~base ~limit ()))
    op.Operation.periph_ranges;
  let code_lo = round_down g code_base in
  M.Poe.add p
    (M.Poe.overlay ~key:poe_key_code ~base:code_lo
       ~limit:(round_up g (code_base + code_bytes))
       ());
  M.Poe.add p
    (M.Poe.overlay ~key:poe_key_background ~base:0x0 ~limit:(1 lsl 30) ());
  M.Poe.enable p

(* --- dispatch ------------------------------------------------------------- *)

(* Install the operation's plan on whatever backend the machine carries
   — the monitor's one installation path.  Every backend starts from a
   cleared table, so nothing of the previous operation's plan survives
   (on the MPU, no reserved peripheral slot keeps a stale region).
   Returns the planned peripheral windows that are not resident (MPU /
   PMP overflow, rotated in by the monitor); CHERI and POE plans are
   always fully resident ([] — POE's keyless windows are resident, only
   their keys are lazily assigned). *)
let install st ~code_base ~code_bytes ~(layout : Layout.t) ~srd ?heap
    (section : Layout.section option) (op : Operation.t) =
  let stack_base = layout.Layout.stack_base in
  let stack_limit =
    stack_limit_of_srd ~stack_base ~stack_top:layout.Layout.stack_top srd
  in
  match st with
  | M.Backend.Mpu_state m ->
    install_mpu m ~code_base ~code_bytes ~stack_base ~srd ?heap section op
  | M.Backend.Pmp_state p ->
    install_pmp p ~code_base ~code_bytes ~stack_base ~stack_limit ?heap
      section op
  | M.Backend.Cheri_state c ->
    install_cheri c ~code_base ~code_bytes ~stack_base ~stack_limit ?heap
      section op;
    []
  | M.Backend.Poe_state p ->
    install_poe p ~code_base ~code_bytes ~stack_base ~stack_limit ?heap
      section op;
    []

(* --- installed-plan snapshots ------------------------------------------------ *)

(* Stack masks are 8-bit sub-region disable masks. *)
let srd_masks = 256

(* [table] holds, per (operation id, mask), the backend table the first
   install of that key left; it belongs to [owner], the backend state it
   was taken on. *)
type plan_cache = {
  mutable owner : M.Backend.state option;
  table : M.Backend.snapshot option array;
}

let plan_cache ~ops = { owner = None; table = Array.make (ops * srd_masks) None }

(* Install the operation's plan, from its snapshot when this cache has
   one for the (operation id, srd) key: a restore leaves the same table
   and bumps the generation as often as [install] would, so nothing the
   bus or the fault handlers see can tell the two apart.  A first
   install on a different backend state drops every snapshot. *)
let install_cached cache ~id st ~code_base ~code_bytes ~layout ~srd ?heap
    section op =
  if srd land lnot (srd_masks - 1) <> 0 then
    invalid_arg "Backend_plan.install_cached: srd out of range";
  (match cache.owner with
  | Some o when o == st -> ()
  | Some _ | None ->
    Array.fill cache.table 0 (Array.length cache.table) None;
    cache.owner <- Some st);
  let key = (id * srd_masks) + srd in
  match cache.table.(key) with
  | Some s -> M.Backend.restore st s
  | None ->
    let since = M.Backend.gen st in
    ignore (install st ~code_base ~code_bytes ~layout ~srd ?heap section op);
    cache.table.(key) <- Some (M.Backend.snapshot st ~since)

(* --- resident budget and fault-time rotation -------------------------------- *)

let periph_budget kind (meta : Metadata.op_meta) =
  let has_heap = meta.Metadata.uses_heap in
  let has_section = meta.Metadata.section <> None in
  Option.map snd
    (match kind with
    | M.Backend.Mpu -> Some (mpu_periph_slots ~has_heap)
    | M.Backend.Pmp -> Some (pmp_periph_slots ~has_section ~has_heap)
    | M.Backend.Poe -> Some (poe_periph_slots ~has_heap)
    | M.Backend.Cheri -> None)

let periph_windows kind (meta : Metadata.op_meta) =
  match kind with
  | M.Backend.Poe -> List.length meta.Metadata.op.Operation.periph_ranges
  | M.Backend.Mpu | M.Backend.Pmp | M.Backend.Cheri ->
    List.length meta.Metadata.periph_regions

type rotation = {
  slot : int;
  evicted : (int * int) option;
  installed : int * int;
}

let covering_region (meta : Metadata.op_meta) addr =
  List.find_opt
    (fun (r : M.Mpu.region) ->
      addr >= r.M.Mpu.base && addr < r.M.Mpu.base + (1 lsl r.M.Mpu.size_log2))
    meta.Metadata.periph_regions

let region_window (r : M.Mpu.region) = (r.M.Mpu.base, r.M.Mpu.size_log2)
let span_window ~base ~limit = (base, Layout.log2_ceil (max 1 (limit - base)))

let pmp_entry_window (e : M.Pmp.entry) =
  match e.M.Pmp.mode with
  | M.Pmp.Off -> None
  | M.Pmp.Napot { base; size_log2 } -> Some (base, size_log2)
  | M.Pmp.Tor { base; limit } -> Some (span_window ~base ~limit)

let overlay_window (ov : M.Poe.overlay) =
  span_window ~base:ov.M.Poe.ov_base ~limit:ov.M.Poe.ov_limit

(* The MPU and PMP evict round-robin within the peripheral slots; POE
   never evicts a window — it strips a key from its current holders and
   tags the faulting keyless window with it. *)
let rotate st ~(meta : Metadata.op_meta) ~next ~addr =
  let has_heap = meta.Metadata.uses_heap in
  match st with
  | M.Backend.Mpu_state mpu ->
    Option.map
      (fun region ->
        let first, budget = mpu_periph_slots ~has_heap in
        let slot = first + (next mod max 1 budget) in
        let evicted = Option.map region_window (M.Mpu.get mpu slot) in
        M.Mpu.set mpu slot (Some region);
        { slot; evicted; installed = region_window region })
      (covering_region meta addr)
  | M.Backend.Pmp_state pmp ->
    Option.map
      (fun region ->
        let first, budget =
          pmp_periph_slots ~has_section:(meta.Metadata.section <> None)
            ~has_heap
        in
        let resident = min budget (List.length meta.Metadata.periph_regions) in
        let slot = first + (next mod max 1 resident) in
        let evicted = pmp_entry_window (M.Pmp.get pmp slot) in
        M.Pmp.set pmp slot (pmp_of_mpu_region region);
        { slot; evicted; installed = region_window region })
      (covering_region meta addr)
  | M.Backend.Poe_state poe ->
    Option.map
      (fun ov ->
        let first, budget = poe_periph_slots ~has_heap in
        let key = first + (next mod max 1 budget) in
        let victims = M.Poe.reclaim_key poe key in
        M.Poe.retag poe ov key;
        { slot = key;
          evicted = Option.map overlay_window (List.nth_opt victims 0);
          installed = overlay_window ov })
      (List.find_opt
         (fun (ov : M.Poe.overlay) ->
           ov.M.Poe.ov_key = M.Poe.no_key
           && addr >= ov.M.Poe.ov_base && addr < ov.M.Poe.ov_limit)
         (M.Poe.overlays poe))
  | M.Backend.Cheri_state _ -> None
