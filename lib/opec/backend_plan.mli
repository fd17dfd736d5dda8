(** Backend-parameterized protection plans: map one operation's policy
    onto the active enforcement backend (MPU regions, PMP entries,
    CHERI capability table, or POE key-tagged overlays).

    The MPU plan is fixed per operation (Section 5.2): region 0 the
    background (code + SRAM readable, nothing writable unprivileged),
    region 1 executable code, region 2 the stack with dynamic
    sub-region masking, region 3 the operation data section, regions
    4..7 the merged peripheral ranges (the first reserved slot holds the
    heap section for heap-using operations); ranges beyond the budget
    are virtualized at runtime.  The other backends translate it. *)

module M = Opec_machine

(** {2 MPU regions} *)

val background_region : M.Mpu.region
val code_region : code_base:int -> code_bytes:int -> M.Mpu.region
val stack_region : stack_base:int -> ?srd:int -> unit -> M.Mpu.region
val heap_region : Layout.section -> M.Mpu.region
val opdata_region : Layout.section -> M.Mpu.region

(** Cover [lo, hi) with aligned power-of-two chunks (greedy); the reason
    "one peripheral may need two more MPU regions". *)
val cover_range : int * int -> (int * int) list

(** All peripheral regions the operation's merged ranges need. *)
val peripheral_regions : Operation.t -> M.Mpu.region list

(** {2 Installation} *)

(** Install the operation's plan on whatever backend the machine
    carries, replacing everything the previous plan installed; returns
    the planned peripheral windows left non-resident (MPU/PMP overflow;
    always [[]] for CHERI and POE). *)
val install :
  M.Backend.state ->
  code_base:int ->
  code_bytes:int ->
  layout:Layout.t ->
  srd:int ->
  ?heap:Layout.section ->
  Layout.section option ->
  Operation.t ->
  M.Mpu.region list

(** Snapshots of installed plans, per (operation id, stack mask). *)
type plan_cache

(** An empty cache for operation ids [0 .. ops-1]. *)
val plan_cache : ops:int -> plan_cache

(** [install_cached cache ~id st ...] has {!install}'s effect on [st]:
    the first time for a given [(id, srd)] it runs {!install} and
    snapshots the resulting table; later it restores that snapshot,
    which leaves the same table and bumps {!M.Backend.gen} the same
    number of times.  [id] names the operation (and with it [heap],
    the section and the operation), so a key must always come with the
    same arguments.  The snapshots belong to the state they were taken
    on; a call on a different state starts over.  [srd] must be an
    8-bit mask. *)
val install_cached :
  plan_cache ->
  id:int ->
  M.Backend.state ->
  code_base:int ->
  code_bytes:int ->
  layout:Layout.t ->
  srd:int ->
  ?heap:Layout.section ->
  Layout.section option ->
  Operation.t ->
  unit

(** How many of the operation's peripheral windows the backend keeps
    resident at once — MPU regions, PMP entries, keyed POE overlays —
    the rest being rotated in at fault time; [None] for CHERI, whose
    grants are unbudgeted.  The installer fills exactly this many and
    {!rotate} cycles through the same slots. *)
val periph_budget : M.Backend.kind -> Metadata.op_meta -> int option

(** How many planned peripheral windows compete for those slots: the
    region plan's chunks, which the MPU and PMP installers place, or the
    merged peripheral ranges, which the POE installer keys. *)
val periph_windows : M.Backend.kind -> Metadata.op_meta -> int

(** One fault-time rotation: the slot rotated (MPU region, PMP entry or
    POE key), the window it took the slot from, if any, and the window
    now resident, each as [(base, size_log2)]. *)
type rotation = {
  slot : int;
  evicted : (int * int) option;
  installed : int * int;
}

(** [rotate st ~meta ~next ~addr] moves the planned peripheral window
    covering the permitted-but-faulting [addr] into the slot [next]
    selects, round-robin over the operation's peripheral slots: MPU and
    PMP evict the window there, POE recycles the key onto the faulting
    keyless window.  [None] when no planned window covers [addr] — a
    real violation, and always the case on CHERI. *)
val rotate :
  M.Backend.state ->
  meta:Metadata.op_meta ->
  next:int ->
  addr:int ->
  rotation option
