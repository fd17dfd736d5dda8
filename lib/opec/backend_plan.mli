(** Backend-parameterized protection plans: map one operation's policy
    onto the active enforcement backend (MPU regions, PMP entries,
    CHERI capability table, or POE key-tagged overlays). *)

module M = Opec_machine

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
