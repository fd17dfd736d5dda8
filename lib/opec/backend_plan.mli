(** Backend-parameterized protection plans: map one operation's policy
    onto the active enforcement backend (MPU regions, PMP entries,
    CHERI capability table, or POE key-tagged overlays). *)

module M = Opec_machine

(** The stack prefix limit the MPU's sub-region disable mask encodes. *)
val stack_limit_of_srd : stack_base:int -> stack_top:int -> int -> int

(** One MPU region as a PMP NAPOT entry with the unprivileged
    permissions (the monitor's peripheral rotation installs these). *)
val pmp_of_mpu_region : M.Mpu.region -> M.Pmp.entry

(** The operation's CHERI capability table (background, code, stack
    prefix, data section, heap, precise peripheral grants). *)
val cheri_caps :
  code_base:int ->
  code_bytes:int ->
  stack_base:int ->
  stack_limit:int ->
  ?heap:Layout.section ->
  Layout.section option ->
  Operation.t ->
  M.Cheri.cap list

(** Fixed POE key plan, mirroring the MPU's region numbering. *)
val poe_key_background : int

val poe_key_code : int
val poe_key_stack : int
val poe_key_opdata : int
val poe_key_first_free : int

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

(** Rotation arithmetic for the monitor: first PMP entry index holding a
    peripheral window, and how many fit before the table is full. *)
val pmp_periph_first : has_section:bool -> has_heap:bool -> int

val pmp_periph_capacity : has_section:bool -> has_heap:bool -> int

(** Key-recycling arithmetic: first recyclable POE key and the pool
    size, after the heap claims one when present. *)
val poe_recycle_first : has_heap:bool -> int

val poe_recycle_count : has_heap:bool -> int
