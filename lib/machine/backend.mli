(** The enforcement-backend abstraction: a constraint descriptor per
    substrate (entry budget, alignment rule) and a uniform runtime state + check over the four hardware
    models (ARMv7-M MPU, RISC-V PMP, CHERI capabilities, Arm POE/MPK
    keys). *)

type kind = Mpu | Pmp | Cheri | Poe

val all_kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option

type alignment =
  | Pow2 of { min_log2 : int }
  | Granule of { bytes : int }
  | Precision of { mantissa_bits : int }

type descriptor = {
  d_entry_budget : int option;
  d_alignment : alignment;
}

val descriptor : kind -> descriptor

val region_fit : descriptor -> int -> int * int
(** [region_fit d bytes] is the [(alignment, span)] a window covering
    [bytes] bytes costs under the backend's encoding.  Identical to
    [Mpu.region_size_for] for power-of-two backends. *)

type state =
  | Mpu_state of Mpu.t
  | Pmp_state of Pmp.t
  | Cheri_state of Cheri.t
  | Poe_state of Poe.t

val create : kind -> state

val check :
  state ->
  privileged:bool ->
  addr:int ->
  access:Fault.access ->
  (unit, Fault.info) result

(** The state's generation counter: every setter of the underlying
    unit bumps it.  Two different states may carry equal values. *)
val gen : state -> int

(** [window st ~privileged ~addr ~access], for an access {!check}
    allows, is a [\[lo, hi)] around [addr] in which every address gets
    the same {!check} outcome for this privilege and access kind, as
    long as {!gen} does not change: the deciding MPU region or
    sub-region clipped by higher-numbered regions, the lowest matching
    PMP entry clipped by lower ones, the granting capability, or the
    first POE overlay clipped by earlier ones. *)
val window :
  state -> privileged:bool -> addr:int -> access:Fault.access -> int * int

val enable : state -> unit

(** [true] when {!check} allows every privileged read and write at
    every address: no MPU region restricts privileged access, no PMP
    entry is locked; always for CHERI and POE, whose privileged
    accesses bypass the table.  The setters keep what this reads, so it
    costs a field test. *)
val privileged_rw_unrestricted : state -> bool

(** A backend's whole table as an install left it, and how many times
    that install bumped {!gen}. *)
type snapshot

(** [snapshot st ~since] captures [st]'s table; [since] is {!gen}
    before the install. *)
val snapshot : state -> since:int -> snapshot

(** Put the table back and bump {!gen} by the captured count, leaving
    the state as the install left it, whatever ran in between.  Raises
    [Invalid_argument] for a snapshot of another backend kind. *)
val restore : state -> snapshot -> unit
