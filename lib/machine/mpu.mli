(** The ARMv7-M Memory Protection Unit (paper, Section 2.2).

    Models the documented constraints OPEC's design is built on: 8
    prioritized regions, power-of-two sizes of at least 32 bytes, bases
    aligned to the region size, 8 individually disableable sub-regions
    for regions of 256 bytes and up, and the PRIVDEFENA background map
    for privileged code. *)

type perm = No_access | Read_only | Read_write

type region = {
  base : int;
  size_log2 : int;     (** region covers [2{^size_log2}] bytes, >= 5 *)
  srd : int;           (** 8-bit sub-region disable mask *)
  privileged : perm;
  unprivileged : perm;
  executable : bool;
}

(** The 8 region slots, written only through {!set} and {!clear}. *)
type slots

(** MPU state.  Private, and its slots abstract, so that every write
    goes through a setter below; every setter bumps [gen], so a
    permission decision cached under an older [gen] is stale. *)
type t = private {
  mutable enabled : bool;
  regions : slots;
  mutable gen : int;
  mutable priv_restricted : int;
      (** how many resident regions give privileged code less than
          read-write; {!set} and {!clear} keep it *)
}

exception Invalid_region of string

val region_count : int

(** Smallest legal region size: 32 bytes. *)
val min_size_log2 : int

(** Sub-regions are only implemented for regions of 256 bytes and up. *)
val subregion_min_log2 : int

(** A disabled MPU (all slots empty). *)
val create : unit -> t

(** Validated region constructor.  Raises {!Invalid_region} on sizes out
    of range, misaligned bases, or bad [srd] masks. *)
val region :
  ?srd:int ->
  ?executable:bool ->
  base:int ->
  size_log2:int ->
  privileged:perm ->
  unprivileged:perm ->
  unit ->
  region

(** [region_size_for bytes] is the smallest legal [(size, log2)] able to
    cover [bytes] bytes. *)
val region_size_for : int -> int * int

val set : t -> int -> region option -> unit
val get : t -> int -> region option
val enable : t -> unit
val disable : t -> unit
val clear : t -> unit

(** [true] when {!check} allows every privileged read and write: the
    MPU is disabled, or no resident region restricts privileged
    access (so the background map or a read-write region decides). *)
val privileged_rw_unrestricted : t -> bool

(** The whole table — enable bit and regions — as an install left it,
    with the number of generation bumps since [since]. *)
type snapshot

val snapshot : t -> since:int -> snapshot

(** Put a snapshot's table back and bump [gen] by the snapshot's count,
    as replaying the setters that built it would. *)
val restore : t -> snapshot -> unit

(** Does the region match the address, honouring disabled sub-regions? *)
val region_matches : region -> int -> bool

val perm_allows : perm -> Fault.access -> bool

(** Check one access: the highest-numbered enabled region whose
    (enabled) sub-region contains [addr] decides; with no match,
    privileged accesses use the background map and unprivileged ones
    fault. *)
val check :
  t -> privileged:bool -> addr:int -> access:Fault.access ->
  (unit, Fault.info) result

(** [window t ~addr] is the [\[lo, hi)] around [addr] in which the
    region deciding [addr] (or the background map) decides every
    address: the deciding region or sub-region, clipped by
    higher-numbered regions.  Every address in it gets [addr]'s {!check}
    outcome, whatever the privilege and access kind. *)
val window : t -> addr:int -> int * int

val pp_perm : Format.formatter -> perm -> unit
val pp_region : Format.formatter -> region -> unit
