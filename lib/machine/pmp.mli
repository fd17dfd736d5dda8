(** RISC-V Physical Memory Protection (PMP), the alternative protection
    unit for porting OPEC to other platforms (Section 7).

    Differences from the ARM MPU that matter to OPEC: 16 entries, the
    LOWEST-numbered matching entry decides, NAPOT/TOR addressing, and
    lock bits that bind even machine-mode (privileged) accesses. *)

type mode =
  | Off
  | Napot of { base : int; size_log2 : int }
  | Tor of { base : int; limit : int }  (** [\[base, limit)] *)

type entry = {
  mode : mode;
  r : bool;
  w : bool;
  x : bool;
  locked : bool;  (** enforced even on machine-mode accesses *)
}

(** The 16 entries, written only through {!set}. *)
type slots

(** PMP state.  Private, and its entries abstract, so that every write
    goes through a setter below; every setter bumps [gen]. *)
type t = private {
  entries : slots;
  mutable enforcing : bool;
  mutable gen : int;
  mutable locked_entries : int;  (** locked entries; {!set} keeps it *)
}

exception Invalid_entry of string

val entry_count : int
val create : unit -> t

(** Validated NAPOT entry: naturally aligned power-of-two of >= 8 B. *)
val napot :
  ?locked:bool -> base:int -> size_log2:int -> r:bool -> w:bool -> x:bool ->
  unit -> entry

(** Validated top-of-range entry covering [\[base, limit)]. *)
val tor :
  ?locked:bool -> base:int -> limit:int -> r:bool -> w:bool -> x:bool ->
  unit -> entry

val set : t -> int -> entry -> unit
val get : t -> int -> entry
val enable : t -> unit

(** [true] when {!check} allows every privileged read and write: the
    PMP is off, or no entry is locked. *)
val privileged_rw_unrestricted : t -> bool

(** The whole table — entries and enforcement bit — as an install left
    it, with the number of generation bumps since [since]. *)
type snapshot

val snapshot : t -> since:int -> snapshot

(** Put a snapshot's table back and bump [gen] by its count. *)
val restore : t -> snapshot -> unit
val matches : entry -> int -> bool
val entry_allows : entry -> Fault.access -> bool

(** Check one access: lowest-numbered matching entry decides; machine
    mode passes unless the entry is locked; no match faults lower
    privileges. *)
val check :
  t -> privileged:bool -> addr:int -> access:Fault.access ->
  (unit, Fault.info) result

(** [window t ~addr] is the [\[lo, hi)] around [addr] in which the
    entry deciding [addr] decides every address: the lowest matching
    entry's range clipped by lower-numbered entries.  Every address in
    it gets [addr]'s {!check} outcome. *)
val window : t -> addr:int -> int * int

val pp_entry : Format.formatter -> entry -> unit
