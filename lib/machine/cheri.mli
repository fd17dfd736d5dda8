(** CHERI-style capability protection (CompartOS model): per-compartment
    capability tables with byte-granular bounds, no entry budget, and
    bounds-precision (compressed-capability representability) as the
    only constraint. *)

type cap = {
  cap_base : int;
  cap_len : int;
  cap_r : bool;
  cap_w : bool;
  cap_x : bool;
}

(** A capability table plus the enforcing bit.  Private, so that every
    write goes through a setter below; every setter bumps [gen]. *)
type t = private {
  mutable caps : cap list;
  mutable enforcing : bool;
  mutable gen : int;
}

exception Invalid_cap of string

val mantissa_bits : int

val log2_ceil : int -> int

val representable_align : int -> int
(** Alignment base and length of a capability of the given length must
    satisfy under the compressed (CHERI-concentrate) encoding. *)

val representable : base:int -> len:int -> bool

val round_bounds : base:int -> len:int -> int * int
(** Smallest representable [(base, len)] containing the request. *)

val create : unit -> t

val cap : ?r:bool -> ?w:bool -> ?x:bool -> base:int -> len:int -> unit -> cap
(** @raise Invalid_cap on empty or unrepresentable bounds. *)

val clear : t -> unit
val add : t -> cap -> unit
val grant : t -> cap list -> unit
val enable : t -> unit

(** The capability table and enforcement bit as an install left them,
    with the number of generation bumps since [since]. *)
type snapshot

val snapshot : t -> since:int -> snapshot

(** Put a snapshot's table back and bump [gen] by its count. *)
val restore : t -> snapshot -> unit

val caps : t -> cap list
val cap_count : t -> int
val cap_matches : cap -> int -> bool

val check :
  t ->
  privileged:bool ->
  addr:int ->
  access:Fault.access ->
  (unit, Fault.info) result

(** [window t ~privileged ~addr ~access] is the [\[lo, hi)] around
    [addr] over which [access] stays granted: the granting capability's
    bounds, or the whole space for the default capability.  Every
    address in it gets [addr]'s {!check} outcome.
    @raise Invalid_argument if {!check} denies the access. *)
val window :
  t -> privileged:bool -> addr:int -> access:Fault.access -> int * int

val pp_cap : Format.formatter -> cap -> unit
