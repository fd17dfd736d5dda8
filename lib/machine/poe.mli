(** Arm POE / MPK-style permission-overlay keys (Complets model):
    byte-granular tagged windows, a fixed pool of permission keys, and
    key recycling instead of region eviction on exhaustion. *)

type perm = No_access | Read_only | Read_write

(** A tagged window [\[ov_base, ov_limit)].  Private: its key changes
    only through {!reclaim_key} and {!retag}, which bump the owning
    state's [gen]. *)
type overlay = private {
  ov_base : int;
  ov_limit : int;
  mutable ov_key : int;
}

(** Per-key registers, written only through {!set_key} and {!clear}. *)
type 'a keys

(** The overlay list, the per-key permission registers and the
    enforcing bit.  Private, and its registers abstract, so that every
    write goes through a setter below; every setter bumps [gen]. *)
type t = private {
  mutable overlays : overlay list;
  por : perm keys;
  por_x : bool keys;
  mutable enforcing : bool;
  mutable gen : int;
}

exception Invalid_overlay of string

val key_count : int
val no_key : int
val granule : int

val create : unit -> t

val overlay : ?key:int -> base:int -> limit:int -> unit -> overlay
(** @raise Invalid_overlay on an empty, misaligned, or bad-key window. *)

val clear : t -> unit
val add : t -> overlay -> unit
val set_key : t -> int -> ?x:bool -> perm -> unit
val enable : t -> unit

(** A key's unprivileged data permission and execute bit. *)
val key_perm : t -> int -> perm * bool

(** Overlays, keys and enforcement bit as an install left them, with the
    number of generation bumps since [since]. *)
type snapshot

val snapshot : t -> since:int -> snapshot

(** Put a snapshot's table back (as fresh overlay records, so key
    recycling never writes into the snapshot) and bump [gen] by its
    count. *)
val restore : t -> snapshot -> unit

val overlays : t -> overlay list
val find : t -> int -> overlay option

val reclaim_key : t -> int -> overlay list
(** Strip [key] from every window holding it; returns the victims. *)

val retag : t -> overlay -> int -> unit
(** [retag t ov key] tags [ov], a window of [t], with [key].
    @raise Invalid_overlay on a key out of range. *)


val check :
  t ->
  privileged:bool ->
  addr:int ->
  access:Fault.access ->
  (unit, Fault.info) result

(** [window t ~privileged ~addr] is the [\[lo, hi)] around [addr] in
    which the overlay deciding [addr] decides every address: the first
    covering overlay clipped by earlier ones, or the whole space for
    privileged code.  Every address in it gets [addr]'s {!check}
    outcome. *)
val window : t -> privileged:bool -> addr:int -> int * int

val pp_overlay : Format.formatter -> overlay -> unit
