(** Abstract memory objects and pointer variables of the points-to
    analysis, encoded as tagged strings so solutions are plain string
    sets. *)

type t = string

module Set : Set.S with type elt = string and type t = Set.Make(String).t

val global : string -> t
val func : string -> t
val stack : func:string -> site:string -> t
val local : func:string -> name:string -> t
val ret : func:string -> t

(** A peripheral window, seeded from constant MMIO addresses. *)
val periph : string -> t

(** The synthetic node of an indirect call site's callee expression. *)
val icall : func:string -> index:int -> t

val as_global : t -> string option
val as_func : t -> string option
val as_periph : t -> string option

