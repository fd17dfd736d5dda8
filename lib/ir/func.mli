(** Function definitions. *)

type t = {
  name : string;
  params : (string * Ty.t) list;
  body : Instr.block;
  file : string;   (** source file — the unit of ACES's filename strategies *)
  irq : bool;      (** interrupt handler: cannot be an operation entry *)
  varargs : bool;  (** variadic: cannot be an operation entry *)
}

val v :
  ?file:string ->
  ?irq:bool ->
  ?varargs:bool ->
  string ->
  params:(string * Ty.t) list ->
  body:Instr.block ->
  t

val arity : t -> int

(** Parameter type shape used by the type-based icall matching. *)
val signature : t -> Ty.t list

val pp : Format.formatter -> t -> unit
