(** Core execution state: privilege level, stack pointer, and the cycle
    counter standing in for the paper's DWT measurements. *)

type t = {
  mutable privileged : bool;
  mutable sp : int;
  mutable stack_base : int;   (** lowest valid stack address *)
  mutable stack_limit : int;  (** one past the highest valid stack address *)
  mutable cycles : int;
      (** unboxed on purpose: [charge] runs on every instruction,
          expression node, and bus access, and a boxed [int64] field
          would allocate on each of them.  63 bits dwarf any run's
          cycle count; the public reading is still {!cycles}'s
          [int64]. *)
}

(** A privileged CPU with an unset stack. *)
val create : unit -> t

(** Charge [n] cycles. *)
val charge : t -> int -> unit

val cycles : t -> int64
val drop_privilege : t -> unit

(** Run [f] at the privileged level, restoring the previous level —
    the exception-entry/exit semantics the monitor relies on. *)
val with_privilege : t -> (unit -> 'a) -> 'a

val pp : Format.formatter -> t -> unit
