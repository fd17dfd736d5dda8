(** USB mass-storage model: CTRL +0 (1 opens a file, 2 closes it),
    DATA +4 appends bytes. *)

type handle

val ctrl : int
val data : int
val ctrl_open : int
val ctrl_close : int
val create : string -> base:int -> Device.t * handle
val pop_file : handle -> string option
