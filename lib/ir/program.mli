(** Whole-program representation: globals, the peripheral datasheet, and
    function definitions, statically linked as on a bare-metal device. *)

module String_map : Map.S with type key = string
module String_set : Set.S with type elt = string

type t = {
  name : string;
  globals : Global.t list;
  peripherals : Peripheral.t list;  (** SoC datasheet address list *)
  funcs : Func.t list;
  main : string;                    (** entry function, the default operation *)
}

(** Raised by {!validate} and the lookup functions on malformed
    programs. *)
exception Ill_formed of string

val func_map : t -> Func.t String_map.t
val global_map : t -> Global.t String_map.t
val find_func : t -> string -> Func.t option
val find_global : t -> string -> Global.t option

(** Like the [find_*] accessors but raising {!Ill_formed}. *)
val func_exn : t -> string -> Func.t

(** Check static well-formedness: unique names, no dangling references,
    [main] defined, peripheral ranges disjoint.  Returns the program. *)
val validate : t -> t

(** Smart constructor; validates. *)
val v :
  ?name:string ->
  ?main:string ->
  globals:Global.t list ->
  peripherals:Peripheral.t list ->
  funcs:Func.t list ->
  unit ->
  t

(** Code-size model for flash accounting: {!bytes_per_instr} bytes per
    structured instruction (one C statement is a handful of Thumb2
    instructions) plus {!bytes_per_func} of prologue/literals. *)
val bytes_per_instr : int

val bytes_per_func : int
val code_size_of_func : Func.t -> int
val code_size : t -> int
val pp : Format.formatter -> t -> unit
