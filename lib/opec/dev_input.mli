(** Developer-provided inputs to the OPEC-Compiler (Figure 5): the
    operation entry list, stack information for pointer-type entry
    arguments, and sanitization ranges for safety-critical globals. *)

type ptr_arg = {
  param_index : int;   (** which parameter is the pointer *)
  buffer_bytes : int;  (** size of the buffer it points to *)
}

type stack_info = { si_entry : string; ptr_args : ptr_arg list }

type sanitize_rule = {
  sz_global : string;
  sz_min : int64;  (** inclusive lower bound for the first word *)
  sz_max : int64;  (** inclusive upper bound *)
}

type t = {
  entries : string list;
  stack_infos : stack_info list;
  sanitize : sanitize_rule list;
}

val v :
  ?stack_infos:stack_info list -> ?sanitize:sanitize_rule list ->
  string list -> t

val stack_info_for : t -> string -> stack_info option
