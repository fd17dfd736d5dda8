(* Developer-provided inputs to the OPEC-Compiler (paper, Figure 5):
   the operation entry function list, the stack information annotating
   pointer-type entry arguments, and the sanitization ranges for
   safety-critical globals. *)

type ptr_arg = {
  param_index : int;   (** which parameter is the pointer *)
  buffer_bytes : int;  (** size of the buffer it points to *)
}

type stack_info = {
  si_entry : string;
  ptr_args : ptr_arg list;
}

type sanitize_rule = {
  sz_global : string;
  sz_min : int64;   (** inclusive lower bound for the variable's first word *)
  sz_max : int64;   (** inclusive upper bound *)
}

type t = {
  entries : string list;
  stack_infos : stack_info list;
  sanitize : sanitize_rule list;
}

let v ?(stack_infos = []) ?(sanitize = []) entries =
  { entries; stack_infos; sanitize }

let stack_info_for t entry =
  List.find_opt (fun si -> String.equal si.si_entry entry) t.stack_infos

