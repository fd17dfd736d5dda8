(* Function definitions.

   Each function records its source file (the unit of ACES's filename-based
   compartment strategies) and whether it is an interrupt handler or
   variadic — the paper excludes both from being operation entries
   (Section 4.3). *)

type t = {
  name : string;
  params : (string * Ty.t) list;
  body : Instr.block;
  file : string;       (** source file, used by the ACES baseline *)
  irq : bool;          (** part of an interrupt handling routine *)
  varargs : bool;      (** variable-length argument list *)
}

let v ?(file = "main.c") ?(irq = false) ?(varargs = false) name ~params ~body =
  { name; params; body; file; irq; varargs }

let arity f = List.length f.params

(* Parameter type kinds relevant to the type-based icall matching
   (paper, Section 4.1): number of arguments, structure/pointer argument
   types, and return type.  Our IR is untyped at returns, so the signature
   is the parameter shape. *)
let signature f = List.map snd f.params

let pp fmt f =
  Fmt.pf fmt "@[<v 2>func %s(%a) [%s] {@,%a@]@,}" f.name
    (Fmt.list ~sep:(Fmt.any ", ")
       (fun fmt (x, ty) -> Fmt.pf fmt "%s: %a" x Ty.pp ty))
    f.params f.file Instr.pp_block f.body
