(* Whole-program representation: globals, the peripheral datasheet, and
   function definitions, statically linked as on a bare-metal device. *)

module String_map = Map.Make (String)
module String_set = Set.Make (String)

type t = {
  name : string;
  globals : Global.t list;
  peripherals : Peripheral.t list;  (** SoC datasheet address list *)
  funcs : Func.t list;
  main : string;
}

exception Ill_formed of string

let func_map p =
  List.fold_left (fun m (f : Func.t) -> String_map.add f.name f m)
    String_map.empty p.funcs

let global_map p =
  List.fold_left (fun m (g : Global.t) -> String_map.add g.name g m)
    String_map.empty p.globals

let find_func p name = String_map.find_opt name (func_map p)
let find_global p name = String_map.find_opt name (global_map p)

let func_exn p name =
  match find_func p name with
  | Some f -> f
  | None -> raise (Ill_formed (Printf.sprintf "undefined function %s" name))

(* Static well-formedness: every referenced function and global exists,
   names are unique, main is defined, peripheral ranges do not overlap. *)
let validate p =
  let fail fmt = Printf.ksprintf (fun s -> raise (Ill_formed s)) fmt in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (g : Global.t) ->
      if Hashtbl.mem seen g.name then fail "duplicate global %s" g.name;
      Hashtbl.add seen g.name ())
    p.globals;
  let fseen = Hashtbl.create 64 in
  List.iter
    (fun (f : Func.t) ->
      if Hashtbl.mem fseen f.name then fail "duplicate function %s" f.name;
      Hashtbl.add fseen f.name ())
    p.funcs;
  if not (Hashtbl.mem fseen p.main) then fail "main %s undefined" p.main;
  let check_expr e =
    let rec go = function
      | Expr.Const _ | Expr.Local _ -> ()
      | Expr.Global_addr g ->
        if not (Hashtbl.mem seen g) then fail "reference to undefined global %s" g
      | Expr.Func_addr f ->
        if not (Hashtbl.mem fseen f) then fail "reference to undefined function %s" f
      | Expr.Bin (_, a, b) -> go a; go b
      | Expr.Un (_, a) -> go a
    in
    go e
  in
  List.iter
    (fun (f : Func.t) ->
      Instr.iter_block
        (fun instr ->
          match instr with
          | Instr.Let (_, e) -> check_expr e
          | Instr.Load (_, _, a) -> check_expr a
          | Instr.Store (_, a, v) -> check_expr a; check_expr v
          | Instr.Call (_, Instr.Direct callee, args) ->
            if not (Hashtbl.mem fseen callee) then
              fail "%s calls undefined function %s" f.name callee;
            List.iter check_expr args
          | Instr.Call (_, Instr.Indirect e, args) ->
            check_expr e; List.iter check_expr args
          | Instr.If (c, _, _) | Instr.While (c, _) -> check_expr c
          | Instr.Return (Some e) -> check_expr e
          | Instr.Memcpy (a, b, c) | Instr.Memset (a, b, c) ->
            check_expr a; check_expr b; check_expr c
          | Instr.Alloca _ | Instr.Return None | Instr.Svc _ | Instr.Halt
          | Instr.Nop -> ())
        f.body)
    p.funcs;
  let sorted =
    List.sort (fun (a : Peripheral.t) b -> compare a.base b.base) p.peripherals
  in
  let rec overlap = function
    | a :: (b : Peripheral.t) :: rest ->
      if Peripheral.limit a > b.base then
        fail "peripherals %s and %s overlap" a.Peripheral.name b.name;
      overlap (b :: rest)
    | [ _ ] | [] -> ()
  in
  overlap sorted;
  p

let v ?(name = "firmware") ?(main = "main") ~globals ~peripherals ~funcs () =
  validate { name; globals; peripherals; funcs; main }

(* Code-size model used for flash accounting: one structured IR
   instruction stands for a C statement, i.e. a handful of Thumb2
   instructions (~16 bytes), plus per-function prologue/epilogue and
   literal pools. *)
let bytes_per_instr = 16
let bytes_per_func = 64

let code_size_of_func (f : Func.t) =
  (Instr.fold_block (fun n _ -> n + 1) 0 f.body * bytes_per_instr)
  + bytes_per_func

let code_size p =
  List.fold_left (fun acc f -> acc + code_size_of_func f) 0 p.funcs

let pp fmt p =
  Fmt.pf fmt "@[<v>program %s (main=%s)@,%a@,%a@,%a@]" p.name p.main
    (Fmt.list Global.pp) p.globals
    (Fmt.list Peripheral.pp) p.peripherals
    (Fmt.list Func.pp) p.funcs
