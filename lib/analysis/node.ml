(* Abstract memory objects and pointer variables of the points-to
   analysis.  Encoded as tagged strings so solution sets are plain string
   sets. *)

type t = string

module Set = Set.Make (String)

let global g = "G:" ^ g
let func f = "F:" ^ f
let stack ~func ~site = Printf.sprintf "S:%s::%s" func site
let local ~func ~name = Printf.sprintf "L:%s::%s" func name
let ret ~func = "R:" ^ func
let periph p = "P:" ^ p
let icall ~func ~index = Printf.sprintf "I:%s#%d" func index

let as_global n =
  if String.length n > 2 && n.[0] = 'G' then Some (String.sub n 2 (String.length n - 2))
  else None

let as_func n =
  if String.length n > 2 && n.[0] = 'F' then Some (String.sub n 2 (String.length n - 2))
  else None

let as_periph n =
  if String.length n > 2 && n.[0] = 'P' then Some (String.sub n 2 (String.length n - 2))
  else None

