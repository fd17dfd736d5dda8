(* An Arm POE / MPK-style permission-overlay-key protection model
   (Complets: keying embedded compartments with permission overlays).

   What matters to OPEC, contrasted with the ARM MPU:
   - memory is tagged per window with a *key* (0..7); a per-context
     permission register ([por]) says what the unprivileged level may do
     through each key.  Windows are byte-granular up to a small tagging
     granule — no power-of-two rounding;
   - the scarce resource is the *key count*, not a region budget: any
     number of windows can be tagged, but only [key_count] distinct
     permission classes exist at once.  A window whose key has been
     reclaimed ([no_key]) faults at the unprivileged level, and the
     monitor responds with *key recycling* — retag, don't evict;
   - the first matching window decides (windows never overlap in OPEC's
     plan; specific windows are pushed before the background).

   Privileged code ignores overlays (POR restricts EL0 only), mirroring
   PRIVDEFENA on the MPU. *)

type perm = No_access | Read_only | Read_write

type overlay = {
  ov_base : int;
  ov_limit : int;  (** [ov_base, ov_limit) *)
  mutable ov_key : int;  (** 0..key_count-1, or {!no_key} *)
}

type 'a keys = 'a array

type t = {
  mutable overlays : overlay list;  (** first match wins *)
  por : perm keys;  (** per-key unprivileged data permission *)
  por_x : bool keys;  (** per-key unprivileged execute permission *)
  mutable enforcing : bool;
  mutable gen : int;  (** bumped by every setter, retags included *)
}

exception Invalid_overlay of string

let key_count = 8
let no_key = -1

(* Tagging granule: overlays are tracked per 32-byte line (matching the
   MPU's smallest sub-region granularity, far finer than its region
   rounding). *)
let granule = 32

let create () =
  { overlays = [];
    por = Array.make key_count No_access;
    por_x = Array.make key_count false;
    enforcing = false;
    gen = 0 }

let overlay ?(key = no_key) ~base ~limit () =
  if limit <= base then raise (Invalid_overlay "empty overlay window");
  if base mod granule <> 0 || limit mod granule <> 0 then
    raise
      (Invalid_overlay
         (Printf.sprintf "window [0x%08X,0x%08X) not %d-byte aligned" base
            limit granule));
  if key <> no_key && (key < 0 || key >= key_count) then
    raise (Invalid_overlay (Printf.sprintf "key %d out of range" key));
  { ov_base = base; ov_limit = limit; ov_key = key }

let bump t = t.gen <- t.gen + 1

let clear t =
  t.overlays <- [];
  Array.fill t.por 0 key_count No_access;
  Array.fill t.por_x 0 key_count false;
  bump t

let add t ov =
  t.overlays <- t.overlays @ [ ov ];
  bump t

let set_key t key ?(x = false) perm =
  if key < 0 || key >= key_count then
    raise (Invalid_overlay (Printf.sprintf "key %d out of range" key));
  t.por.(key) <- perm;
  t.por_x.(key) <- x;
  bump t

let enable t =
  t.enforcing <- true;
  bump t

let key_perm t key = (t.por.(key), t.por_x.(key))

(* Overlays are retagged in place by key recycling, so a snapshot holds
   its own copies and every restore hands the state fresh ones. *)
type snapshot = {
  s_overlays : overlay list;
  s_por : perm array;
  s_por_x : bool array;
  s_enforcing : bool;
  s_bumps : int;
}

let copy_overlays = List.map (fun ov -> { ov with ov_key = ov.ov_key })

let snapshot t ~since =
  { s_overlays = copy_overlays t.overlays; s_por = Array.copy t.por;
    s_por_x = Array.copy t.por_x; s_enforcing = t.enforcing;
    s_bumps = t.gen - since }

let restore t s =
  t.overlays <- copy_overlays s.s_overlays;
  Array.blit s.s_por 0 t.por 0 key_count;
  Array.blit s.s_por_x 0 t.por_x 0 key_count;
  t.enforcing <- s.s_enforcing;
  t.gen <- t.gen + s.s_bumps

let overlays t = t.overlays

let find t addr =
  List.find_opt
    (fun ov -> addr >= ov.ov_base && addr < ov.ov_limit)
    t.overlays

(* Retag every window currently holding [key] to {!no_key} and return
   them — the victim half of the monitor's key-recycling step. *)
let reclaim_key t key =
  let victims =
    List.filter (fun ov -> ov.ov_key = key) t.overlays
  in
  List.iter (fun ov -> ov.ov_key <- no_key) victims;
  bump t;
  victims

(* Tag window [ov] of [t] with [key] — the grant half of key
   recycling. *)
let retag t ov key =
  if key <> no_key && (key < 0 || key >= key_count) then
    raise (Invalid_overlay (Printf.sprintf "key %d out of range" key));
  ov.ov_key <- key;
  bump t

let perm_allows perm (access : Fault.access) =
  match (perm, access) with
  | Read_write, (Fault.Read | Fault.Write) -> true
  | Read_only, Fault.Read -> true
  | Read_only, Fault.Write -> false
  | No_access, (Fault.Read | Fault.Write) -> false
  | _, Fault.Execute -> perm <> No_access

(* Does the first overlay in [ovs] covering [addr] let the
   unprivileged level perform [access]?  A top-level loop, so the allow
   path of [check] allocates nothing. *)
let rec decides t ovs addr (access : Fault.access) =
  match ovs with
  | [] -> false
  | ov :: rest ->
    if addr >= ov.ov_base && addr < ov.ov_limit then
      ov.ov_key <> no_key
      &&
      let perm = t.por.(ov.ov_key) in
      match access with
      | Fault.Execute -> t.por_x.(ov.ov_key) && perm_allows perm Fault.Read
      | Fault.Read | Fault.Write -> perm_allows perm access
    else decides t rest addr access

(* Check one access: the first overlay covering the address decides via
   its key's POR entry; a keyless window (or no window at all) faults at
   the unprivileged level.  Privileged accesses bypass overlays.  The
   info record is only built on the fault path. *)
let check t ~privileged ~addr ~(access : Fault.access) =
  if (not t.enforcing) || privileged || decides t t.overlays addr access then
    Ok ()
  else Error { Fault.addr; access; privileged }

(* The window [lo, hi) around [addr] in which the same overlay (or the
   privileged bypass) decides every access: the first covering
   overlay, clipped so that no earlier overlay covers any of it.  An
   earlier overlay does not cover [addr], so it lies wholly on one
   side. *)
let window t ~privileged ~addr =
  if (not t.enforcing) || privileged then (min_int, max_int)
  else
    let rec go lo hi = function
      | [] -> (lo, hi)
      | ov :: rest ->
        if addr >= ov.ov_base && addr < ov.ov_limit then
          (max lo ov.ov_base, min hi ov.ov_limit)
        else if ov.ov_limit <= addr then go (max lo ov.ov_limit) hi rest
        else go lo (min hi ov.ov_base) rest
    in
    go min_int max_int t.overlays

let pp_overlay fmt ov =
  Fmt.pf fmt "[0x%08X,0x%08X) key=%s" ov.ov_base ov.ov_limit
    (if ov.ov_key = no_key then "-" else string_of_int ov.ov_key)
