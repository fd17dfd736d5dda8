(* The ARMv7-M Memory Protection Unit (paper, Section 2.2).

   Modeled constraints, all load-bearing for OPEC's design:
   - 8 regions, numbered 0..7; on overlap the highest-numbered enabled
     region that matches decides the access permission;
   - region size is a power of two, at least 32 bytes;
   - region base must be aligned to the region size;
   - regions of 256 bytes or more are split into 8 equal sub-regions, each
     of which can be disabled individually; an address falling in a
     disabled sub-region is treated as if the region did not match, so a
     lower-numbered overlapping region confines it;
   - with the default memory map enabled (PRIVDEFENA), privileged accesses
     that match no region use the background map; unprivileged accesses
     that match no region fault. *)

type perm = No_access | Read_only | Read_write

type region = {
  base : int;
  size_log2 : int;       (** region covers [2^size_log2] bytes, >= 5 *)
  srd : int;             (** 8-bit sub-region disable mask *)
  privileged : perm;
  unprivileged : perm;
  executable : bool;
}

type slots = region option array

type t = {
  mutable enabled : bool;
  regions : slots;  (** slots 0..7 *)
  mutable gen : int;
      (** bumped by every setter: a cached permission decision tagged
          with an older value is stale *)
  mutable priv_restricted : int;
      (** resident regions whose privileged permission is not
          read-write; kept by the setters *)
}

exception Invalid_region of string

let region_count = 8
let min_size_log2 = 5 (* 32 bytes *)
let subregion_min_log2 = 8 (* SRD is only implemented for >= 256-byte regions *)

let create () =
  { enabled = false; regions = Array.make region_count None; gen = 0;
    priv_restricted = 0 }

let region ?(srd = 0) ?(executable = false) ~base ~size_log2 ~privileged
    ~unprivileged () =
  if size_log2 < min_size_log2 || size_log2 > 32 then
    raise (Invalid_region (Printf.sprintf "size 2^%d out of range" size_log2));
  let size = 1 lsl size_log2 in
  if base land (size - 1) <> 0 then
    raise
      (Invalid_region
         (Printf.sprintf "base 0x%08X not aligned to size 0x%X" base size));
  if srd < 0 || srd > 0xFF then raise (Invalid_region "srd out of range");
  { base; size_log2; srd; privileged; unprivileged; executable }

(* Smallest legal region (size, log2) able to cover [bytes] bytes. *)
let region_size_for bytes =
  let rec go log2 = if 1 lsl log2 >= bytes then log2 else go (log2 + 1) in
  let log2 = go min_size_log2 in
  (1 lsl log2, log2)

let restricts = function
  | Some r -> r.privileged <> Read_write
  | None -> false

let set t slot r =
  if slot < 0 || slot >= region_count then
    raise (Invalid_region (Printf.sprintf "region number %d" slot));
  if restricts t.regions.(slot) then t.priv_restricted <- t.priv_restricted - 1;
  if restricts r then t.priv_restricted <- t.priv_restricted + 1;
  t.regions.(slot) <- r;
  t.gen <- t.gen + 1

let get t slot = t.regions.(slot)

let enable t =
  t.enabled <- true;
  t.gen <- t.gen + 1

let disable t =
  t.enabled <- false;
  t.gen <- t.gen + 1

let clear t =
  Array.fill t.regions 0 region_count None;
  t.priv_restricted <- 0;
  t.gen <- t.gen + 1

(* Privileged reads and writes pass whatever the address: disabled, or
   every resident region lets privileged code read and write, so only
   the background map or a read-write region can decide. *)
let privileged_rw_unrestricted t = (not t.enabled) || t.priv_restricted = 0

type snapshot = {
  s_enabled : bool;
  s_regions : region option array;
  s_restricted : int;
  s_bumps : int;
}

let snapshot t ~since =
  { s_enabled = t.enabled; s_regions = Array.copy t.regions;
    s_restricted = t.priv_restricted; s_bumps = t.gen - since }

let restore t s =
  t.enabled <- s.s_enabled;
  Array.blit s.s_regions 0 t.regions 0 region_count;
  t.priv_restricted <- s.s_restricted;
  t.gen <- t.gen + s.s_bumps

(* Does [r] match [addr], taking disabled sub-regions into account? *)
let region_matches r addr =
  let size = 1 lsl r.size_log2 in
  if addr < r.base || addr >= r.base + size then false
  else if r.size_log2 < subregion_min_log2 || r.srd = 0 then true
  else
    let sub = (addr - r.base) / (size / 8) in
    r.srd land (1 lsl sub) = 0

let perm_allows perm access =
  match (perm, (access : Fault.access)) with
  | Read_write, (Read | Write) -> true
  | Read_only, Read -> true
  | Read_only, Write -> false
  | No_access, (Read | Write) -> false
  | (Read_write | Read_only | No_access), Execute ->
    (* execute additionally requires read permission and !XN; checked in
       [check] where the region is known *)
    perm <> No_access

(* The highest-numbered slot at or below [n] whose region matches
   [addr], or -1.  A plain top-level loop: [check] runs per bus access,
   and the allow outcome must not allocate (no closure, no option). *)
let rec deciding regions addr n =
  if n < 0 then -1
  else
    match Array.unsafe_get regions n with
    | Some r when region_matches r addr -> n
    | Some _ | None -> deciding regions addr (n - 1)

(* Check a single access.  Returns [Ok ()] or the faulting info, which
   is only built on the fault paths. *)
let check t ~privileged ~addr ~(access : Fault.access) =
  if not t.enabled then Ok ()
  else
    match deciding t.regions addr (region_count - 1) with
    | -1 ->
      (* PRIVDEFENA: the background map serves privileged code only *)
      if privileged then Ok () else Error { Fault.addr; access; privileged }
    | n -> (
      match t.regions.(n) with
      | None -> assert false
      | Some r ->
        let perm = if privileged then r.privileged else r.unprivileged in
        let allowed =
          match access with
          | Execute -> r.executable && perm_allows perm Fault.Read
          | Read | Write -> perm_allows perm access
        in
        if allowed then Ok () else Error { Fault.addr; access; privileged })

(* The window [lo, hi) around [addr] in which the same region (or the
   background map) decides every access, so every address in it gets
   [addr]'s [check] outcome for any privilege and access kind.  It is
   the deciding region's extent, or its enabled sub-region when SRD
   applies, clipped so that no higher-numbered region matches inside:
   a higher region that does not match [addr] either lies wholly on one
   side of it or holds it in a disabled sub-region. *)
let window t ~addr =
  if not t.enabled then (min_int, max_int)
  else
    let n = deciding t.regions addr (region_count - 1) in
    let lo = ref min_int and hi = ref max_int in
    (match if n < 0 then None else t.regions.(n) with
    | None -> ()
    | Some r ->
      let size = 1 lsl r.size_log2 in
      if r.size_log2 < subregion_min_log2 || r.srd = 0 then (
        lo := r.base;
        hi := r.base + size)
      else
        let sub = size / 8 in
        lo := r.base + ((addr - r.base) / sub * sub);
        hi := !lo + sub);
    for m = n + 1 to region_count - 1 do
      match t.regions.(m) with
      | None -> ()
      | Some r ->
        let size = 1 lsl r.size_log2 in
        let limit = r.base + size in
        if limit <= addr then lo := max !lo limit
        else if r.base > addr then hi := min !hi r.base
        else
          let sub = size / 8 in
          let s = r.base + ((addr - r.base) / sub * sub) in
          lo := max !lo s;
          hi := min !hi (s + sub)
    done;
    (!lo, !hi)

let pp_perm fmt p =
  Fmt.string fmt
    (match p with No_access -> "NA" | Read_only -> "RO" | Read_write -> "RW")

let pp_region fmt r =
  Fmt.pf fmt "base=0x%08X size=2^%d srd=%02X priv=%a unpriv=%a%s" r.base
    r.size_log2 r.srd pp_perm r.privileged pp_perm r.unprivileged
    (if r.executable then " X" else "")
