(* RISC-V Physical Memory Protection (PMP), the alternative protection
   unit the paper names for porting OPEC to other platforms (Section 7).

   Differences from the ARM MPU that matter to OPEC:
   - 16 entries instead of 8 regions;
   - the LOWEST-numbered matching entry decides (the MPU's is the
     highest), so specific windows go before the background entry;
   - NAPOT encoding: naturally aligned power-of-two regions of at least
     8 bytes (plus TOR top-of-range entries, modeled as base/limit);
   - permissions are R/W/X bits; machine-mode (privileged) accesses pass
     unless the entry is locked, supervisor/user accesses need the bits. *)

type mode =
  | Off
  | Napot of { base : int; size_log2 : int }
  | Tor of { base : int; limit : int }  (** [base, limit) *)

type entry = {
  mode : mode;
  r : bool;
  w : bool;
  x : bool;
  locked : bool;  (** enforced even on privileged (machine-mode) accesses *)
}

type slots = entry array

type t = {
  entries : slots;
  mutable enforcing : bool;
  mutable gen : int;  (** bumped by every setter *)
  mutable locked_entries : int;  (** locked entries; kept by [set] *)
}

exception Invalid_entry of string

let entry_count = 16

let create () =
  { entries =
      Array.make entry_count
        { mode = Off; r = false; w = false; x = false; locked = false };
    enforcing = false;
    gen = 0;
    locked_entries = 0 }

let napot ?(locked = false) ~base ~size_log2 ~r ~w ~x () =
  if size_log2 < 3 || size_log2 > 32 then
    raise (Invalid_entry (Printf.sprintf "NAPOT size 2^%d out of range" size_log2));
  if base land ((1 lsl size_log2) - 1) <> 0 then
    raise
      (Invalid_entry
         (Printf.sprintf "NAPOT base 0x%08X not aligned to 2^%d" base size_log2));
  { mode = Napot { base; size_log2 }; r; w; x; locked }

let tor ?(locked = false) ~base ~limit ~r ~w ~x () =
  if limit < base then raise (Invalid_entry "TOR limit below base");
  { mode = Tor { base; limit }; r; w; x; locked }

let set t i e =
  if i < 0 || i >= entry_count then
    raise (Invalid_entry (Printf.sprintf "entry number %d" i));
  if t.entries.(i).locked then t.locked_entries <- t.locked_entries - 1;
  if e.locked then t.locked_entries <- t.locked_entries + 1;
  t.entries.(i) <- e;
  t.gen <- t.gen + 1

let get t i = t.entries.(i)

let enable t =
  t.enforcing <- true;
  t.gen <- t.gen + 1

(* Machine mode passes every entry but a locked one. *)
let privileged_rw_unrestricted t = (not t.enforcing) || t.locked_entries = 0

type snapshot = {
  s_entries : entry array;
  s_enforcing : bool;
  s_locked : int;
  s_bumps : int;
}

let snapshot t ~since =
  { s_entries = Array.copy t.entries; s_enforcing = t.enforcing;
    s_locked = t.locked_entries; s_bumps = t.gen - since }

let restore t s =
  Array.blit s.s_entries 0 t.entries 0 entry_count;
  t.enforcing <- s.s_enforcing;
  t.locked_entries <- s.s_locked;
  t.gen <- t.gen + s.s_bumps

let matches e addr =
  match e.mode with
  | Off -> false
  | Napot { base; size_log2 } ->
    addr >= base && addr < base + (1 lsl size_log2)
  | Tor { base; limit } -> addr >= base && addr < limit

let entry_allows e (access : Fault.access) =
  match access with
  | Fault.Read -> e.r
  | Fault.Write -> e.w
  | Fault.Execute -> e.x

(* The lowest-numbered entry at or above [i] that matches [addr], or
   -1: a top-level loop, so the allow path of [check] allocates
   nothing. *)
let rec deciding entries addr i =
  if i >= entry_count then -1
  else if matches (Array.unsafe_get entries i) addr then i
  else deciding entries addr (i + 1)

(* Check one access: the lowest-numbered matching entry decides.
   Machine-mode accesses pass unless the deciding entry is locked; with
   no match, machine mode passes and lower privileges fault.  The info
   record is only built on the fault paths. *)
let check t ~privileged ~addr ~(access : Fault.access) =
  if not t.enforcing then Ok ()
  else
    match deciding t.entries addr 0 with
    | -1 -> if privileged then Ok () else Error { Fault.addr; access; privileged }
    | i ->
      let e = t.entries.(i) in
      if (privileged && not e.locked) || entry_allows e access then Ok ()
      else Error { Fault.addr; access; privileged }

(* The window [lo, hi) around [addr] in which the same entry (or the
   no-match default) decides every access: the deciding entry's range,
   clipped so that no lower-numbered entry matches inside it.  A lower
   entry does not match [addr], so it lies wholly on one side. *)
let window t ~addr =
  if not t.enforcing then (min_int, max_int)
  else
    let i = deciding t.entries addr 0 in
    let lo = ref min_int and hi = ref max_int in
    let extent e =
      match e.mode with
      | Off -> None
      | Napot { base; size_log2 } -> Some (base, base + (1 lsl size_log2))
      | Tor { base; limit } -> Some (base, limit)
    in
    (if i >= 0 then
       match extent t.entries.(i) with
       | Some (b, l) ->
         lo := b;
         hi := l
       | None -> ());
    for j = 0 to (if i < 0 then entry_count else i) - 1 do
      match extent t.entries.(j) with
      | None -> ()
      | Some (b, l) ->
        if l <= addr then lo := max !lo l else if b > addr then hi := min !hi b
    done;
    (!lo, !hi)

let pp_entry fmt e =
  let perms =
    Printf.sprintf "%s%s%s%s"
      (if e.r then "r" else "-")
      (if e.w then "w" else "-")
      (if e.x then "x" else "-")
      (if e.locked then "L" else "")
  in
  match e.mode with
  | Off -> Fmt.pf fmt "off"
  | Napot { base; size_log2 } ->
    Fmt.pf fmt "NAPOT base=0x%08X size=2^%d %s" base size_log2 perms
  | Tor { base; limit } ->
    Fmt.pf fmt "TOR [0x%08X,0x%08X) %s" base limit perms
