(* OPEC-Monitor: the privileged reference monitor (paper, Section 5).

   Linked against the image, it performs:
   - initialization: fill shadow sections, arm the MPU, drop privilege
     (Section 5.1);
   - operation switch: sanitize + synchronize shared globals through the
     public section, fix up shadow pointer fields, relocate pointer-type
     entry arguments onto the new operation's stack sub-regions, and
     reconfigure the MPU (Sections 5.2, 5.3);
   - MPU virtualization: rotate the four reserved peripheral regions
     round-robin from the memory-management fault handler;
   - core-peripheral emulation: perform permitted PPB loads/stores from
     the bus-fault handler so application code never runs privileged. *)

open Opec_ir
module M = Opec_machine
module C = Opec_core
module Obs = Opec_obs
module SS = Set.Make (String)

type frame = {
  op : C.Operation.t;
  meta : C.Metadata.op_meta;
  srd : int;                        (** sub-region disable mask while active *)
  saved_sp : int;                   (** caller sp to restore bookkeeping *)
  relocated : (int * int * int) list; (** (orig, copy, bytes) to copy back *)
  mutable virt_next : int;          (** round-robin cursor for regions 4..7 *)
}

(* One scheduled copy: variable, its shadow address in the operation's
   data section, its master address, and its size.  [sl_forced] marks a
   variable whose address escaped into a peripheral window: a device can
   rewrite its master at any time, so the incremental-copy bookkeeping
   below never applies to it. *)
type sync_slot = {
  sl_var : string;
  sl_shadow : int;
  sl_master : int;
  sl_size : int;
  sl_forced : bool;
}

type t = {
  image : C.Image.t;
  bus : M.Bus.t;
  stats : Stats.t;
  var_size : (string, int) Hashtbl.t;
  ptr_offsets : (string, int list) Hashtbl.t;
  (* reverse index: (op, var, base, size) for pointer translation *)
  shadow_ranges : (string * string * int * int) list;
  (* (var, base, size) of the public-section masters: a pointer field can
     hold a master address after a sync through an operation without
     access to the target, and must localize again on the next switch *)
  master_ranges : (string * int * int) list;
  sync_whole_section : bool;
      (** ablation: copy entire sections at switches instead of only the
          shared variables (Section 6.3 credits the shared-only policy) *)
  full_sync : bool;
      (** ablation: copy every shadow slot at switches, ignoring the
          static sync schedule (the pre-schedule behaviour) *)
  (* read-only master mappings: per operation, the slots the schedule
     proved write-free.  Their relocation entries point straight at the
     master (the MPU background region grants unprivileged reads of the
     public section), so their shadows are never filled or synced.
     Empty under the full-sync ablations, which bypass the schedule. *)
  ro_vars : (string, SS.t) Hashtbl.t;
  (* precomputed sync plans from the image's static schedule *)
  all_plan : (string, sync_slot array) Hashtbl.t;      (* op -> all slots *)
  out_plan : (string, sync_slot array) Hashtbl.t;
  enter_plan : (string, sync_slot array) Hashtbl.t;
  resume_plan : (string * string, sync_slot array) Hashtbl.t;  (* (src,dst) *)
  (* incremental synchronization: [epoch] counts, per shared variable,
     the sync-outs that actually changed its master; [pulled] records,
     per (op, var), the epoch at which that shadow last matched the
     master.  A sync-in copy is skipped when the two agree — the master
     cannot have changed since the shadow was filled (or published), so
     the copy would move identical bytes. *)
  epoch : (string, int) Hashtbl.t;
  pulled : (string * string, int) Hashtbl.t;
  mutable frames : frame list;      (** head = current operation *)
  mutable sink : Obs.Sink.t;
      (** telemetry sink; {!Obs.Sink.null} unless a collector is attached *)
}

exception Violation of string

let stats t = t.stats
let sink t = t.sink
let set_sink t sink = t.sink <- sink

let now t = M.Cpu.cycles t.bus.M.Bus.cpu

let current_op_name t =
  match t.frames with
  | f :: _ -> f.op.C.Operation.name
  | [] -> ""

(* Count a denial and leave its telemetry event; returns the message so
   fault handlers can do [Abort (deny t ~info msg)]. *)
let deny t ?info msg =
  t.stats.Stats.denied <- t.stats.Stats.denied + 1;
  if t.sink.Obs.Sink.active then
    t.sink.Obs.Sink.emit
      (Obs.Sink.Denial
         { dn_op = current_op_name t; dn_reason = msg; dn_info = info;
           dn_at = now t });
  msg

let abort t ?info msg = raise (Violation (deny t ?info msg))

let current t =
  match t.frames with
  | f :: _ -> f
  | [] -> invalid_arg "Monitor: no active operation"

(* --- phase bracketing ---------------------------------------------------- *)

(* Per-span phase recorder, allocated only when the sink is active so the
   disabled path costs a single [option] match per bracket.  Phase byte
   counts are [synced_bytes] deltas, so summing them over every emitted
   sample reconciles exactly with the aggregate counter. *)
type recorder = {
  mutable r_phases : Obs.Sink.phase_sample list;  (* reverse protocol order *)
  mutable r_ph : Obs.Sink.phase;
  mutable r_ph_start : int64;
  mutable r_bytes0 : int;
  r_span_start : int64;
}

let rec_create t =
  if t.sink.Obs.Sink.active then
    Some
      { r_phases = []; r_ph = Obs.Sink.Sync; r_ph_start = 0L; r_bytes0 = 0;
        r_span_start = now t }
  else None

let ph_begin t r ph =
  match r with
  | None -> ()
  | Some r ->
    r.r_ph <- ph;
    r.r_ph_start <- now t;
    r.r_bytes0 <- t.stats.Stats.synced_bytes

let ph_end t r =
  match r with
  | None -> ()
  | Some r ->
    r.r_phases <-
      { Obs.Sink.ph = r.r_ph; ph_start = r.r_ph_start; ph_end = now t;
        ph_bytes = t.stats.Stats.synced_bytes - r.r_bytes0 }
      :: r.r_phases

let emit_span t r kind ~src ~dst =
  match r with
  | None -> ()
  | Some r ->
    t.sink.Obs.Sink.emit
      (Obs.Sink.Switch
         { sp_kind = kind; sp_src = src; sp_dst = dst;
           sp_start = r.r_span_start; sp_end = now t;
           sp_phases = List.rev r.r_phases })

(* --- construction ------------------------------------------------------- *)

let create ?(sync_whole_section = false) ?(full_sync = false)
    ?(sink = Obs.Sink.null) (image : C.Image.t) (bus : M.Bus.t) =
  let var_size = Hashtbl.create 64 in
  let ptr_offsets = Hashtbl.create 64 in
  List.iter
    (fun (g : Global.t) ->
      Hashtbl.replace var_size g.name (Global.size g);
      match Global.pointer_field_offsets g with
      | [] -> ()
      | offs -> Hashtbl.replace ptr_offsets g.name offs)
    image.C.Image.source.Program.globals;
  let shadow_ranges =
    Hashtbl.fold
      (fun var homes acc ->
        List.fold_left
          (fun acc (op, base) ->
            (op, var, base, Hashtbl.find var_size var) :: acc)
          acc homes)
      image.C.Image.layout.C.Layout.shadow_addr []
  in
  let master_ranges =
    List.map
      (fun (s : C.Layout.slot) -> (s.C.Layout.var, s.C.Layout.addr, s.C.Layout.size))
      image.C.Image.layout.C.Layout.public.C.Layout.slots
  in
  (* materialize the image's static sync schedule as per-switch copy
     plans, resolving each scheduled variable to (shadow, master, size)
     once here rather than per switch *)
  let master_addr var =
    match C.Layout.master_of image.C.Image.layout var with
    | Some a -> a
    | None -> invalid_arg ("Monitor: no master for " ^ var)
  in
  let module Ss = Opec_analysis.Syncset in
  let ss = image.C.Image.syncsets in
  let escaped = Ss.escaped ss in
  let plan_of (meta : C.Metadata.op_meta) keep =
    List.filter_map
      (fun (var, shadow) ->
        if keep var then
          Some
            { sl_var = var; sl_shadow = shadow; sl_master = master_addr var;
              sl_size = Hashtbl.find var_size var;
              sl_forced = Ss.SS.mem var escaped }
        else None)
      meta.C.Metadata.shadow_slots
    |> Array.of_list
  in
  let all_plan = Hashtbl.create 8 in
  let out_plan = Hashtbl.create 8 in
  let enter_plan = Hashtbl.create 8 in
  let resume_plan = Hashtbl.create 16 in
  let ro_vars = Hashtbl.create 8 in
  List.iter
    (fun (opn, meta) ->
      Hashtbl.replace ro_vars opn
        (if full_sync || sync_whole_section then SS.empty
         else Ss.ro_set ss opn);
      Hashtbl.replace all_plan opn (plan_of meta (fun _ -> true));
      Hashtbl.replace out_plan opn
        (plan_of meta (fun v -> Ss.SS.mem v (Ss.out_set ss opn)));
      Hashtbl.replace enter_plan opn
        (plan_of meta (fun v -> Ss.SS.mem v (Ss.enter_set ss opn))))
    image.C.Image.metas;
  List.iter
    (fun (src, dst) ->
      match List.assoc_opt dst image.C.Image.metas with
      | None -> ()
      | Some meta ->
        let set = Ss.resume_set ss ~src ~dst in
        Hashtbl.replace resume_plan (src, dst)
          (plan_of meta (fun v -> Ss.SS.mem v set)))
    (Ss.pairs ss);
  { image; bus; stats = Stats.create (); var_size; ptr_offsets; shadow_ranges;
    master_ranges; sync_whole_section; full_sync; ro_vars; all_plan; out_plan;
    enter_plan; resume_plan; epoch = Hashtbl.create 16;
    pulled = Hashtbl.create 64; frames = []; sink }

(* --- privileged memory helpers ----------------------------------------- *)

let priv_read t addr width =
  M.Cpu.with_privilege t.bus.M.Bus.cpu (fun () -> M.Bus.read t.bus addr width)

let priv_write t addr width v =
  M.Cpu.with_privilege t.bus.M.Bus.cpu (fun () -> M.Bus.write t.bus addr width v)

let copy_words t ~src ~dst bytes =
  let rec go off =
    if off < bytes then begin
      let w = if bytes - off >= 4 then 4 else 1 in
      priv_write t (dst + off) w (priv_read t (src + off) w);
      go (off + w)
    end
  in
  go 0;
  t.stats.Stats.synced_bytes <- t.stats.Stats.synced_bytes + bytes

let words_equal t ~a ~b bytes =
  let rec go off =
    off >= bytes
    ||
    let w = if bytes - off >= 4 then 4 else 1 in
    Int64.equal (priv_read t (a + off) w) (priv_read t (b + off) w)
    && go (off + w)
  in
  go 0

let gen tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:0

(* --- sanitization ------------------------------------------------------- *)

(* Check the developer-provided valid range for [var]'s first word before
   its shadow value propagates out of the operation (Section 5.3). *)
let sanitize t (meta : C.Metadata.op_meta) var shadow_addr =
  List.iter
    (fun (r : C.Dev_input.sanitize_rule) ->
      if String.equal r.C.Dev_input.sz_global var then begin
        let v = priv_read t shadow_addr 4 in
        if Int64.compare v r.C.Dev_input.sz_min < 0
           || Int64.compare v r.C.Dev_input.sz_max > 0 then
          abort t
            (Fmt.str "sanitization failed for %s: %Ld not in [%Ld, %Ld]" var v
               r.C.Dev_input.sz_min r.C.Dev_input.sz_max)
      end)
    meta.C.Metadata.sanitize

(* --- global synchronization (Figure 7) ---------------------------------- *)

let master_of t var =
  match C.Layout.master_of t.image.C.Image.layout var with
  | Some a -> a
  | None -> invalid_arg ("Monitor: no master for " ^ var)

(* Whether [op] reaches [var] through the read-only master mapping: its
   relocation entry targets the master and its shadow is dead. *)
let is_ro t ~op var =
  match Hashtbl.find_opt t.ro_vars op with
  | Some s -> SS.mem var s
  | None -> false

(* In the whole-section ablation every slot of the section is staged,
   modeling a design without the shared-variable filter; internal slots
   copy in place, costing the same bus traffic. *)
let stage_whole_section t (meta : C.Metadata.op_meta) =
  if t.sync_whole_section then
    match meta.C.Metadata.section with
    | None -> ()
    | Some sec ->
      List.iter
        (fun (slot : C.Layout.slot) ->
          if not (List.mem_assoc slot.C.Layout.var meta.C.Metadata.shadow_slots)
          then
            copy_words t ~src:slot.C.Layout.addr ~dst:slot.C.Layout.addr
              slot.C.Layout.size)
        sec.C.Layout.slots

(* Run every sanitize rule of [meta] against its shadow values.  Hoisted
   out of {!sync_out} so the telemetry can bracket sanitization as its
   own phase — and so a failing check aborts before any shadow value has
   propagated to the public section. *)
let sanitize_all t (meta : C.Metadata.op_meta) =
  List.iter
    (fun (var, shadow) -> sanitize t meta var shadow)
    meta.C.Metadata.shadow_slots

(* Both ablation knobs disable the schedule: every shadow slot copies. *)
let full_mode t = t.full_sync || t.sync_whole_section

let plan_exn tbl key what =
  match Hashtbl.find_opt tbl key with
  | Some p -> p
  | None -> invalid_arg ("Monitor: no " ^ what ^ " sync plan")

(* write back the current operation's shadows to the public section,
   restricted by the static schedule to the slots the operation may have
   written (the masters of the rest are already equal by the sync-out
   invariant); the caller runs {!sanitize_all} first *)
let sync_out t (meta : C.Metadata.op_meta) =
  stage_whole_section t meta;
  let opn = meta.C.Metadata.op.C.Operation.name in
  if full_mode t then
    Array.iter
      (fun sl -> copy_words t ~src:sl.sl_shadow ~dst:sl.sl_master sl.sl_size)
      (plan_exn t.all_plan opn opn)
  else
    Array.iter
      (fun sl ->
        if (not sl.sl_forced)
           && words_equal t ~a:sl.sl_shadow ~b:sl.sl_master sl.sl_size
        then
          (* the operation left the value it saw: the master is already
             current, and this shadow is a faithful copy of it *)
          Hashtbl.replace t.pulled (opn, sl.sl_var) (gen t.epoch sl.sl_var)
        else begin
          copy_words t ~src:sl.sl_shadow ~dst:sl.sl_master sl.sl_size;
          let e = gen t.epoch sl.sl_var + 1 in
          Hashtbl.replace t.epoch sl.sl_var e;
          Hashtbl.replace t.pulled (opn, sl.sl_var) e
        end)
      (plan_exn t.out_plan opn opn)

(* Translate a pointer that targets another operation's shadow section to
   the equivalent location visible to [op] (Section 5.3). *)
let translate_pointer t ~op v =
  let addr = Int64.to_int v in
  let hit =
    match
      List.find_opt
        (fun (owner, _var, base, size) ->
          (not (String.equal owner op)) && addr >= base && addr < base + size)
        t.shadow_ranges
    with
    | Some (_owner, var, base, _size) -> Some (var, base)
    | None ->
      (* a master address is the canonical form a pointer takes after
         passing through an operation without access to the target;
         localize it into [op]'s shadow when one exists *)
      Option.map
        (fun (var, base, _size) -> (var, base))
        (List.find_opt
           (fun (_var, base, size) -> addr >= base && addr < base + size)
           t.master_ranges)
  in
  match hit with
  | None -> v
  | Some (var, base) ->
    let delta = addr - base in
    let target =
      if is_ro t ~op var then master_of t var + delta
      else
        match C.Layout.shadow_of t.image.C.Image.layout ~op ~var with
        | Some s -> s + delta
        | None -> master_of t var + delta
    in
    if target = addr then v
    else begin
      t.stats.Stats.pointer_fixups <- t.stats.Stats.pointer_fixups + 1;
      Int64.of_int target
    end

(* copy masters into the incoming operation's shadows and fix up pointer
   fields that still reference another operation's section.  The static
   schedule restricts the copy to the slots some other operation may
   have synced out since this shadow was filled: [`Enter] uses the
   all-writers enter set, [`Resume src] the tighter set for writers
   reachable from the exiting operation [src].  Uncopied shadows keep
   the operation's own (already local) values, so pointer translation is
   only needed on the copied slots. *)
let sync_in ?(via = `Enter) t (meta : C.Metadata.op_meta) =
  stage_whole_section t meta;
  let op = meta.C.Metadata.op.C.Operation.name in
  let plan =
    if full_mode t then plan_exn t.all_plan op op
    else
      match via with
      | `Enter -> plan_exn t.enter_plan op op
      | `Resume src -> (
        match Hashtbl.find_opt t.resume_plan (src, op) with
        | Some p -> p
        | None -> plan_exn t.enter_plan op op)
  in
  Array.iter
    (fun sl ->
      let e = gen t.epoch sl.sl_var in
      (* skip the copy when the master has not changed since this shadow
         last matched it: every suspension publishes the operation's
         writes first (sync-out invariant), so an unchanged epoch means
         the shadow still holds the master's bytes — including already
         localized pointer fields.  The ablations copy unconditionally. *)
      if
        full_mode t || sl.sl_forced
        || gen t.pulled (op, sl.sl_var) <> e
      then begin
        copy_words t ~src:sl.sl_master ~dst:sl.sl_shadow sl.sl_size;
        Hashtbl.replace t.pulled (op, sl.sl_var) e;
        match Hashtbl.find_opt t.ptr_offsets sl.sl_var with
        | None -> ()
        | Some offsets ->
          List.iter
            (fun off ->
              let v = priv_read t (sl.sl_shadow + off) 4 in
              let v' = translate_pointer t ~op v in
              if not (Int64.equal v v') then
                priv_write t (sl.sl_shadow + off) 4 v')
            offsets
      end)
    plan

(* point every relocation-table slot at the operation's shadow — or, for
   slots the schedule proved write-free for this operation, straight at
   the master (reads are unprivileged-legal through the MPU background
   region and a write faults, which is exactly the proof obligation) —
   or NULL when the operation has no access to the variable *)
let update_reloc_table t (meta : C.Metadata.op_meta) =
  let layout = t.image.C.Image.layout in
  let op = meta.C.Metadata.op.C.Operation.name in
  List.iter
    (fun (var, slot) ->
      let target =
        if is_ro t ~op var then Int64.of_int (master_of t var)
        else
          match List.assoc_opt var meta.C.Metadata.shadow_slots with
          | Some shadow -> Int64.of_int shadow
          | None -> 0L
      in
      priv_write t slot 4 target)
    layout.C.Layout.reloc_slots

(* --- stack protection (Figure 8) ---------------------------------------- *)

let subregion_of t addr =
  let layout = t.image.C.Image.layout in
  (addr - layout.C.Layout.stack_base) / C.Config.stack_subregion_size

(* Disable every sub-region strictly above the one containing [sp]. *)
let srd_for t sp =
  let top_sub = subregion_of t (min sp (t.image.C.Image.layout.C.Layout.stack_top - 1)) in
  let rec mask i acc = if i > 7 then acc else mask (i + 1) (acc lor (1 lsl i)) in
  if top_sub >= 7 then 0 else mask (top_sub + 1) 0

(* Relocate the buffers pointed to by pointer-type entry arguments onto
   the incoming operation's stack and redirect the arguments. *)
let relocate_arguments t (meta : C.Metadata.op_meta) (args : int64 array) =
  let cpu = t.bus.M.Bus.cpu in
  match meta.C.Metadata.stack_info with
  | None -> (args, [])
  | Some si ->
    let relocated = ref [] in
    let args = Array.copy args in
    List.iter
      (fun (pa : C.Dev_input.ptr_arg) ->
        let idx = pa.C.Dev_input.param_index in
        if idx < Array.length args then begin
          let orig = Int64.to_int args.(idx) in
          let bytes = pa.C.Dev_input.buffer_bytes in
          let copy = (cpu.M.Cpu.sp - bytes) land lnot 7 in
          if copy < cpu.M.Cpu.stack_base then
            abort t "stack exhausted during argument relocation";
          copy_words t ~src:orig ~dst:copy bytes;
          t.stats.Stats.relocated_bytes <- t.stats.Stats.relocated_bytes + bytes;
          cpu.M.Cpu.sp <- copy;
          args.(idx) <- Int64.of_int copy;
          relocated := (orig, copy, bytes) :: !relocated
        end)
      si.C.Dev_input.ptr_args;
    (args, !relocated)

let copy_back_relocated t frame =
  List.iter
    (fun (orig, copy, bytes) -> copy_words t ~src:copy ~dst:orig bytes)
    frame.relocated

(* --- protection installation --------------------------------------------- *)

let install_mpu t (meta : C.Metadata.op_meta) ~srd =
  let image = t.image in
  let heap =
    if meta.C.Metadata.uses_heap then image.C.Image.layout.C.Layout.heap_section
    else None
  in
  M.Cpu.with_privilege t.bus.M.Bus.cpu (fun () ->
      ignore
        (C.Backend_plan.install (M.Bus.protection t.bus)
           ~code_base:image.C.Image.code_base
           ~code_bytes:image.C.Image.code_bytes ~layout:image.C.Image.layout
           ~srd ?heap meta.C.Metadata.section meta.C.Metadata.op))

(* --- switch protocol ----------------------------------------------------- *)

let meta_exn t op_name =
  match C.Image.meta_of t.image op_name with
  | Some m -> m
  | None -> invalid_arg ("Monitor: no metadata for operation " ^ op_name)

let enter_operation t ~(entry : Func.t) ~(args : int64 array) =
  let op =
    match C.Image.op_of_entry t.image entry.Func.name with
    | Some op -> op
    | None -> invalid_arg ("Monitor: not an operation entry: " ^ entry.Func.name)
  in
  let meta = meta_exn t op.C.Operation.name in
  let r = rec_create t in
  let src = current_op_name t in
  (* 1. sanitize, then write back the previous operation's shadows *)
  (match t.frames with
  | prev :: _ ->
    ph_begin t r Obs.Sink.Sanitize;
    sanitize_all t prev.meta;
    ph_end t r;
    ph_begin t r Obs.Sink.Sync;
    sync_out t prev.meta
  | [] -> ph_begin t r Obs.Sink.Sync);
  (* 2. fill the new operation's shadows and fix pointers *)
  sync_in t meta;
  update_reloc_table t meta;
  ph_end t r;
  (* 3. relocate stack arguments *)
  ph_begin t r Obs.Sink.Relocate;
  let cpu = t.bus.M.Bus.cpu in
  let saved_sp = cpu.M.Cpu.sp in
  let args, relocated = relocate_arguments t meta args in
  ph_end t r;
  (* 4. disable the sub-regions of previous stack frames *)
  ph_begin t r Obs.Sink.Mpu_config;
  let srd = srd_for t cpu.M.Cpu.sp in
  let frame = { op; meta; srd; saved_sp; relocated; virt_next = 0 } in
  t.frames <- frame :: t.frames;
  install_mpu t meta ~srd;
  ph_end t r;
  t.stats.Stats.switches <- t.stats.Stats.switches + 1;
  emit_span t r Obs.Sink.Enter ~src ~dst:op.C.Operation.name;
  args

let exit_operation t ~(entry : Func.t) =
  match t.frames with
  | [] -> invalid_arg "Monitor: exit with no active operation"
  | frame :: rest ->
    if not (String.equal frame.op.C.Operation.entry entry.Func.name) then
      invalid_arg "Monitor: mismatched operation exit";
    let r = rec_create t in
    let src = frame.op.C.Operation.name in
    let dst =
      match rest with f :: _ -> f.op.C.Operation.name | [] -> ""
    in
    (* 1. sanitize + write back the exiting operation's shadows.  (The
       paper also clears the general-purpose registers here; the
       interpreter gives every activation a fresh register file, so no
       register value can survive an operation exit by construction.) *)
    ph_begin t r Obs.Sink.Sanitize;
    sanitize_all t frame.meta;
    ph_end t r;
    ph_begin t r Obs.Sink.Sync;
    sync_out t frame.meta;
    ph_end t r;
    (* 2. restore stack data and pointer arguments *)
    ph_begin t r Obs.Sink.Relocate;
    copy_back_relocated t frame;
    ph_end t r;
    t.frames <- rest;
    (* 3. refill the resumed operation's shadows and MPU: only writers
       reachable from the exiting operation can have run meanwhile, so
       the (src, dst) resume schedule applies *)
    (match rest with
    | prev :: _ ->
      ph_begin t r Obs.Sink.Sync;
      sync_in ~via:(`Resume src) t prev.meta;
      update_reloc_table t prev.meta;
      ph_end t r;
      ph_begin t r Obs.Sink.Mpu_config;
      install_mpu t prev.meta ~srd:prev.srd;
      ph_end t r
    | [] -> ());
    t.stats.Stats.switches <- t.stats.Stats.switches + 1;
    emit_span t r Obs.Sink.Exit ~src ~dst

(* --- thread context switching (Section 7) -------------------------------- *)

(* An inactive thread's operation-context stack. *)
type thread_snapshot = frame list

(* The default operation at the top of an empty stack: where [init]
   starts the program and where every spawned thread starts. *)
let default_frame t =
  let dop = C.Image.default_op t.image in
  { op = dop; meta = meta_exn t dop.C.Operation.name; srd = 0;
    saved_sp = t.image.C.Image.map.Opec_exec.Address_map.stack_top;
    relocated = []; virt_next = 0 }

let initial_snapshot t = [ default_frame t ]

(* The single-core context switch of Section 7: write back the previous
   thread's operation shadows, adopt the next thread's context, refill
   its shadows, and reconfigure the MPU. *)
let thread_switch t ~(next : thread_snapshot) : thread_snapshot =
  let r = rec_create t in
  let src = current_op_name t in
  (match t.frames with
  | f :: _ ->
    ph_begin t r Obs.Sink.Sanitize;
    sanitize_all t f.meta;
    ph_end t r;
    ph_begin t r Obs.Sink.Sync;
    sync_out t f.meta;
    ph_end t r
  | [] -> ());
  let prev = t.frames in
  t.frames <- next;
  (match next with
  | f :: _ ->
    ph_begin t r Obs.Sink.Sync;
    sync_in t f.meta;
    update_reloc_table t f.meta;
    ph_end t r;
    ph_begin t r Obs.Sink.Mpu_config;
    install_mpu t f.meta ~srd:f.srd;
    ph_end t r
  | [] -> ());
  t.stats.Stats.switches <- t.stats.Stats.switches + 1;
  emit_span t r Obs.Sink.Thread ~src ~dst:(current_op_name t);
  prev

(* --- fault handlers ------------------------------------------------------ *)

(* Memory-management fault: peripheral MPU virtualization (Section 5.2). *)
let handle_mem_fault t (_desc : Opec_exec.Interp.access_desc)
    (info : M.Fault.info) =
  let frame = current t in
  let addr = info.M.Fault.addr in
  let permitted =
    List.exists
      (fun (base, limit) -> addr >= base && addr < limit)
      frame.op.C.Operation.periph_ranges
  in
  if not permitted then
    Opec_exec.Interp.Abort
      (deny t ~info
         (Fmt.str "isolation violation in %s: %a" frame.op.C.Operation.name
            M.Fault.pp_info info))
  else begin
    (* the access is in the allow list: rotate protection onto it
       (round-robin over the backend's reserved slots / keys) *)
    match
      M.Cpu.with_privilege t.bus.M.Bus.cpu (fun () ->
          C.Backend_plan.rotate (M.Bus.protection t.bus) ~meta:frame.meta
            ~next:frame.virt_next ~addr)
    with
    | None ->
      Opec_exec.Interp.Abort
        (deny t ~info
           (Fmt.str "no planned region in %s covers permitted access: %a"
              frame.op.C.Operation.name M.Fault.pp_info info))
    | Some rot ->
      frame.virt_next <- frame.virt_next + 1;
      t.stats.Stats.virt_swaps <- t.stats.Stats.virt_swaps + 1;
      if t.sink.Obs.Sink.active then begin
        let region_id (rg_base, rg_size_log2) =
          { Obs.Sink.rg_base; rg_size_log2 }
        in
        t.sink.Obs.Sink.emit
          (Obs.Sink.Region_swap
             { rs_op = frame.op.C.Operation.name;
               rs_slot = rot.C.Backend_plan.slot;
               rs_evicted = Option.map region_id rot.C.Backend_plan.evicted;
               rs_installed = region_id rot.C.Backend_plan.installed;
               rs_at = now t })
      end;
      Opec_exec.Interp.Retry
  end

(* Bus fault: emulate permitted core-peripheral loads/stores
   (Section 5.2). *)
let handle_bus_fault t (desc : Opec_exec.Interp.access_desc)
    (info : M.Fault.info) =
  let frame = current t in
  let addr = info.M.Fault.addr in
  let in_ppb =
    addr >= M.Memmap.ppb_base && addr < M.Memmap.ppb_limit
  in
  let periph =
    Peripheral.find t.image.C.Image.source.Program.peripherals addr
  in
  let permitted =
    (not info.M.Fault.privileged) && in_ppb
    &&
    match periph with
    | Some p -> C.Operation.uses_core_peripheral frame.op p.Peripheral.name
    | None -> false
  in
  if not permitted then
    Opec_exec.Interp.Bus_abort
      (deny t ~info
         (Fmt.str "bus fault in %s: %a" frame.op.C.Operation.name
            M.Fault.pp_info info))
  else begin
    t.stats.Stats.emulations <- t.stats.Stats.emulations + 1;
    if t.sink.Obs.Sink.active then
      t.sink.Obs.Sink.emit
        (Obs.Sink.Emulation
           { em_op = frame.op.C.Operation.name;
             em_write =
               (match desc with
               | Opec_exec.Interp.Access_store _ -> true
               | Opec_exec.Interp.Access_load _ -> false);
             em_info = info; em_at = now t });
    match desc with
    | Opec_exec.Interp.Access_load { addr; width } ->
      Opec_exec.Interp.Emulated (priv_read t addr width)
    | Opec_exec.Interp.Access_store { addr; width; value } ->
      priv_write t addr width value;
      Opec_exec.Interp.Emulated 0L
  end

(* --- initialization (Section 5.1) ---------------------------------------- *)

let init t =
  let image = t.image in
  let r = rec_create t in
  ph_begin t r Obs.Sink.Sync;
  (* copy the initial value of every shared global into its shadows and
     localize pointer fields right away: the incremental sync-in may
     skip an operation's first fill (unchanged master), so the initial
     shadow must already be what that fill would have produced *)
  List.iter
    (fun (op_name, (meta : C.Metadata.op_meta)) ->
      List.iter
        (fun (var, shadow) ->
          if is_ro t ~op:op_name var then ()
            (* dead shadow: the relocation entry targets the master *)
          else begin
          copy_words t ~src:(master_of t var) ~dst:shadow
            (Hashtbl.find t.var_size var);
          match Hashtbl.find_opt t.ptr_offsets var with
          | None -> ()
          | Some offsets ->
            List.iter
              (fun off ->
                let v = priv_read t (shadow + off) 4 in
                let v' = translate_pointer t ~op:op_name v in
                if not (Int64.equal v v') then
                  priv_write t (shadow + off) 4 v')
              offsets
          end)
        meta.C.Metadata.shadow_slots)
    image.C.Image.metas;
  (* start in the default operation *)
  let frame = default_frame t in
  let meta = frame.meta in
  t.frames <- [ frame ];
  sync_in t meta;
  update_reloc_table t meta;
  ph_end t r;
  ph_begin t r Obs.Sink.Mpu_config;
  install_mpu t meta ~srd:0;
  ph_end t r;
  (* drop privilege: the application code runs unprivileged *)
  M.Cpu.drop_privilege t.bus.M.Bus.cpu;
  (* one-time cost, recorded as its own kind so it never counts as a
     switch in the [Stats.switches] reconciliation *)
  emit_span t r Obs.Sink.Init ~src:"" ~dst:frame.op.C.Operation.name

(* --- the interpreter-facing handler -------------------------------------- *)

let handler t : Opec_exec.Interp.handler =
  { Opec_exec.Interp.on_operation_enter =
      (fun ~entry ~args ->
        try enter_operation t ~entry ~args
        with Violation msg -> raise (Opec_exec.Interp.Aborted msg));
    on_operation_exit =
      (fun ~entry ->
        try exit_operation t ~entry
        with Violation msg -> raise (Opec_exec.Interp.Aborted msg));
    on_mem_fault =
      (fun desc info ->
        M.Cpu.with_privilege t.bus.M.Bus.cpu (fun () ->
            try handle_mem_fault t desc info
            with Violation msg -> Opec_exec.Interp.Abort msg));
    on_bus_fault =
      (fun desc info ->
        M.Cpu.with_privilege t.bus.M.Bus.cpu (fun () ->
            try handle_bus_fault t desc info
            with Violation msg -> Opec_exec.Interp.Bus_abort msg));
    (* Operation switches arrive through [on_operation_enter]/[_exit] and
       the cooperative-thread scheduler intercepts its yield SVC before
       delegating here, so any SVC that reaches the monitor carries a
       forged operation id: reject it (Section 5.3's dispatcher only
       accepts ids minted by the instrumentation). *)
    on_svc =
      (fun n ->
        try
          abort t
            (Fmt.str "SVC with forged operation id #0x%02X in %s" n
               (current t).op.C.Operation.name)
        with Violation msg -> raise (Opec_exec.Interp.Aborted msg)) }
