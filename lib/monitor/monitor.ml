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
     the bus-fault handler so application code never runs privileged.

   State layout.  Everything the switch protocol reads is fixed when the
   image is built, so [create] works it out once and a switch only
   indexes arrays:
   - operations get dense ids (their position in [Image.metas]); an
     entry-function table maps an SVC's entry to the operation's
     [op_plan], which holds its sanitize checks, its all/out/enter copy
     plans, its relocation-table writes and its whole-section staging
     list;
   - every shared variable with a shadow or a master gets a dense id,
     and each [sync_slot] of a plan carries its variable's id, shadow,
     master, size and pointer-field offsets;
   - resume plans form an [n_ops * n_ops] array indexed by
     (source, destination), holding the destination's enter plan where
     the schedule names no pair;
   - [epoch] is an int per variable and [pulled] an [n_ops * n_vars]
     int matrix (see below);
   - pointer translation scans two range arrays and reads the target
     base from an [n_ops * n_vars] table;
   - protection is installed through a {!C.Backend_plan.plan_cache}
     keyed by (operation id, stack mask), so after its first switch an
     operation's table is restored rather than rebuilt;
   - privileged copies go through {!M.Bus.read_priv}/[write_priv];
   - the telemetry recorder is one preallocated buffer, filled in
     protocol order and turned into a span only when a sink listens. *)

open Opec_ir
module M = Opec_machine
module C = Opec_core
module Obs = Opec_obs

(* One scheduled copy: variable id, its shadow address in the
   operation's data section, its master address, its size, and the
   offsets of its pointer fields.  [sl_forced] marks a variable whose
   address escaped into a peripheral window: a device can rewrite its
   master at any time, so the incremental-copy bookkeeping below never
   applies to it.  [sl_ro] marks a slot the operation reaches through
   its read-only master mapping (its shadow is dead). *)
type sync_slot = {
  sl_var : int;
  sl_shadow : int;
  sl_master : int;
  sl_size : int;
  sl_forced : bool;
  sl_ro : bool;
  sl_ptrs : int array;
}

(* One developer sanitize rule applied to one shadow. *)
type check = { ck_shadow : int; ck_rule : C.Dev_input.sanitize_rule }

(* Everything a switch reads about one operation. *)
type op_plan = {
  id : int;
  op : C.Operation.t;
  meta : C.Metadata.op_meta;
  heap : C.Layout.section option;
  checks : check array;  (** sanitize rules, in shadow-slot order *)
  all : sync_slot array;  (** every shadow slot *)
  out : sync_slot array;
  enter : sync_slot array;
  reloc_slots : int array;  (** relocation-table slot addresses ... *)
  reloc_targets : int64 array;  (** ... and what each holds while active *)
  whole : (int * int) array;
      (** (addr, size) of the section slots the whole-section ablation
          copies in place; empty otherwise *)
}

type frame = {
  plan : op_plan;
  srd : int;                        (** sub-region disable mask while active *)
  saved_sp : int;                   (** caller sp to restore bookkeeping *)
  relocated : (int * int * int) list; (** (orig, copy, bytes) to copy back *)
  mutable virt_next : int;          (** round-robin cursor for regions 4..7 *)
}

(* Telemetry recorder: one span's phase samples, in protocol order.
   Filled only while [r_on]; cycle stamps stay native ints until the
   span is emitted. *)
let max_phases = 8

type recorder = {
  mutable r_on : bool;
  mutable r_n : int;
  r_ph : Obs.Sink.phase array;
  r_start : int array;
  r_end : int array;
  r_bytes : int array;
  mutable r_cur : Obs.Sink.phase;
  mutable r_cur_start : int;
  mutable r_bytes0 : int;
  mutable r_span_start : int;
}

type t = {
  image : C.Image.t;
  bus : M.Bus.t;
  stats : Stats.t;
  plans : op_plan array;  (** by operation id *)
  by_entry : (string, op_plan) Hashtbl.t;
  n_vars : int;
  resume : sync_slot array array;  (** [src * n_ops + dst] *)
  (* pointer translation: (owner op id, var id, base, size) of every
     shadow home, (var id, base, size) of every public-section master —
     a pointer field can hold a master address after a sync through an
     operation without access to the target, and must localize again on
     the next switch — and, per (op id, var id), the base a pointer into
     that variable localizes to for the operation (-1: none) *)
  shadow_ranges : (int * int * int * int) array;
  master_ranges : (int * int * int) array;
  local_base : int array;
  full : bool;
      (** an ablation is on: [sync_whole_section] copies entire sections
          at switches instead of only the shared variables (Section 6.3
          credits the shared-only policy), [full_sync] copies every
          shadow slot, ignoring the static sync schedule (the
          pre-schedule behaviour); either bypasses the schedule *)
  sync_whole_section : bool;
  (* incremental synchronization: [epoch] counts, per shared variable,
     the sync-outs that actually changed its master; [pulled] records,
     per (op, var), the epoch at which that shadow last matched the
     master.  A sync-in copy is skipped when the two agree — the master
     cannot have changed since the shadow was filled (or published), so
     the copy would move identical bytes. *)
  epoch : int array;
  pulled : int array;  (** [op * n_vars + var] *)
  installed : C.Backend_plan.plan_cache;
  rc : recorder;
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
  | f :: _ -> f.plan.op.C.Operation.name
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

(* Phase byte counts are [synced_bytes] deltas, so summing them over
   every emitted sample reconciles exactly with the aggregate counter.
   With no active sink each bracket is one flag test. *)
let rec_begin t =
  let r = t.rc in
  r.r_on <- t.sink.Obs.Sink.active;
  if r.r_on then begin
    r.r_n <- 0;
    r.r_span_start <- t.bus.M.Bus.cpu.M.Cpu.cycles
  end

let ph_begin t ph =
  let r = t.rc in
  if r.r_on then begin
    r.r_cur <- ph;
    r.r_cur_start <- t.bus.M.Bus.cpu.M.Cpu.cycles;
    r.r_bytes0 <- t.stats.Stats.synced_bytes
  end

let ph_end t =
  let r = t.rc in
  if r.r_on then begin
    let n = r.r_n in
    r.r_ph.(n) <- r.r_cur;
    r.r_start.(n) <- r.r_cur_start;
    r.r_end.(n) <- t.bus.M.Bus.cpu.M.Cpu.cycles;
    r.r_bytes.(n) <- t.stats.Stats.synced_bytes - r.r_bytes0;
    r.r_n <- n + 1
  end

let emit_span t kind ~src ~dst =
  let r = t.rc in
  if r.r_on then begin
    r.r_on <- false;
    let phases = ref [] in
    for i = r.r_n - 1 downto 0 do
      phases :=
        { Obs.Sink.ph = r.r_ph.(i); ph_start = Int64.of_int r.r_start.(i);
          ph_end = Int64.of_int r.r_end.(i); ph_bytes = r.r_bytes.(i) }
        :: !phases
    done;
    t.sink.Obs.Sink.emit
      (Obs.Sink.Switch
         { sp_kind = kind; sp_src = src; sp_dst = dst;
           sp_start = Int64.of_int r.r_span_start; sp_end = now t;
           sp_phases = !phases })
  end

(* --- construction ------------------------------------------------------- *)

let create ?(sync_whole_section = false) ?(full_sync = false)
    ?(sink = Obs.Sink.null) (image : C.Image.t) (bus : M.Bus.t) =
  let layout = image.C.Image.layout in
  let var_size = Hashtbl.create 64 in
  let ptr_offsets = Hashtbl.create 64 in
  List.iter
    (fun (g : Global.t) ->
      Hashtbl.replace var_size g.name (Global.size g);
      match Global.pointer_field_offsets g with
      | [] -> ()
      | offs -> Hashtbl.replace ptr_offsets g.name (Array.of_list offs))
    image.C.Image.source.Program.globals;
  (* dense ids: operations by their position in the metadata table,
     variables in order of first appearance *)
  let metas = Array.of_list image.C.Image.metas in
  let n_ops = Array.length metas in
  let op_ids = Hashtbl.create 16 in
  Array.iteri (fun i (opn, _) -> Hashtbl.replace op_ids opn i) metas;
  let var_ids = Hashtbl.create 64 in
  let var_names = ref [] in
  let var_id v =
    match Hashtbl.find_opt var_ids v with
    | Some i -> i
    | None ->
      let i = Hashtbl.length var_ids in
      Hashtbl.add var_ids v i;
      var_names := v :: !var_names;
      i
  in
  let master_addr var =
    match C.Layout.master_of layout var with
    | Some a -> a
    | None -> invalid_arg ("Monitor: no master for " ^ var)
  in
  let module Ss = Opec_analysis.Syncset in
  let ss = image.C.Image.syncsets in
  let escaped = Ss.escaped ss in
  let full = full_sync || sync_whole_section in
  (* read-only master mappings: per operation, the slots the schedule
     proved write-free.  Their relocation entries point straight at the
     master (the MPU background region grants unprivileged reads of the
     public section), so their shadows are never filled or synced.
     Empty under the ablations, which bypass the schedule. *)
  let ro_of opn = if full then Ss.SS.empty else Ss.ro_set ss opn in
  let plan_of opn (meta : C.Metadata.op_meta) keep =
    let ro = ro_of opn in
    List.filter_map
      (fun (var, shadow) ->
        if keep var then
          Some
            { sl_var = var_id var; sl_shadow = shadow;
              sl_master = master_addr var;
              sl_size = Hashtbl.find var_size var;
              sl_forced = Ss.SS.mem var escaped;
              sl_ro = Ss.SS.mem var ro;
              sl_ptrs =
                Option.value (Hashtbl.find_opt ptr_offsets var) ~default:[||] }
        else None)
      meta.C.Metadata.shadow_slots
    |> Array.of_list
  in
  let plans =
    Array.mapi
      (fun id (opn, (meta : C.Metadata.op_meta)) ->
        let ro = ro_of opn in
        let checks =
          List.concat_map
            (fun (var, shadow) ->
              List.filter_map
                (fun (r : C.Dev_input.sanitize_rule) ->
                  if String.equal r.C.Dev_input.sz_global var then
                    Some { ck_shadow = shadow; ck_rule = r }
                  else None)
                meta.C.Metadata.sanitize)
            meta.C.Metadata.shadow_slots
        in
        (* every relocation-table slot points at the operation's shadow
           — or, for slots the schedule proved write-free for it,
           straight at the master (reads are unprivileged-legal through
           the MPU background region and a write faults, which is
           exactly the proof obligation) — or NULL when the operation
           has no access to the variable *)
        let reloc =
          List.map
            (fun (var, slot) ->
              let target =
                if Ss.SS.mem var ro then master_addr var
                else
                  match List.assoc_opt var meta.C.Metadata.shadow_slots with
                  | Some shadow -> shadow
                  | None -> 0
              in
              (slot, Int64.of_int target))
            layout.C.Layout.reloc_slots
        in
        (* in the whole-section ablation every slot of the section is
           staged, modeling a design without the shared-variable filter;
           internal slots copy in place, costing the same bus traffic *)
        let whole =
          match meta.C.Metadata.section with
          | Some sec when sync_whole_section ->
            List.filter_map
              (fun (slot : C.Layout.slot) ->
                if List.mem_assoc slot.C.Layout.var meta.C.Metadata.shadow_slots
                then None
                else Some (slot.C.Layout.addr, slot.C.Layout.size))
              sec.C.Layout.slots
          | Some _ | None -> []
        in
        { id; op = meta.C.Metadata.op; meta;
          heap =
            (if meta.C.Metadata.uses_heap then layout.C.Layout.heap_section
             else None);
          checks = Array.of_list checks;
          all = plan_of opn meta (fun _ -> true);
          out = plan_of opn meta (fun v -> Ss.SS.mem v (Ss.out_set ss opn));
          enter = plan_of opn meta (fun v -> Ss.SS.mem v (Ss.enter_set ss opn));
          reloc_slots = Array.of_list (List.map fst reloc);
          reloc_targets = Array.of_list (List.map snd reloc);
          whole = Array.of_list whole })
      metas
  in
  let by_entry = Hashtbl.create 16 in
  Array.iter
    (fun p -> Hashtbl.replace by_entry p.op.C.Operation.entry p)
    plans;
  let resume =
    Array.init (n_ops * n_ops) (fun k -> plans.(k mod n_ops).enter)
  in
  List.iter
    (fun (src, dst) ->
      match (Hashtbl.find_opt op_ids src, Hashtbl.find_opt op_ids dst) with
      | Some s, Some d ->
        let set = Ss.resume_set ss ~src ~dst in
        resume.((s * n_ops) + d) <-
          plan_of dst (snd metas.(d)) (fun v -> Ss.SS.mem v set)
      | _ -> ())
    (Ss.pairs ss);
  let shadow_ranges =
    Hashtbl.fold
      (fun var homes acc ->
        List.fold_left
          (fun acc (op, base) ->
            let owner = Option.value (Hashtbl.find_opt op_ids op) ~default:(-1) in
            (owner, var_id var, base, Hashtbl.find var_size var) :: acc)
          acc homes)
      layout.C.Layout.shadow_addr []
    |> Array.of_list
  in
  let master_ranges =
    List.map
      (fun (s : C.Layout.slot) ->
        (var_id s.C.Layout.var, s.C.Layout.addr, s.C.Layout.size))
      layout.C.Layout.public.C.Layout.slots
    |> Array.of_list
  in
  let n_vars = Hashtbl.length var_ids in
  let names = Array.of_list (List.rev !var_names) in
  let ros = Array.map (fun (opn, _) -> ro_of opn) metas in
  let local_base =
    Array.init (n_ops * n_vars) (fun k ->
        let o = k / n_vars and var = names.(k mod n_vars) in
        let master () =
          Option.value (C.Layout.master_of layout var) ~default:(-1)
        in
        if Ss.SS.mem var ros.(o) then master ()
        else
          match C.Layout.shadow_of layout ~op:(fst metas.(o)) ~var with
          | Some s -> s
          | None -> master ())
  in
  { image; bus; stats = Stats.create (); plans; by_entry; n_vars; resume;
    shadow_ranges; master_ranges; local_base; full; sync_whole_section;
    epoch = Array.make n_vars 0; pulled = Array.make (n_ops * n_vars) 0;
    installed = C.Backend_plan.plan_cache ~ops:n_ops;
    rc =
      { r_on = false; r_n = 0; r_ph = Array.make max_phases Obs.Sink.Sync;
        r_start = Array.make max_phases 0; r_end = Array.make max_phases 0;
        r_bytes = Array.make max_phases 0; r_cur = Obs.Sink.Sync;
        r_cur_start = 0; r_bytes0 = 0; r_span_start = 0 };
    frames = []; sink }

(* --- privileged memory helpers ----------------------------------------- *)

let priv_read t addr width = M.Bus.read_priv t.bus addr width
let priv_write t addr width v = M.Bus.write_priv t.bus addr width v

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

(* --- sanitization ------------------------------------------------------- *)

(* Check every developer-provided valid range against its shadow's first
   word before the shadow values propagate out of the operation
   (Section 5.3).  Its own step so the telemetry can bracket
   sanitization as a phase — and so a failing check aborts before any
   shadow value has propagated to the public section. *)
let sanitize_all t (p : op_plan) =
  Array.iter
    (fun { ck_shadow; ck_rule = r } ->
      let v = priv_read t ck_shadow 4 in
      if Int64.compare v r.C.Dev_input.sz_min < 0
         || Int64.compare v r.C.Dev_input.sz_max > 0 then
        abort t
          (Fmt.str "sanitization failed for %s: %Ld not in [%Ld, %Ld]"
             r.C.Dev_input.sz_global v r.C.Dev_input.sz_min
             r.C.Dev_input.sz_max))
    p.checks

(* --- global synchronization (Figure 7) ---------------------------------- *)

let stage_whole_section t (p : op_plan) =
  Array.iter (fun (addr, size) -> copy_words t ~src:addr ~dst:addr size) p.whole

(* write back the current operation's shadows to the public section,
   restricted by the static schedule to the slots the operation may have
   written (the masters of the rest are already equal by the sync-out
   invariant); the caller runs {!sanitize_all} first *)
let sync_out t (p : op_plan) =
  stage_whole_section t p;
  if t.full then
    Array.iter
      (fun sl -> copy_words t ~src:sl.sl_shadow ~dst:sl.sl_master sl.sl_size)
      p.all
  else
    let row = p.id * t.n_vars in
    Array.iter
      (fun sl ->
        if (not sl.sl_forced)
           && words_equal t ~a:sl.sl_shadow ~b:sl.sl_master sl.sl_size
        then
          (* the operation left the value it saw: the master is already
             current, and this shadow is a faithful copy of it *)
          t.pulled.(row + sl.sl_var) <- t.epoch.(sl.sl_var)
        else begin
          copy_words t ~src:sl.sl_shadow ~dst:sl.sl_master sl.sl_size;
          let e = t.epoch.(sl.sl_var) + 1 in
          t.epoch.(sl.sl_var) <- e;
          t.pulled.(row + sl.sl_var) <- e
        end)
      p.out

(* Translate a pointer that targets another operation's shadow section to
   the equivalent location visible to operation [op] (Section 5.3). *)
let translate_pointer t ~op v =
  let addr = Int64.to_int v in
  let rec in_shadow i =
    if i >= Array.length t.shadow_ranges then in_master 0
    else
      let owner, var, base, size = t.shadow_ranges.(i) in
      if owner <> op && addr >= base && addr < base + size then (var, base)
      else in_shadow (i + 1)
  (* a master address is the canonical form a pointer takes after
     passing through an operation without access to the target;
     localize it into [op]'s shadow when one exists *)
  and in_master i =
    if i >= Array.length t.master_ranges then (-1, 0)
    else
      let var, base, size = t.master_ranges.(i) in
      if addr >= base && addr < base + size then (var, base)
      else in_master (i + 1)
  in
  match in_shadow 0 with
  | -1, _ -> v
  | var, base ->
    let local = t.local_base.((op * t.n_vars) + var) in
    if local < 0 then invalid_arg "Monitor: no master for a shadowed variable";
    let target = local + (addr - base) in
    if target = addr then v
    else begin
      t.stats.Stats.pointer_fixups <- t.stats.Stats.pointer_fixups + 1;
      Int64.of_int target
    end

(* Localize a freshly copied shadow's pointer fields for [op]. *)
let fix_pointers t ~op sl =
  Array.iter
    (fun off ->
      let v = priv_read t (sl.sl_shadow + off) 4 in
      let v' = translate_pointer t ~op v in
      if not (Int64.equal v v') then priv_write t (sl.sl_shadow + off) 4 v')
    sl.sl_ptrs

(* copy masters into the incoming operation's shadows and fix up pointer
   fields that still reference another operation's section.  The static
   schedule restricts the copy to the slots some other operation may
   have synced out since this shadow was filled: [plan] is the
   all-writers enter plan, or the tighter resume plan for writers
   reachable from the exiting operation.  Uncopied shadows keep the
   operation's own (already local) values, so pointer translation is
   only needed on the copied slots. *)
let sync_in t (p : op_plan) plan =
  stage_whole_section t p;
  let plan = if t.full then p.all else plan in
  let row = p.id * t.n_vars in
  Array.iter
    (fun sl ->
      let e = t.epoch.(sl.sl_var) in
      (* skip the copy when the master has not changed since this shadow
         last matched it: every suspension publishes the operation's
         writes first (sync-out invariant), so an unchanged epoch means
         the shadow still holds the master's bytes — including already
         localized pointer fields.  The ablations copy unconditionally. *)
      if t.full || sl.sl_forced || t.pulled.(row + sl.sl_var) <> e then begin
        copy_words t ~src:sl.sl_master ~dst:sl.sl_shadow sl.sl_size;
        t.pulled.(row + sl.sl_var) <- e;
        fix_pointers t ~op:p.id sl
      end)
    plan

(* point every relocation-table slot where the operation reaches it *)
let update_reloc_table t (p : op_plan) =
  for i = 0 to Array.length p.reloc_slots - 1 do
    priv_write t p.reloc_slots.(i) 4 p.reloc_targets.(i)
  done

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

let install_protection t (p : op_plan) ~srd =
  let image = t.image in
  C.Backend_plan.install_cached t.installed ~id:p.id (M.Bus.protection t.bus)
    ~code_base:image.C.Image.code_base ~code_bytes:image.C.Image.code_bytes
    ~layout:image.C.Image.layout ~srd ?heap:p.heap p.meta.C.Metadata.section
    p.op

(* --- switch protocol ----------------------------------------------------- *)

let plan_of_entry t (entry : Func.t) =
  match Hashtbl.find t.by_entry entry.Func.name with
  | p -> p
  | exception Not_found ->
    invalid_arg ("Monitor: not an operation entry: " ^ entry.Func.name)

let enter_operation t ~(entry : Func.t) ~(args : int64 array) =
  let p = plan_of_entry t entry in
  rec_begin t;
  let src = current_op_name t in
  (* 1. sanitize, then write back the previous operation's shadows *)
  (match t.frames with
  | prev :: _ ->
    ph_begin t Obs.Sink.Sanitize;
    sanitize_all t prev.plan;
    ph_end t;
    ph_begin t Obs.Sink.Sync;
    sync_out t prev.plan
  | [] -> ph_begin t Obs.Sink.Sync);
  (* 2. fill the new operation's shadows and fix pointers *)
  sync_in t p p.enter;
  update_reloc_table t p;
  ph_end t;
  (* 3. relocate stack arguments *)
  ph_begin t Obs.Sink.Relocate;
  let cpu = t.bus.M.Bus.cpu in
  let saved_sp = cpu.M.Cpu.sp in
  let args, relocated = relocate_arguments t p.meta args in
  ph_end t;
  (* 4. disable the sub-regions of previous stack frames *)
  ph_begin t Obs.Sink.Mpu_config;
  let srd = srd_for t cpu.M.Cpu.sp in
  t.frames <- { plan = p; srd; saved_sp; relocated; virt_next = 0 } :: t.frames;
  install_protection t p ~srd;
  ph_end t;
  t.stats.Stats.switches <- t.stats.Stats.switches + 1;
  emit_span t Obs.Sink.Enter ~src ~dst:p.op.C.Operation.name;
  args

let exit_operation t ~(entry : Func.t) =
  match t.frames with
  | [] -> invalid_arg "Monitor: exit with no active operation"
  | frame :: rest ->
    let p = frame.plan in
    if not (String.equal p.op.C.Operation.entry entry.Func.name) then
      invalid_arg "Monitor: mismatched operation exit";
    rec_begin t;
    let src = p.op.C.Operation.name in
    let dst =
      match rest with f :: _ -> f.plan.op.C.Operation.name | [] -> ""
    in
    (* 1. sanitize + write back the exiting operation's shadows.  (The
       paper also clears the general-purpose registers here; the
       interpreter gives every activation a fresh register file, so no
       register value can survive an operation exit by construction.) *)
    ph_begin t Obs.Sink.Sanitize;
    sanitize_all t p;
    ph_end t;
    ph_begin t Obs.Sink.Sync;
    sync_out t p;
    ph_end t;
    (* 2. restore stack data and pointer arguments *)
    ph_begin t Obs.Sink.Relocate;
    copy_back_relocated t frame;
    ph_end t;
    t.frames <- rest;
    (* 3. refill the resumed operation's shadows and MPU: only writers
       reachable from the exiting operation can have run meanwhile, so
       the (src, dst) resume schedule applies *)
    (match rest with
    | prev :: _ ->
      let q = prev.plan in
      ph_begin t Obs.Sink.Sync;
      sync_in t q t.resume.((p.id * Array.length t.plans) + q.id);
      update_reloc_table t q;
      ph_end t;
      ph_begin t Obs.Sink.Mpu_config;
      install_protection t q ~srd:prev.srd;
      ph_end t
    | [] -> ());
    t.stats.Stats.switches <- t.stats.Stats.switches + 1;
    emit_span t Obs.Sink.Exit ~src ~dst

(* --- thread context switching (Section 7) -------------------------------- *)

(* An inactive thread's operation-context stack. *)
type thread_snapshot = frame list

(* The default operation at the top of an empty stack: where [init]
   starts the program and where every spawned thread starts. *)
let default_frame t =
  let dop = C.Image.default_op t.image in
  let plan =
    match
      Array.find_opt
        (fun p -> String.equal p.op.C.Operation.name dop.C.Operation.name)
        t.plans
    with
    | Some p -> p
    | None ->
      invalid_arg ("Monitor: no metadata for operation " ^ dop.C.Operation.name)
  in
  { plan; srd = 0; saved_sp = t.image.C.Image.map.Opec_exec.Address_map.stack_top;
    relocated = []; virt_next = 0 }

let initial_snapshot t = [ default_frame t ]

(* The single-core context switch of Section 7: write back the previous
   thread's operation shadows, adopt the next thread's context, refill
   its shadows, and reconfigure the MPU. *)
let thread_switch t ~(next : thread_snapshot) : thread_snapshot =
  rec_begin t;
  let src = current_op_name t in
  (match t.frames with
  | f :: _ ->
    ph_begin t Obs.Sink.Sanitize;
    sanitize_all t f.plan;
    ph_end t;
    ph_begin t Obs.Sink.Sync;
    sync_out t f.plan;
    ph_end t
  | [] -> ());
  let prev = t.frames in
  t.frames <- next;
  (match next with
  | f :: _ ->
    ph_begin t Obs.Sink.Sync;
    sync_in t f.plan f.plan.enter;
    update_reloc_table t f.plan;
    ph_end t;
    ph_begin t Obs.Sink.Mpu_config;
    install_protection t f.plan ~srd:f.srd;
    ph_end t
  | [] -> ());
  t.stats.Stats.switches <- t.stats.Stats.switches + 1;
  emit_span t Obs.Sink.Thread ~src ~dst:(current_op_name t);
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
      frame.plan.op.C.Operation.periph_ranges
  in
  if not permitted then
    Opec_exec.Interp.Abort
      (deny t ~info
         (Fmt.str "isolation violation in %s: %a" frame.plan.op.C.Operation.name
            M.Fault.pp_info info))
  else begin
    (* the access is in the allow list: rotate protection onto it
       (round-robin over the backend's reserved slots / keys) *)
    match
      C.Backend_plan.rotate (M.Bus.protection t.bus) ~meta:frame.plan.meta
        ~next:frame.virt_next ~addr
    with
    | None ->
      Opec_exec.Interp.Abort
        (deny t ~info
           (Fmt.str "no planned region in %s covers permitted access: %a"
              frame.plan.op.C.Operation.name M.Fault.pp_info info))
    | Some rot ->
      frame.virt_next <- frame.virt_next + 1;
      t.stats.Stats.virt_swaps <- t.stats.Stats.virt_swaps + 1;
      if t.sink.Obs.Sink.active then begin
        let region_id (rg_base, rg_size_log2) =
          { Obs.Sink.rg_base; rg_size_log2 }
        in
        t.sink.Obs.Sink.emit
          (Obs.Sink.Region_swap
             { rs_op = frame.plan.op.C.Operation.name;
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
    | Some p -> C.Operation.uses_core_peripheral frame.plan.op p.Peripheral.name
    | None -> false
  in
  if not permitted then
    Opec_exec.Interp.Bus_abort
      (deny t ~info
         (Fmt.str "bus fault in %s: %a" frame.plan.op.C.Operation.name
            M.Fault.pp_info info))
  else begin
    t.stats.Stats.emulations <- t.stats.Stats.emulations + 1;
    if t.sink.Obs.Sink.active then
      t.sink.Obs.Sink.emit
        (Obs.Sink.Emulation
           { em_op = frame.plan.op.C.Operation.name;
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
  rec_begin t;
  ph_begin t Obs.Sink.Sync;
  (* copy the initial value of every shared global into its shadows and
     localize pointer fields right away: the incremental sync-in may
     skip an operation's first fill (unchanged master), so the initial
     shadow must already be what that fill would have produced *)
  Array.iter
    (fun p ->
      Array.iter
        (fun sl ->
          (* a dead shadow stays empty: the relocation entry targets the
             master *)
          if not sl.sl_ro then begin
            copy_words t ~src:sl.sl_master ~dst:sl.sl_shadow sl.sl_size;
            fix_pointers t ~op:p.id sl
          end)
        p.all)
    t.plans;
  (* start in the default operation *)
  let frame = default_frame t in
  t.frames <- [ frame ];
  sync_in t frame.plan frame.plan.enter;
  update_reloc_table t frame.plan;
  ph_end t;
  ph_begin t Obs.Sink.Mpu_config;
  install_protection t frame.plan ~srd:0;
  ph_end t;
  (* drop privilege: the application code runs unprivileged *)
  M.Cpu.drop_privilege t.bus.M.Bus.cpu;
  (* one-time cost, recorded as its own kind so it never counts as a
     switch in the [Stats.switches] reconciliation *)
  emit_span t Obs.Sink.Init ~src:"" ~dst:frame.plan.op.C.Operation.name

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
               (current t).plan.op.C.Operation.name)
        with Violation msg -> raise (Opec_exec.Interp.Aborted msg)) }
