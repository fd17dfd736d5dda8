(* Static sync schedules.

   The monitor keeps one master copy of every shared ("external") global
   in the public section and a per-operation shadow in each user's data
   section; at every operation switch it used to copy *all* of the
   switching operations' shadow slots in both directions.  The dataflow
   analysis proves most of that traffic unnecessary at partition time:

   - RO: a slot the operation reads but provably never writes needs no
     shadow at all — the MPU's background region already grants
     unprivileged reads of the public section, so the relocation table
     can point straight at the master and every copy disappears.
     Ineligible: escaped or sanitized variables, and variables with
     pointer fields (their shadow fills localize pointers, which a
     direct master read would skip);

   - KILLED: a slot the operation provably overwrites whole before its
     first read (Dataflow's exposed-read analysis) never exposes its
     entry value, so the entry refill is dead traffic.  Kills apply to
     fresh entries only — a resume mid-activation may land after the
     overwrite — and are disabled entirely under conservative
     scheduling, where yields make every point a potential resume;

   - FILL: what is left of the relevant (may-read ∪ may-write) slots
     after RO and KILLED: the slots whose shadow must actually be fresh
     when the operation starts (may-write matters too: sync is
     whole-variable, so a stale shadow that will be synced out later
     must be refreshed first);

   - OUT: the may-write slots some *other* operation can observe — at
     entry (its fill set), directly (its RO mapping), or after a
     mid-activation suspension (its relevant set, when the operation
     can suspend at all).  Writes nobody can observe are never
     published ("dead publish"); the fuzz harness excludes exactly
     those variables from its final-state comparison;

   - ENTER: the fill set intersected with the union of every other
     operation's OUT set — a shadow needs refilling only when someone
     may actually have changed the master since;

   - RESUME: on an operation exit returning to its suspended caller,
     only operations reachable from the exiting operation can have run,
     so the (src, dst) pair restricts the union to OUT sets of ops in
     reach*(src).  The resume domain is relevant-minus-RO, not the fill
     set: kills do not protect reads that follow a suspension point.

   Globals whose address escaped to a peripheral (Dataflow.escaped_globals)
   have no static write bound and stay in every set where the operation
   holds a slot; sanitized globals are pinned into fill and out so the
   monitor's exit-time range check always guards a fresh value.
   Programs containing raw SVCs (cooperative-thread yields) switch at
   points the operation-call relation cannot see, so resume scheduling
   falls back to the enter sets and kills are disabled. *)

module SS = Set.Make (String)

type op_view = {
  ov_name : string;
  ov_entry : string;
  ov_funcs : SS.t;   (** member functions, icall targets included *)
  ov_slots : SS.t;   (** shadowed (external) globals the op may access *)
  ov_killed : SS.t;  (** slots provably overwritten before any read *)
}

type t = {
  views : op_view list;
  reads : (string, SS.t) Hashtbl.t;       (** raw may-read, all globals *)
  writes : (string, SS.t) Hashtbl.t;      (** raw may-write, all globals *)
  out_sets : (string, SS.t) Hashtbl.t;
  enter_sets : (string, SS.t) Hashtbl.t;
  resume_sets : (string * string, SS.t) Hashtbl.t;
  resume_fallback : (string, SS.t) Hashtbl.t;
  relevant_sets : (string, SS.t) Hashtbl.t;
  ro_sets : (string, SS.t) Hashtbl.t;
  fill_sets : (string, SS.t) Hashtbl.t;
  unobserved_sets : (string, SS.t) Hashtbl.t;
  escaped : SS.t;
  sanitized : SS.t;
  conservative_resume : bool;
}

let find_exn what tbl key =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None -> invalid_arg ("Syncset: no " ^ what ^ " for operation " ^ key)

let ops t = List.map (fun ov -> ov.ov_name) t.views
let slots_of t name =
  match List.find_opt (fun ov -> String.equal ov.ov_name name) t.views with
  | Some ov -> ov.ov_slots
  | None -> invalid_arg ("Syncset: unknown operation " ^ name)

let may_read t name = find_exn "read set" t.reads name
let may_write t name = find_exn "write set" t.writes name
let out_set t name = find_exn "out set" t.out_sets name
let enter_set t name = find_exn "enter set" t.enter_sets name
let relevant_set t name = find_exn "relevant set" t.relevant_sets name
let ro_set t name = find_exn "read-only set" t.ro_sets name
let unobserved_set t name = find_exn "unobserved set" t.unobserved_sets name
let escaped t = t.escaped
let conservative_resume t = t.conservative_resume

(* Every global some operation writes without any observer: its master
   is never refreshed by a sync-out, so an external checker must not
   compare it against the baseline's final memory. *)
let unobserved t =
  Hashtbl.fold (fun _ s acc -> SS.union acc s) t.unobserved_sets SS.empty

(* Resume falls back to the conservative per-destination set — the full
   relevant-minus-RO domain against every other operation's OUT — for
   unknown pairs (a switch path the reachability relation did not
   predict) and always under conservative scheduling. *)
let resume_set t ~src ~dst =
  let fallback () =
    match Hashtbl.find_opt t.resume_fallback dst with
    | Some s -> s
    | None -> enter_set t dst
  in
  if t.conservative_resume then fallback ()
  else
    match Hashtbl.find_opt t.resume_sets (src, dst) with
    | Some s -> s
    | None -> fallback ()

(* (src, dst) pairs with an explicit resume schedule, in a deterministic
   order (outer list order of the constructor's [ops]). *)
let pairs t =
  if t.conservative_resume then []
  else
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst ->
            if Hashtbl.mem t.resume_sets (src.ov_name, dst.ov_name) then
              Some (src.ov_name, dst.ov_name)
            else None)
          t.views)
      t.views

let compute ~(ops : op_view list) ~(callgraph : Callgraph.t)
    ~(rw : Dataflow.t) ~(escaped : SS.t) ~(sanitized : SS.t)
    ~(ptr_vars : SS.t) ~(has_irq : bool)
    ~(conservative_resume : bool) : t =
  let n = List.length ops in
  let reads = Hashtbl.create n and writes = Hashtbl.create n in
  List.iter
    (fun ov ->
      let { Dataflow.reads = r; writes = w } =
        Dataflow.of_funcs rw ov.ov_funcs
      in
      Hashtbl.replace reads ov.ov_name r;
      Hashtbl.replace writes ov.ov_name w)
    ops;
  (* operation reachability: o -> o' when a member of o calls o''s entry;
     also the static "can this operation suspend mid-activation" bit. *)
  let by_entry = Hashtbl.create n in
  List.iter (fun ov -> Hashtbl.replace by_entry ov.ov_entry ov.ov_name) ops;
  let succ = Hashtbl.create n in
  List.iter
    (fun ov ->
      let s =
        SS.fold
          (fun f acc ->
            SS.fold
              (fun callee acc ->
                match Hashtbl.find_opt by_entry callee with
                | Some o' when not (String.equal o' ov.ov_name) ->
                  SS.add o' acc
                | _ -> acc)
              (Callgraph.callees callgraph f)
              acc)
          ov.ov_funcs SS.empty
      in
      Hashtbl.replace succ ov.ov_name s)
    ops;
  let suspends ov =
    has_irq || conservative_resume
    || not (SS.is_empty (find_exn "successors" succ ov.ov_name))
  in
  (* the no-copy slices: read-only master mapping and entry kills *)
  let ro_sets = Hashtbl.create n in
  let relevant_sets = Hashtbl.create n in
  let fill_sets = Hashtbl.create n in
  List.iter
    (fun ov ->
      let r = Hashtbl.find reads ov.ov_name
      and w = Hashtbl.find writes ov.ov_name in
      let esc = SS.inter escaped ov.ov_slots in
      let san = SS.inter sanitized ov.ov_slots in
      let relevant = SS.union (SS.inter (SS.union r w) ov.ov_slots) esc in
      let ro =
        SS.diff
          (SS.inter (SS.diff r w) ov.ov_slots)
          (SS.union (SS.union escaped sanitized) ptr_vars)
      in
      let killed =
        if conservative_resume then SS.empty
        else
          SS.diff (SS.inter ov.ov_killed ov.ov_slots)
            (SS.union escaped sanitized)
      in
      let fill =
        SS.union (SS.diff relevant (SS.union ro killed)) (SS.union esc san)
      in
      Hashtbl.replace relevant_sets ov.ov_name relevant;
      Hashtbl.replace ro_sets ov.ov_name ro;
      Hashtbl.replace fill_sets ov.ov_name fill)
    ops;
  (* observers per variable, then dead-publish-filtered out sets *)
  let observers v =
    List.fold_left
      (fun acc ov ->
        let sees =
          SS.mem v (Hashtbl.find fill_sets ov.ov_name)
          || SS.mem v (Hashtbl.find ro_sets ov.ov_name)
          || (suspends ov
              && SS.mem v (Hashtbl.find relevant_sets ov.ov_name))
        in
        if sees then SS.add ov.ov_name acc else acc)
      SS.empty ops
  in
  let out_sets = Hashtbl.create n in
  let unobserved_sets = Hashtbl.create n in
  List.iter
    (fun ov ->
      let esc = SS.inter escaped ov.ov_slots in
      let san = SS.inter sanitized ov.ov_slots in
      let w = SS.inter (Hashtbl.find writes ov.ov_name) ov.ov_slots in
      (* A publish may be dropped (dead publish) only when all three
         hold: no other operation observes the slot; the operation
         itself kills it (a slot it re-reads across activations must
         keep shadow = master at every exit, or the incremental-copy
         epoch bookkeeping loses the write ordering); and the operation
         never suspends (a mid-activation switch publishes so the
         resume refill can restore the in-progress value). *)
      let fill = Hashtbl.find fill_sets ov.ov_name in
      let observed =
        SS.filter
          (fun v ->
            suspends ov || SS.mem v fill
            || not (SS.is_empty (SS.remove ov.ov_name (observers v))))
          w
      in
      let out = SS.union observed (SS.union esc san) in
      Hashtbl.replace out_sets ov.ov_name out;
      Hashtbl.replace unobserved_sets ov.ov_name (SS.diff w out))
    ops;
  let others_out name =
    List.fold_left
      (fun acc ov' ->
        if String.equal ov'.ov_name name then acc
        else SS.union acc (Hashtbl.find out_sets ov'.ov_name))
      SS.empty ops
  in
  let enter_sets = Hashtbl.create n in
  let resume_fallback = Hashtbl.create n in
  List.iter
    (fun ov ->
      let esc = SS.inter escaped ov.ov_slots in
      let outs = others_out ov.ov_name in
      Hashtbl.replace enter_sets ov.ov_name
        (SS.union (SS.inter (Hashtbl.find fill_sets ov.ov_name) outs) esc);
      (* the resume domain ignores kills: a mid-activation resume can
         land between the overwrite and the reads it licenses *)
      let resume_domain =
        SS.diff
          (Hashtbl.find relevant_sets ov.ov_name)
          (Hashtbl.find ro_sets ov.ov_name)
      in
      Hashtbl.replace resume_fallback ov.ov_name
        (SS.union (SS.inter resume_domain outs) esc))
    ops;
  (* reach*(o): the ops that can have run while an operation suspended
     under [o] was waiting — reflexive transitive closure of succ. *)
  let resume_sets = Hashtbl.create (n * n) in
  if not conservative_resume then begin
    let rec close frontier acc =
      if SS.is_empty frontier then acc
      else
        let next =
          SS.fold
            (fun o acc' ->
              SS.union acc'
                (Option.value (Hashtbl.find_opt succ o) ~default:SS.empty))
            frontier SS.empty
        in
        let fresh = SS.diff next acc in
        close fresh (SS.union acc fresh)
    in
    List.iter
      (fun src ->
        let ran = close (SS.singleton src.ov_name) (SS.singleton src.ov_name) in
        List.iter
          (fun dst ->
            let esc = SS.inter escaped dst.ov_slots in
            let outs =
              SS.fold
                (fun o acc ->
                  if String.equal o dst.ov_name then acc
                  else SS.union acc (Hashtbl.find out_sets o))
                ran SS.empty
            in
            let resume_domain =
              SS.diff
                (Hashtbl.find relevant_sets dst.ov_name)
                (Hashtbl.find ro_sets dst.ov_name)
            in
            Hashtbl.replace resume_sets (src.ov_name, dst.ov_name)
              (SS.union (SS.inter resume_domain outs) esc))
          ops)
      ops
  end;
  { views = ops; reads; writes; out_sets; enter_sets; resume_sets;
    resume_fallback; relevant_sets; ro_sets; fill_sets; unobserved_sets;
    escaped; sanitized; conservative_resume }
