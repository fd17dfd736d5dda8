(** Static sync schedules: which shared globals the monitor must copy at
    each operation switch.

    Folded from the {!Dataflow} may-read/may-write and exposed-read
    (kill) analyses over the partition.  Per operation: an RO set
    (slots it reads but provably never writes — the relocation table
    points straight at the master, no copies at all), a FILL set (the
    slots whose shadow must be fresh at entry: relevant minus RO minus
    killed), an OUT set (may-written slots some other operation can
    observe — unobservable writes are never published), and an ENTER
    set (fill ∩ union of other operations' OUT).  Per (src, dst) pair
    a RESUME set restricts that union to OUT sets of operations
    reachable from the exiting operation; the resume domain ignores
    kills, which only license fresh entries.  Escaped globals (address
    stored to a peripheral) stay in every set where a slot exists;
    sanitized globals are pinned into fill and out; programs with raw
    SVCs (thread yields) use conservative resume scheduling (resume =
    enter, kills disabled). *)

module SS : Set.S with type elt = string and type t = Set.Make(String).t

(** The slice of an operation the analysis needs, kept abstract so this
    module does not depend on the partitioning layer. *)
type op_view = {
  ov_name : string;
  ov_entry : string;
  ov_funcs : SS.t;   (** member functions, icall targets included *)
  ov_slots : SS.t;   (** shadowed (external) globals the op may access *)
  ov_killed : SS.t;  (** slots provably overwritten before any read
                         ({!Dataflow.killed_of} on [ov_entry]) *)
}

type t

val compute :
  ops:op_view list ->
  callgraph:Callgraph.t ->
  rw:Dataflow.t ->
  escaped:SS.t ->
  sanitized:SS.t ->
  ptr_vars:SS.t ->
  has_irq:bool ->
  conservative_resume:bool ->
  t

(** Operation names, in partition order. *)
val ops : t -> string list

(** An operation's shadow-slot domain, as given at construction. *)
val slots_of : t -> string -> SS.t

(** Raw may-read/may-write sets over all globals (not just slots). *)
val may_read : t -> string -> SS.t

val may_write : t -> string -> SS.t

(** Slots to write back at a sync-out of the operation. *)
val out_set : t -> string -> SS.t

(** Slots to refill when entering the operation fresh. *)
val enter_set : t -> string -> SS.t

(** Slots to refill when [dst] resumes after [src] exits.  Falls back to
    the conservative per-destination set for unknown pairs and under
    conservative scheduling. *)
val resume_set : t -> src:string -> dst:string -> SS.t

(** Slots the operation can observe at all (may-read ∪ may-write ∪
    escaped, restricted to its slots). *)
val relevant_set : t -> string -> SS.t

(** Slots mapped read-only onto the master: read but provably never
    written, not escaped, not sanitized, no pointer fields.  Disjoint
    from every copy schedule. *)
val ro_set : t -> string -> SS.t

(** May-written slots of the operation that no other operation can
    observe: excluded from its OUT set (dead publish). *)
val unobserved_set : t -> string -> SS.t

(** Union of all operations' unobserved sets: globals whose master is
    never refreshed, which external checkers must not compare against a
    baseline's final memory. *)
val unobserved : t -> SS.t

(** Globals with no static write bound (see
    {!Dataflow.escaped_globals}). *)
val escaped : t -> SS.t

(** Whether resume scheduling fell back to the enter sets. *)
val conservative_resume : t -> bool

(** (src, dst) pairs carrying an explicit resume schedule; empty under
    conservative scheduling. *)
val pairs : t -> (string * string) list
