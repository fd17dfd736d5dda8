(** Per-operation metadata (Section 4.4): MPU configurations, stack
    information, sanitization values, the peripheral allow list, and the
    relocation entries — stored in flash and costed into the image's
    flash overhead. *)

type op_meta = {
  op : Operation.t;
  section : Layout.section option;
  uses_heap : bool;  (** map the heap section read-write for this op *)
  shadow_slots : (string * int) list;  (** shared var -> shadow addr *)
  sanitize : Dev_input.sanitize_rule list;
  stack_info : Dev_input.stack_info option;
  periph_regions : Opec_machine.Mpu.region list;
  bytes : int;  (** modeled metadata footprint *)
}

val bytes_of :
  shadow_count:int -> periph_region_count:int -> sanitize_count:int ->
  stack_args:int -> int

(** Build the metadata table; [cls] marks the heap-using operations and
    [periph_regions] plans an operation's peripheral MPU regions
    ([Backend_plan.peripheral_regions]). *)
val build :
  ?cls:Partition.classification ->
  periph_regions:(Operation.t -> Opec_machine.Mpu.region list) ->
  Layout.t -> Dev_input.t -> Operation.t list -> (string * op_meta) list

val total_bytes : (string * op_meta) list -> int
