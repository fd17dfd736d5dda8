(** MPU region planning (Section 5.2).

    Fixed plan per operation: region 0 background (code + SRAM readable,
    nothing writable unprivileged), region 1 executable code, region 2
    the stack with dynamic sub-region masking, region 3 the operation
    data section, regions 4..7 the merged peripheral ranges (the first
    reserved slot holds the heap section for heap-using operations);
    ranges beyond the budget are virtualized at runtime.  The regions
    are built here; {!Backend_plan} installs and rotates them. *)

module Mpu = Opec_machine.Mpu

val background_region : Mpu.region
val code_region : code_base:int -> code_bytes:int -> Mpu.region
val stack_region : stack_base:int -> ?srd:int -> unit -> Mpu.region
val heap_region : Layout.section -> Mpu.region
val opdata_region : Layout.section -> Mpu.region

(** Cover [lo, hi) with aligned power-of-two chunks (greedy); the reason
    "one peripheral may need two more MPU regions". *)
val cover_range : int * int -> (int * int) list

(** All peripheral regions the operation's merged ranges need. *)
val peripheral_regions : Operation.t -> Mpu.region list
