(** The system bus: routes accesses to flash, SRAM, mapped devices, and
    the PPB, enforcing MPU and privilege rules (Section 2).

    PPB accesses require the privileged level (else {!Fault.Bus}); all
    other accesses are MPU-checked; unmapped addresses and flash writes
    bus-fault.  Allowed checks are remembered in a small cache of
    permitted windows (a software TLB), tagged with the privilege level
    and the backend's {!Backend.gen}; misses and denials take
    {!Backend.check}, so every outcome, fault info included, equals the
    uncached check. *)

(** Private: the backend changes only through {!set_protection}, which
    flushes the window cache. *)
type t = private {
  flash : Memory.t;
  sram : Memory.t;
  mutable devices : Device.t list;
  mutable prot : Backend.state;
  cpu : Cpu.t;
  cache : int array;
}

val create : board:Memmap.board -> t

(** Swap the enforcement backend and flush the window cache.  A new bus
    carries a fresh, disabled MPU ([Backend.create Mpu]), which allows
    every access: the unprotected baseline machine. *)
val set_protection : t -> Backend.state -> unit

val protection : t -> Backend.state

(** Map a device window onto the bus. Devices attached later take
    precedence on overlapping ranges. *)
val attach : t -> Device.t -> unit

val find_device : t -> int -> Device.t option

(** [read t addr width] / [write t addr width v] perform checked
    accesses at the CPU's current privilege level, charging one cycle. *)
val read : t -> int -> int -> int64

val write : t -> int -> int -> int64 -> unit

(** Fast paths for accesses whose region was resolved at translation
    time (the closure-compiled interpreter engine): identical charge,
    MPU check, and faults to {!read}/{!write}, skipping only the region
    classification and memory-range scans.  The caller guarantees the
    routing precondition — the address lies in the named region. *)
val read_sram : t -> int -> int -> int64

val write_sram : t -> int -> int -> int64 -> unit

val read_flash : t -> int -> int -> int64

val read_device : t -> int -> int -> int64

val write_device : t -> int -> int -> int64 -> unit

(** Privileged raw accessors for the loader and the monitor: bypass the
    MPU (background map) but still route to devices. *)
val read_raw : t -> int -> int -> int64

val write_raw : t -> int -> int -> int64 -> unit

(** Instruction-fetch permission check for a function entry address. *)
val check_execute : t -> int -> unit
