(** The system bus: routes accesses to flash, SRAM, mapped devices, and
    the PPB, enforcing MPU and privilege rules (Section 2).

    PPB accesses require the privileged level (else {!Fault.Bus}); all
    other accesses are MPU-checked; unmapped addresses and flash writes
    bus-fault.  Allowed checks are remembered in a small cache of
    permitted windows (a software TLB), tagged with the privilege level
    and the backend's {!Backend.gen}; misses and denials take
    {!Backend.check}, so every outcome, fault info included, equals the
    uncached check.

    Devices are found through a direct-mapped table indexed by the 4 KiB
    page of the address, which {!attach} fills: each slot lists the
    devices whose windows touch its pages, newest first, so on
    overlapping windows the device attached last wins (SysTick, NVIC
    and SCB share the page at 0xE000E000; a world's scripted GPIO port
    overrides the latched default).  A {!type-route} binds an address
    to its device ahead of time, guarded by a device generation that
    every {!attach} bumps. *)

(** Private: the backend changes only through {!set_protection}, which
    flushes the window cache. *)
type t = private {
  flash : Memory.t;
  sram : Memory.t;
  mutable devices : Device.t list;  (** newest first *)
  device_table : Device.t array array;
      (** candidate devices per slot, a slot per 4 KiB page modulo its
          size *)
  mutable device_gen : int;  (** bumped by every {!attach} *)
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

(** The device owning an address: a device-table lookup. *)
val find_device : t -> int -> Device.t option

(** The same answer by scanning the attached devices in attach order,
    newest first: the reference that {!find_device} is tested against. *)
val find_device_linear : t -> int -> Device.t option

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

(** A device lookup done ahead of time: the device owning an address
    (or none) and the device generation it was looked up under. *)
type route

val route : t -> int -> route

(** [read_routed t r addr width] / [write_routed t r addr width v]
    access a device outside flash, SRAM and the PPB, with {!read}'s
    charge, MPU check and faults.  [r] must be [route t addr]; while no
    device has been attached since, its device is used without a
    lookup, otherwise the address is looked up again. *)
val read_routed : t -> route -> int -> int -> int64

val write_routed : t -> route -> int -> int -> int64 -> unit

(** [read_priv t addr width] / [write_priv t addr width v] are
    {!read}/{!write} run under {!Cpu.with_privilege}: the same cycle
    charge, value, stores and faults.  When
    {!Backend.privileged_rw_unrestricted} holds, SRAM accesses skip the
    privilege switch and the enforcement check, which cannot deny them;
    everything else takes that reference path. *)
val read_priv : t -> int -> int -> int64

val write_priv : t -> int -> int -> int64 -> unit

(** Privileged raw accessors for the loader and for instrumentation
    (attack injection, state digests): bypass the enforcement check and
    charge no cycles, but still route to devices. *)
val read_raw : t -> int -> int -> int64

val write_raw : t -> int -> int -> int64 -> unit

(** Instruction-fetch permission check for a function entry address. *)
val check_execute : t -> int -> unit
