(** The ARMv7-M 4 GiB memory map (paper, Figure 2) and the two
    evaluation boards' memory budgets (Section 6.3). *)

val code_base : int
val code_limit : int

(** STM32 parts alias flash into the code region at this base. *)
val flash_base : int

val sram_base : int
val sram_region_limit : int
val periph_base : int
val periph_limit : int
val external_ram_base : int
val external_device_base : int
val external_device_limit : int

(** Private Peripheral Bus: privileged-only core peripherals. *)
val ppb_base : int

val ppb_limit : int
val vendor_base : int

type region_kind =
  | Code
  | Sram
  | Peripheral
  | External_ram
  | External_device
  | Ppb
  | Vendor

(** Architectural classification of an address. *)
val classify : int -> region_kind

type board = {
  board_name : string;
  flash_size : int;  (** bytes of flash at {!flash_base} *)
  sram_size : int;   (** bytes of SRAM at {!sram_base} *)
}

(** 1 MiB flash, 192 KiB SRAM. *)
val stm32f4_discovery : board

(** 2 MiB flash, 288 KiB SRAM. *)
val stm32479i_eval : board

