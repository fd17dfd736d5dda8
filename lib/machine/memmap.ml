(* The ARMv7-M 4 GiB memory map (paper, Figure 2) and the two evaluation
   boards' flash/SRAM budgets (Section 6.3). *)

let code_base = 0x0000_0000
let code_limit = 0x2000_0000
let flash_base = 0x0800_0000 (* STM32 aliases flash into the code region *)
let sram_base = 0x2000_0000
let sram_region_limit = 0x4000_0000
let periph_base = 0x4000_0000
let periph_limit = 0x6000_0000
let external_ram_base = 0x6000_0000
let external_device_base = 0xA000_0000
let external_device_limit = 0xE000_0000
let ppb_base = 0xE000_0000
let ppb_limit = 0xE010_0000
let vendor_base = 0xE010_0000

type region_kind =
  | Code
  | Sram
  | Peripheral
  | External_ram
  | External_device
  | Ppb
  | Vendor

let classify addr =
  if addr < code_limit then Code
  else if addr < sram_region_limit then Sram
  else if addr < periph_limit then Peripheral
  else if addr < external_device_base then External_ram
  else if addr < external_device_limit then External_device
  else if addr >= ppb_base && addr < ppb_limit then Ppb
  else Vendor

type board = {
  board_name : string;
  flash_size : int;  (** bytes of flash at [flash_base] *)
  sram_size : int;   (** bytes of SRAM at [sram_base] *)
}

let stm32f4_discovery =
  { board_name = "STM32F4-Discovery";
    flash_size = 1 * 1024 * 1024;
    sram_size = 192 * 1024 }

let stm32479i_eval =
  { board_name = "STM32479I-EVAL";
    flash_size = 2 * 1024 * 1024;
    sram_size = 288 * 1024 }

