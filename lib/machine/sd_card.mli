(** SDIO + SD card model with 512-byte blocks: CMD +0, ARG +4, DATA +8,
    STATUS +0xC (bit0 present, bit1 transfer-ready). *)

type handle

val cmd : int
val arg : int
val data : int
val status : int
val cmd_read : int
val cmd_write : int
val block_size : int
val status_present : int
val status_ready : int

(** [busy_interval] models the transfer time: STATUS polls after a
    command before ready asserts. *)
val create : ?busy_interval:int -> string -> base:int -> Device.t * handle

(** Preload a block's contents (truncated/zero-padded to 512 bytes). *)
val preload : handle -> int -> string -> unit

(** Read a block back out of the card. *)
val block : handle -> int -> string

val set_present : handle -> bool -> unit
