(** Ethernet MAC model: STATUS +0 (frame waiting), RXLEN +4, RXDATA +8,
    TXDATA +0xC, TXCTRL +0x10 (commit). *)

type handle

val status : int
val rx_len : int
val rx_data : int
val tx_data : int
val tx_ctrl : int

(** [frame_interval] models the inter-frame gap: STATUS polls between
    frame arrivals. *)
val create : ?frame_interval:int -> string -> base:int -> Device.t * handle

val inject_frame : handle -> string -> unit
val pop_transmitted : handle -> string option
