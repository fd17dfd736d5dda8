(** USART model: SR at +0 (bit0 RXNE, bit1 TXE), DR at +4.  The handle
    scripts the outside world: inject bytes, read the transmit log, and
    set the line-rate delay (SR polls between byte arrivals) that makes
    baseline runs I/O-bound like real firmware. *)

type handle

val sr : int
val dr : int
val sr_rxne : int
val sr_txe : int

val create :
  ?ready_interval:int -> string -> base:int -> Device.t * handle

(** Queue bytes the firmware will receive. *)
val inject : handle -> string -> unit

(** Everything the firmware transmitted so far. *)
val transmitted : handle -> string

(** Change the baud-model delay; also re-arms the countdown. *)
val set_ready_interval : handle -> int -> unit
