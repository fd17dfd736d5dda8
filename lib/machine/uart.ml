(* USART model.  Register layout (byte offsets):
   - [sr]  0x00: status — bit0 RXNE (receive not empty), bit1 TXE (transmit
     empty, always set: the model never back-pressures);
   - [dr]  0x04: data — reads pop the RX queue, writes append to TX log.

   The control handle lets a workload driver act as the outside world:
   queue bytes that the firmware will receive, and observe what it sent. *)

type handle = {
  rx : char Queue.t;
  tx : Buffer.t;
  mutable ready_interval : int;  (* SR polls between byte arrivals (baud model) *)
  mutable countdown : int;
}

let sr = 0x00
let dr = 0x04
let sr_rxne = 0x1
let sr_txe = 0x2

let create ?(ready_interval = 0) name ~base =
  let h =
    { rx = Queue.create (); tx = Buffer.create 64; ready_interval;
      countdown = ready_interval }
  in
  let read off _width =
    if off = sr then begin
      (* a byte becomes visible only after the line-rate delay elapses *)
      let rxne =
        if Queue.is_empty h.rx then false
        else if h.countdown <= 0 then true
        else begin
          h.countdown <- h.countdown - 1;
          false
        end
      in
      Int64.of_int (sr_txe lor if rxne then sr_rxne else 0)
    end
    else if off = dr then
      if Queue.is_empty h.rx then 0L
      else begin
        h.countdown <- h.ready_interval;
        Int64.of_int (Char.code (Queue.pop h.rx))
      end
    else 0L
  in
  let write off _width v =
    if off = dr then Buffer.add_char h.tx (Char.chr (Int64.to_int v land 0xFF))
  in
  (Device.v name ~base ~size:0x400 ~read ~write, h)

let inject h s = String.iter (fun c -> Queue.push c h.rx) s
let transmitted h = Buffer.contents h.tx
let set_ready_interval h n =
  h.ready_interval <- n;
  h.countdown <- n
