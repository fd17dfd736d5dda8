(* Ethernet MAC model.  Register layout (byte offsets):
   - [status]  0x00: bit0 set when a received frame is waiting;
   - [rx_len]  0x04: length in bytes of the waiting frame;
   - [rx_data] 0x08: byte stream of the waiting frame; reading past the end
     pops the frame;
   - [tx_data] 0x0C: byte stream of the frame under construction;
   - [tx_ctrl] 0x10: writing commits the constructed frame.

   The handle injects frames (the TCP-Echo client on the desktop) and pops
   the firmware's replies. *)

type handle = {
  rx : string Queue.t;
  tx : string Queue.t;
  mutable rx_cursor : int;
  tx_buf : Buffer.t;
  mutable frame_interval : int;  (* STATUS polls between frame arrivals *)
  mutable gap : int;
}

let status = 0x00
let rx_len = 0x04
let rx_data = 0x08
let tx_data = 0x0C
let tx_ctrl = 0x10

let create ?(frame_interval = 0) name ~base =
  let h =
    { rx = Queue.create (); tx = Queue.create (); rx_cursor = 0;
      tx_buf = Buffer.create 64; frame_interval; gap = frame_interval }
  in
  let read off _width =
    if off = status then begin
      if Queue.is_empty h.rx then 0L
      else if h.gap <= 0 then 1L
      else begin
        h.gap <- h.gap - 1;
        0L
      end
    end
    else if off = rx_len then
      if Queue.is_empty h.rx then 0L
      else Int64.of_int (String.length (Queue.peek h.rx))
    else if off = rx_data then begin
      if Queue.is_empty h.rx then 0L
      else
        let frame = Queue.peek h.rx in
        let byte =
          if h.rx_cursor < String.length frame then
            Char.code frame.[h.rx_cursor]
          else 0
        in
        h.rx_cursor <- h.rx_cursor + 1;
        if h.rx_cursor >= String.length frame then begin
          ignore (Queue.pop h.rx);
          h.rx_cursor <- 0;
          h.gap <- h.frame_interval
        end;
        Int64.of_int byte
    end
    else 0L
  in
  let write off _width v =
    if off = tx_data then
      Buffer.add_char h.tx_buf (Char.chr (Int64.to_int v land 0xFF))
    else if off = tx_ctrl then begin
      Queue.push (Buffer.contents h.tx_buf) h.tx;
      Buffer.clear h.tx_buf
    end
  in
  (Device.v name ~base ~size:0x1400 ~read ~write, h)

let inject_frame h frame = Queue.push frame h.rx
let pop_transmitted h = if Queue.is_empty h.tx then None else Some (Queue.pop h.tx)
