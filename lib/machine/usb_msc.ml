(* USB mass-storage model (the flash disk the Camera app saves photos to).
   Register layout (byte offsets):
   - [ctrl] 0x00: writing [ctrl_open] starts a new file, [ctrl_close]
     finishes it;
   - [data] 0x04: byte stream appended to the open file.

   The handle lists finished files so the workload driver can verify the
   captured photo arrived intact. *)

type handle = { files : string Queue.t; current : Buffer.t; mutable open_ : bool }

let ctrl = 0x00
let data = 0x04
let ctrl_open = 1
let ctrl_close = 2

let create name ~base =
  let h = { files = Queue.create (); current = Buffer.create 64; open_ = false } in
  let read off _width =
    if off = ctrl then if h.open_ then 1L else 0L else 0L
  in
  let write off _width v =
    if off = ctrl then begin
      match Int64.to_int v with
      | x when x = ctrl_open ->
        Buffer.clear h.current;
        h.open_ <- true
      | x when x = ctrl_close ->
        if h.open_ then Queue.push (Buffer.contents h.current) h.files;
        h.open_ <- false
      | _ -> ()
    end
    else if off = data && h.open_ then
      Buffer.add_char h.current (Char.chr (Int64.to_int v land 0xFF))
  in
  (Device.v name ~base ~size:0x400 ~read ~write, h)

let pop_file h = if Queue.is_empty h.files then None else Some (Queue.pop h.files)
