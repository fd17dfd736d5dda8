(* SDIO + SD card model with 512-byte blocks.

   Protocol used by the HAL substrate:
   - write the block number to [arg] (0x04);
   - write command [cmd_read]/[cmd_write] to [cmd] (0x00);
   - then stream the 512 bytes of the selected block through [data]
     (0x08) as 128 word reads or writes;
   - [status] (0x0C) reads 1 when a card is present.

   The handle preloads and inspects blocks (pictures on the SD card for
   Animation/LCD-uSD, the FAT volume for FatFs-uSD). *)

type handle = {
  blocks : (int, Bytes.t) Hashtbl.t;
  mutable current : int;     (* selected block *)
  mutable cursor : int;      (* byte offset within the block transfer *)
  mutable present : bool;
  mutable busy_interval : int;  (* STATUS polls until transfer-ready *)
  mutable busy : int;
}

let cmd = 0x00
let arg = 0x04
let data = 0x08
let status = 0x0C
let cmd_read = 17
let cmd_write = 24
let block_size = 512

let get_block h n =
  match Hashtbl.find_opt h.blocks n with
  | Some b -> b
  | None ->
    let b = Bytes.make block_size '\000' in
    Hashtbl.add h.blocks n b;
    b

let status_present = 0x1
let status_ready = 0x2

let create ?(busy_interval = 0) name ~base =
  let h =
    { blocks = Hashtbl.create 64; current = 0; cursor = 0; present = true;
      busy_interval; busy = 0 }
  in
  let pending_arg = ref 0 in
  let read off width =
    if off = status then begin
      let ready =
        if h.busy <= 0 then true
        else begin
          h.busy <- h.busy - 1;
          false
        end
      in
      Int64.of_int
        ((if h.present then status_present else 0)
        lor if ready then status_ready else 0)
    end
    else if off = data then begin
      let b = get_block h h.current in
      let v =
        let rec go i acc =
          if i < 0 then acc
          else
            let byte =
              if h.cursor + i < block_size then
                Char.code (Bytes.get b (h.cursor + i))
              else 0
            in
            go (i - 1) (Int64.logor (Int64.shift_left acc 8) (Int64.of_int byte))
        in
        go (width - 1) 0L
      in
      h.cursor <- h.cursor + width;
      v
    end
    else 0L
  in
  let write off width v =
    if off = arg then pending_arg := Int64.to_int v
    else if off = cmd then begin
      h.current <- !pending_arg;
      h.cursor <- 0;
      h.busy <- h.busy_interval;
      ignore (get_block h h.current);
      ignore (Int64.to_int v)
    end
    else if off = data then begin
      let b = get_block h h.current in
      for i = 0 to width - 1 do
        if h.cursor + i < block_size then
          Bytes.set b (h.cursor + i)
            (Char.chr
               (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
      done;
      h.cursor <- h.cursor + width
    end
  in
  (Device.v name ~base ~size:0x400 ~read ~write, h)

let preload h n contents =
  let b = Bytes.make block_size '\000' in
  Bytes.blit_string contents 0 b 0 (min (String.length contents) block_size);
  Hashtbl.replace h.blocks n b

let block h n = Bytes.to_string (get_block h n)
let set_present h p = h.present <- p
