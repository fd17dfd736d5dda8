(* The switch-storm firmware: a request generator behind one operation
   crossing per request.

   Built here from the public IR / device / app API (the bundled load
   scenarios keep their runner private).  A request-generator register
   window sits at 0x4000_0000: AVAIL at +0 (non-zero when a request is
   ready), POP at +4 (reads consume one request and return its payload
   byte), RESP at +8 (writes answer the request just popped), DONE at
   +12 (the firmware's final tally).  [main] polls AVAIL from the
   default operation and crosses into [serve_request] once per request,
   so every request costs one Enter and one Exit switch; [handled] is
   written inside the operation and read from the default one, so it is
   shared and every switch synchronizes it.

   The workload seed draws the request script — the number of idle
   AVAIL polls before each request and each request's payload byte —
   and the device checks every response and the final tally against
   it. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module C = Opec_core
module Apps = Opec_apps

let base = 0x4000_0000
let size = 0x400

type script = { idle : int array; payload : int array }

let script ~seed requests =
  let rng = Random.State.make [| 0x5707; seed |] in
  { idle = Array.init requests (fun _ -> Random.State.int rng 4);
    payload = Array.init requests (fun _ -> Random.State.int rng 256) }

let program requests =
  let periph = Peripheral.v "REQGEN" ~base ~size in
  Program.v ~name:"switch-storm"
    ~globals:[ word "handled"; word "total" ~init:(Int64.of_int requests) ]
    ~peripherals:[ periph ]
    ~funcs:
      [ func "serve_request" [ pw "v" ] ~file:"server.c"
          [ store (reg periph 8) E.(l "v" + c 1);
            load "n" (gv "handled");
            store (gv "handled") E.(l "n" + c 1);
            ret0 ];
        func "main" [] ~file:"main.c"
          [ load "want" (gv "total");
            set "done_" (c 0);
            while_
              E.(l "done_" < l "want")
              [ load "avail" (reg periph 0);
                if_
                  E.(l "avail" != c 0)
                  [ load "v" (reg periph 4);
                    call "serve_request" [ l "v" ];
                    set "done_" E.(l "done_" + c 1) ]
                  [] ];
            load "h" (gv "handled");
            store (reg periph 12) (l "h");
            halt ] ]
    ()

(* A fresh device over [s]: replays the script and checks every
   response. *)
let world (s : script) () =
  let n = Array.length s.payload in
  let next = ref 0 in        (* requests popped *)
  let idle_left = ref (if n > 0 then s.idle.(0) else 0) in
  let answered = ref 0 in
  let wrong = ref 0 in
  let tally = ref (-1) in
  let read off _w =
    match off with
    | 0 ->
      if !next >= n then 0L
      else if !idle_left > 0 then begin
        decr idle_left;
        0L
      end
      else 1L
    | 4 ->
      if !next >= n then 0L
      else begin
        let v = s.payload.(!next) in
        incr next;
        if !next < n then idle_left := s.idle.(!next);
        Int64.of_int v
      end
    | _ -> 0L
  in
  let write off _w v =
    match off with
    | 8 ->
      let i = !next - 1 in
      if i < 0 || i <> !answered || v <> Int64.of_int (s.payload.(i) + 1)
      then incr wrong;
      incr answered
    | 12 -> tally := Int64.to_int v
    | _ -> ()
  in
  let dev = M.Device.v "REQGEN" ~base ~size ~read ~write in
  let check () =
    if !wrong > 0 then Error (Printf.sprintf "%d wrong responses" !wrong)
    else if !answered <> n then
      Error (Printf.sprintf "answered %d of %d requests" !answered n)
    else if !tally <> n then
      Error (Printf.sprintf "firmware tally %d, expected %d" !tally n)
    else Ok ()
  in
  { Apps.App.devices = [ dev ]; prepare = (fun () -> ()); check }

let app ~seed requests =
  { Apps.App.app_name = "switch-storm";
    board = M.Memmap.stm32f4_discovery;
    program = program requests;
    dev_input = C.Dev_input.v [ "serve_request" ];
    make_world = world (script ~seed requests) }
