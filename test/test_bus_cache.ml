(* Differential tests for the bus's permitted-window cache against the
   uncached reference, {!Backend.check}, under all four backends.

   The first property drives a bus through random sequences of backend
   setter calls, backend swaps, privilege flips (direct writes and
   [Cpu.with_privilege]) and reads, writes and execute checks through
   every bus entry point.  Before each access it asks [Backend.check]
   on the same state what the outcome must be, and asserts the bus
   produced exactly that: no fault, or the same [Fault.info] in a
   [Mem_manage] fault.  The second property checks each backend's
   [window] on its own: every address in the window of an allowed
   access gets the same [check] outcome as the probe, checked at every
   edge of the state inside the window.  A third test fires each
   invalidation event once, deterministically. *)

module M = Opec_machine
module Fault = M.Fault
module G = QCheck.Gen

(* Accesses land in three 16 KiB arenas — flash, SRAM, peripherals —
   so windows span several 4 KiB pages and several cache slots.  SRAM
   is drawn most often, so that windows and accesses meet. *)
let arena_bytes = 0x4000

let gen_arena =
  G.frequency
    [ (4, G.return M.Memmap.sram_base);
      (1, G.return M.Memmap.flash_base);
      (1, G.return M.Memmap.periph_base) ]

(* a [2^log2]-aligned base inside an arena *)
let gen_aligned log2 =
  G.map2
    (fun a k -> a + (k lsl log2))
    gen_arena
    (G.int_bound ((arena_bytes lsr log2) - 1))

(* --- backend setters ----------------------------------------------------- *)

type setter = { s_label : string; s_apply : M.Backend.state -> unit }

let gen_mpu_perm = G.oneofl M.Mpu.[ No_access; Read_only; Read_write ]

let gen_mpu_setter =
  let region =
    G.(
      int_range M.Mpu.min_size_log2 13 >>= fun log2 ->
      gen_aligned log2 >>= fun base ->
      (if log2 >= M.Mpu.subregion_min_log2 then int_bound 0xFF else return 0)
      >>= fun srd ->
      gen_mpu_perm >>= fun privileged ->
      gen_mpu_perm >>= fun unprivileged ->
      bool >|= fun executable ->
      M.Mpu.region ~srd ~executable ~base ~size_log2:log2 ~privileged
        ~unprivileged ())
  in
  let on f = function M.Backend.Mpu_state m -> f m | _ -> assert false in
  G.frequency
    [ ( 8,
        G.map2
          (fun slot r ->
            { s_label =
                Fmt.str "set %d %a" slot
                  Fmt.(option ~none:(any "none") M.Mpu.pp_region) r;
              s_apply = on (fun m -> M.Mpu.set m slot r) })
          (G.int_bound (M.Mpu.region_count - 1))
          (G.opt ~ratio:0.85 region) );
      (2, G.return { s_label = "enable"; s_apply = on M.Mpu.enable });
      (1, G.return { s_label = "disable"; s_apply = on M.Mpu.disable });
      (1, G.return { s_label = "clear"; s_apply = on M.Mpu.clear }) ]

let gen_pmp_setter =
  let entry =
    G.(
      bool >>= fun r ->
      bool >>= fun w ->
      bool >>= fun x ->
      bool >>= fun locked ->
      frequency
        [ (1, return { M.Pmp.mode = M.Pmp.Off; r; w; x; locked });
          ( 4,
            int_range 3 13 >>= fun log2 ->
            gen_aligned log2 >|= fun base ->
            M.Pmp.napot ~locked ~base ~size_log2:log2 ~r ~w ~x () );
          ( 2,
            gen_arena >>= fun a ->
            int_bound (arena_bytes - 1) >>= fun lo ->
            int_bound (arena_bytes - lo) >|= fun len ->
            M.Pmp.tor ~locked ~base:(a + lo) ~limit:(a + lo + len) ~r ~w ~x ())
        ])
  in
  let on f = function M.Backend.Pmp_state p -> f p | _ -> assert false in
  G.frequency
    [ ( 8,
        G.map2
          (fun i e ->
            { s_label = Fmt.str "set %d %a" i M.Pmp.pp_entry e;
              s_apply = on (fun p -> M.Pmp.set p i e) })
          (G.int_bound (M.Pmp.entry_count - 1))
          entry );
      (2, G.return { s_label = "enable"; s_apply = on M.Pmp.enable }) ]

let gen_cheri_setter =
  let cap =
    G.(
      gen_arena >>= fun a ->
      int_bound (arena_bytes - 1) >>= fun off ->
      int_range 1 (min 4096 (arena_bytes - off)) >>= fun len ->
      bool >>= fun r ->
      bool >>= fun w ->
      bool >|= fun x -> M.Cheri.cap ~r ~w ~x ~base:(a + off) ~len ())
  in
  let on f = function M.Backend.Cheri_state c -> f c | _ -> assert false in
  G.frequency
    [ ( 6,
        G.map
          (fun c ->
            { s_label = Fmt.str "add %a" M.Cheri.pp_cap c;
              s_apply = on (fun t -> M.Cheri.add t c) })
          cap );
      ( 2,
        G.map
          (fun cs ->
            { s_label =
                Fmt.str "grant [%a]" Fmt.(list ~sep:semi M.Cheri.pp_cap) cs;
              s_apply = on (fun t -> M.Cheri.grant t cs) })
          (G.list_size (G.int_bound 3) cap) );
      (2, G.return { s_label = "enable"; s_apply = on M.Cheri.enable });
      (1, G.return { s_label = "clear"; s_apply = on M.Cheri.clear }) ]

(* POE programs use only keys 0..3, so windows and permission
   registers meet often; [addr] picks the window a retag hits, as the
   monitor's key recycling retags the window of a faulting address *)
let gen_poe_setter addr =
  let gen_key = G.int_range M.Poe.no_key 3 in
  let on f = function M.Backend.Poe_state p -> f p | _ -> assert false in
  G.frequency
    [ ( 6,
        G.(
          gen_arena >>= fun a ->
          int_bound ((arena_bytes / M.Poe.granule) - 1) >>= fun lo ->
          int_range 1 ((arena_bytes / M.Poe.granule) - lo) >>= fun n ->
          gen_key >|= fun key ->
          let base = a + (lo * M.Poe.granule) in
          let ov = M.Poe.overlay ~key ~base ~limit:(base + (n * M.Poe.granule)) () in
          { s_label = Fmt.str "add %a" M.Poe.pp_overlay ov;
            s_apply = on (fun p -> M.Poe.add p ov) }) );
      ( 3,
        G.(
          int_bound 3 >>= fun k ->
          bool >>= fun x ->
          oneofl M.Poe.[ No_access; Read_only; Read_write ] >|= fun perm ->
          { s_label = Printf.sprintf "set_key %d" k;
            s_apply = on (fun p -> M.Poe.set_key p k ~x perm) }) );
      ( 2,
        G.map
          (fun k ->
            { s_label = Printf.sprintf "reclaim_key %d" k;
              s_apply = on (fun p -> ignore (M.Poe.reclaim_key p k)) })
          (G.int_bound 3) );
      ( 4,
        G.map2
          (fun a k ->
            { s_label = Printf.sprintf "retag the window at 0x%08X to %d" a k;
              s_apply =
                on (fun p ->
                    match M.Poe.find p a with
                    | Some ov -> M.Poe.retag p ov k
                    | None -> ()) })
          addr
          (G.frequency [ (2, G.return M.Poe.no_key); (3, G.int_bound 3) ]) );
      (2, G.return { s_label = "enable"; s_apply = on M.Poe.enable });
      (1, G.return { s_label = "clear"; s_apply = on M.Poe.clear }) ]

let gen_setter kind addr =
  match kind with
  | M.Backend.Mpu -> gen_mpu_setter
  | M.Backend.Pmp -> gen_pmp_setter
  | M.Backend.Cheri -> gen_cheri_setter
  | M.Backend.Poe -> gen_poe_setter addr

(* --- bus programs -------------------------------------------------------- *)

(* Bus entry points: the generic routed accessors and the engine's
   translation-time fast paths ([Fast_*] picks the one the address's
   arena routes to). *)
type route = Read | Write | Fast_read | Fast_write | Exec

type op =
  | Set of setter
  | Swap  (** install the other state of the same kind *)
  | Fresh
      (** install a fresh, enabled state whose generation equals the
          current one's — a stale cache entry would pass for valid *)
  | Priv of bool  (** direct write to [cpu.privileged] *)
  | Access of { route : route; addr : int; elevated : bool }
      (** [elevated]: run under [Cpu.with_privilege] *)

let pp_route fmt r =
  Fmt.string fmt
    (match r with
    | Read -> "read"
    | Write -> "write"
    | Fast_read -> "fast-read"
    | Fast_write -> "fast-write"
    | Exec -> "exec")

let pp_op fmt = function
  | Set s -> Fmt.pf fmt "setter: %s" s.s_label
  | Swap -> Fmt.string fmt "swap state"
  | Fresh -> Fmt.string fmt "fresh state at the same generation"
  | Priv b -> Fmt.pf fmt "cpu.privileged <- %b" b
  | Access { route; addr; elevated } ->
    Fmt.pf fmt "%a 0x%08X%s" pp_route route addr
      (if elevated then " (with_privilege)" else "")

let gen_addr = G.map2 ( + ) gen_arena (G.int_bound (arena_bytes - 4))

(* Addresses come mostly from a small per-program pool in one arena, so
   accesses repeat (hits on a cached address) and distinct addresses
   share cache slots (misses that compute a window); fresh random ones
   are mixed in. *)
let gen_program kind =
  G.(
    gen_arena >>= fun arena ->
    list_size (int_range 2 8) (map (( + ) arena) (int_bound (arena_bytes - 4)))
    >>= fun pool ->
    let addr = frequency [ (3, oneofl pool); (1, gen_addr) ] in
    let access =
      map3
        (fun route addr elevated -> Access { route; addr; elevated })
        (oneofl [ Read; Write; Fast_read; Fast_write; Exec ])
        addr
        (frequency [ (4, return false); (1, return true) ])
    in
    list_size (int_range 10 120)
      (frequency
         [ (6, map (fun s -> Set s) (gen_setter kind addr));
           (1, return Swap);
           (1, return Fresh);
           (2, map (fun b -> Priv b) bool);
           (16, access) ]))

let access_of = function
  | Read | Fast_read -> Fault.Read
  | Write | Fast_write -> Fault.Write
  | Exec -> Fault.Execute

let perform bus route addr =
  let in_arena base = addr >= base && addr < base + arena_bytes in
  match route with
  | Read -> ignore (M.Bus.read bus addr 4)
  | Write -> M.Bus.write bus addr 4 0L
  | Exec -> M.Bus.check_execute bus addr
  | Fast_read ->
    if in_arena M.Memmap.flash_base then ignore (M.Bus.read_flash bus addr 4)
    else if in_arena M.Memmap.sram_base then ignore (M.Bus.read_sram bus addr 4)
    else ignore (M.Bus.read_routed bus (M.Bus.route bus addr) addr 4)
  | Fast_write ->
    if in_arena M.Memmap.sram_base then M.Bus.write_sram bus addr 4 0L
    else if in_arena M.Memmap.periph_base then
      M.Bus.write_routed bus (M.Bus.route bus addr) addr 4 0L
    else M.Bus.write bus addr 4 0L

(* Enable a state; on POE also open keys 0..3, so that a retag, a key
   reclaim or a closing [set_key] is what shuts a window. *)
let open_state st =
  M.Backend.enable st;
  match st with
  | M.Backend.Poe_state p ->
    for k = 0 to 3 do M.Poe.set_key p k ~x:true M.Poe.Read_write done
  | _ -> ()

(* Run a program; [Error msg] names the first access whose bus outcome
   differs from [Backend.check] on the same state. *)
let run_program kind ops =
  let bus = M.Bus.create ~board:M.Memmap.stm32f4_discovery in
  M.Bus.attach bus
    (M.Device.stub "periph" ~base:M.Memmap.periph_base ~size:arena_bytes);
  (* every backend starts installed through [set_protection], as
     [Runner.prepare] installs it *)
  let current = ref (M.Backend.create kind) in
  M.Bus.set_protection bus !current;
  let other = ref (M.Backend.create kind) in
  List.iter open_state [ !current; !other ];
  let cpu = bus.M.Bus.cpu in
  (* start where the firmware runs: in an operation, unprivileged *)
  cpu.M.Cpu.privileged <- false;
  let step = function
    | Set s -> s.s_apply !current; Ok ()
    | Swap ->
      let st = !other in
      other := !current;
      current := st;
      M.Bus.set_protection bus st;
      Ok ()
    | Fresh ->
      (* [enable] bumps the generation by exactly one *)
      let st = M.Backend.create kind in
      for _ = 1 to M.Backend.gen !current do M.Backend.enable st done;
      current := st;
      M.Bus.set_protection bus st;
      Ok ()
    | Priv b ->
      cpu.M.Cpu.privileged <- b;
      Ok ()
    | Access { route; addr; elevated } ->
      let go () =
        let access = access_of route in
        let expected =
          M.Backend.check !current ~privileged:cpu.M.Cpu.privileged ~addr
            ~access
        in
        let observed =
          match perform bus route addr with
          | () -> Ok ()
          | exception Fault.Mem_manage info -> Error info
          (* a bus fault comes after the enforcement check passed *)
          | exception Fault.Bus _ -> Ok ()
        in
        if expected = observed then Ok ()
        else
          let pp_outcome fmt = function
            | Ok () -> Fmt.string fmt "allowed"
            | Error i -> Fmt.pf fmt "fault (%a)" Fault.pp_info i
          in
          Error
            (Fmt.str "%a: bus %a, Backend.check %a" pp_route route pp_outcome
               observed pp_outcome expected)
      in
      if elevated then M.Cpu.with_privilege cpu go else go ()
  in
  let rec loop i = function
    | [] -> Ok ()
    | op :: rest -> (
      match step op with
      | Ok () -> loop (i + 1) rest
      | Error e -> Error (Printf.sprintf "op %d: %s" i e))
  in
  loop 0 ops

let prop_cache_matches_check kind =
  let name = M.Backend.kind_name kind in
  QCheck.Test.make
    ~name:(name ^ ": cached bus agrees with Backend.check")
    ~count:500
    (QCheck.make
       ~print:(fun ops -> Fmt.str "@[<v>%a@]" Fmt.(list pp_op) ops)
       (gen_program kind))
    (fun ops ->
      match run_program kind ops with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* --- window soundness ---------------------------------------------------- *)

(* A random enforcing state: opened first, then random setters (which
   may disable it again — the window must hold then too). *)
let gen_state kind =
  G.map
    (fun setters ->
      let st = M.Backend.create kind in
      open_state st;
      List.iter (fun s -> s.s_apply st) setters;
      (st, setters))
    (G.list_size (G.int_range 1 24) (gen_setter kind gen_addr))

(* Every address at which some entry of [st] starts or stops matching:
   region and sub-region edges, entry, capability and overlay bounds.
   Between two consecutive edges every [check] outcome is constant. *)
let edges st =
  match st with
  | M.Backend.Mpu_state m ->
    List.concat_map
      (fun slot ->
        match M.Mpu.get m slot with
        | None -> []
        | Some r ->
          let size = 1 lsl r.M.Mpu.size_log2 in
          List.init 9 (fun k -> r.M.Mpu.base + (k * size / 8)))
      (List.init M.Mpu.region_count Fun.id)
  | M.Backend.Pmp_state p ->
    List.concat_map
      (fun i ->
        match (M.Pmp.get p i).M.Pmp.mode with
        | M.Pmp.Off -> []
        | M.Pmp.Napot { base; size_log2 } -> [ base; base + (1 lsl size_log2) ]
        | M.Pmp.Tor { base; limit } -> [ base; limit ])
      (List.init M.Pmp.entry_count Fun.id)
  | M.Backend.Cheri_state c ->
    List.concat_map
      (fun (c : M.Cheri.cap) -> [ c.cap_base; c.cap_base + c.cap_len ])
      (M.Cheri.caps c)
  | M.Backend.Poe_state p ->
    List.concat_map
      (fun (ov : M.Poe.overlay) -> [ ov.ov_base; ov.ov_limit ])
      (M.Poe.overlays p)

let prop_window_sound kind =
  let name = M.Backend.kind_name kind in
  let gen =
    G.(
      gen_state kind >>= fun st ->
      gen_addr >>= fun addr ->
      bool >>= fun privileged ->
      oneofl [ Fault.Read; Fault.Write; Fault.Execute ] >|= fun access ->
      (st, addr, privileged, access))
  in
  let print ((_, setters), addr, privileged, access) =
    Fmt.str "@[<v>%a@,probe %a 0x%08X %s@]"
      Fmt.(list string)
      (List.map (fun s -> s.s_label) setters)
      Fault.pp_access access addr
      (if privileged then "privileged" else "unprivileged")
  in
  QCheck.Test.make
    ~name:(name ^ ": every address in a window gets the probe's outcome")
    ~count:1000 (QCheck.make ~print gen)
    (fun ((st, _), addr, privileged, access) ->
      let allowed ~privileged ~access a =
        Result.is_ok (M.Backend.check st ~privileged ~addr:a ~access)
      in
      (* windows are only defined around allowed accesses *)
      (not (allowed ~privileged ~access addr))
      ||
      let lo, hi = M.Backend.window st ~privileged ~addr ~access in
      if not (lo <= addr && addr < hi) then
        QCheck.Test.fail_reportf "window [%d, %d) misses the probe" lo hi;
      (* outcomes only change at edges, so checking both ends of the
         window and both sides of every edge inside it is exhaustive *)
      let points =
        lo :: (hi - 1)
        :: List.concat_map
             (fun e -> if lo < e && e < hi then [ e - 1; e ] else [])
             (edges st)
      in
      (* MPU and PMP windows are claimed for every privilege and access
         kind, the others for the probe's *)
      let combos =
        match kind with
        | M.Backend.Mpu | M.Backend.Pmp ->
          List.concat_map
            (fun p ->
              List.map (fun a -> (p, a)) [ Fault.Read; Fault.Write; Fault.Execute ])
            [ false; true ]
        | M.Backend.Cheri | M.Backend.Poe -> [ (privileged, access) ]
      in
      List.iter
        (fun a ->
          List.iter
            (fun (privileged, access) ->
              if allowed ~privileged ~access a <> allowed ~privileged ~access addr
              then
                QCheck.Test.fail_reportf
                  "window [0x%X, 0x%X): %a 0x%08X at %s differs from the probe"
                  lo hi Fault.pp_access access a
                  (if privileged then "privileged" else "unprivileged"))
            combos)
        points;
      true)

(* --- invalidation events -------------------------------------------------- *)

(* Each setter that can close a window must close it for the cache too:
   open an unprivileged read window at [addr], read twice (fill, then
   hit), fire the event, and the next read must fault with exactly the
   uncached info.  Swapping the backend for a fresh state at the same
   generation must too. *)
let test_invalidation_events () =
  let addr = M.Memmap.sram_base + 0x100 in
  let base = M.Memmap.sram_base and size_log2 = 12 in
  let mpu_open () =
    let m = M.Mpu.create () in
    M.Mpu.set m 0
      (Some
         (M.Mpu.region ~base ~size_log2 ~privileged:M.Mpu.Read_write
            ~unprivileged:M.Mpu.Read_write ()));
    M.Mpu.enable m;
    m
  in
  let pmp_open () =
    let p = M.Pmp.create () in
    M.Pmp.set p 0 (M.Pmp.napot ~base ~size_log2 ~r:true ~w:true ~x:false ());
    M.Pmp.enable p;
    p
  in
  let cheri_open () =
    let c = M.Cheri.create () in
    M.Cheri.add c (M.Cheri.cap ~r:true ~base ~len:4096 ());
    M.Cheri.enable c;
    c
  in
  let poe_open () =
    let p = M.Poe.create () in
    M.Poe.set_key p 1 M.Poe.Read_write;
    M.Poe.add p (M.Poe.overlay ~key:1 ~base ~limit:(base + 4096) ());
    M.Poe.enable p;
    p
  in
  let poe_window p =
    match M.Poe.find p addr with Some ov -> ov | None -> assert false
  in
  let events =
    [ ( "MPU region rewritten",
        (fun () -> M.Backend.Mpu_state (mpu_open ())),
        function
        | M.Backend.Mpu_state m ->
          M.Mpu.set m 1
            (Some
               (M.Mpu.region ~base:addr ~size_log2:5
                  ~privileged:M.Mpu.Read_write
                  ~unprivileged:M.Mpu.No_access ()))
        | _ -> assert false );
      ( "MPU cleared",
        (fun () -> M.Backend.Mpu_state (mpu_open ())),
        function M.Backend.Mpu_state m -> M.Mpu.clear m | _ -> assert false );
      ( "PMP entry rewritten",
        (fun () -> M.Backend.Pmp_state (pmp_open ())),
        function
        | M.Backend.Pmp_state p ->
          M.Pmp.set p 0
            (M.Pmp.napot ~base ~size_log2 ~r:false ~w:false ~x:false ())
        | _ -> assert false );
      ( "CHERI table cleared",
        (fun () -> M.Backend.Cheri_state (cheri_open ())),
        function M.Backend.Cheri_state c -> M.Cheri.clear c | _ -> assert false );
      ( "POE key closed",
        (fun () -> M.Backend.Poe_state (poe_open ())),
        function
        | M.Backend.Poe_state p -> M.Poe.set_key p 1 M.Poe.No_access
        | _ -> assert false );
      ( "POE key reclaimed",
        (fun () -> M.Backend.Poe_state (poe_open ())),
        function
        | M.Backend.Poe_state p -> ignore (M.Poe.reclaim_key p 1)
        | _ -> assert false );
      ( "POE window retagged",
        (fun () -> M.Backend.Poe_state (poe_open ())),
        function
        | M.Backend.Poe_state p -> M.Poe.retag p (poe_window p) 2
        | _ -> assert false );
      ( "POE overlays cleared",
        (fun () -> M.Backend.Poe_state (poe_open ())),
        function M.Backend.Poe_state p -> M.Poe.clear p | _ -> assert false ) ]
  in
  let read bus = ignore (M.Bus.read bus addr 4) in
  let expect_fault name bus =
    let want =
      { Fault.addr; access = Fault.Read; privileged = false }
    in
    match read bus with
    | () -> Alcotest.failf "%s: read still allowed from a stale window" name
    | exception Fault.Mem_manage info ->
      Alcotest.(check bool) (name ^ ": exact fault info") true (info = want)
  in
  let fresh_bus st =
    let bus = M.Bus.create ~board:M.Memmap.stm32f4_discovery in
    M.Bus.set_protection bus st;
    bus.M.Bus.cpu.M.Cpu.privileged <- false;
    read bus;
    read bus;
    bus
  in
  List.iter
    (fun (name, make, event) ->
      let st = make () in
      let bus = fresh_bus st in
      event st;
      expect_fault name bus)
    events;
  (* a fresh state at the same generation, installed by set_protection *)
  List.iter
    (fun kind ->
      let name = M.Backend.kind_name kind ^ ": fresh state swapped in" in
      let st =
        match kind with
        | M.Backend.Mpu -> M.Backend.Mpu_state (mpu_open ())
        | M.Backend.Pmp -> M.Backend.Pmp_state (pmp_open ())
        | M.Backend.Cheri -> M.Backend.Cheri_state (cheri_open ())
        | M.Backend.Poe -> M.Backend.Poe_state (poe_open ())
      in
      let bus = fresh_bus st in
      let fresh = M.Backend.create kind in
      for _ = 1 to M.Backend.gen st do M.Backend.enable fresh done;
      M.Bus.set_protection bus fresh;
      expect_fault name bus)
    M.Backend.all_kinds

(* --- privileged accessors -------------------------------------------------- *)

(* [Bus.read_priv]/[write_priv] against their reference, [Bus.read]/
   [write] under [Cpu.with_privilege], on two buses whose backend states
   take the same random setters: each access must return the same value
   or raise the same fault, charge the same cycles, leave the same
   privilege level and, for a write, the same memory.  The setters
   reach privileged read-only and no-access MPU regions and locked PMP
   entries, which deny privileged accesses and so must send the fast
   path back to the reference.  Addresses cover the arenas, the last
   words of SRAM (an access straddling its end), the PPB and an
   unmapped address. *)
type priv_op =
  | P_set of setter
  | P_priv of bool  (** the level the accessor is called from *)
  | P_access of { write : bool; addr : int; width : int; value : int64 }

let pp_priv_op fmt = function
  | P_set s -> Fmt.pf fmt "setter: %s" s.s_label
  | P_priv b -> Fmt.pf fmt "cpu.privileged <- %b" b
  | P_access { write; addr; width; value } ->
    if write then Fmt.pf fmt "write_priv 0x%08X/%d <- 0x%Lx" addr width value
    else Fmt.pf fmt "read_priv 0x%08X/%d" addr width

let board = M.Memmap.stm32f4_discovery

let gen_priv_addr =
  let sram_end = M.Memmap.sram_base + board.M.Memmap.sram_size in
  G.frequency
    [ (8, gen_addr);
      (1, G.map (fun k -> sram_end - 1 - k) (G.int_bound 6));
      (1, G.map (fun k -> M.Memmap.ppb_base + (4 * k)) (G.int_bound 16));
      (1, G.return M.Memmap.external_ram_base) ]

let gen_priv_program kind =
  let access =
    G.(
      bool >>= fun write ->
      gen_priv_addr >>= fun addr ->
      oneofl [ 1; 4 ] >>= fun width ->
      map Int64.of_int (int_bound 0xFFFF_FFFF) >|= fun value ->
      P_access { write; addr; width; value })
  in
  G.list_size (G.int_range 10 80)
    (G.frequency
       [ (4, G.map (fun s -> P_set s) (gen_setter kind gen_addr));
         (1, G.map (fun b -> P_priv b) G.bool);
         (8, access) ])

let run_priv_program kind ops =
  let make () =
    let bus = M.Bus.create ~board in
    M.Bus.attach bus
      (M.Device.stub "periph" ~base:M.Memmap.periph_base ~size:arena_bytes);
    let st = M.Backend.create kind in
    open_state st;
    M.Bus.set_protection bus st;
    bus.M.Bus.cpu.M.Cpu.privileged <- false;
    bus
  in
  let fast = make () and slow = make () in
  let outcome f =
    match f () with
    | v -> Ok v
    | exception Fault.Mem_manage i -> Error ("mem-manage", i)
    | exception Fault.Bus i -> Error ("bus", i)
  in
  let pp_outcome fmt = function
    | Ok v -> Fmt.pf fmt "0x%Lx" v
    | Error (what, i) -> Fmt.pf fmt "%s fault (%a)" what Fault.pp_info i
  in
  let in_sram addr = addr >= M.Memmap.sram_base && addr < M.Memmap.sram_base + board.M.Memmap.sram_size in
  let step = function
    | P_set s ->
      s.s_apply (M.Bus.protection fast);
      s.s_apply (M.Bus.protection slow);
      Ok ()
    | P_priv b ->
      fast.M.Bus.cpu.M.Cpu.privileged <- b;
      slow.M.Bus.cpu.M.Cpu.privileged <- b;
      Ok ()
    | P_access { write; addr; width; value } ->
      let got, want =
        if write then
          ( outcome (fun () -> M.Bus.write_priv fast addr width value; 0L),
            outcome (fun () ->
                M.Cpu.with_privilege slow.M.Bus.cpu (fun () ->
                    M.Bus.write slow addr width value);
                0L) )
        else
          ( outcome (fun () -> M.Bus.read_priv fast addr width),
            outcome (fun () ->
                M.Cpu.with_privilege slow.M.Bus.cpu (fun () ->
                    M.Bus.read slow addr width)) )
      in
      let cpu b = b.M.Bus.cpu in
      if got <> want then
        Error (Fmt.str "outcome %a, reference %a" pp_outcome got pp_outcome want)
      else if (cpu fast).M.Cpu.cycles <> (cpu slow).M.Cpu.cycles then
        Error
          (Printf.sprintf "cycles %d, reference %d" (cpu fast).M.Cpu.cycles
             (cpu slow).M.Cpu.cycles)
      else if (cpu fast).M.Cpu.privileged <> (cpu slow).M.Cpu.privileged then
        Error "privilege level not restored"
      else if
        write && in_sram addr
        && M.Bus.read_raw fast addr 1 <> M.Bus.read_raw slow addr 1
      then Error "memory differs after the write"
      else Ok ()
  in
  let rec loop i = function
    | [] -> Ok ()
    | op :: rest -> (
      match step op with
      | Ok () -> loop (i + 1) rest
      | Error e -> Error (Fmt.str "op %d (%a): %s" i pp_priv_op op e))
  in
  loop 0 ops

let prop_priv_accessors kind =
  QCheck.Test.make
    ~name:
      (M.Backend.kind_name kind
     ^ ": read_priv/write_priv = read/write under with_privilege")
    ~count:500
    (QCheck.make
       ~print:(fun ops -> Fmt.str "@[<v>%a@]" Fmt.(list pp_priv_op) ops)
       (gen_priv_program kind))
    (fun ops ->
      match run_priv_program kind ops with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let suite () =
  [ ( "bus-cache",
      Alcotest.test_case "invalidation events close cached windows" `Quick
        test_invalidation_events
      :: List.concat_map
           (fun k ->
             List.map QCheck_alcotest.to_alcotest
               [ prop_cache_matches_check k; prop_window_sound k;
                 prop_priv_accessors k ])
           M.Backend.all_kinds ) ]
