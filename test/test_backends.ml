(* Tests for the enforcement-backend abstraction: the constraint edges
   that distinguish the four substrates (alignment rounding, match
   priority, key recycling vs region eviction), the MPU backend's
   bit-identity against the recorded pre-refactor campaign, and clean
   cross-backend protected runs through the pipeline. *)

module M = Opec_machine
module C = Opec_core
module L = Opec_lint
module P = Opec_pipeline.Pipeline
module Apps = Opec_apps
module Atk = Opec_attack
module Mon = Opec_monitor
module Json = Opec_json.Json

let pinlock_small () =
  match Apps.Registry.find "PinLock" (Apps.Registry.all_small ()) with
  | Some a -> a
  | None -> Alcotest.fail "PinLock missing from the registry"

(* --- alignment rule: 24 bytes across the four encodings ------------------ *)

(* A 24-byte window: the pow2 units (MPU, PMP) must round it to 32
   bytes, POE rounds to its 32-byte granule, and CHERI — byte-granular
   below the representability threshold — keeps the span exact. *)
let test_region_fit_alignment () =
  let fit k = M.Backend.region_fit (M.Backend.descriptor k) 24 in
  Alcotest.(check (pair int int))
    "MPU rounds 24 B up to a 32 B pow2 region" (32, 32) (fit M.Backend.Mpu);
  Alcotest.(check (pair int int))
    "PMP rounds like a pow2 unit too" (32, 32) (fit M.Backend.Pmp);
  Alcotest.(check (pair int int))
    "POE rounds to its 32 B granule" (32, 32) (fit M.Backend.Poe);
  Alcotest.(check (pair int int))
    "CHERI keeps the 24 B span exact" (1, 24) (fit M.Backend.Cheri);
  (* the same size the MPU's own constructor would pick *)
  Alcotest.(check int) "pow2 fit is Mpu.region_size_for's size"
    (fst (M.Mpu.region_size_for 24))
    (fst (fit M.Backend.Mpu))

(* A capability may sit at a base no pow2 region could encode. *)
let test_cheri_accepts_unaligned () =
  let base = 0x2000_0003 and len = 24 in
  Alcotest.(check (pair int int))
    "24 B at an odd base is representable as-is" (base, len)
    (M.Cheri.round_bounds ~base ~len);
  let t = M.Cheri.create () in
  M.Cheri.add t (M.Cheri.cap ~r:true ~w:true ~base ~len ());
  M.Cheri.enable t;
  let ok addr =
    Result.is_ok (M.Cheri.check t ~privileged:false ~addr ~access:M.Fault.Write)
  in
  Alcotest.(check bool) "first byte writable" true (ok base);
  Alcotest.(check bool) "last byte writable" true (ok (base + len - 1));
  Alcotest.(check bool) "one past the end faults" false (ok (base + len));
  Alcotest.(check bool) "one before the base faults" false (ok (base - 1))

(* --- match priority: PMP lowest-wins vs MPU highest-wins ----------------- *)

(* The same two overlapping windows — a permissive one and a blocking
   one — decide opposite ways on the two units: PMP consults the
   lowest-numbered matching entry, the MPU the highest-numbered
   matching region.  The planner must never rely on one convention. *)
let test_match_priority () =
  let addr = 0x2000_0010 in
  let pmp = M.Pmp.create () in
  M.Pmp.set pmp 0
    (M.Pmp.napot ~base:0x2000_0000 ~size_log2:5 ~r:true ~w:true ~x:false ());
  M.Pmp.set pmp 1
    (M.Pmp.napot ~base:0x2000_0000 ~size_log2:5 ~r:false ~w:false ~x:false ());
  M.Pmp.enable pmp;
  Alcotest.(check bool) "PMP: permissive entry 0 shadows blocking entry 1"
    true
    (Result.is_ok
       (M.Pmp.check pmp ~privileged:false ~addr ~access:M.Fault.Write));
  let mpu = M.Mpu.create () in
  M.Mpu.set mpu 0
    (Some
       (M.Mpu.region ~base:0x2000_0000 ~size_log2:5
          ~privileged:M.Mpu.Read_write ~unprivileged:M.Mpu.Read_write ()));
  M.Mpu.set mpu 1
    (Some
       (M.Mpu.region ~base:0x2000_0000 ~size_log2:5
          ~privileged:M.Mpu.No_access ~unprivileged:M.Mpu.No_access ()));
  M.Mpu.enable mpu;
  Alcotest.(check bool) "MPU: blocking region 1 shadows permissive region 0"
    true
    (Result.is_error
       (M.Mpu.check mpu ~privileged:false ~addr ~access:M.Fault.Write))

(* --- fault model: POE key exhaustion recycles, never evicts -------------- *)

let test_poe_key_recycling () =
  let t = M.Poe.create () in
  for k = 0 to M.Poe.key_count - 1 do
    M.Poe.set_key t k M.Poe.Read_write
  done;
  (* more windows than keys: the excess windows start keyless *)
  let n = M.Poe.key_count + 4 in
  let base_of i = 0x4000_0000 + (i * 64) in
  for i = 0 to n - 1 do
    let key = if i < M.Poe.key_count then i else M.Poe.no_key in
    M.Poe.add t (M.Poe.overlay ~key ~base:(base_of i) ~limit:(base_of i + 32) ())
  done;
  M.Poe.enable t;
  let writable i =
    Result.is_ok
      (M.Poe.check t ~privileged:false ~addr:(base_of i) ~access:M.Fault.Write)
  in
  Alcotest.(check bool) "keyed window accessible" true (writable 3);
  Alcotest.(check bool) "keyless window faults" false (writable M.Poe.key_count);
  (* exhaustion: recycle key 3 onto the faulting keyless window *)
  let victims = M.Poe.reclaim_key t 3 in
  Alcotest.(check int) "reclaim strips exactly the key's windows" 1
    (List.length victims);
  (match M.Poe.find t (base_of M.Poe.key_count) with
  | Some ov -> M.Poe.retag t ov 3
  | None -> Alcotest.fail "keyless window vanished");
  Alcotest.(check int) "no window was evicted" n
    (List.length (M.Poe.overlays t));
  Alcotest.(check bool) "recycled window now accessible" true
    (writable M.Poe.key_count);
  Alcotest.(check bool) "the victim window faults until the key returns"
    false (writable 3)

(* --- entry budgets -------------------------------------------------------- *)

let test_entry_budgets () =
  let budget k = (M.Backend.descriptor k).M.Backend.d_entry_budget in
  Alcotest.(check (option int)) "MPU: 8 regions" (Some M.Mpu.region_count)
    (budget M.Backend.Mpu);
  Alcotest.(check (option int)) "PMP: 16 entries" (Some M.Pmp.entry_count)
    (budget M.Backend.Pmp);
  Alcotest.(check (option int)) "POE budgets its keys, not its windows"
    (Some M.Poe.key_count) (budget M.Backend.Poe);
  Alcotest.(check (option int)) "CHERI tables are unbudgeted" None
    (budget M.Backend.Cheri)

(* --- resident budget: lint and the installer agree ------------------------ *)

(* For every operation under each budgeted backend, the budget lint L003
   reports in its overflow info (or, with no such info, every planned
   peripheral window) is the number of peripheral windows
   [Backend_plan.install] leaves resident: planned MPU regions / PMP
   entries minus the returned overflow, and keyed POE peripheral
   overlays. *)
let check_budget_agreement label (image : C.Image.t) backend =
  let diags = L.Checks.mpu_plan_validity image in
  List.iter
    (fun (op : C.Operation.t) ->
      let name =
        Printf.sprintf "%s %s %s" label (M.Backend.kind_name backend)
          op.C.Operation.name
      in
      let meta = Option.get (C.Image.meta_of image op.C.Operation.name) in
      let planned =
        match backend with
        | M.Backend.Poe -> List.length op.C.Operation.periph_ranges
        | _ -> List.length meta.C.Metadata.periph_regions
      in
      let reported =
        List.find_map
          (fun (d : L.Diag.t) ->
            match d.L.Diag.loc with
            | L.Diag.Operation o
              when o = op.C.Operation.name && d.L.Diag.code = "L003"
                   && d.L.Diag.severity = L.Diag.Info ->
              Some
                (Scanf.sscanf d.L.Diag.message "%d peripheral %s exceed the %d"
                   (fun _ _ b -> b))
            | _ -> None)
          diags
      in
      let st = M.Backend.create backend in
      let heap =
        if meta.C.Metadata.uses_heap then
          image.C.Image.layout.C.Layout.heap_section
        else None
      in
      let overflow =
        C.Backend_plan.install st ~code_base:image.C.Image.code_base
          ~code_bytes:image.C.Image.code_bytes ~layout:image.C.Image.layout
          ~srd:0 ?heap meta.C.Metadata.section op
      in
      let resident =
        match st with
        | M.Backend.Poe_state poe ->
          List.length
            (List.filter
               (fun (ov : M.Poe.overlay) ->
                 ov.M.Poe.ov_key <> M.Poe.no_key
                 && List.exists
                      (fun (lo, hi) ->
                        ov.M.Poe.ov_base < hi && lo < ov.M.Poe.ov_limit)
                      op.C.Operation.periph_ranges)
               (M.Poe.overlays poe))
        | _ -> planned - List.length overflow
      in
      Alcotest.(check int) name (Option.value reported ~default:planned) resident)
    image.C.Image.ops

(* Two synthetic operations that stress the budget.  [dev_task] uses
   the heap and drives five separate peripherals: the heap takes one of
   the reserved MPU regions and one of the free POE keys, so only three
   peripheral windows stay resident, and an installer that forgets the
   heap slot keeps four.  [blk_task] drives two 7 KiB blocks, two merged
   ranges that the region plan splits into three chunks each: six MPU
   or PMP windows, but only two POE keys to hand out. *)
let budget_pressure_program () =
  let module B = Opec_ir.Build in
  let periphs = Apps.Soc.[ usart1; usart2; sdio; ltdc; dma2d ] in
  let blocks =
    List.map
      (fun (name, base) -> Opec_ir.Peripheral.v name ~base ~size:0x1C00)
      [ ("BLK1", 0x4004_0000); ("BLK2", 0x4005_0000) ]
  in
  let touch pes =
    List.map (fun pe -> B.store (B.reg pe 0) (B.l "v")) pes
  in
  let arena_bytes = 1024 in
  Opec_ir.Program.v ~name:"budget-pressure"
    ~globals:(Apps.Kheap.globals ~arena_bytes @ [ B.word "sum" ])
    ~peripherals:(periphs @ blocks)
    ~funcs:
      (Apps.Kheap.funcs ~arena_bytes
      @ [ B.func "dev_task" []
            ([ B.call ~dst:"p" "malloc" [ B.c 16 ];
               B.store (B.l "p") (B.c 7);
               B.load "v" (B.l "p") ]
            @ touch periphs
            @ [ B.call "free" [ B.l "p" ];
                B.store (B.gv "sum") (B.l "v");
                B.ret0 ]);
          B.func "blk_task" []
            ((B.set "v" (B.c 3) :: touch blocks) @ [ B.ret0 ]);
          B.func "main" []
            [ B.call "dev_task" []; B.call "blk_task" []; B.halt ] ])
    ()

let test_budget_agreement () =
  List.iter
    (fun (app : Apps.App.t) ->
      List.iter
        (fun backend ->
          check_budget_agreement app.Apps.App.app_name
            (P.image (P.ctx ~backend app))
            backend)
        M.Backend.[ Mpu; Pmp; Poe ])
    (Apps.Registry.all_small ());
  List.iter
    (fun backend ->
      let image =
        C.Compiler.compile ~backend (budget_pressure_program ())
          (C.Dev_input.v [ "dev_task"; "blk_task" ])
      in
      let meta op = Option.get (C.Image.meta_of image op) in
      let windows op =
        ( List.length (meta op).C.Metadata.op.C.Operation.periph_ranges,
          List.length (meta op).C.Metadata.periph_regions )
      in
      Alcotest.(check bool) "dev_task uses the heap" true
        (meta "dev_task").C.Metadata.uses_heap;
      Alcotest.(check (pair int int)) "dev_task: 5 ranges, 5 regions" (5, 5)
        (windows "dev_task");
      Alcotest.(check (pair int int)) "blk_task: 2 ranges, 6 regions" (2, 6)
        (windows "blk_task");
      check_budget_agreement "budget-pressure" image backend)
    M.Backend.[ Mpu; Pmp; Poe ]

(* --- MPU bit-identity against the pre-refactor recording ----------------- *)

(* The campaign JSON recorded on pre-refactor main (before the backend
   abstraction existed) must be reproduced byte-for-byte by today's MPU
   backend: same injections, same outcomes, same detail strings, same
   cycle counts. *)
let test_mpu_campaign_bit_identity () =
  P.reset ();
  let recorded =
    let ic = open_in_bin "data/pre_refactor_pinlock_campaign.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let ms = Atk.Campaign.run_all [ pinlock_small () ] in
  Alcotest.(check string)
    "MPU campaign JSON bit-identical to the pre-refactor recording"
    (String.trim recorded)
    (String.trim (Atk.Report.to_json ms))

(* --- clean cross-backend protected runs ---------------------------------- *)

(* Transparency must hold under every backend: the clean protected run
   completes (no stuck fault), checks its world, and denies nothing. *)
let test_cross_backend_clean_runs () =
  let app = pinlock_small () in
  List.iter
    (fun backend ->
      let name = M.Backend.kind_name backend in
      let c = P.ctx ~backend app in
      let o = P.protected_obs c in
      P.reraise o.P.o_err;
      Alcotest.(check int) (name ^ ": clean run denial-free") 0
        o.P.o_stats.Mon.Stats.denied;
      Alcotest.(check bool) (name ^ ": operations actually switched") true
        (o.P.o_stats.Mon.Stats.switches > 0))
    M.Backend.all_kinds

(* --- pinned model cycles and monitor statistics ---------------------------- *)

(* Baseline and protected model cycles plus every [Stats] counter of the
   seven paper workloads under all four backends, pinned exactly
   against data/pinned_runs.json.  These numbers are deterministic, so
   any change to them — a faster bus, a new cache, a refactor — must be
   an explicit update of the reference file.  On a mismatch the current
   table is written to pinned_runs.json.actual (next to the test
   binary) so an intended change is regenerated by copying it over the
   reference. *)
let pinned_ref = "data/pinned_runs.json"

let pinned_row (app : Apps.App.t) backend =
  let c = P.ctx ~backend app in
  let b = P.baseline (P.ctx app) in
  let p = P.protected_ c in
  P.reraise b.P.b_err;
  P.reraise p.P.p_err;
  let s = p.P.p_stats in
  let int = Json.int in
  Json.to_string ~layout:Json.Spaced
    (Json.Obj
       [ ("app", Json.Str app.Apps.App.app_name);
         ("backend", Json.Str (M.Backend.kind_name backend));
         ("baseline_cycles", Json.int64 b.P.b_cycles);
         ("protected_cycles", Json.int64 p.P.p_cycles);
         ("switches", int s.Mon.Stats.switches);
         ("synced_bytes", int s.Mon.Stats.synced_bytes);
         ("relocated_bytes", int s.Mon.Stats.relocated_bytes);
         ("virt_swaps", int s.Mon.Stats.virt_swaps);
         ("emulations", int s.Mon.Stats.emulations);
         ("pointer_fixups", int s.Mon.Stats.pointer_fixups);
         ("denied", int s.Mon.Stats.denied);
         ( "checks",
           Json.Str
             (match (b.P.b_check, p.P.p_check) with
             | Ok (), Ok () -> "ok"
             | Error e, _ -> "baseline: " ^ e
             | Ok (), Error e -> "protected: " ^ e) ) ])

(* one row per line, as the reference file is laid out *)
let pinned_table () =
  let rows =
    List.concat_map
      (fun app -> List.map (pinned_row app) M.Backend.all_kinds)
      (Apps.Registry.all ())
  in
  "[\n" ^ String.concat ",\n" rows ^ "\n]\n"

let test_pinned_runs () =
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let actual = pinned_table () in
  let expected = read pinned_ref in
  if not (String.equal expected actual) then begin
    let out = "pinned_runs.json.actual" in
    let oc = open_out_bin out in
    output_string oc actual;
    close_out oc;
    let el = String.split_on_char '\n' expected
    and al = String.split_on_char '\n' actual in
    let rec first_diff = function
      | e :: es, a :: as_ -> if String.equal e a then first_diff (es, as_) else (e, a)
      | e :: _, [] -> (e, "<missing>")
      | [], a :: _ -> ("<missing>", a)
      | [], [] -> ("", "")
    in
    let e, a = first_diff (el, al) in
    Alcotest.failf "pinned runs differ from %s (current table in %s)\n  \
                    expected: %s\n  actual:   %s"
      pinned_ref out e a
  end

(* --- installed-plan snapshots -------------------------------------------- *)

(* A backend state's whole table, read through the units' accessors
   and printers rather than through their snapshots. *)
let poe_perm fmt p =
  Fmt.string fmt
    (match p with
    | M.Poe.No_access -> "NA"
    | M.Poe.Read_only -> "RO"
    | M.Poe.Read_write -> "RW")

let table_of st =
  let open Fmt in
  match st with
  | M.Backend.Mpu_state m ->
    str "enabled=%b restricted=%d@ %a" m.M.Mpu.enabled m.M.Mpu.priv_restricted
      (list ~sep:sp (option ~none:(any "-") M.Mpu.pp_region))
      (List.init M.Mpu.region_count (M.Mpu.get m))
  | M.Backend.Pmp_state p ->
    str "enforcing=%b locked=%d@ %a" p.M.Pmp.enforcing p.M.Pmp.locked_entries
      (list ~sep:sp M.Pmp.pp_entry)
      (List.init M.Pmp.entry_count (M.Pmp.get p))
  | M.Backend.Cheri_state c ->
    str "enforcing=%b@ %a" c.M.Cheri.enforcing (list ~sep:sp M.Cheri.pp_cap)
      (M.Cheri.caps c)
  | M.Backend.Poe_state p ->
    str "enforcing=%b@ %a@ keys %a" p.M.Poe.enforcing
      (list ~sep:sp M.Poe.pp_overlay) (M.Poe.overlays p)
      (list ~sep:sp (pair ~sep:(any "/") poe_perm bool))
      (List.init M.Poe.key_count (M.Poe.key_perm p))

(* Every mask [Monitor]'s [srd_for] can produce: none, or every
   sub-region above the one holding the stack pointer. *)
let srd_masks = 0 :: List.init 7 (fun k -> 0xFF land lnot ((1 lsl (k + 1)) - 1))

(* For every workload, backend, operation and stack mask, an install
   restored from [Backend_plan.install_cached]'s snapshot leaves the
   table a fresh [Backend_plan.install] leaves, and bumps the
   generation as often, after the table was dirtied by another
   operation's plan, by fault-time rotations of the operation's own
   peripheral windows and, on POE, by retagging every overlay in place
   (which must not reach the snapshot's copies).  Two rounds, so a
   restored table is dirtied and restored again. *)
let test_snapshot_restore () =
  List.iter
    (fun (app : Apps.App.t) ->
      List.iter
        (fun kind ->
          let image = P.image (P.ctx ~backend:kind app) in
          let metas = Array.of_list image.C.Image.metas in
          let n = Array.length metas in
          let install_args (meta : C.Metadata.op_meta) =
            let heap =
              if meta.C.Metadata.uses_heap then
                image.C.Image.layout.C.Layout.heap_section
              else None
            in
            (heap, meta.C.Metadata.section, meta.C.Metadata.op)
          in
          let install st ~srd meta =
            let heap, section, op = install_args meta in
            ignore
              (C.Backend_plan.install st ~code_base:image.C.Image.code_base
                 ~code_bytes:image.C.Image.code_bytes
                 ~layout:image.C.Image.layout ~srd ?heap section op)
          in
          Array.iteri
            (fun id (opn, meta) ->
              List.iter
                (fun srd ->
                  let label =
                    Printf.sprintf "%s %s %s srd=0x%02X" app.Apps.App.app_name
                      (M.Backend.kind_name kind) opn srd
                  in
                  let fresh = M.Backend.create kind in
                  let g0 = M.Backend.gen fresh in
                  install fresh ~srd meta;
                  let bumps = M.Backend.gen fresh - g0 in
                  let cache = C.Backend_plan.plan_cache ~ops:n in
                  let st = M.Backend.create kind in
                  let cached () =
                    let heap, section, op = install_args meta in
                    C.Backend_plan.install_cached cache ~id st
                      ~code_base:image.C.Image.code_base
                      ~code_bytes:image.C.Image.code_bytes
                      ~layout:image.C.Image.layout ~srd ?heap section op
                  in
                  cached ();
                  Alcotest.(check string) (label ^ ": first install")
                    (table_of fresh) (table_of st);
                  for round = 1 to 2 do
                    let rotate () =
                      List.iteri
                        (fun i (base, _) ->
                          ignore
                            (C.Backend_plan.rotate st ~meta ~next:(i + round)
                               ~addr:base))
                        meta.C.Metadata.op.C.Operation.periph_ranges
                    in
                    rotate ();
                    (match st with
                    | M.Backend.Poe_state p ->
                      List.iter
                        (fun (ov : M.Poe.overlay) ->
                          M.Poe.retag p ov ((ov.M.Poe.ov_key + 2) mod M.Poe.key_count))
                        (M.Poe.overlays p)
                    | _ -> ());
                    install st ~srd:0 (snd metas.((id + round) mod n));
                    rotate ();
                    let g1 = M.Backend.gen st in
                    cached ();
                    let what = Printf.sprintf "%s: restore %d" label round in
                    Alcotest.(check string) (what ^ " table")
                      (table_of fresh) (table_of st);
                    Alcotest.(check int) (what ^ " generation bumps") bumps
                      (M.Backend.gen st - g1)
                  done)
                srd_masks)
            metas)
        M.Backend.all_kinds)
    (Apps.Registry.all_small ())

let suite () =
  [ ( "backends",
      [ Alcotest.test_case "region_fit alignment edges" `Quick
          test_region_fit_alignment;
        Alcotest.test_case "CHERI accepts unaligned 24 B window" `Quick
          test_cheri_accepts_unaligned;
        Alcotest.test_case "PMP lowest-wins vs MPU highest-wins" `Quick
          test_match_priority;
        Alcotest.test_case "POE exhaustion recycles keys" `Quick
          test_poe_key_recycling;
        Alcotest.test_case "entry budgets per descriptor" `Quick
          test_entry_budgets;
        Alcotest.test_case "MPU campaign bit-identity" `Slow
          test_mpu_campaign_bit_identity;
        Alcotest.test_case "clean runs across all backends" `Slow
          test_cross_backend_clean_runs;
        Alcotest.test_case "pinned cycles and stats, 7 apps x 4 backends"
          `Slow test_pinned_runs;
        Alcotest.test_case "lint budget = resident windows" `Quick
          test_budget_agreement;
        Alcotest.test_case "restored plan snapshot = fresh install" `Quick
          test_snapshot_restore ] ) ]
