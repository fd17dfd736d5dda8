(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) on the simulated substrate, plus bechamel
   micro-benchmarks of the monitor's primitives.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table1  # one artifact
     dune exec bench/main.exe -- pipeline -j 4   # with 4 pool domains
     ... table1 | figure9 | table2 | figure10 | figure11 | table3 | campaign | ablation | micro | pipeline | obs | fleet | backends

   [-j N] sets the size of the shared domain pool for the run, so every
   parallel phase (prewarming, campaign fan-out, the fleet curve's
   all-cores point) uses the requested width; the default is the pool's
   own (recommended-domain-count - 1).

   Absolute numbers differ from the paper (the substrate is a machine
   model, not an STM32 board); the comparisons of EXPERIMENTS.md are about
   the shape of each result.

   Every artifact draws from the compile-once pipeline
   ({!Opec_pipeline.Pipeline}): each target first materializes the
   artifacts it needs with one domain per app, then renders sequentially
   from the cache, so a full sweep compiles and runs each workload
   exactly once.  The [pipeline] target measures the store itself and
   writes BENCH_pipeline.json. *)

module Apps = Opec_apps
module Met = Opec_metrics
module A = Opec_aces
module C = Opec_core
module R = Met.Report
module P = Opec_pipeline.Pipeline
module Json = Opec_json.Json

let say fmt = Format.printf (fmt ^^ "@.")

let strategies =
  [ A.Strategy.Filename; A.Strategy.Filename_no_opt; A.Strategy.By_peripheral ]

(* Materialize the listed stages for every app, one domain per app, so
   the sequential rendering below it hits only the cache.  Pointless
   when caching is off (the legacy emulation): the work would be
   recomputed anyway. *)
let prewarm stages apps =
  if P.caching_enabled () then
    ignore (P.parallel_map (fun c -> List.iter (fun f -> f c) stages) apps)

let w_image c = ignore (P.image c)
let w_baseline c = ignore (P.baseline c)
let w_protected c = ignore (P.protected_ c)
let w_aces c = List.iter (fun k -> ignore (P.aces c k)) strategies

(* ----------------------------------------------------------------- table 1 *)

let table1 () =
  say "%s" (R.heading "Table 1: security evaluation (OPEC)");
  prewarm [ w_image ] (Apps.Registry.all ());
  let rows =
    List.map
      (fun (app : Apps.App.t) ->
        let image = P.image (P.ctx app) in
        Met.Security_eval.of_image ~app:app.Apps.App.app_name image)
      (Apps.Registry.all ())
  in
  let rows = rows @ [ Met.Security_eval.average rows ] in
  let cells (r : Met.Security_eval.row) =
    [ r.Met.Security_eval.app;
      string_of_int r.Met.Security_eval.ops;
      R.f2 r.Met.Security_eval.avg_funcs;
      Printf.sprintf "%d(%.2f)" r.Met.Security_eval.pri_code_bytes
        r.Met.Security_eval.pri_code_pct;
      Printf.sprintf "%.2f(%.2f)" r.Met.Security_eval.avg_gvars_bytes
        r.Met.Security_eval.avg_gvars_pct ]
  in
  say "%s@."
    (R.table
       ~header:[ "Application"; "#OPs"; "#Avg.Funcs"; "#Pri.Code(%)"; "#Avg.GVars(%)" ]
       (List.map cells rows))

(* ---------------------------------------------------------------- figure 9 *)

let figure9 () =
  say "%s" (R.heading "Figure 9: performance overhead of OPEC");
  prewarm [ w_image; w_baseline; w_protected ] (Apps.Registry.all ());
  let rows =
    List.map Met.Overhead.fig9_of_app (Apps.Registry.all ())
  in
  let rows = rows @ [ Met.Overhead.fig9_average rows ] in
  let cells (r : Met.Overhead.fig9_row) =
    [ r.Met.Overhead.app;
      R.pct r.Met.Overhead.runtime_pct;
      R.pct r.Met.Overhead.flash_pct;
      R.pct r.Met.Overhead.sram_pct ]
  in
  say "%s@."
    (R.table ~header:[ "Application"; "Runtime"; "Flash"; "SRAM" ]
       (List.map cells rows))

(* ----------------------------------------------------------------- table 2 *)

let table2 () =
  say "%s" (R.heading "Table 2: OPEC vs ACES (RO runtime x, FO flash %, SO SRAM %, PAC priv. app code %)");
  prewarm
    [ w_image; w_baseline; w_protected; w_aces ]
    (Apps.Registry.aces_apps ());
  let rows =
    List.concat_map Met.Overhead.table2_of_app (Apps.Registry.aces_apps ())
  in
  let cells (r : Met.Overhead.t2_row) =
    [ r.Met.Overhead.t2_app;
      r.Met.Overhead.policy;
      R.f2 r.Met.Overhead.ro;
      R.f2 r.Met.Overhead.fo;
      R.f2 r.Met.Overhead.so;
      R.f2 r.Met.Overhead.pac ]
  in
  say "%s@."
    (R.table ~header:[ "Application"; "Policy"; "RO(X)"; "FO(%)"; "SO(%)"; "PAC(%)" ]
       (List.map cells rows))

(* --------------------------------------------------------------- figure 10 *)

let figure10 () =
  say "%s" (R.heading "Figure 10: cumulative ratio of partition-time over-privilege (PT)");
  prewarm [ w_image; w_aces ] (Apps.Registry.aces_apps ());
  List.iter
    (fun (app : Apps.App.t) ->
      say "-- %s" app.Apps.App.app_name;
      (* OPEC: every operation's PT (0 by construction, computed) *)
      let image = P.image (P.ctx app) in
      let opec_samples = Met.Overprivilege.opec_pt image in
      let max_pt =
        List.fold_left
          (fun acc s -> Float.max acc s.Met.Overprivilege.pt)
          0.0 opec_samples
      in
      say "   OPEC: %d operations, max PT = %.3f" (List.length opec_samples) max_pt;
      List.iter
        (fun kind ->
          let aces = P.aces (P.ctx app) kind in
          let samples = Met.Overprivilege.aces_pt aces in
          let cdf = Met.Overprivilege.cumulative_ratio samples in
          let series =
            String.concat " "
              (List.map (fun (pt, cum) -> Printf.sprintf "(%.2f,%.2f)" pt cum) cdf)
          in
          say "   %s: %s" (A.Strategy.name kind) series)
        strategies)
    (Apps.Registry.aces_apps ());
  say ""

(* --------------------------------------------------------------- figure 11 *)

let figure11 () =
  say "%s" (R.heading "Figure 11: execution-time over-privilege (ET) per task");
  prewarm [ w_image; w_baseline; w_aces ] (Apps.Registry.aces_apps ());
  List.iter
    (fun (app : Apps.App.t) ->
      say "-- %s" app.Apps.App.app_name;
      let c = P.ctx app in
      let baseline = P.baseline c in
      P.reraise baseline.P.b_err;
      let task_instances =
        Opec_exec.Trace.tasks_of ~entries:(Apps.App.task_entries app)
          baseline.P.b_events
      in
      let image = P.image c in
      let opec = Met.Overprivilege.opec_et image ~task_instances in
      let aces_series =
        List.map
          (fun kind ->
            let aces = P.aces (P.ctx app) kind in
            (A.Strategy.name kind, Met.Overprivilege.aces_et aces ~task_instances))
          strategies
      in
      let find series task =
        match
          List.find_opt (fun s -> String.equal s.Met.Overprivilege.task task) series
        with
        | Some s -> R.f2 s.Met.Overprivilege.et
        | None -> "-"
      in
      let rows =
        List.mapi
          (fun i (s : Met.Overprivilege.et_sample) ->
            [ string_of_int (i + 1);
              s.Met.Overprivilege.task;
              R.f2 s.Met.Overprivilege.et;
              find (List.assoc "ACES1" aces_series) s.Met.Overprivilege.task;
              find (List.assoc "ACES2" aces_series) s.Met.Overprivilege.task;
              find (List.assoc "ACES3" aces_series) s.Met.Overprivilege.task ])
          opec
      in
      say "%s@."
        (R.table ~header:[ "#"; "Task"; "OPEC"; "ACES1"; "ACES2"; "ACES3" ] rows))
    (Apps.Registry.aces_apps ())

(* ----------------------------------------------------------------- table 3 *)

let table3 () =
  say "%s" (R.heading "Table 3: efficiency of the icall analysis");
  prewarm [ w_image ] (Apps.Registry.all ());
  let images =
    List.map
      (fun (app : Apps.App.t) -> (app, P.image (P.ctx app)))
      (Apps.Registry.all ())
  in
  let rows =
    List.map
      (fun ((app : Apps.App.t), (image : C.Image.t)) ->
        Met.Icall_eval.of_callgraph ~app:app.Apps.App.app_name
          image.C.Image.callgraph)
      images
  in
  let cells (r : Met.Icall_eval.row) =
    [ r.Met.Icall_eval.app;
      string_of_int r.Met.Icall_eval.icalls;
      string_of_int r.Met.Icall_eval.svf_resolved;
      Printf.sprintf "%.3f" r.Met.Icall_eval.time_s;
      string_of_int r.Met.Icall_eval.type_resolved;
      R.f2 r.Met.Icall_eval.avg_targets;
      string_of_int r.Met.Icall_eval.max_targets ]
  in
  say "%s@."
    (R.table
       ~header:[ "Application"; "#Icall"; "#SVF"; "Time(s)"; "#Type"; "#Avg."; "#Max" ]
       (List.map cells rows));
  (* fixpoint cost on the largest workload, the points-to solver's worst case *)
  let largest, limage =
    List.fold_left
      (fun ((best, _) as acc) ((app : Apps.App.t), image) ->
        if
          List.length app.Apps.App.program.Opec_ir.Program.funcs
          > List.length best.Apps.App.program.Opec_ir.Program.funcs
        then (app, image)
        else acc)
      (List.hd images) (List.tl images)
  in
  let pt = limage.C.Image.points_to in
  say "points-to fixpoint on %s (largest app, %d functions): %d iterations, %.3f s solve time@."
    largest.Apps.App.app_name
    (List.length largest.Apps.App.program.Opec_ir.Program.funcs)
    pt.Opec_analysis.Points_to.iterations pt.Opec_analysis.Points_to.solve_time

(* ---------------------------------------------------------------- campaign *)

(* Attack-containment matrix, the analogue of the paper's CVE-outcome
   table: every planned primitive against every defense, per app.
   Reduced-size app variants keep the run quick; code and policy are
   the same as the full-size workloads. *)
let campaign () =
  let ms = Opec_attack.Campaign.run_all (Apps.Registry.all_small ()) in
  List.iter (fun m -> say "%s" (Opec_attack.Report.render m)) ms;
  say "%s" (Opec_attack.Report.summary ms)

(* ---------------------------------------------------------------- ablation *)

(* Ablation studies of the design choices DESIGN.md calls out. *)
let ablation () =
  say "%s" (R.heading "Ablations of OPEC's design choices");

  (* 1. global shadowing vs ACES-style region merging: PT mass *)
  say "-- (1) shadowing vs region merging: total PT mass across the five ACES apps";
  let pt_mass samples =
    List.fold_left
      (fun acc s -> acc +. s.Opec_metrics.Overprivilege.pt)
      0.0 samples
  in
  let opec_mass = ref 0.0 and aces_mass = ref 0.0 in
  List.iter
    (fun (app : Apps.App.t) ->
      let image = P.image (P.ctx app) in
      opec_mass := !opec_mass +. pt_mass (Met.Overprivilege.opec_pt image);
      let aces = P.aces (P.ctx app) A.Strategy.Filename_no_opt in
      aces_mass := !aces_mass +. pt_mass (Met.Overprivilege.aces_pt aces))
    (Apps.Registry.aces_apps ());
  say "   OPEC (shadowing): %.3f     ACES2 (merging): %.3f@." !opec_mass !aces_mass;

  (* 2. sync only shared variables vs whole-section copies at switches *)
  say "-- (2) shared-only sync vs whole-section staging (PinLock, 20 rounds)";
  let app = Apps.Registry.pinlock ~rounds:20 () in
  let image = P.image (P.ctx app) in
  let run whole =
    let world = app.Apps.App.make_world () in
    world.Apps.App.prepare ();
    let r =
      Opec_monitor.Runner.run_protected ~sync_whole_section:whole
        ~devices:world.Apps.App.devices image
    in
    ( Opec_exec.Interp.cycles r.Opec_monitor.Runner.interp,
      (Opec_monitor.Monitor.stats r.Opec_monitor.Runner.monitor)
        .Opec_monitor.Stats.synced_bytes )
  in
  let c_shared, b_shared = run false in
  let c_whole, b_whole = run true in
  say "   shared-only: %Ld cycles, %d bytes moved" c_shared b_shared;
  say "   whole-section: %Ld cycles, %d bytes moved (%.2fx traffic)@." c_whole
    b_whole
    (float_of_int b_whole /. float_of_int (max 1 b_shared));

  (* 3+4. peripheral sort-and-merge and MPU virtualization *)
  say "-- (3) peripheral sort+merge vs one-region-per-peripheral; (4) ops needing virtualization";
  List.iter
    (fun (app : Apps.App.t) ->
      let image = P.image (P.ctx app) in
      let merged, naive, over =
        List.fold_left
          (fun (m, n, o) (op : C.Operation.t) ->
            let regions = List.length (C.Backend_plan.peripheral_regions op) in
            let periphs =
              Opec_core.Operation.SS.cardinal
                op.C.Operation.resources.Opec_analysis.Resource.peripherals
            in
            let budget =
              Option.bind
                (C.Image.meta_of image op.C.Operation.name)
                (C.Backend_plan.periph_budget image.C.Image.backend)
            in
            ( m + regions,
              n + periphs,
              o + match budget with Some b when regions > b -> 1 | _ -> 0 ))
          (0, 0, 0) image.C.Image.ops
      in
      say "   %-10s merged regions: %2d  naive regions: %2d  ops needing virtualization: %d"
        app.Apps.App.app_name merged naive over)
    (Apps.Registry.all ());
  say "";

  (* 5. descending-size section placement vs declaration order *)
  say "-- (5) descending-size placement vs declaration order (SRAM bytes incl. fragments)";
  List.iter
    (fun (app : Apps.App.t) ->
      let sorted_img = P.image (P.ctx app) in
      (* the unsorted image is the ablation itself, a non-canonical
         artifact the store never carries: compiled privately *)
      let unsorted_img =
        C.Compiler.compile ~board:app.Apps.App.board ~sort_sections:false
          app.Apps.App.program app.Apps.App.dev_input
      in
      say "   %-10s sorted: %6d B   declaration order: %6d B"
        app.Apps.App.app_name sorted_img.C.Image.sram_used
        unsorted_img.C.Image.sram_used)
    (Apps.Registry.all ());
  say ""

(* ------------------------------------------------------------------- micro *)

let bechamel_tests () =
  let open Bechamel in
  let pinlock = Apps.Registry.pinlock ~rounds:2 () in
  let image = P.image (P.ctx pinlock) in
  (* micro-benchmarks time the *uncached* work: the memoized paths
     would measure a store lookup, so every test below builds and runs
     its own machine *)
  let devices () =
    let world = pinlock.Apps.App.make_world () in
    world.Apps.App.prepare ();
    world.Apps.App.devices
  in
  let switch_test =
    Test.make ~name:"protected-run(pinlock,2 rounds)"
      (Staged.stage (fun () ->
           ignore
             (Opec_monitor.Runner.run_protected ~devices:(devices ()) image)))
  in
  let baseline_test =
    Test.make ~name:"baseline-run(pinlock,2 rounds)"
      (Staged.stage (fun () ->
           ignore
             (Opec_monitor.Runner.run_baseline ~devices:(devices ())
                ~board:pinlock.Apps.App.board pinlock.Apps.App.program)))
  in
  let compile_test =
    Test.make ~name:"compile(pinlock)"
      (Staged.stage (fun () ->
           ignore
             (C.Compiler.compile ~board:pinlock.Apps.App.board
                pinlock.Apps.App.program pinlock.Apps.App.dev_input)))
  in
  let points_to_test =
    Test.make ~name:"points-to(tcp-echo)"
      (let p = (Apps.Registry.tcp_echo ()).Apps.App.program in
       Staged.stage (fun () -> ignore (Opec_analysis.Points_to.solve p)))
  in
  let mpu = Opec_machine.Mpu.create () in
  Opec_machine.Mpu.set mpu 0 (Some C.Backend_plan.background_region);
  Opec_machine.Mpu.enable mpu;
  let mpu_test =
    Test.make ~name:"mpu-check"
      (Staged.stage (fun () ->
           ignore
             (Opec_machine.Mpu.check mpu ~privileged:false ~addr:0x2000_0100
                ~access:Opec_machine.Fault.Read)))
  in
  Test.make_grouped ~name:"micro" ~fmt:"%s/%s"
    [ mpu_test; compile_test; points_to_test; baseline_test; switch_test ]

let micro () =
  say "%s" (R.heading "Micro-benchmarks (bechamel, host-native OCaml time)");
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> say "  %-40s %12.1f ns/run" name est
      | Some _ | None -> say "  %-40s (no estimate)" name)
    results;
  say ""

(* -------------------------------------------------------------- pipeline *)

(* Benchmark of the pipeline itself: per-target wall clock on a cold
   (empty) vs warm (fully cached) store, the shared-store sweep against
   the compile-per-target sum it replaces, and the interpreter engines'
   throughput on CoreMark.  Results also land in
   BENCH_pipeline.json for CI. *)

let perf_targets =
  [ ("table1", table1); ("figure9", figure9); ("table2", table2);
    ("figure10", figure10); ("figure11", figure11); ("table3", table3);
    ("campaign", campaign); ("ablation", ablation) ]

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Run [f] with the evaluation's own printing swallowed, so the timing
   loop doesn't scroll eight reports past the reader. *)
let quietly f =
  let devnull = open_out "/dev/null" in
  let saved = Format.pp_get_formatter_out_functions Format.std_formatter () in
  Format.pp_set_formatter_out_channel Format.std_formatter devnull;
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush Format.std_formatter ();
      Format.pp_set_formatter_out_functions Format.std_formatter saved;
      close_out devnull)
    f

let engine_name = function
  | Opec_exec.Interp.Tree -> "tree"
  | Opec_exec.Interp.Compiled -> "compiled"

let engines = [ Opec_exec.Interp.Tree; Opec_exec.Interp.Compiled ]

(* Nearest-rank quantile of a non-empty sample. *)
let quantile q xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))

(* CoreMark baseline throughput under both interpreter engines over
   [sweeps] sweeps, the engines interleaved inside each sweep: single
   runs on a shared host are noisy, and a slow host window during one
   engine's block would skew the ratio — interleaving spreads the drift
   over both engines.  The machine build and the engine's one-time
   translation happen outside the clock (they are image-load work); the
   timed region is the run itself, which is what cycles/s means for an
   interpreter.  Returns, per engine, its cycle count and its wall time
   in every sweep. *)
let engine_sweeps sweeps =
  let cm = Apps.Registry.coremark () in
  (* an interpreter run is allocation-rate-bound (trace events, boxed
     Int64 values); a larger minor heap keeps the comparison about the
     engines rather than about minor-GC frequency, and applies equally
     to both *)
  let saved_gc = Gc.get () in
  Gc.set { saved_gc with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let run e =
    let world = cm.Apps.App.make_world () in
    world.Apps.App.prepare ();
    let r =
      Opec_monitor.Runner.prepare_baseline ~devices:world.Apps.App.devices
        ~engine:e ~board:cm.Apps.App.board cm.Apps.App.program
    in
    Gc.compact ();
    let wall =
      time (fun () -> Opec_exec.Interp.run r.Opec_monitor.Runner.b_interp)
    in
    (Opec_exec.Interp.cycles r.Opec_monitor.Runner.b_interp, wall)
  in
  let per_sweep = List.init sweeps (fun _ -> List.map run engines) in
  Gc.set saved_gc;
  List.mapi
    (fun i e ->
      let runs = List.map (fun sweep -> List.nth sweep i) per_sweep in
      (e, fst (List.hd runs), List.map snd runs))
    engines

(* One row per engine: its median wall time and the cycles/s it gives. *)
let engine_rows sweeps =
  Json.Arr
    (List.map
       (fun (e, cycles, walls) ->
         let wall = quantile 0.5 walls in
         Json.Obj
           [ ("engine", Json.Str (engine_name e)); ("cycles", Json.int64 cycles);
             ("wall_s", Json.fixed 6 wall);
             ( "cycles_per_sec",
               Json.fixed 0 (Int64.to_float cycles /. Float.max 1e-9 wall) ) ])
       sweeps)

let pipeline_bench () =
  say "%s" (R.heading "Pipeline benchmark: compile-once artifact store");
  (* every timed block starts from an empty store and a compacted heap,
     so one block's garbage doesn't tax the next one's clock *)
  let timed f =
    P.reset ();
    Gc.compact ();
    time (fun () -> quietly f)
  in
  (* the end-to-end sweep over one shared store *)
  let sweep () = List.iter (fun (_, f) -> f ()) perf_targets in
  let shared = timed sweep in
  (* each target alone: cold store, then fully warm *)
  let rows =
    List.map
      (fun (name, f) ->
        let cold = timed f in
        let warm = time (fun () -> quietly f) in
        say "  %-10s cold %7.3f s   warm %7.3f s" name cold warm;
        (name, cold, warm))
      perf_targets
  in
  (* the pre-refactor sequence, emulated faithfully: no artifact store
     (every consumer recompiles and reruns privately) and the
     tree-walking interpreter *)
  P.set_caching false;
  P.set_engine Opec_exec.Interp.Tree;
  let legacy = timed sweep in
  P.set_caching true;
  P.set_engine Opec_exec.Interp.Compiled;
  P.reset ();
  let cold_sum = List.fold_left (fun acc (_, c, _) -> acc +. c) 0.0 rows in
  let speedup = legacy /. Float.max 1e-9 shared in
  say "  sweep over a shared store: %.3f s" shared;
  say "  isolated cold targets sum: %.3f s" cold_sum;
  say "  pre-pipeline emulation (no store, tree interpreter): %.3f s" legacy;
  say "  end-to-end speedup: %.2fx" speedup;
  (* default-engine interpreter throughput: a fresh CoreMark baseline *)
  let cm = Apps.Registry.coremark () in
  let cm_cycles = ref 0L in
  let cm_wall =
    time (fun () ->
        let world = cm.Apps.App.make_world () in
        world.Apps.App.prepare ();
        let r =
          Opec_monitor.Runner.run_baseline ~devices:world.Apps.App.devices
            ~board:cm.Apps.App.board cm.Apps.App.program
        in
        cm_cycles := Opec_exec.Interp.cycles r.Opec_monitor.Runner.b_interp)
  in
  let cps = Int64.to_float !cm_cycles /. Float.max 1e-9 cm_wall in
  say "  CoreMark baseline: %Ld cycles in %.3f s (%.0f cycles/s)" !cm_cycles
    cm_wall cps;
  (* the per-engine comparison, fresh CoreMark runs each *)
  let engines = engine_sweeps 5 in
  List.iter
    (fun (e, cy, walls) ->
      let wall = quantile 0.5 walls in
      say "  CoreMark %-8s: %Ld cycles in %.3f s (%.0f cycles/s)"
        (engine_name e) cy wall
        (Int64.to_float cy /. Float.max 1e-9 wall))
    engines;
  (* per-artifact cycle counts, the invariance record for CI diffs *)
  let cycles =
    P.parallel_map
      (fun c ->
        let b = P.baseline c in
        let p = P.protected_ c in
        (P.app c).Apps.App.app_name, b.P.b_cycles, p.P.p_cycles)
      (Apps.Registry.all ())
  in
  let f6 = Json.fixed 6 in
  write_file "BENCH_pipeline.json"
    (Json.rows
       [ ( "targets",
           Json.Spaced,
           Json.Arr
             (List.map
                (fun (name, cold, warm) ->
                  Json.Obj
                    [ ("name", Json.Str name); ("cold_s", f6 cold);
                      ("warm_s", f6 warm) ])
                rows) );
         ( "sweep",
           Json.Spaced,
           Json.Obj
             [ ("shared_store_s", f6 shared);
               ("isolated_cold_sum_s", f6 cold_sum); ("legacy_s", f6 legacy);
               ("speedup", Json.fixed 3 speedup) ] );
         ( "coremark",
           Json.Spaced,
           Json.Obj
             [ ("cycles", Json.int64 !cm_cycles); ("wall_s", f6 cm_wall);
               ("cycles_per_sec", Json.fixed 0 cps) ] );
         ("engines", Json.Spaced, engine_rows engines);
         ( "cycles",
           Json.Spaced,
           Json.Obj
             (List.map
                (fun (name, b, p) ->
                  ( name,
                    Json.Obj
                      [ ("baseline", Json.int64 b); ("protected", Json.int64 p) ]
                  ))
                cycles) );
         (* the high-water mark of participants any run actually used,
            not the configured default: on a small machine these differ,
            and the field is read as "how parallel was this measurement
            really" *)
         ("domains", Json.Spaced, Json.int (Opec_pipeline.Pool.max_used ())) ]);
  say "  wrote BENCH_pipeline.json"

(* The standalone engine comparison (the CI perf smoke): CoreMark under
   both engines over five interleaved sweeps, gated on the median sweep's
   compiled/tree throughput ratio reaching 6.5x — a single measurement,
   with no retry, and every sweep's ratio recorded next to the p10/p90
   spread.  Writes an engines-only BENCH_pipeline.json — [bench
   pipeline] writes the full file, engine rows included. *)
let coremark_gate = 6.5

let coremark_engines_bench () =
  say "%s" (R.heading "CoreMark interpreter-engine comparison");
  let sweeps = engine_sweeps 5 in
  let walls e =
    let _, _, ws = List.find (fun (e', _, _) -> e' = e) sweeps in
    ws
  in
  let ratios =
    List.map2 ( /. ) (walls Opec_exec.Interp.Tree)
      (List.map (Float.max 1e-9) (walls Opec_exec.Interp.Compiled))
  in
  let median = quantile 0.5 ratios in
  List.iter
    (fun (e, cy, ws) ->
      let wall = quantile 0.5 ws in
      say "  %-8s %12Ld cycles  %7.3f s  %12.0f cycles/s (median of %d)"
        (engine_name e) cy wall
        (Int64.to_float cy /. Float.max 1e-9 wall)
        (List.length ws))
    sweeps;
  say "  compiled vs tree per sweep: %s"
    (String.concat " " (List.map (Printf.sprintf "%.2fx") ratios));
  say "  median %.2fx (p10 %.2fx, p90 %.2fx; gate >= %.1fx)" median
    (quantile 0.1 ratios) (quantile 0.9 ratios) coremark_gate;
  write_file "BENCH_pipeline.json"
    (Json.rows
       [ ("engines", Json.Spaced, engine_rows sweeps);
         ( "ratio",
           Json.Spaced,
           Json.Obj
             [ ("sweeps", Json.Arr (List.map (Json.fixed 2) ratios));
               ("median", Json.fixed 2 median);
               ("p10", Json.fixed 2 (quantile 0.1 ratios));
               ("p90", Json.fixed 2 (quantile 0.9 ratios));
               ("gate", Json.fixed 1 coremark_gate) ] );
         ("domains", Json.Spaced, Json.int (Opec_pipeline.Pool.max_used ())) ]);
  say "  wrote BENCH_pipeline.json";
  if median < coremark_gate then begin
    say "  ENGINE PERF REGRESSION: compiled is %.2fx tree (median, < %.1fx)"
      median coremark_gate;
    exit 1
  end

(* --------------------------------------------------------------------- obs *)

(* Overhead breakdown per workload (Section 6.3): where the monitor's
   cycles go, measured from the telemetry stream of the instrumented
   protected run.  Results land in BENCH_obs.json.  The target fails if
   any workload's total monitor overhead or synced bytes differ at all
   from the checked-in reference breakdown (BENCH_obs_ref.json) — both
   are deterministic model quantities, so an improvement is an explicit
   regeneration of the reference, not slack in a band — and also if the
   reference is missing, unparseable, lacks a field, or lacks one of
   the measured workloads. *)

let w_obs c = ignore (P.protected_obs c)

let obs_ref_file = "BENCH_obs_ref.json"

(* The reference rows: (app, overhead cycles, synced bytes).  Any
   defect in the reference — a missing file, a parse error, a missing
   field — is an [Error]: the gate fails closed rather than skipping. *)
let read_obs_ref path =
  let ( let* ) = Result.bind in
  let field row k conv =
    match Option.bind (Json.member k row) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: a workload lacks field %S" path k)
  in
  let* text =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error e -> Error e
  in
  let* doc =
    Result.map_error (fun e -> Printf.sprintf "%s: %s" path e)
      (Json.of_string text)
  in
  let* rows =
    Option.to_result ~none:(Printf.sprintf "%s: no \"workloads\" list" path)
      (Option.bind (Json.member "workloads" doc) Json.to_list)
  in
  List.fold_right
    (fun row acc ->
      let* acc = acc in
      let* app = field row "app" Json.to_str in
      let* oh = field row "overhead_cycles" Json.to_int64 in
      let* sb = field row "synced_bytes" Json.to_int in
      Ok ((app, oh, sb) :: acc))
    rows (Ok [])

let write_obs_json path (rows : Met.Overhead.breakdown list) =
  let row (b : Met.Overhead.breakdown) =
    let i64 = Json.int64 and int = Json.int in
    Json.Obj
      [ ("app", Json.Str b.Met.Overhead.bd_app);
        ("baseline_cycles", i64 b.Met.Overhead.bd_base_cycles);
        ("protected_cycles", i64 b.Met.Overhead.bd_prot_cycles);
        ("overhead_cycles", i64 b.Met.Overhead.bd_overhead_cycles);
        ("sanitize", i64 b.Met.Overhead.bd_sanitize);
        ("sync", i64 b.Met.Overhead.bd_sync);
        ("relocate", i64 b.Met.Overhead.bd_relocate);
        ("mpu", i64 b.Met.Overhead.bd_mpu); ("svc", i64 b.Met.Overhead.bd_svc);
        ("init", i64 b.Met.Overhead.bd_init);
        ("other", i64 b.Met.Overhead.bd_other);
        ("switches", int b.Met.Overhead.bd_switches);
        ("swaps", int b.Met.Overhead.bd_swaps);
        ("emulations", int b.Met.Overhead.bd_emulations);
        ("synced_bytes", int b.Met.Overhead.bd_synced_bytes) ]
  in
  write_file path
    (Json.rows [ ("workloads", Json.Spaced, Json.Arr (List.map row rows)) ])

let obs () =
  say "%s" (R.heading "Overhead breakdown (Section 6.3): where monitor cycles go");
  let apps = Apps.Registry.all () in
  prewarm [ w_baseline; w_obs ] apps;
  let rows = List.map Met.Overhead.breakdown_of_app apps in
  let pct part (b : Met.Overhead.breakdown) =
    100.0
    *. Int64.to_float part
    /. Int64.to_float (Int64.max 1L b.Met.Overhead.bd_overhead_cycles)
  in
  let cells (b : Met.Overhead.breakdown) =
    [ b.Met.Overhead.bd_app;
      Int64.to_string b.Met.Overhead.bd_overhead_cycles;
      Printf.sprintf "%Ld(%.1f%%)" b.Met.Overhead.bd_sanitize
        (pct b.Met.Overhead.bd_sanitize b);
      Printf.sprintf "%Ld(%.1f%%)" b.Met.Overhead.bd_sync
        (pct b.Met.Overhead.bd_sync b);
      Printf.sprintf "%Ld(%.1f%%)" b.Met.Overhead.bd_relocate
        (pct b.Met.Overhead.bd_relocate b);
      Int64.to_string b.Met.Overhead.bd_mpu;
      Printf.sprintf "%Ld(%.1f%%)" b.Met.Overhead.bd_svc
        (pct b.Met.Overhead.bd_svc b);
      Printf.sprintf "%Ld(%.1f%%)" b.Met.Overhead.bd_other
        (pct b.Met.Overhead.bd_other b);
      string_of_int b.Met.Overhead.bd_switches;
      string_of_int b.Met.Overhead.bd_synced_bytes ]
  in
  say "%s@."
    (R.table
       ~header:
         [ "Application"; "Overhead"; "Sanitize"; "Sync"; "Relocate"; "MPU";
           "SVC"; "Other"; "Switches"; "Synced(B)" ]
       (List.map cells rows));
  write_obs_json "BENCH_obs.json" rows;
  say "  wrote BENCH_obs.json";
  (* the regression gates against the checked-in reference breakdown *)
  let refs =
    match read_obs_ref obs_ref_file with
    | Ok refs -> refs
    | Error e ->
      say "  OVERHEAD GATE: unusable reference: %s" e;
      exit 1
  in
  let failures =
    List.concat_map
      (fun (b : Met.Overhead.breakdown) ->
        let app = b.Met.Overhead.bd_app in
        match List.find_opt (fun (a, _, _) -> String.equal a app) refs with
        | None -> [ Printf.sprintf "%s: absent from %s" app obs_ref_file ]
        | Some (_, ref_oh, ref_sb) ->
          let cur_oh = b.Met.Overhead.bd_overhead_cycles in
          let cur_sb = b.Met.Overhead.bd_synced_bytes in
          (* explicit synced-bytes delta per workload before gating *)
          if ref_sb > 0 then
            say "  synced bytes %-12s %6d -> %6d  (%+d B, %.2fx)" app ref_sb
              cur_sb (cur_sb - ref_sb)
              (float_of_int cur_sb /. float_of_int ref_sb);
          (if Int64.equal cur_oh ref_oh then []
           else
             [ Printf.sprintf "%s: overhead %Ld cycles, reference %Ld" app
                 cur_oh ref_oh ])
          @
          if cur_sb = ref_sb then []
          else
            [ Printf.sprintf "%s: synced bytes %d, reference %d" app cur_sb
                ref_sb ])
      rows
  in
  match failures with
  | [] ->
    say
      "  overhead gate: every workload equals %s exactly (cycles and synced \
       bytes)"
      obs_ref_file
  | fs ->
    List.iter (fun f -> say "  OVERHEAD MISMATCH: %s" f) fs;
    exit 1

(* ------------------------------------------------------------------- fleet *)

(* Scaling curve of the fleet evaluation service: the same job at
   j = 1, 2, 4, and all cores, each from a cold store, with the wall
   clock, steal count, and speedup per point.  The consolidated report
   must come back byte-identical at every width — that determinism is
   gated here, not just documented.  Results land in BENCH_fleet.json. *)

let fleet_bench () =
  let module Fl = Opec_fleet in
  say "%s" (R.heading "Fleet benchmark: work-stealing scheduler scaling curve");
  let spec =
    { Fl.Spec.apps = Fl.Spec.All_apps;
      seeds = Some (0, 15);
      seed_size = 2;
      tasks = [ Fl.Spec.Compile; Fl.Spec.Lint; Fl.Spec.Attack; Fl.Spec.Trace ];
      backends = [ Opec_machine.Backend.Mpu ] }
  in
  let all_cores = max 1 (Domain.recommended_domain_count ()) in
  (* The requested sweep is fixed; the widths actually run are clamped
     to what the host can execute in parallel.  On a 1-core machine the
     old sweep still ran j=2 and j=4, recording a "scaling" curve that
     was really oversubscription noise (the degrading-past-j=1 artifact
     noted in ROADMAP); each JSON row now carries both [requested_j]
     and [effective_j] so the clamp is self-describing. *)
  let requested = List.sort_uniq Int.compare [ 1; 2; 4; all_cores ] in
  let widths =
    List.sort_uniq Int.compare (List.map (fun j -> min j all_cores) requested)
  in
  let points =
    List.map
      (fun j ->
        (* cold store per point, so every width does the same work *)
        P.reset ();
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        match Fl.Fleet.run ~domains:j spec with
        | Error e ->
          Format.eprintf "fleet bench: %s@." e;
          exit 2
        | Ok o ->
          let wall = Unix.gettimeofday () -. t0 in
          let steals = Fl.Journal.count o.Fl.Fleet.o_journal "stolen" in
          say "  j=%-2d  %7.3f s   %3d steals   %d/%d units ok" j wall steals
            (List.length o.Fl.Fleet.o_units - List.length o.Fl.Fleet.o_failures)
            (List.length o.Fl.Fleet.o_units);
          (j, wall, steals, o))
      widths
  in
  let curve =
    List.map
      (fun rj ->
        let ej = min rj all_cores in
        let _, wall, steals, o =
          List.find (fun (j, _, _, _) -> j = ej) points
        in
        (rj, ej, wall, steals, o))
      requested
  in
  let _, wall1, _, o1 = List.hd points in
  let report1 = Fl.Fleet.report_json o1 in
  let deterministic =
    List.for_all
      (fun (_, _, _, o) -> String.equal (Fl.Fleet.report_json o) report1)
      points
  in
  let failures =
    List.concat_map (fun (_, _, _, o) -> o.Fl.Fleet.o_failures) points
  in
  say "  report deterministic across widths: %b" deterministic;
  write_file "BENCH_fleet.json"
    (Json.rows
       [ ("units", Json.Spaced, Json.int (List.length o1.Fl.Fleet.o_units));
         ( "tasks",
           Json.Spaced,
           Json.Arr
             (List.map (fun t -> Json.Str (Fl.Spec.task_name t)) spec.Fl.Spec.tasks)
         );
         ( "curve",
           Json.Spaced,
           Json.Arr
             (List.map
                (fun (rj, ej, wall, steals, o) ->
                  Json.Obj
                    [ ("requested_j", Json.int rj); ("effective_j", Json.int ej);
                      ("wall_s", Json.fixed 6 wall);
                      ("speedup", Json.fixed 3 (wall1 /. Float.max 1e-9 wall));
                      ("steals", Json.int steals);
                      ("failures", Json.int (List.length o.Fl.Fleet.o_failures)) ])
                curve) );
         ("recommended_domain_count", Json.Spaced, Json.int all_cores);
         ("deterministic", Json.Spaced, Json.Bool deterministic);
         ("domains", Json.Spaced, Json.int (Opec_pipeline.Pool.max_used ())) ]);
  say "  wrote BENCH_fleet.json";
  if not deterministic then begin
    say "  FLEET NONDETERMINISM: reports differ across -j";
    exit 1
  end;
  if failures <> [] then begin
    List.iter (fun (u, e) -> say "  FLEET TASK FAILURE %s: %s" u e) failures;
    exit 1
  end

(* --------------------------------------------------------------- backends *)

(* Cross-backend trade-off study: the full containment campaign and the
   cycle-accurate overhead breakdown under every enforcement backend
   (MPU, PMP, CHERI, POE).  Gates that no backend lets any campaign
   cell escape and that every backend's clean protected run is
   denial-free; the numbers land in BENCH_backends.json. *)

let backends_bench () =
  let module Atk = Opec_attack in
  let module M = Opec_machine in
  say "%s" (R.heading "Backend trade-off study: MPU vs PMP vs CHERI vs POE");
  let apps = Apps.Registry.all_small () in
  let t = Atk.Backend_study.run apps in
  say "%s" (Atk.Backend_study.render t);
  write_file "BENCH_backends.json" (Atk.Backend_study.to_json t ^ "\n");
  say "  wrote BENCH_backends.json";
  let cells_per_backend k =
    List.fold_left
      (fun acc (r : Atk.Backend_study.row) ->
        if r.Atk.Backend_study.r_backend = k then
          acc + List.length r.Atk.Backend_study.r_cells
        else acc)
      0 t.Atk.Backend_study.rows
  in
  let escapes = Atk.Backend_study.escapes t in
  List.iter
    (fun k ->
      let n = cells_per_backend k in
      let esc =
        List.length
          (List.filter (fun (_, k', _) -> k' = k) escapes)
      in
      say "  %-5s contained %d/%d campaign cells" (M.Backend.kind_name k)
        (n - esc) n)
    t.Atk.Backend_study.backends;
  (match escapes with
  | [] -> say "  containment gate: no escape under any backend"
  | esc ->
    List.iter
      (fun (app, k, (c : Atk.Campaign.cell)) ->
        say "  BACKEND ESCAPE under %s in %s: %s" (M.Backend.kind_name k) app
          c.Atk.Campaign.detail)
      esc;
    exit 1);
  let denied =
    List.filter
      (fun (r : Atk.Backend_study.row) -> r.Atk.Backend_study.r_denied > 0)
      t.Atk.Backend_study.rows
  in
  match denied with
  | [] -> say "  transparency gate: clean runs denial-free on every backend"
  | rs ->
    List.iter
      (fun (r : Atk.Backend_study.row) ->
        say "  BACKEND DENIALS in clean %s run of %s: %d"
          (M.Backend.kind_name r.Atk.Backend_study.r_backend)
          r.Atk.Backend_study.r_app r.Atk.Backend_study.r_denied)
      rs;
    exit 1

(* ------------------------------------------------------------------- load *)

(* The traffic suite: every load scenario under every enforcement
   backend, ≥1M events per backend, with the switch-latency tail
   (p50/p99/p999) per row.  Gates that each backend's run total makes
   the million-event floor and that every scenario's end-to-end output
   check passes; rows land in BENCH_load.json. *)

let load_bench () =
  let module L = Opec_load in
  let module M = Opec_machine in
  say "%s" (R.heading "Load scenarios: switch tail latency under traffic");
  (* per-scenario event targets chosen to clear 1M per backend with the
     fixed TCP-Echo slice on top *)
  let plan =
    [ (L.Scenario.Request_storm, 550_000);
      (L.Scenario.Sensor_burst, 330_000);
      (L.Scenario.Interrupt_preempt, 150_000);
      (L.Scenario.Tcp_echo_slice, 0) ]
  in
  let rows =
    List.concat_map
      (fun backend ->
        List.map
          (fun (kind, target_events) ->
            L.Scenario.run ~backend ~target_events kind)
          plan)
      M.Backend.all_kinds
  in
  let cells (r : L.Scenario.result) =
    [ r.L.Scenario.r_scenario; r.L.Scenario.r_backend;
      string_of_int r.L.Scenario.r_events;
      string_of_int r.L.Scenario.r_switch_spans;
      Printf.sprintf "%.1f" r.L.Scenario.r_mean;
      Int64.to_string r.L.Scenario.r_p50;
      Int64.to_string r.L.Scenario.r_p99;
      Int64.to_string r.L.Scenario.r_p999;
      Int64.to_string r.L.Scenario.r_max;
      Printf.sprintf "%.2f" r.L.Scenario.r_wall_s;
      (match r.L.Scenario.r_check with Ok () -> "ok" | Error e -> e) ]
  in
  say "%s@."
    (R.table
       ~header:
         [ "Scenario"; "Backend"; "Events"; "Switches"; "Mean"; "p50"; "p99";
           "p999"; "Max"; "Wall(s)"; "Check" ]
       (List.map cells rows));
  write_file "BENCH_load.json"
    (Json.rows
       [ ("rows", Json.Spaced, Json.Arr (List.map L.Scenario.result_json rows)) ]);
  say "  wrote BENCH_load.json";
  let failures =
    List.concat_map
      (fun backend ->
        let name = M.Backend.kind_name backend in
        let mine =
          List.filter
            (fun (r : L.Scenario.result) -> r.L.Scenario.r_backend = name)
            rows
        in
        let events =
          List.fold_left
            (fun acc (r : L.Scenario.result) -> acc + r.L.Scenario.r_events)
            0 mine
        in
        let floor_failures =
          if events < 1_000_000 then
            [ Printf.sprintf "%s: %d events under the 1M floor" name events ]
          else begin
            say "  %-5s drove %d events" name events;
            []
          end
        in
        floor_failures
        @ List.filter_map
            (fun (r : L.Scenario.result) ->
              match r.L.Scenario.r_check with
              | Ok () -> None
              | Error e ->
                Some
                  (Printf.sprintf "%s under %s: %s" r.L.Scenario.r_scenario
                     name e))
            mine)
      M.Backend.all_kinds
  in
  match failures with
  | [] -> say "  load gate: 1M-event floor and output checks hold on every backend"
  | fs ->
    List.iter (fun f -> say "  LOAD GATE FAILURE: %s" f) fs;
    exit 1

(* ------------------------------------------------------------------ driver *)

let all () =
  (* one parallel pass materializes every artifact the sweep reads *)
  P.warm_all (Apps.Registry.all ());
  table1 ();
  figure9 ();
  table2 ();
  figure10 ();
  figure11 ();
  table3 ();
  campaign ();
  ablation ();
  micro ()

let () =
  (* [-j N] anywhere on the line sizes the shared pool; the remaining
     word picks the artifact *)
  let rec parse target = function
    | [] -> target
    | ("-j" | "--domains") :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        Opec_pipeline.Pool.set_size n;
        parse target rest
      | _ ->
        Format.eprintf "bad -j value %S@." n;
        exit 2)
    | ("-j" | "--domains") :: [] ->
      Format.eprintf "-j needs a value@.";
      exit 2
    | a :: rest -> parse (Some a) rest
  in
  let target =
    Option.value
      (parse None (List.tl (Array.to_list Sys.argv)))
      ~default:"all"
  in
  match target with
  | "table1" -> table1 ()
  | "figure9" -> figure9 ()
  | "table2" -> table2 ()
  | "figure10" -> figure10 ()
  | "figure11" -> figure11 ()
  | "table3" -> table3 ()
  | "campaign" -> campaign ()
  | "ablation" -> ablation ()
  | "micro" -> micro ()
  | "pipeline" -> pipeline_bench ()
  | "coremark-engines" -> coremark_engines_bench ()
  | "obs" -> obs ()
  | "fleet" -> fleet_bench ()
  | "backends" -> backends_bench ()
  | "load" -> load_bench ()
  | "all" -> all ()
  | other ->
    Format.eprintf
      "unknown artifact %S (expected table1|figure9|table2|figure10|figure11|table3|campaign|ablation|micro|pipeline|coremark-engines|obs|fleet|backends|load|all)@."
      other;
    exit 2
