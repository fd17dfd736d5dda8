(* One benchmark process: set-up, the timed closed loop, the checks on
   every run, and the metrics — end-to-end ones untraced, per-layer
   ones from a traced run.

   Host time is process CPU time (user + system): on a shared host,
   wall time also counts the time the process waits descheduled.  It
   is normalized to a nominal host: each time is scaled by
   [Refkernel.nominal_ms] over the median of the reference-kernel
   samples around it; the kernel runs before each set-up group and
   before each job of each pass.  The traced run's spans use the
   monotonic wall clock. *)

open Workload

type metric = { m_name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  cycles : (string * int64 * int64) list;
      (* per job: model cycles of its baseline and protected runs *)
  envelope : (string * string) list;  (* key -> JSON value *)
  notes : string list;                (* human-readable report lines *)
}

let m m_name value unit_ = { m_name; value; unit_ }

(* Linear-interpolated quantile of a non-empty sample. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. (pos -. float_of_int lo))

let median xs = quantile xs 0.5
let div a b = if b = 0. then 0. else a /. b
let fsum = List.fold_left ( +. ) 0.

(* --- state of one process ---------------------------------------------- *)

(* Reference-kernel samples, ns, in the order taken. *)
let refs = T.Vec.create ()
let ref_ok = ref true

(* Run the kernel; returns the index of its sample. *)
let ref_kernel () =
  T.span "host.ref" (fun () ->
      let ns, ok = Refkernel.timed T.cpu_now in
      T.Vec.push refs ns;
      if not ok then ref_ok := false;
      refs.T.Vec.n - 1)

let ref_list () = List.init refs.T.Vec.n (fun i -> float_of_int (T.Vec.get refs i))

let scale_of ref_ns = div (Refkernel.nominal_ms *. 1e6) ref_ns

(* The scale that normalizes a time measured next to sample [k]: host
   speed drifts within a process on a scale of seconds, so each time is
   normalized by the median of the three samples around it. *)
let scale_at k =
  let lo = max 0 (k - 1) and hi = min (refs.T.Vec.n - 1) (k + 1) in
  scale_of (median (List.init (hi - lo + 1) (fun i -> float_of_int (T.Vec.get refs (lo + i)))))

(* [spec.setup_reps] groups of set-ups, each group after a kernel run
   and repeating set-up until 10 ms have gone by, so a set-up far
   shorter than the clock's noise is still measured; returns the jobs
   of the last set-up, each group's (ns per set-up, kernel sample), and
   the number of set-ups. *)
let setup_reps spec size seed =
  let times = ref [] and jobs = ref [||] and total = ref 0 in
  for _ = 1 to spec.setup_reps do
    let k = ref_kernel () in
    let t0 = T.cpu_now () in
    let n = ref 0 in
    while !n = 0 || T.cpu_now () - t0 < 10_000_000 do
      jobs := Array.of_list (setup spec size seed);
      incr n
    done;
    times := ((T.cpu_now () - t0) / !n, k) :: !times;
    total := !total + !n
  done;
  (!jobs, !times, !total)

(* One pass: every job once; reference kernel, baseline, protected. *)
let pass jobs runs =
  T.span "pass" (fun () ->
      Array.iteri
        (fun j _ ->
          let ref_idx = ref_kernel () in
          runs := timed_run ~ref_idx jobs j Baseline :: !runs;
          runs := timed_run ~ref_idx jobs j Protected :: !runs)
        jobs)

(* Whole passes until [seconds] have gone by (at least one); returns
   the runs, oldest first, and the number of passes. *)
let passes jobs seconds =
  let deadline = T.now () + int_of_float (seconds *. 1e9) in
  let runs = ref [] and n = ref 0 in
  while !n = 0 || T.now () < deadline do
    pass jobs runs;
    incr n
  done;
  (List.rev !runs, !n)

(* --- correctness ------------------------------------------------------- *)

(* Mark failed every run that raised, whose world check failed, that
   disagrees with the first run of its (job, kind), or whose first run
   disagrees with the pipeline's own reference run of the image. *)
let judge jobs runs =
  let first = Hashtbl.create 64 in
  let runs =
    List.map
      (fun r ->
        match r.err with
        | Some _ -> r
        | None -> (
          match Hashtbl.find_opt first (r.job, r.kind) with
          | None ->
            Hashtbl.replace first (r.job, r.kind) r.obs;
            r
          | Some o when o = r.obs -> r
          | Some _ -> { r with err = Some "differs from the first run" }))
      runs
  in
  (* what the pipeline's own reference runs observed, [None] if they
     failed; the baseline is the same image under every backend *)
  let base_ref = Hashtbl.create 8 in
  let baseline_ref job =
    let name = job.app.Apps.App.app_name in
    match Hashtbl.find_opt base_ref name with
    | Some o -> o
    | None ->
      let o =
        match P.baseline job.ctx with
        | b when b.P.b_err = None && b.P.b_check = Ok () ->
          Some { cycles = b.P.b_cycles; stats = None }
        | _ | (exception _) -> None
      in
      Hashtbl.replace base_ref name o;
      o
  in
  let protected_ref job =
    match P.protected_ job.ctx with
    | p when p.P.p_err = None && p.P.p_check = Ok () ->
      Some { cycles = p.P.p_cycles; stats = Some p.P.p_stats }
    | _ | (exception _) -> None
  in
  let bad = Hashtbl.create 16 in
  Array.iteri
    (fun j job ->
      List.iter
        (fun (k, expected) ->
          match Hashtbl.find_opt first (j, k) with
          | Some o when Some o <> expected -> Hashtbl.replace bad (j, k) ()
          | _ -> ())
        [ (Baseline, baseline_ref job); (Protected, protected_ref job) ])
    jobs;
  List.map
    (fun r ->
      if r.err = None && Hashtbl.mem bad (r.job, r.kind) then
        { r with err = Some "differs from the pipeline's reference run" }
      else r)
    runs

(* --- envelope ---------------------------------------------------------- *)

let commit () =
  (* only the checkout's own repository counts; a parent directory's
     repository would name the wrong commit *)
  if not (Sys.file_exists ".git") then "unknown"
  else
    match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
    | exception _ -> "unknown"
    | ic ->
      let line = try input_line ic with End_of_file -> "" in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")

let json_str s = Printf.sprintf "%S" s
let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let envelope spec ~seed ~seconds ~trace ~size ~jobs ~setup_n ~pass_n ~runs
    ~ref_ms ~raw ~cycles =
  let g = Gc.get () in
  let count k = List.length (List.filter (fun r -> r.kind = k) runs) in
  [ ("schema", json_str "perfbench/1");
    ("workload", json_str spec.name);
    ("size", json_str (match size with Full -> "full" | Tiny -> "tiny"));
    ("seed", string_of_int seed);
    ("seconds", json_num seconds);
    ("trace", string_of_bool trace);
    ("commit", json_str (commit ()));
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", json_str Sys.ocaml_version);
    ("engine", json_str "compiled");
    ("clock", json_str "process cpu time (getrusage); spans: monotonic");
    ( "backends",
      "["
      ^ String.concat ","
          (List.map (fun b -> json_str (M.Backend.kind_name b)) spec.backends)
      ^ "]" );
    ( "jobs",
      "["
      ^ String.concat ","
          (Array.to_list (Array.map (fun j -> json_str j.label) jobs))
      ^ "]" );
    ( "reps",
      Printf.sprintf
        "{\"setup\":%d,\"passes\":%d,\"baseline_runs\":%d,\"protected_runs\":%d,\"ref_runs\":%d}"
        setup_n pass_n (count Baseline) (count Protected)
        refs.T.Vec.n );
    ( "gc",
      Printf.sprintf
        "{\"minor_heap_size\":%d,\"space_overhead\":%d,\"major_heap_increment\":%d,\"allocation_policy\":%d}"
        g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.major_heap_increment
        g.Gc.allocation_policy );
    ( "model_cycles",
      "{"
      ^ String.concat ","
          (List.map (fun (l, b, p) -> Printf.sprintf "%S:[%Ld,%Ld]" l b p) cycles)
      ^ "}" );
    ("host.ref_ms", json_num ref_ms);
    ("nominal_ref_ms", json_num Refkernel.nominal_ms);
    ( "raw",
      "{"
      ^ String.concat ","
          (List.map
             (fun x ->
               Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.m_name
                 (json_num x.value) x.unit_)
             raw)
      ^ "}" ) ]

(* --- the untraced run: end-to-end metrics ------------------------------ *)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* End-to-end metrics over the loop's runs, normalized when [norm]
   (else raw).  Throughput takes each job's median run time, so one
   run stalled by the host does not move it. *)
let end_to_end ~norm ~heap_mb ~setup ~runs =
  let sc k = if norm then scale_at k else 1. in
  let ms r = float_of_int r.ns *. sc r.ref_idx /. 1e6 in
  let of_kind k = List.filter (fun r -> r.kind = k && r.err = None) runs in
  let mcps k =
    let by_job = Hashtbl.create 32 in
    List.iter
      (fun r ->
        let c, ts = Option.value (Hashtbl.find_opt by_job r.job) ~default:(r.obs.cycles, []) in
        Hashtbl.replace by_job r.job (c, ms r :: ts))
      (of_kind k);
    let cycles, ms =
      Hashtbl.fold
        (fun _ (c, ts) (ca, ma) -> (ca +. Int64.to_float c, ma +. median ts))
        by_job (0., 0.)
    in
    div cycles (ms *. 1e3)
  in
  let prot_ms = List.map ms (of_kind Protected) in
  let timed =
    [ m "setup_s"
        (median (List.map (fun (ns, k) -> float_of_int ns *. sc k /. 1e9) setup))
        "s";
      m "protected_mcps" (mcps Protected) "Mcycles/s";
      m "baseline_mcps" (mcps Baseline) "Mcycles/s";
      (* On paper-mix these land on single apps of the fixed mix. *)
      m "protected_ms.p50" (quantile prot_ms 0.5) "ms";
      m "protected_ms.p90" (quantile prot_ms 0.9) "ms" ]
  in
  if not norm then timed
  else
    let attempted = List.length runs in
    let failed = List.length (List.filter (fun r -> r.err <> None) runs) in
    let cycles k = fsum (List.map (fun r -> Int64.to_float r.obs.cycles) (of_kind k)) in
    let cb = cycles Baseline and cp = cycles Protected in
    timed
    @ [ m "model_overhead_pct" (100. *. div (cp -. cb) cb) "%";
        m "success_share"
          (div (float_of_int (attempted - failed)) (float_of_int attempted))
          "ratio";
        m "heap_peak_mb" heap_mb "MiB" ]

(* --- the traced run: per-layer metrics --------------------------------- *)

(* Per (job, kind) observations that only a dedicated run gives: the
   MPU-visible accesses of one mem-traced protected run, and the
   model-cycle split of the switch protocol from the pipeline's
   telemetry run. *)
let exact_counts jobs =
  Array.map
    (fun job ->
      let agg, stats =
        match P.protected_obs job.ctx with
        | o -> (Obs.Agg.of_events o.P.o_events, o.P.o_stats)
        (* leaves the trap count inconsistent, so the run is incorrect *)
        | exception _ -> (Obs.Agg.create (), Mon.Stats.create ())
      in
      (accesses job, agg, stats))
    jobs

(* The layers whose self times must add up to the traced wall time:
   span names and leaf kinds. *)
let span_layers =
  [ "pipeline.validated"; "pipeline.points_to"; "pipeline.callgraph";
    "pipeline.resources"; "pipeline.ops"; "pipeline.syncsets";
    "pipeline.image"; "world.template"; "world"; "world.check"; "host.ref";
    "runner.prepare"; "monitor.init"; "exec.baseline"; "exec.protected" ]

(* Normalized run time per pass. *)
let per_pass_norm runs n =
  fsum (List.map (fun r -> float_of_int r.ns *. scale_at r.ref_idx) runs)
  /. float_of_int n

let per_layer ~jobs ~runs ~untraced ~roots ~setup_n ~pass_n ~untraced_n ~scale
    ~gc0 ~gc1 ~exact =
  let in_root i = List.exists (fun r -> T.within i r) roots in
  let spans = List.filter in_root (List.init (T.span_count ()) Fun.id) in
  let job_of_run = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace job_of_run r.run_id r) runs;
  let self_of ?(pred = fun _ -> true) name =
    List.fold_left
      (fun a i -> if T.name i = name && pred i then a + T.self i else a)
      0 spans
  in
  let leaf f k = List.fold_left (fun a i -> a + f i k) 0 spans in
  let lcount = leaf T.leaf_count and lself = leaf T.leaf_self in
  let passes = float_of_int pass_n and setups = float_of_int setup_n in
  let per_pass_ms ns = float_of_int ns /. 1e6 *. scale /. passes in
  let per_pass n = float_of_int n /. passes in
  let stage s = m ("pipeline." ^ s ^ "_ms")
      (float_of_int (self_of ("pipeline." ^ s)) /. 1e6 *. scale /. setups) "ms"
  in
  let exec_self ?backend kind =
    let name = match kind with Baseline -> "exec.baseline" | Protected -> "exec.protected" in
    let pred i =
      match backend with
      | None -> true
      | Some b -> (
        match Hashtbl.find_opt job_of_run (T.run_of i) with
        | Some r -> jobs.(r.job).backend = b
        | None -> false)
    in
    self_of ~pred name
  in
  let eb = exec_self Baseline and ep = exec_self Protected in
  let accesses = Array.fold_left (fun a (n, _, _) -> a + n) 0 exact in
  let model ph =
    Array.fold_left (fun a (_, g, _) -> Int64.add a (Obs.Agg.phase_cycles g ph)) 0L exact
  in
  let stats f = Array.fold_left (fun a (_, _, s) -> a + f s) 0 exact in
  let switches = lcount T.Mon_enter + lcount T.Mon_exit in
  let switch_self = lself T.Mon_enter + lself T.Mon_exit + lself T.Mon_svc in
  let traced_runs = List.filter (fun r -> Hashtbl.mem job_of_run r.run_id) runs in
  let alloc =
    div (fsum (List.map (fun r -> r.minor_words) traced_runs))
      (fsum (List.map (fun r -> Int64.to_float r.obs.cycles) traced_runs) /. 1e3)
  in
  let layer_self =
    List.fold_left (fun a n -> a + self_of n) 0 span_layers
    + List.fold_left (fun a k -> a + lself k) 0 T.leaves
  in
  let wall = List.fold_left (fun a r -> a + T.duration r) 0 roots in
  let host_ratio b = m ("enforce.host_ratio." ^ M.Backend.kind_name b)
      (div (float_of_int (exec_self ~backend:b Protected))
         (float_of_int (exec_self ~backend:b Baseline))) "ratio"
  in
  let metrics =
    List.map stage
      [ "validated"; "points_to"; "callgraph"; "resources"; "ops"; "syncsets"; "image" ]
    @ [ m "world.ms" (per_pass_ms (self_of "world" + self_of "world.check")) "ms";
        m "runner.prepare_ms" (per_pass_ms (self_of "runner.prepare")) "ms";
        m "monitor.init_ms" (per_pass_ms (self_of "monitor.init")) "ms";
        m "monitor.switches" (per_pass switches) "count";
        m "monitor.switch_ms" (per_pass_ms switch_self) "ms";
        m "monitor.switch_ns"
          (div (float_of_int switch_self *. scale) (float_of_int switches)) "ns";
        m "monitor.faults" (per_pass (lcount T.Mon_mem_fault)) "count";
        m "monitor.fault_ms" (per_pass_ms (lself T.Mon_mem_fault)) "ms";
        m "monitor.emulations" (per_pass (lcount T.Mon_bus_fault)) "count";
        m "monitor.emulate_ms" (per_pass_ms (lself T.Mon_bus_fault)) "ms";
        m "machine.device_calls"
          (per_pass (lcount T.Device_read + lcount T.Device_write)) "count";
        m "machine.device_ms"
          (per_pass_ms (lself T.Device_read + lself T.Device_write)) "ms";
        m "machine.accesses" (float_of_int accesses) "count";
        m "enforce.residual_ms" (per_pass_ms (ep - eb)) "ms";
        m "enforce.ns_per_access"
          (div (float_of_int (ep - eb) *. scale /. passes) (float_of_int accesses))
          "ns";
        m "enforce.host_ratio" (div (float_of_int ep) (float_of_int eb)) "ratio" ]
    @ List.map host_ratio M.Backend.all_kinds
    @ [ m "exec.self_ms" (per_pass_ms (eb + ep)) "ms";
        m "exec.baseline_self_ms" (per_pass_ms eb) "ms";
        m "exec.protected_self_ms" (per_pass_ms ep) "ms";
        m "exec.alloc_words_per_kcycle" alloc "words/kcycle";
        m "gc.minor_collections"
          (per_pass (gc1.Gc.minor_collections - gc0.Gc.minor_collections)) "count";
        m "gc.major_collections"
          (per_pass (gc1.Gc.major_collections - gc0.Gc.major_collections)) "count";
        m "obs.events" (per_pass (lcount T.Obs_emit)) "count";
        m "obs.emit_ms" (per_pass_ms (lself T.Obs_emit)) "ms";
        m "model.sanitize_cycles" (Int64.to_float (model Obs.Sink.Sanitize)) "cycles";
        m "model.sync_cycles" (Int64.to_float (model Obs.Sink.Sync)) "cycles";
        m "model.relocate_cycles" (Int64.to_float (model Obs.Sink.Relocate)) "cycles";
        m "model.mpu_cycles" (Int64.to_float (model Obs.Sink.Mpu_config)) "cycles";
        m "monitor.synced_bytes" (float_of_int (stats (fun s -> s.Mon.Stats.synced_bytes))) "B";
        m "monitor.swaps" (float_of_int (stats (fun s -> s.Mon.Stats.virt_swaps))) "count";
        m "host.ref_ms" (median (ref_list ()) /. 1e6) "ms";
        m "trace.overhead_pct"
          (100. *. (div (per_pass_norm runs pass_n) (per_pass_norm untraced untraced_n) -. 1.))
          "%";
        m "trace.reconcile_pct"
          (100. *. div (float_of_int layer_self) (float_of_int wall)) "%" ]
  in
  let reconciled = abs_float (float_of_int (wall - layer_self)) <= 0.1 *. float_of_int wall in
  let consistent = switches = pass_n * stats (fun s -> s.Mon.Stats.switches) in
  (metrics, reconciled, consistent)

(* Per-job layer split over the traced passes, for the report. *)
let job_notes ~jobs ~runs ~roots ~pass_n ~scale =
  let by_job = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace by_job r.run_id r.job) runs;
  let n = Array.length jobs in
  let cell () = Array.make n 0 in
  let exb = cell () and exp = cell () and dev = cell () and mon = cell ()
  and prep = cell () in
  for i = 0 to T.span_count () - 1 do
    if List.exists (fun r -> T.within i r) roots then
      match Hashtbl.find_opt by_job (T.run_of i) with
      | None -> ()
      | Some j ->
        let add a x = a.(j) <- a.(j) + x in
        (match T.name i with
        | "exec.baseline" -> add exb (T.self i)
        | "exec.protected" -> add exp (T.self i)
        | "runner.prepare" | "monitor.init" -> add prep (T.self i)
        | _ -> ());
        add dev (T.leaf_self i T.Device_read + T.leaf_self i T.Device_write);
        add mon
          (List.fold_left (fun a k -> a + T.leaf_self i k) 0
             [ T.Mon_enter; T.Mon_exit; T.Mon_svc; T.Mon_mem_fault; T.Mon_bus_fault ])
  done;
  let ms x = float_of_int x /. 1e6 *. scale /. float_of_int pass_n in
  Printf.sprintf "%-22s %10s %10s %10s %10s %10s %10s" "job (ms/run, normalized)"
    "exec.base" "exec.prot" "residual" "device" "monitor" "prepare"
  :: List.init n (fun j ->
         Printf.sprintf "%-22s %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f"
           jobs.(j).label (ms exb.(j)) (ms exp.(j)) (ms (exp.(j) - exb.(j)))
           (ms dev.(j)) (ms mon.(j)) (ms prep.(j)))

(* --- one process -------------------------------------------------------- *)

(* [f ()] inside a root span of the traced run; returns its result and
   the span. *)
let root name f =
  let id = ref (-1) in
  let v = T.span name (fun () -> id := T.span_count () - 1; f ()) in
  (v, !id)

let describe jobs r =
  Option.map
    (fun e ->
      Printf.sprintf "FAILED %s %s: %s" jobs.(r.job).label
        (match r.kind with Baseline -> "baseline" | Protected -> "protected")
        e)
    r.err

(* Untraced ([trace = false]): set-ups, then passes for [seconds];
   end-to-end metrics.  Traced: set-ups traced, a third of [seconds]
   of untraced passes (the tracing-overhead reference), two thirds of
   traced passes; per-layer metrics. *)
let run spec ~size ~seed ~seconds ~trace =
  T.reset ();
  refs.T.Vec.n <- 0;
  ref_ok := true;
  T.set_enabled trace;
  let (jobs, setup, setup_n), setup_root =
    root "setup" (fun () -> setup_reps spec size seed)
  in
  T.set_enabled false;
  let untraced, untraced_n =
    if trace then passes jobs (seconds /. 3.) else ([], 0)
  in
  T.set_enabled trace;
  let gc0 = Gc.quick_stat () in
  let (runs, pass_n), loop_root =
    root "loop" (fun () -> passes jobs (if trace then seconds *. 2. /. 3. else seconds))
  in
  let gc1 = Gc.quick_stat () in
  T.set_enabled false;
  let heap_mb = heap_peak_mb () in
  let judged = judge jobs (untraced @ runs) in
  let runs = List.filteri (fun i _ -> i >= List.length untraced) judged in
  let failed = List.length (List.filter (fun r -> r.err <> None) judged) in
  let failures = List.filter_map (describe jobs) judged in
  let metrics, notes, checks_ok =
    if not trace then (end_to_end ~norm:true ~heap_mb ~setup ~runs, [], true)
    else
      let scale = scale_of (median (ref_list ())) in
      let roots = [ setup_root; loop_root ] in
      let metrics, reconciled, consistent =
        per_layer ~jobs ~runs ~untraced ~roots ~setup_n ~pass_n
          ~untraced_n ~scale ~gc0 ~gc1 ~exact:(exact_counts jobs)
      in
      let notes =
        job_notes ~jobs ~runs ~roots:[ loop_root ] ~pass_n ~scale
        @ (if reconciled then []
           else [ "FAILED: per-layer self times do not reconcile with the traced wall time" ])
        @ (if consistent then []
           else [ "FAILED: traced monitor trap count differs from the monitor's statistics" ])
      in
      (metrics, notes, reconciled && consistent)
  in
  let cycles =
    Array.to_list
      (Array.mapi
         (fun j job ->
           let first k =
             match List.find_opt (fun r -> r.job = j && r.kind = k) judged with
             | Some r -> r.obs.cycles
             | None -> -1L
           in
           (job.label, first Baseline, first Protected))
         jobs)
  in
  let envelope =
    envelope spec ~seed ~seconds ~trace ~size ~jobs ~setup_n
      ~pass_n ~runs
      ~ref_ms:(median (ref_list ()) /. 1e6)
      ~raw:(end_to_end ~norm:false ~heap_mb ~setup ~runs)
      ~cycles
  in
  { correct = failed = 0 && !ref_ok && checks_ok;
    attempted = List.length judged;
    failed;
    metrics;
    cycles;
    envelope;
    notes = List.filteri (fun i _ -> i < 10) failures @ notes }
