(* The three benchmark workloads, their set-up through the pipeline,
   and one timed firmware run.

   A job is one (application, backend) image.  A run builds a fresh
   world, prepares the machine, and runs the [Compiled] engine with the
   interpreter's function trace off, as the pipeline's own untraced
   protected run does.  With tracing on, the calls into each layer are
   wrapped in spans (see [Tracer]). *)

module M = Opec_machine
module E = Opec_exec
module C = Opec_core
module Mon = Opec_monitor
module P = Opec_pipeline.Pipeline
module Apps = Opec_apps
module Obs = Opec_obs
module T = Tracer

type size = Full | Tiny

type spec = {
  name : string;
  apps : size -> int -> Apps.App.t list;  (* size -> seed -> apps *)
  backends : M.Backend.kind list;
  telemetry : bool;  (* attach an [Obs.Agg] sink to protected runs *)
  setup_reps : int;
}

let storm_requests = function Full -> 5000 | Tiny -> 50

let specs =
  [ { name = "coremark-mpu";
      apps =
        (fun size _ ->
          [ (match size with
            | Full -> Apps.Registry.coremark ()
            | Tiny -> Apps.Registry.coremark ~iterations:1 ()) ]);
      backends = [ M.Backend.Mpu ];
      telemetry = false;
      setup_reps = 41 };
    { name = "switch-storm";
      apps = (fun size seed -> [ Storm.app ~seed (storm_requests size) ]);
      backends = [ M.Backend.Mpu ];
      telemetry = true;
      setup_reps = 41 };
    { name = "paper-mix";
      apps =
        (fun size _ ->
          match size with
          | Full -> Apps.Registry.all ()
          | Tiny -> Apps.Registry.all_small ());
      backends = M.Backend.all_kinds;
      telemetry = false;
      setup_reps = 11 } ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* --- jobs: one (app, backend) image ---------------------------------- *)

type job = {
  label : string;
  app : Apps.App.t;
  backend : M.Backend.kind;
  ctx : P.ctx;
  image : C.Image.t;
  telemetry : bool;
}

type kind = Baseline | Protected

(* What a run produced; two runs of one (job, kind) must agree. *)
type obs = { cycles : int64; stats : Mon.Stats.t option }

type run = {
  job : int;
  kind : kind;
  run_id : int;  (* the tracer's run id *)
  ref_idx : int;  (* the reference-kernel sample taken just before *)
  ns : int;
  obs : obs;
  err : string option;
  minor_words : float;  (* allocated while the interpreter ran *)
}

let stage name f = T.span ("pipeline." ^ name) f

(* Compile one image through every pipeline stage, one span each. *)
let compile ~telemetry app backend =
  let ctx = P.ctx ~backend app in
  ignore (stage "validated" (fun () -> P.validated ctx));
  ignore (stage "points_to" (fun () -> P.points_to ctx));
  ignore (stage "callgraph" (fun () -> P.callgraph ctx));
  ignore (stage "resources" (fun () -> P.resources ctx));
  ignore (stage "ops" (fun () -> P.ops ctx));
  ignore (stage "syncsets" (fun () -> P.syncsets ctx));
  let image = stage "image" (fun () -> P.image ctx) in
  { label = app.Apps.App.app_name ^ "/" ^ M.Backend.kind_name backend;
    app;
    backend;
    ctx;
    image;
    telemetry }

(* One set-up: world templates (the apps) plus every image, from an
   empty pipeline store. *)
let setup spec size seed =
  P.reset ();
  let apps = T.span "world.template" (fun () -> spec.apps size seed) in
  List.concat_map
    (fun app ->
      List.map (compile ~telemetry:spec.telemetry app) spec.backends)
    apps

(* --- one firmware run -------------------------------------------------- *)

let traced_device (d : M.Device.t) =
  { d with
    M.Device.read = (fun off w -> T.leaf2 T.Device_read d.M.Device.read off w);
    write = (fun off w v -> T.leaf3 T.Device_write d.M.Device.write off w v) }

let traced_handler (h : E.Interp.handler) =
  let enter entry args = h.E.Interp.on_operation_enter ~entry ~args in
  let exit_ entry = h.E.Interp.on_operation_exit ~entry in
  { E.Interp.on_operation_enter =
      (fun ~entry ~args -> T.leaf2 T.Mon_enter enter entry args);
    on_operation_exit = (fun ~entry -> T.leaf1 T.Mon_exit exit_ entry);
    on_mem_fault = (fun a i -> T.leaf2 T.Mon_mem_fault h.E.Interp.on_mem_fault a i);
    on_bus_fault = (fun a i -> T.leaf2 T.Mon_bus_fault h.E.Interp.on_bus_fault a i);
    on_svc = (fun n -> T.leaf1 T.Mon_svc h.E.Interp.on_svc n) }

let world job =
  T.span "world" (fun () ->
      let w = job.app.Apps.App.make_world () in
      w.Apps.App.prepare ();
      let devices =
        if T.enabled () then List.map traced_device w.Apps.App.devices
        else w.Apps.App.devices
      in
      (w, devices))

let interp_run kind f =
  let name = match kind with Baseline -> "exec.baseline" | Protected -> "exec.protected" in
  let w0 = Gc.minor_words () in
  T.span name f;
  Gc.minor_words () -. w0

let check (w : Apps.App.world) =
  match T.span "world.check" w.Apps.App.check with
  | Ok () -> None
  | Error m -> Some ("check: " ^ m)

let run_baseline job =
  let w, devices = world job in
  let r =
    T.span "runner.prepare" (fun () ->
        Mon.Runner.prepare_baseline ~devices ~engine:E.Interp.Compiled
          ~board:job.app.Apps.App.board job.app.Apps.App.program)
  in
  (E.Interp.trace r.Mon.Runner.b_interp).E.Trace.enabled <- false;
  let minor = interp_run Baseline (fun () -> E.Interp.run r.Mon.Runner.b_interp) in
  ({ cycles = E.Interp.cycles r.Mon.Runner.b_interp; stats = None }, check w, minor)

(* Point the stack at the image's stack region, as the pipeline's
   protected runs do before [Monitor.init]. *)
let init_stack (r : Mon.Runner.protected_run) (image : C.Image.t) =
  let cpu = r.Mon.Runner.bus.M.Bus.cpu in
  let map = image.C.Image.map in
  cpu.M.Cpu.sp <- map.E.Address_map.stack_top;
  cpu.M.Cpu.stack_base <- map.E.Address_map.stack_base;
  cpu.M.Cpu.stack_limit <- map.E.Address_map.stack_top

let run_protected job =
  let w, devices = world job in
  let agg = if job.telemetry then Some (Obs.Agg.create ()) else None in
  let sink =
    Option.map
      (fun a ->
        Obs.Sink.make
          (if T.enabled () then fun ev -> T.leaf2 T.Obs_emit Obs.Agg.add a ev
           else Obs.Agg.add a))
      agg
  in
  let wrap_handler = if T.enabled () then Some traced_handler else None in
  let image = job.image in
  let r =
    T.span "runner.prepare" (fun () ->
        Mon.Runner.prepare ~devices ?wrap_handler ~engine:E.Interp.Compiled ?sink
          image)
  in
  (E.Interp.trace r.Mon.Runner.interp).E.Trace.enabled <- false;
  init_stack r image;
  T.span "monitor.init" (fun () -> Mon.Monitor.init r.Mon.Runner.monitor);
  let minor =
    interp_run Protected (fun () ->
        E.Interp.run ~reset_stack:false r.Mon.Runner.interp)
  in
  let stats = Mon.Monitor.stats r.Mon.Runner.monitor in
  let err =
    match (check w, agg) with
    | (Some _ as e), _ -> e
    | None, Some a
      when a.Obs.Agg.switch_spans <> stats.Mon.Stats.switches
           || a.Obs.Agg.synced_bytes <> stats.Mon.Stats.synced_bytes ->
      Some "telemetry does not reconcile with the monitor's statistics"
    | None, _ -> None
  in
  ({ cycles = E.Interp.cycles r.Mon.Runner.interp; stats = Some stats }, err, minor)

(* Run one (job, kind), timed; any exception is a failed run. *)
let timed_run ~ref_idx jobs j kind =
  T.next_run ();
  let span = match kind with Baseline -> "run.baseline" | Protected -> "run.protected" in
  let t0 = T.cpu_now () in
  let res =
    try
      Ok
        (T.span span (fun () ->
             match kind with
             | Baseline -> run_baseline jobs.(j)
             | Protected -> run_protected jobs.(j)))
    with e -> Error (Printexc.to_string e)
  in
  let ns = T.cpu_now () - t0 in
  match res with
  | Ok (obs, err, minor_words) ->
    { job = j; kind; run_id = T.t.T.run_id; ref_idx; ns; obs; err; minor_words }
  | Error m ->
    { job = j;
      kind;
      run_id = T.t.T.run_id;
      ref_idx;
      ns;
      obs = { cycles = -1L; stats = None };
      err = Some ("raised " ^ m);
      minor_words = 0. }

(* MPU-visible loads and stores of one protected run of [job], counted
   from the interpreter's memory trace (untimed). *)
let accesses job =
  let w = job.app.Apps.App.make_world () in
  w.Apps.App.prepare ();
  let r =
    Mon.Runner.prepare ~devices:w.Apps.App.devices ~engine:E.Interp.Compiled
      job.image
  in
  let tr = E.Interp.trace r.Mon.Runner.interp in
  tr.E.Trace.enabled <- true;
  tr.E.Trace.mem <- true;
  init_stack r job.image;
  (* a run that fails is reported by the timed runs; count what it did *)
  (try
     Mon.Monitor.init r.Mon.Runner.monitor;
     E.Interp.run ~reset_stack:false r.Mon.Runner.interp
   with _ -> ());
  let n =
    List.fold_left
      (fun a e -> match e with E.Trace.Access _ -> a + 1 | _ -> a)
      0 tr.E.Trace.rev_events
  in
  E.Trace.clear tr;
  n
