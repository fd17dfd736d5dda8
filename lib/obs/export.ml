(* Telemetry exporters: human text, machine JSON, and Chrome
   trace-event JSON (loadable in Perfetto / chrome://tracing).

   JSON goes through {!Opec_json.Json} and is emitted deterministically
   so exports diff cleanly across runs. *)

module Json = Opec_json.Json

(* ---- human text ---- *)

let opname = function "" -> "-" | s -> s

let text ?(events = false) (evs : Sink.event list) : string =
  let a = Agg.of_events evs in
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "switch spans     %d (enter/exit/thread)\n" a.Agg.switch_spans;
  pf "init spans       %d\n" a.Agg.init_spans;
  pf "switch cycles    %d (+ %d init)\n" a.Agg.switch_cycles
    a.Agg.init_cycles;
  pf "region swaps     %d\n" a.Agg.swap_events;
  pf "ppb emulations   %d\n" a.Agg.emulation_events;
  pf "denials          %d\n" a.Agg.denial_events;
  pf "svc marks        %d\n" a.Agg.svc_marks;
  pf "synced bytes     %d\n" a.Agg.synced_bytes;
  pf "\nphase breakdown (all spans incl. init):\n";
  List.iter
    (fun p ->
      let i = Agg.phase_index p in
      let c = a.Agg.totals.(i) in
      pf "  %-10s %10d cycles %10d bytes %6d legs\n" (Sink.phase_name p)
        c.Agg.pt_cycles c.Agg.pt_bytes c.Agg.pt_samples)
    Sink.phases;
  let ops = Agg.ops_by_cost a in
  if ops <> [] then begin
    pf "\nper operation:\n";
    pf "  %-20s %6s %6s %6s %10s %9s %10s %5s %5s %5s\n" "operation" "enter"
      "exit" "thr" "cycles" "mean" "bytes" "swap" "emu" "deny";
    List.iter
      (fun (o : Agg.op_agg) ->
        pf "  %-20s %6d %6d %6d %10d %9.1f %10d %5d %5d %5d\n" o.Agg.op_name
          o.Agg.enters o.Agg.exits o.Agg.threads o.Agg.op_latency.Agg.total
          (Agg.hist_mean o.Agg.op_latency)
          o.Agg.op_synced_bytes o.Agg.op_swaps o.Agg.op_emulations
          o.Agg.op_denials)
      ops
  end;
  let rows = Agg.matrix_rows a in
  if rows <> [] then begin
    pf "\nswitch matrix (src -> dst):\n";
    List.iter
      (fun (src, dst, n) ->
        pf "  %-20s -> %-20s %6d\n" (opname src) (opname dst) n)
      rows
  end;
  if a.Agg.all_latency.Agg.samples > 0 then begin
    pf "\nswitch latency (cycles, log2 buckets):\n";
    Array.iteri
      (fun i n ->
        if n > 0 then pf "  [%7d..%7d] %6d\n" (1 lsl i) ((1 lsl (i + 1)) - 1) n)
      a.Agg.all_latency.Agg.buckets;
    pf "  min %d  mean %.1f  max %d\n" a.Agg.all_latency.Agg.min
      (Agg.hist_mean a.Agg.all_latency)
      a.Agg.all_latency.Agg.max
  end;
  if events then begin
    pf "\nevents:\n";
    List.iter (fun e -> pf "  %s\n" (Fmt.str "%a" Sink.pp_event e)) evs
  end;
  Buffer.contents b

(* ---- machine JSON ---- *)

let json_info (i : Sink.M.Fault.info) =
  Json.Obj
    [ ("addr", Json.int i.Sink.M.Fault.addr);
      ( "access",
        Json.Str
          (match i.Sink.M.Fault.access with
          | Sink.M.Fault.Read -> "read"
          | Sink.M.Fault.Write -> "write"
          | Sink.M.Fault.Execute -> "execute") );
      ("privileged", Json.Bool i.Sink.M.Fault.privileged) ]

let json_region (r : Sink.region_id) =
  Json.Obj
    [ ("base", Json.int r.Sink.rg_base);
      ("size_log2", Json.int r.Sink.rg_size_log2) ]

let json_opt f = function None -> Json.Null | Some x -> f x

let json_event (e : Sink.event) =
  let tagged ty fields = Json.Obj (("type", Json.Str ty) :: fields) in
  match e with
  | Sink.Switch s ->
    tagged "switch"
      [ ("kind", Json.Str (Sink.kind_name s.Sink.sp_kind));
        ("src", Json.Str s.Sink.sp_src); ("dst", Json.Str s.Sink.sp_dst);
        ("start", Json.int64 s.Sink.sp_start); ("end", Json.int64 s.Sink.sp_end);
        ( "phases",
          Json.Arr
            (List.map
               (fun (p : Sink.phase_sample) ->
                 Json.Obj
                   [ ("phase", Json.Str (Sink.phase_name p.Sink.ph));
                     ("start", Json.int64 p.Sink.ph_start);
                     ("end", Json.int64 p.Sink.ph_end);
                     ("bytes", Json.int p.Sink.ph_bytes) ])
               s.Sink.sp_phases) ) ]
  | Sink.Region_swap r ->
    tagged "region_swap"
      [ ("op", Json.Str r.rs_op); ("slot", Json.int r.rs_slot);
        ("evicted", json_opt json_region r.rs_evicted);
        ("installed", json_region r.rs_installed);
        ("at", Json.int64 r.rs_at) ]
  | Sink.Emulation e ->
    tagged "emulation"
      [ ("op", Json.Str e.em_op); ("write", Json.Bool e.em_write);
        ("info", json_info e.em_info); ("at", Json.int64 e.em_at) ]
  | Sink.Denial d ->
    tagged "denial"
      [ ("op", Json.Str d.dn_op); ("reason", Json.Str d.dn_reason);
        ("info", json_opt json_info d.dn_info); ("at", Json.int64 d.dn_at) ]
  | Sink.Svc_switch s ->
    tagged "svc_switch"
      [ ("kind", Json.Str (Sink.kind_name s.sv_kind));
        ("entry", Json.Str s.sv_entry); ("at", Json.int64 s.sv_at) ]

let json (evs : Sink.event list) : string =
  let a = Agg.of_events evs in
  let int = Json.int in
  Json.rows
    [ ( "summary",
        Json.Spaced,
        Json.Obj
          [ ("switch_spans", int a.Agg.switch_spans);
            ("init_spans", int a.Agg.init_spans);
            ("switch_cycles", int a.Agg.switch_cycles);
            ("init_cycles", int a.Agg.init_cycles);
            ("region_swaps", int a.Agg.swap_events);
            ("emulations", int a.Agg.emulation_events);
            ("denials", int a.Agg.denial_events);
            ("svc_marks", int a.Agg.svc_marks);
            ("synced_bytes", int a.Agg.synced_bytes) ] );
      ( "phases",
        Json.Spaced,
        Json.Obj
          (List.map
             (fun p ->
               let c = a.Agg.totals.(Agg.phase_index p) in
               ( Sink.phase_name p,
                 Json.Obj
                   [ ("cycles", int c.Agg.pt_cycles);
                     ("bytes", int c.Agg.pt_bytes);
                     ("legs", int c.Agg.pt_samples) ] ))
             Sink.phases) );
      ( "operations",
        Json.Spaced,
        Json.Arr
          (List.map
             (fun (o : Agg.op_agg) ->
               Json.Obj
                 [ ("name", Json.Str o.Agg.op_name);
                   ("enters", int o.Agg.enters); ("exits", int o.Agg.exits);
                   ("threads", int o.Agg.threads);
                   ("cycles", int o.Agg.op_latency.Agg.total);
                   ("mean_cycles", Json.fixed 1 (Agg.hist_mean o.Agg.op_latency));
                   ("synced_bytes", int o.Agg.op_synced_bytes);
                   ("swaps", int o.Agg.op_swaps);
                   ("emulations", int o.Agg.op_emulations);
                   ("denials", int o.Agg.op_denials) ])
             (Agg.ops_by_cost a)) );
      ( "matrix",
        Json.Spaced,
        Json.Arr
          (List.map
             (fun (src, dst, n) ->
               Json.Obj
                 [ ("src", Json.Str src); ("dst", Json.Str dst);
                   ("count", int n) ])
             (Agg.matrix_rows a)) );
      ("events", Json.Compact, Json.Arr (List.map json_event evs)) ]

(* ---- Chrome trace-event JSON ---- *)

(* One tick = one cycle, reported through the microsecond [ts]/[dur]
   fields Perfetto expects; absolute durations read as if the core ran
   at 1 MHz, relative widths are exact. *)
let chrome (evs : Sink.event list) : string =
  let event ~name ~cat ~ts ?dur ~args () =
    Json.Obj
      ([ ("name", Json.Str name); ("cat", Json.Str cat);
         ("ph", Json.Str (if dur = None then "i" else "X"));
         ("ts", Json.int64 ts) ]
      @ (match dur with Some d -> [ ("dur", Json.int64 d) ] | None -> [])
      @ [ ("pid", Json.int 1); ("tid", Json.int 1) ]
      @ (if dur = None then [ ("s", Json.Str "t") ] else [])
      @ [ ("args", Json.Obj args) ])
  in
  let trace_events =
    List.concat_map
      (fun (e : Sink.event) ->
        match e with
        | Sink.Switch s ->
          let name =
            Printf.sprintf "%s %s->%s"
              (Sink.kind_name s.Sink.sp_kind)
              (opname s.Sink.sp_src) (opname s.Sink.sp_dst)
          in
          event ~name ~cat:"switch" ~ts:s.Sink.sp_start
            ~dur:(Sink.span_cycles s)
            ~args:
              [ ("kind", Json.Str (Sink.kind_name s.Sink.sp_kind));
                ("src", Json.Str s.Sink.sp_src);
                ("dst", Json.Str s.Sink.sp_dst) ]
            ()
          (* phase legs nest inside the span on the same track *)
          :: List.map
               (fun (p : Sink.phase_sample) ->
                 event
                   ~name:(Sink.phase_name p.Sink.ph)
                   ~cat:"phase" ~ts:p.Sink.ph_start
                   ~dur:(Int64.sub p.Sink.ph_end p.Sink.ph_start)
                   ~args:[ ("bytes", Json.int p.Sink.ph_bytes) ]
                   ())
               s.Sink.sp_phases
        | Sink.Region_swap r ->
          [ event
              ~name:(Printf.sprintf "swap slot %d" r.rs_slot)
              ~cat:"region-swap" ~ts:r.rs_at
              ~args:
                [ ("op", Json.Str r.rs_op);
                  ("installed_base", Json.int r.rs_installed.Sink.rg_base) ]
              () ]
        | Sink.Emulation e ->
          [ event
              ~name:(if e.em_write then "ppb store" else "ppb load")
              ~cat:"emulation" ~ts:e.em_at
              ~args:
                [ ("op", Json.Str e.em_op);
                  ("addr", Json.int e.em_info.Sink.M.Fault.addr) ]
              () ]
        | Sink.Denial d ->
          [ event ~name:"denial" ~cat:"denial" ~ts:d.dn_at
              ~args:[ ("op", Json.Str d.dn_op); ("reason", Json.Str d.dn_reason) ]
              () ]
        | Sink.Svc_switch s ->
          [ event
              ~name:(Printf.sprintf "svc %s" (Sink.kind_name s.sv_kind))
              ~cat:"svc" ~ts:s.sv_at
              ~args:[ ("entry", Json.Str s.sv_entry) ]
              () ])
      evs
  in
  Json.rows
    [ ("displayTimeUnit", Json.Spaced, Json.Str "ns");
      ("traceEvents", Json.Spaced, Json.Arr trace_events) ]

type format = Text | Json | Chrome

let format_name = function Text -> "text" | Json -> "json" | Chrome -> "chrome"

let render fmt evs =
  match fmt with
  | Text -> text evs
  | Json -> json evs
  | Chrome -> chrome evs
