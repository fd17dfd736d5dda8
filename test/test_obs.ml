(* Telemetry tests: the counter-drift differential (monitor Stats
   counters vs the telemetry event stream, over every registry
   workload), cycle identity of the instrumented run, exporter
   reconciliation, and the trace forward-view cache. *)

module Apps = Opec_apps
module Mon = Opec_monitor
module Obs = Opec_obs
module E = Opec_exec
module P = Opec_pipeline.Pipeline
module Json = Opec_json.Json

let spans evs =
  List.filter_map (function Obs.Sink.Switch s -> Some s | _ -> None) evs

let span_bytes (s : Obs.Sink.span) =
  List.fold_left
    (fun acc (p : Obs.Sink.phase_sample) -> acc + p.Obs.Sink.ph_bytes)
    0 s.Obs.Sink.sp_phases

(* Every Stats counter must agree exactly with its telemetry shadow:
   drift between the two means an emission site or a counter bump is
   missing. *)
let check_app (app : Apps.App.t) =
  let o = P.protected_obs (P.ctx app) in
  P.reraise o.P.o_err;
  let st = o.P.o_stats in
  let a = Obs.Agg.of_events o.P.o_events in
  let name = app.Apps.App.app_name in
  let chk what expected got =
    Alcotest.(check int) (Printf.sprintf "%s: %s" name what) expected got
  in
  chk "switch spans = Stats.switches" st.Mon.Stats.switches
    a.Obs.Agg.switch_spans;
  chk "swap events = Stats.virt_swaps" st.Mon.Stats.virt_swaps
    a.Obs.Agg.swap_events;
  chk "emulation events = Stats.emulations" st.Mon.Stats.emulations
    a.Obs.Agg.emulation_events;
  chk "denial events = Stats.denied" st.Mon.Stats.denied
    a.Obs.Agg.denial_events;
  chk "svc marks = Interp.switches" o.P.o_switches a.Obs.Agg.svc_marks;
  chk "Interp.switches = Stats.switches" st.Mon.Stats.switches o.P.o_switches;
  chk "span bytes = Stats.synced_bytes" st.Mon.Stats.synced_bytes
    a.Obs.Agg.synced_bytes;
  (* the per-span bytes reconcile too, not just the aggregate *)
  chk "summed span bytes = Stats.synced_bytes" st.Mon.Stats.synced_bytes
    (List.fold_left
       (fun acc s -> acc + span_bytes s)
       0
       (spans o.P.o_events))

let test_counter_drift () = List.iter check_app (Apps.Registry.all_small ())

(* Tracing and telemetry must not perturb a run: every protected stage
   reports the cycles and statistics of the untraced protected reference,
   and every plain baseline stage the cycles, check result, and footprint
   of the function-traced baseline — which is what lets one builder serve
   all of them. *)
let test_cycle_identity () =
  List.iter
    (fun (app : Apps.App.t) ->
      let c = P.ctx app in
      let chk what = app.Apps.App.app_name ^ ": " ^ what in
      let stats s = Fmt.str "%a" Mon.Stats.pp s in
      let p = P.protected_ c in
      let t = P.protected_traced c in
      let o = P.protected_obs c in
      List.iter
        (fun (stage, cycles, st) ->
          Alcotest.(check int64) (chk stage ^ " cycles") p.P.p_cycles cycles;
          Alcotest.(check string) (chk stage ^ " stats") (stats p.P.p_stats)
            (stats st))
        [ ("protected-traced", t.P.p_cycles, t.P.p_stats);
          ("protected-obs", o.P.o_cycles, o.P.o_stats) ];
      let b = P.baseline c in
      let check = function Ok () -> "ok" | Error e -> e in
      List.iter
        (fun (stage, (v : P.baseline)) ->
          Alcotest.(check int64) (chk stage ^ " cycles") b.P.b_cycles
            v.P.b_cycles;
          Alcotest.(check string) (chk stage ^ " check") (check b.P.b_check)
            (check v.P.b_check);
          Alcotest.(check int) (chk stage ^ " flash") b.P.b_flash v.P.b_flash;
          Alcotest.(check int) (chk stage ^ " sram") b.P.b_sram v.P.b_sram)
        [ ("baseline-untraced", P.baseline_untraced c);
          ("baseline-traced", P.baseline_traced c) ])
    (Apps.Registry.all_small ())

(* ---- exporter reconciliation --------------------------------------- *)

let occurrences hay needle =
  let n = String.length hay and m = String.length needle in
  let count = ref 0 in
  for i = 0 to n - m do
    if String.equal (String.sub hay i m) needle then incr count
  done;
  !count

let pinlock_obs () =
  let o = P.protected_obs (P.ctx (Apps.Registry.pinlock ~rounds:5 ())) in
  P.reraise o.P.o_err;
  o

let test_chrome_reconciles () =
  let o = pinlock_obs () in
  let evs = o.P.o_events in
  let a = Obs.Agg.of_events evs in
  let s = Obs.Export.chrome evs in
  Alcotest.(check int) "one complete event per span (incl. init)"
    (a.Obs.Agg.switch_spans + a.Obs.Agg.init_spans)
    (occurrences s "\"cat\": \"switch\"");
  let legs =
    Array.fold_left
      (fun acc (t : Obs.Agg.phase_total) -> acc + t.Obs.Agg.pt_samples)
      0 a.Obs.Agg.totals
  in
  Alcotest.(check int) "one complete event per phase leg" legs
    (occurrences s "\"cat\": \"phase\"");
  Alcotest.(check int) "one instant per emulation" a.Obs.Agg.emulation_events
    (occurrences s "\"cat\": \"emulation\"");
  Alcotest.(check int) "one instant per region swap" a.Obs.Agg.swap_events
    (occurrences s "\"cat\": \"region-swap\"");
  Alcotest.(check int) "one instant per denial" a.Obs.Agg.denial_events
    (occurrences s "\"cat\": \"denial\"");
  Alcotest.(check int) "one instant per svc mark" a.Obs.Agg.svc_marks
    (occurrences s "\"cat\": \"svc\"");
  (* spans reconcile with the Stats counters, the acceptance bar *)
  Alcotest.(check int) "chrome spans = Stats.switches"
    o.P.o_stats.Mon.Stats.switches
    (occurrences s "\"cat\": \"switch\"" - a.Obs.Agg.init_spans);
  Alcotest.(check bool) "wrapped as a trace-event document" true
    (occurrences s "\"traceEvents\"" = 1 && occurrences s "\"displayTimeUnit\"" = 1)

let test_json_reconciles () =
  let o = pinlock_obs () in
  let evs = o.P.o_events in
  let a = Obs.Agg.of_events evs in
  let s = Obs.Export.json evs in
  Alcotest.(check int) "one switch object per span"
    (a.Obs.Agg.switch_spans + a.Obs.Agg.init_spans)
    (occurrences s "{\"type\":\"switch\"");
  Alcotest.(check int) "one emulation object per event"
    a.Obs.Agg.emulation_events
    (occurrences s "{\"type\":\"emulation\"");
  Alcotest.(check int) "one svc object per mark" a.Obs.Agg.svc_marks
    (occurrences s "{\"type\":\"svc_switch\"")

let test_text_renders () =
  let o = pinlock_obs () in
  let s = Obs.Export.text o.P.o_events in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (occurrences s needle >= 1))
    [ "switch spans"; "phase breakdown"; "per operation"; "switch matrix" ]

(* ---- null sink ------------------------------------------------------ *)

let test_null_sink_inert () =
  Alcotest.(check bool) "null sink is inactive" false
    Obs.Sink.null.Obs.Sink.active;
  (* emitting into it is a no-op, not an error *)
  Obs.Sink.null.Obs.Sink.emit
    (Obs.Sink.Svc_switch
       { sv_kind = Obs.Sink.Enter; sv_entry = "x"; sv_at = 0L })

(* ---- trace forward-view cache --------------------------------------- *)

let test_trace_cache () =
  let tr = E.Trace.create () in
  tr.E.Trace.enabled <- true;
  E.Trace.record tr (E.Trace.Call "a");
  E.Trace.record tr (E.Trace.Call "b");
  let v1 = E.Trace.events tr in
  let v2 = E.Trace.events tr in
  Alcotest.(check bool) "repeated reads share the cached view" true (v1 == v2);
  Alcotest.(check (list string)) "execution order"
    [ "a"; "b" ]
    (List.map (function E.Trace.Call f -> f | _ -> "?") v1);
  E.Trace.record tr (E.Trace.Call "c");
  let v3 = E.Trace.events tr in
  Alcotest.(check bool) "a record invalidates the cache" true (v1 != v3);
  Alcotest.(check int) "new view sees the new event" 3 (List.length v3);
  E.Trace.clear tr;
  Alcotest.(check (list string)) "clear resets both views" []
    (List.map (fun _ -> "?") (E.Trace.events tr))

(* ---- pinned exports ------------------------------------------------- *)

(* Digests of every exporter's output for each registry workload under
   the MPU, against data/obs_export_digests.json.  The event stream, the
   aggregate behind the text and JSON reports, and their number
   formatting are all covered, so a change to the monitor's recorder or
   to [Agg]'s counters that alters one byte of output fails here.  On a
   difference the current table is written to obs_export_digests.json.actual
   next to the test binary. *)
let export_ref = "data/obs_export_digests.json"

let export_table () =
  let rows =
    List.map
      (fun (app : Apps.App.t) ->
        let o = P.protected_obs (P.ctx app) in
        P.reraise o.P.o_err;
        let digest f =
          Json.Str (Digest.to_hex (Digest.string (Obs.Export.render f o.P.o_events)))
        in
        Json.to_string ~layout:Json.Spaced
          (Json.Obj
             [ ("app", Json.Str app.Apps.App.app_name);
               ("json", digest Obs.Export.Json);
               ("chrome", digest Obs.Export.Chrome);
               ("text", digest Obs.Export.Text) ]))
      (Apps.Registry.all_small ())
  in
  "[\n" ^ String.concat ",\n" rows ^ "\n]\n"

let test_export_digests () =
  let ic = open_in_bin export_ref in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let actual = export_table () in
  if not (String.equal expected actual) then begin
    let out = "obs_export_digests.json.actual" in
    let oc = open_out_bin out in
    output_string oc actual;
    close_out oc;
    Alcotest.failf "export digests differ from %s (current table in %s)"
      export_ref out
  end

let suite () =
  [ ( "obs",
      [ Alcotest.test_case "counter drift (all workloads)" `Quick
          test_counter_drift;
        Alcotest.test_case "cycle identity" `Quick test_cycle_identity;
        Alcotest.test_case "chrome export reconciles" `Quick
          test_chrome_reconciles;
        Alcotest.test_case "json export reconciles" `Quick
          test_json_reconciles;
        Alcotest.test_case "text export renders" `Quick test_text_renders;
        Alcotest.test_case "null sink inert" `Quick test_null_sink_inert;
        Alcotest.test_case "trace forward cache" `Quick test_trace_cache;
        Alcotest.test_case "export digests pinned (all workloads, MPU)"
          `Quick test_export_digests ] ) ]
