(* Self-tests of the benchmark, at tiny workload sizes and one pass:

   - every workload emits every end-to-end metric, untraced, and every
     per-layer metric, traced, each with the unit BENCHMARK.json gives
     it, and every run passes its checks;
   - the same seed gives identical model cycles;
   - two seeds give different switch-storm scripts, different model
     cycles, and the same metric set. *)

open Perfbench

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* BENCHMARK.json lists each metric as {"name": N, "unit": U, ...}. *)
let declared = read_file "../BENCHMARK.json"

let run spec ~seed ~trace =
  let r = Bench.run spec ~size:Workload.Tiny ~seed ~seconds:0. ~trace in
  if not r.Bench.correct then
    fail "%s (trace %b): incorrect run\n%s" spec.Workload.name trace
      (String.concat "\n" r.Bench.notes);
  if r.Bench.failed <> 0 || r.Bench.attempted = 0 then
    fail "%s: %d of %d runs failed" spec.Workload.name r.Bench.failed r.Bench.attempted;
  List.iter
    (fun m ->
      let entry = Printf.sprintf "{\"name\": %S, \"unit\": %S" m.Bench.m_name m.Bench.unit_ in
      if not (contains declared entry) then
        fail "%s: metric %s [%s] is not declared in BENCHMARK.json" spec.Workload.name
          m.Bench.m_name m.Bench.unit_;
      if not (Float.is_finite m.Bench.value) then
        fail "%s: metric %s is not a finite number" spec.Workload.name m.Bench.m_name)
    r.Bench.metrics;
  r

let names r = List.map (fun m -> m.Bench.m_name) r.Bench.metrics

(* Every workload and metric name BENCHMARK.json declares. *)
let declared_names =
  let key = "{\"name\": \"" in
  let rec go i acc =
    match String.index_from_opt declared i '{' with
    | None -> List.rev acc
    | Some j ->
      let k = j + String.length key in
      if k <= String.length declared && String.sub declared j (String.length key) = key
      then
        let e = String.index_from declared k '"' in
        go e (String.sub declared k (e - k) :: acc)
      else go (j + 1) acc
  in
  go 0 []

let () =
  let spec name = Option.get (Workload.find name) in
  List.iter
    (fun s ->
      if not (List.mem s.Workload.name declared_names) then
        fail "workload %s is not declared in BENCHMARK.json" s.Workload.name)
    Workload.specs;
  let counts = ref [] in
  List.iter
    (fun s ->
      let e2e = run s ~seed:1 ~trace:false in
      let layer = run s ~seed:1 ~trace:true in
      counts := (s.Workload.name, List.length (names e2e), List.length (names layer)) :: !counts;
      List.iter
        (fun n ->
          if not (List.mem n (names e2e @ names layer)) then
            fail "%s: declared metric %s is not reported" s.Workload.name n)
        (List.filter (fun n -> Workload.find n = None) declared_names);
      (* the same seed, again: identical model cycles per job *)
      let again = run s ~seed:1 ~trace:false in
      if again.Bench.cycles <> e2e.Bench.cycles then
        fail "%s: same seed, different model cycles" s.Workload.name)
    Workload.specs;
  (* every workload reports the same metric set *)
  (match List.sort_uniq compare (List.map (fun (_, a, b) -> (a, b)) !counts) with
  | [ _ ] -> ()
  | _ -> fail "workloads report different metric sets");
  let storm = spec "switch-storm" in
  let a = Storm.script ~seed:1 50 and b = Storm.script ~seed:2 50 in
  if a = b then fail "switch-storm: seeds 1 and 2 give the same script";
  let r1 = run storm ~seed:1 ~trace:false and r2 = run storm ~seed:2 ~trace:false in
  if names r1 <> names r2 then fail "switch-storm: seeds change the metric set";
  if r1.Bench.cycles = r2.Bench.cycles then
    fail "switch-storm: seeds 1 and 2 give the same model cycles";
  print_endline "perfbench self-tests: ok"
