(* perfbench: host-time benchmark of the OPEC reproduction.

   Usage (from the repository root):
     dune exec ./perfbench/main.exe -- --workload NAME --seed N
       --seconds S --trace 0|1

   Workloads: coremark-mpu, switch-storm, paper-mix.  With --trace 0 it
   prints the end-to-end metrics, with --trace 1 the per-layer ones
   from a traced run (spans are written to .perfbench/).  The last line
   of standard output is one JSON object:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   Exit code 0 when the run completed (the verdict is in "correct"),
   2 on a usage error. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload coremark-mpu|switch-storm|paper-mix --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | [] -> ()
    | flag :: v :: rest ->
      (match flag with
      | "--workload" -> workload := Workload.find v
      | "--seed" -> seed := int_of_string_opt v
      | "--seconds" -> seconds := Option.map float_of_int (int_of_string_opt v)
      | "--trace" -> trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None)
      | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some spec, Some seed, Some seconds, Some trace when seconds >= 0. ->
    let r = Bench.run spec ~size:Workload.Full ~seed ~seconds ~trace in
    List.iter print_endline r.Bench.notes;
    if trace then begin
      (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf ".perfbench/spans-%s-%d.jsonl" spec.Workload.name seed in
      Tracer.write path;
      Printf.printf "spans: %s (%d)\n" path (Tracer.span_count ())
    end;
    Printf.printf "{%s}\n"
      (String.concat ","
         (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) r.Bench.envelope));
    Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
      r.Bench.correct r.Bench.attempted r.Bench.failed
      (String.concat ","
         (List.map
            (fun x ->
              Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.Bench.m_name
                (Bench.json_num x.Bench.value) x.Bench.unit_)
            r.Bench.metrics))
  | _ -> usage ()
