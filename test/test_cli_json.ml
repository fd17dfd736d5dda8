(* JSON-output purity of the CLI: every [--json] mode must emit
   machine-parseable JSON on stdout — diagnostics and warnings belong
   on stderr.  These tests spawn the real binary and parse the captured
   stdout with the strict reader; a stray prose line anywhere in the
   stream fails the parse. *)

module Json = Opec_json.Json

(* The test binary runs from test/ inside the dune sandbox; the CLI
   executable lands next to it under ../bin. *)
let cli = Filename.concat (Filename.concat ".." "bin") "opec_cli.exe"

(* run a command, capture stdout (stderr goes to the null device), and
   return (exit_ok, stdout_text) *)
let capture cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status = Unix.WEXITED 0, Buffer.contents buf)

let json_lines what text =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) (what ^ ": produced output") true (lines <> []);
  List.map
    (fun line ->
      match Json.of_string line with
      | Ok v -> v
      | Error msg ->
        Alcotest.failf "%s: stdout line is not JSON (%s): %s" what msg line)
    lines

let field conv k v =
  match Option.bind (Json.member k v) conv with
  | Some x -> x
  | None -> Alcotest.failf "no field %S in %s" k (Json.to_string v)

let test_cmd_json what cmd () =
  if not (Sys.file_exists cli) then
    (* dune always builds bin/ alongside test/, so this is unreachable
       in a normal run; keep the message actionable just in case *)
    Alcotest.failf "CLI binary %s not found" cli
  else begin
    let ok, out = capture cmd in
    Alcotest.(check bool) (what ^ ": exit status zero") true ok;
    ignore (json_lines what out)
  end

(* A non-ASCII corpus path travels into the report as UTF-8 bytes; the
   report must still parse and give the path back unchanged. *)
let test_fuzz_unicode_corpus () =
  let dir = "_cli_json_corpus-\xc3\xa9" in
  let ok, out =
    capture
      (Filename.quote_command cli
         [ "fuzz"; "--seeds"; "0..1"; "--size"; "1"; "--corpus"; dir;
           "--budget"; "1"; "--out"; "_cli_json_fuzz"; "--json" ])
  in
  Alcotest.(check bool) "exit status zero" true ok;
  match json_lines "fuzz" out with
  | [ report ] ->
    Alcotest.(check string) "corpus_dir round-trips" dir
      (field Json.to_str "corpus_dir" report)
  | _ -> Alcotest.fail "expected exactly one JSON object"

(* Every workload's sync-schedule report: the decoded strings must be
   the very names the pipeline holds, so a writer that escapes them
   any other way than JSON does (OCaml's %S, say) is caught by value,
   not only by syntax. *)
let test_syncsets_names () =
  let module P = Opec_pipeline.Pipeline in
  let module Ss = Opec_analysis.Syncset in
  let ok, out = capture (Filename.quote_command cli [ "syncsets"; "--json" ]) in
  Alcotest.(check bool) "exit status zero" true ok;
  let reports = json_lines "syncsets" out in
  let apps = Opec_apps.Registry.all () in
  Alcotest.(check int) "one report per workload" (List.length apps)
    (List.length reports);
  List.iter2
    (fun (app : Opec_apps.App.t) report ->
      let name = app.Opec_apps.App.app_name in
      Alcotest.(check string) "app name" name (field Json.to_str "app" report);
      let ss = (P.image (P.ctx app)).Opec_core.Image.syncsets in
      Alcotest.(check (list string))
        (name ^ ": operation names")
        (Ss.ops ss)
        (List.map (field Json.to_str "op") (field Json.to_list "ops" report)))
    apps reports

(* A truncated reproducer is a clean error naming the file — exit 1 and
   the parse error on stderr — never an uncaught exception. *)
let test_replay_truncated () =
  let src = In_channel.with_open_bin "data/corpus/corpus-000000.sexp" In_channel.input_all in
  let path = "_cli_json_truncated.sexp" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub src 0 (String.length src / 2)));
  let err = path ^ ".err" in
  let code =
    Sys.command
      (Filename.quote_command cli [ "fuzz"; "--replay"; path ] ~stdout:Filename.null
         ~stderr:err)
  in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Alcotest.(check int) "exit status 1" 1 code;
  let contains needle =
    let n = String.length needle and h = String.length msg in
    let rec go i = i + n <= h && (String.sub msg i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("error names the file: " ^ msg) true (contains path);
  Alcotest.(check bool) "no internal error" false (contains "internal error")

(* An event target below 1 is a usage error (cmdliner's exit 124), not
   a one-event run that reports success. *)
let test_load_events_below_one () =
  List.iter
    (fun n ->
      let code =
        Sys.command
          (Filename.quote_command cli
             [ "load"; "--events=" ^ n; "request-storm" ]
             ~stdout:Filename.null ~stderr:Filename.null)
      in
      Alcotest.(check int) ("--events=" ^ n ^ ": exit status 124") 124 code)
    [ "-5"; "0" ]

let suite () =
  [ ( "cli-json",
      [ Alcotest.test_case "syncsets --json is pure JSON" `Slow
          (test_cmd_json "syncsets"
             (Filename.quote_command cli [ "syncsets"; "pinlock"; "--json" ]));
        Alcotest.test_case "load --json is pure JSON" `Slow
          (test_cmd_json "load"
             (Filename.quote_command cli
                [ "load"; "request-storm"; "--events"; "2000"; "--json" ]));
        Alcotest.test_case "fuzz --corpus --json is pure JSON" `Slow
          (test_cmd_json "fuzz"
             (Filename.quote_command cli
                [ "fuzz"; "--seeds"; "0..1"; "--size"; "1"; "--corpus";
                  "_cli_json_corpus"; "--budget"; "1"; "--out";
                  "_cli_json_fuzz"; "--json" ]));
        Alcotest.test_case "fuzz --json is pure JSON" `Slow
          (test_cmd_json "fuzz-blind"
             (Filename.quote_command cli
                [ "fuzz"; "--seeds"; "0..1"; "--size"; "1"; "--out";
                  "_cli_json_fuzz"; "--json" ]));
        Alcotest.test_case "fuzz --json with a non-ASCII corpus path" `Slow
          test_fuzz_unicode_corpus;
        Alcotest.test_case "syncsets --json names decode exactly" `Slow
          test_syncsets_names;
        Alcotest.test_case "fuzz --replay of a truncated file" `Slow
          test_replay_truncated;
        Alcotest.test_case "load --events below 1 is a usage error" `Slow
          test_load_events_below_one ] ) ]
