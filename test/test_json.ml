(* The JSON module: writer/reader round trip over arbitrary byte
   strings, the exact escaping the pinned outputs rely on, and a reader
   that answers [Error] — never an exception — on truncated and mutated
   input. *)

module Json = Opec_json.Json
module Rng = Opec_fuzz.Rng

let parse = Json.of_string

(* --- round trip ---------------------------------------------------------- *)

(* strings drawn from all 256 byte values, so control bytes, quotes,
   backslashes, DEL and non-UTF-8 high bytes all occur *)
let bytes_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 12))

let value_gen =
  let open QCheck.Gen in
  let num =
    oneof
      [ map Json.int int; map Json.int64 ui64;
        map2 (fun d x -> Json.fixed d x) (int_bound 6) (float_range (-1e6) 1e6) ]
  in
  let scalar =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool; num;
        map (fun s -> Json.Str s) bytes_gen ]
  in
  sized_size (int_bound 3)
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [ (2, scalar);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n - 1))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair bytes_gen (self (n - 1)))) ) ])

let prop_round_trip =
  QCheck.Test.make ~count:500 ~name:"of_string (to_string v) = Ok v, every byte"
    (QCheck.make ~print:Json.to_string value_gen)
    (fun v ->
      List.for_all
        (fun layout -> parse (Json.to_string ~layout v) = Ok v)
        [ Json.Compact; Json.Spaced ]
      && parse (Json.rows [ ("k", Json.Compact, v); ("l", Json.Spaced, v) ])
         = Ok (Json.Obj [ ("k", v); ("l", v) ]))

(* the escape set every pinned output was produced with *)
let test_escapes () =
  Alcotest.(check string) "escapes" ({|"a\"b\\c\nd\te\u0001\u001f|} ^ "\127\"")
    (Json.to_string (Json.Str "a\"b\\c\nd\te\001\031\127"));
  Alcotest.(check string) "UTF-8 passes through" "\"caf\xc3\xa9\""
    (Json.to_string (Json.Str "caf\xc3\xa9"));
  Alcotest.(check string) "layouts" {|{"a":[1,2],"b":null}|}
    (Json.to_string (Json.Obj [ ("a", Json.Arr [ Json.int 1; Json.int 2 ]); ("b", Json.Null) ]));
  Alcotest.(check string) "spaced" {|{"a": [1, 2], "b": 1.50}|}
    (Json.to_string ~layout:Json.Spaced
       (Json.Obj [ ("a", Json.Arr [ Json.int 1; Json.int 2 ]); ("b", Json.fixed 2 1.5) ]));
  Alcotest.(check string) "rows"
    "{\n  \"n\": 1,\n  \"r\": [\n    {\"x\":1},\n    {\"x\":2}\n  ],\n  \"e\": [\n  ]\n}\n"
    (Json.rows
       [ ("n", Json.Spaced, Json.int 1);
         ( "r",
           Json.Compact,
           Json.Arr [ Json.Obj [ ("x", Json.int 1) ]; Json.Obj [ ("x", Json.int 2) ] ] );
         ("e", Json.Spaced, Json.Arr []) ]);
  Alcotest.(check bool) "non-finite fixed is null" true (Json.fixed 1 Float.nan = Json.Null)

let test_reader_cases () =
  let ok s v = Alcotest.(check bool) s true (parse s = Ok v) in
  ok {| "\u00e9\ud83d\ude00" |} (Json.Str "\xc3\xa9\xf0\x9f\x98\x80");
  ok "[-0.5e+3, 0, true]" (Json.Arr [ Json.Num "-0.5e+3"; Json.Num "0"; Json.Bool true ]);
  List.iter
    (fun s ->
      match parse s with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "%S parsed as %s" s (Json.to_string v))
    [ ""; "{"; "[1,]"; "{\"a\"}"; "01"; "1."; "-"; "\"\\ud800\""; "\"\\x\"";
      "\"a\nb\""; "nul"; "[1] 2"; String.make 100_000 '[' ]

(* --- the reader never raises -------------------------------------------- *)

(* Real documents: the checked-in references the tests read back. *)
let corpus () =
  List.map
    (fun f -> In_channel.with_open_bin (Filename.concat "data" f) In_channel.input_all)
    [ "load_p99_ref.json"; "pinned_runs.json"; "pre_refactor_pinlock_campaign.json" ]

let no_raise what s =
  match parse s with
  | Ok _ | Error _ -> ()
  | exception e -> Alcotest.failf "%s: reader raised %s" what (Printexc.to_string e)

(* Every strict prefix that stops before the closing bracket is an
   [Error]. *)
let test_truncated () =
  List.iter
    (fun doc ->
      let close = String.rindex doc (if doc.[0] = '[' then ']' else '}') in
      for k = 0 to close do
        no_raise "prefix" (String.sub doc 0 k);
        match parse (String.sub doc 0 k) with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "prefix of %d bytes parsed" k
      done)
    (corpus ())

(* Seeded byte-level mutations — flip, insert, delete, duplicate a span
   — in the fuzzer's style: a seed fully identifies the mutant. *)
let mutate rng doc =
  let n = String.length doc in
  let at = Rng.below rng (max 1 n) in
  let interesting = "{}[]\",:\\0123456789-+.eEtfnu \n\x00\x7f\xc3\xff" in
  let byte () = interesting.[Rng.below rng (String.length interesting)] in
  match Rng.below rng 4 with
  | 0 -> String.mapi (fun i c -> if i = at then byte () else c) doc
  | 1 -> String.sub doc 0 at ^ String.make 1 (byte ()) ^ String.sub doc at (n - at)
  | 2 -> String.sub doc 0 at ^ String.sub doc (min n (at + 1)) (n - min n (at + 1))
  | _ ->
    let len = Rng.below rng (min 64 (n - at) + 1) in
    String.sub doc 0 at ^ String.sub doc at len ^ String.sub doc at (n - at)

let test_mutated () =
  let docs = corpus () in
  for seed = 0 to 1999 do
    let rng = Rng.create seed in
    let doc = ref (Rng.choose rng docs) in
    for _ = 1 to 1 + Rng.below rng 4 do doc := mutate rng !doc done;
    no_raise (Printf.sprintf "seed %d" seed) !doc
  done

let suite () =
  [ ( "json",
      [ QCheck_alcotest.to_alcotest prop_round_trip;
        Alcotest.test_case "writer escapes and layouts" `Quick test_escapes;
        Alcotest.test_case "reader accepts and rejects" `Quick test_reader_cases;
        Alcotest.test_case "truncated input is an Error" `Quick test_truncated;
        Alcotest.test_case "mutated input never raises" `Quick test_mutated ] ) ]
