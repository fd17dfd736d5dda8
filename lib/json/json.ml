type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (string_of_int n)
let int64 n = Num (Int64.to_string n)

let fixed d x =
  if Float.is_finite x then Num (Printf.sprintf "%.*f" d x) else Null

(* --- writer ------------------------------------------------------------- *)

type layout = Compact | Spaced

let add_str b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add b layout v =
  let comma, colon =
    match layout with Compact -> (",", ":") | Spaced -> (", ", ": ")
  in
  let seq opn cls f xs =
    Buffer.add_char b opn;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b comma;
        f x)
      xs;
    Buffer.add_char b cls
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num n -> Buffer.add_string b n
  | Str s -> add_str b s
  | Arr xs -> seq '[' ']' (add b layout) xs
  | Obj ms ->
    seq '{' '}'
      (fun (k, x) ->
        add_str b k;
        Buffer.add_string b colon;
        add b layout x)
      ms

let to_string ?(layout = Compact) v =
  let b = Buffer.create 256 in
  add b layout v;
  Buffer.contents b

let rows members =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  List.iteri
    (fun i (k, layout, v) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "  ";
      add_str b k;
      Buffer.add_string b ": ";
      match v with
      | Arr ([] | (Arr _ | Obj _) :: _ as xs) ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b "\n    ";
            add b layout x)
          xs;
        Buffer.add_string b "\n  ]"
      | v -> add b layout v)
    members;
  Buffer.add_string b "\n}\n";
  Buffer.contents b

(* --- reader ------------------------------------------------------------- *)

exception Fail of int * string

let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let eof () = !pos >= n in
  let rec ws () =
    if (not (eof ())) && String.contains " \t\n\r" (peek ()) then (
      incr pos;
      ws ())
  in
  let expect c =
    if eof () || peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let word w v =
    let m = String.length w in
    if !pos + m <= n && String.sub s !pos m = w then (
      pos := !pos + m;
      v)
    else fail "invalid literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> fail "bad \\u escape"
    in
    let v = ref 0 in
    for i = 0 to 3 do v := (!v lsl 4) lor digit s.[!pos + i] done;
    pos := !pos + 4;
    !v
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if eof () then fail "unterminated string";
      let c = peek () in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if eof () then fail "unterminated string";
        let e = peek () in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          let u = hex4 () in
          if u >= 0xD800 && u < 0xDC00 then (
            if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
              fail "unpaired surrogate";
            pos := !pos + 2;
            let lo = hex4 () in
            if lo < 0xDC00 || lo >= 0xE000 then fail "unpaired surrogate";
            Buffer.add_utf_8_uchar b
              (Uchar.of_int (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))))
          else if u >= 0xDC00 && u < 0xE000 then fail "unpaired surrogate"
          else Buffer.add_utf_8_uchar b (Uchar.of_int u)
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control byte in string"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    let digits () =
      let d = !pos in
      while (not (eof ())) && peek () >= '0' && peek () <= '9' do incr pos done;
      if !pos = d then fail "expected digit"
    in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    if peek () = '.' then (
      incr pos;
      digits ());
    if peek () = 'e' || peek () = 'E' then (
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ());
    Num (String.sub s start (!pos - start))
  in
  let seq close item =
    ws ();
    if peek () = close then (
      incr pos;
      [])
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        if eof () then fail "unexpected end of input";
        let c = peek () in
        incr pos;
        if c = ',' then more acc
        else if c = close then List.rev acc
        else fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      more []
  in
  let rec value depth =
    if depth > max_depth then fail "nested too deeply";
    ws ();
    if eof () then fail "unexpected end of input";
    match peek () with
    | '{' ->
      incr pos;
      Obj
        (seq '}' (fun () ->
             ws ();
             let k = str () in
             ws ();
             expect ':';
             (k, value (depth + 1))))
    | '[' ->
      incr pos;
      Arr (seq ']' (fun () -> value (depth + 1)))
    | '"' -> Str (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | '-' | '0' .. '9' -> num ()
    | _ -> fail "unexpected character"
  in
  let v = value 0 in
  ws ();
  if not (eof ()) then fail "trailing content";
  v

let of_string s =
  match parse s with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "byte %d: %s" at msg)

(* --- accessors ---------------------------------------------------------- *)

let member k = function Obj ms -> List.assoc_opt k ms | _ -> None
let to_int = function Num n -> int_of_string_opt n | _ -> None
let to_int64 = function Num n -> Int64.of_string_opt n | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
