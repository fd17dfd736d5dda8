(** JSON values, one writer and one reader.

    Every JSON document the project emits — CLI [--json] reports, bench
    records, telemetry exports, fleet reports and journals — is built as
    a {!t} and rendered by {!to_string} or {!rows}; every JSON file it
    reads back (reference records, test fixtures) goes through
    {!of_string}.

    Strings are byte strings.  The writer escapes ['"'], ['\\'] and the
    control bytes below 0x20 and copies every other byte as is, so UTF-8
    text stays readable and the output is valid JSON whenever the
    strings are valid UTF-8.  The reader decodes [\uXXXX] escapes
    (surrogate pairs included) to UTF-8, so [of_string (to_string v)]
    gives back [v] for any byte strings. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** a number literal, written and read verbatim *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in order *)

(** {1 Numbers} *)

val int : int -> t
val int64 : int64 -> t

(** [fixed d x] writes [x] with [d] decimals ([%.*f]); [Null] when [x]
    is not finite. *)
val fixed : int -> float -> t

(** {1 Writing} *)

(** [Compact] writes [{"k":1,"a":[1,2]}]; [Spaced] writes
    [{"k": 1, "a": [1, 2]}].  Both stay on one line. *)
type layout = Compact | Spaced

val to_string : ?layout:layout -> t -> string

(** [rows members] writes a record file: a top-level object with one
    member per line, each written in its own layout.  A member whose
    value is an array of objects or arrays, or an empty array, puts one
    element per line.  Ends with a newline. *)
val rows : (string * layout * t) list -> string

(** {1 Reading} *)

(** [of_string s] parses one JSON value (surrounding whitespace
    allowed).  Never raises: malformed, truncated or too deeply nested
    input is an [Error] naming the byte offset. *)
val of_string : string -> (t, string) result

(** [member k v] is the first member [k] of object [v]. *)
val member : string -> t -> t option

val to_int : t -> int option
val to_int64 : t -> int64 option
val to_str : t -> string option
val to_list : t -> t list option
