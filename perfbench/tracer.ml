(* Spans around the calls the benchmark makes into each layer.

   Two kinds of record, both kept in memory and written out at exit:

   - a span per call whose count stays small (a pipeline stage, a run's
     prepare / init / interpreter run, a reference-kernel run): name,
     start, end, parent span, run id, and self time (duration minus the
     time its children cover);
   - a per-span aggregate per leaf kind for calls that happen up to a
     million times a run (a device register access, a monitor trap, a
     telemetry emit): count, busy time and self time, summed into the
     nearest enclosing span.

   Times come from the monotonic clock in ns.  When tracing is off,
   [span] and [leaf*] call straight through. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Process CPU time (user + system), ns: getrusage resolution, and it
   leaves out the time the process is descheduled on a shared host. *)
let cpu_now () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

(* Leaf kinds, aggregated per enclosing span. *)
type leaf =
  | Device_read
  | Device_write
  | Mon_enter
  | Mon_exit
  | Mon_mem_fault
  | Mon_bus_fault
  | Mon_svc
  | Obs_emit

let leaves =
  [ Device_read; Device_write; Mon_enter; Mon_exit; Mon_mem_fault;
    Mon_bus_fault; Mon_svc; Obs_emit ]

let n_leaves = List.length leaves

let leaf_index = function
  | Device_read -> 0
  | Device_write -> 1
  | Mon_enter -> 2
  | Mon_exit -> 3
  | Mon_mem_fault -> 4
  | Mon_bus_fault -> 5
  | Mon_svc -> 6
  | Obs_emit -> 7

let leaf_name = function
  | Device_read -> "device.read"
  | Device_write -> "device.write"
  | Mon_enter -> "monitor.enter"
  | Mon_exit -> "monitor.exit"
  | Mon_mem_fault -> "monitor.mem_fault"
  | Mon_bus_fault -> "monitor.bus_fault"
  | Mon_svc -> "monitor.svc"
  | Obs_emit -> "obs.emit"

(* Growable int array. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let ensure v n =
    if n > Array.length v.a then begin
      let a = Array.make (max n (2 * Array.length v.a)) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end

  let push v x =
    ensure v (v.n + 1);
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
  let add v i x = v.a.(i) <- v.a.(i) + x
end

type t = {
  mutable on : bool;
  mutable run_id : int;
  (* spans, by index *)
  mutable names : string array;
  start : Vec.t;
  stop : Vec.t;
  parent : Vec.t;
  run : Vec.t;
  self : Vec.t;
  (* per-span leaf aggregates: index [span * n_leaves + leaf] *)
  l_count : Vec.t;
  l_busy : Vec.t;
  l_self : Vec.t;
  (* the open-frame stack *)
  st_start : int array;
  st_child : int array;
  mutable depth : int;
  mutable cur : int;  (* innermost open span, -1 if none *)
}

let max_depth = 256

let t =
  { on = false;
    run_id = 0;
    names = Array.make 1024 "";
    start = Vec.create ();
    stop = Vec.create ();
    parent = Vec.create ();
    run = Vec.create ();
    self = Vec.create ();
    l_count = Vec.create ();
    l_busy = Vec.create ();
    l_self = Vec.create ();
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    depth = 0;
    cur = -1 }

(* Forget every span. *)
let reset () =
  t.on <- false;
  t.run_id <- 0;
  List.iter
    (fun v -> v.Vec.n <- 0)
    [ t.start; t.stop; t.parent; t.run; t.self; t.l_count; t.l_busy; t.l_self ];
  t.depth <- 0;
  t.cur <- -1

let enabled () = t.on
let set_enabled b = t.on <- b
let span_count () = t.start.Vec.n

(* Spans opened from now on carry a fresh run id. *)
let next_run () = t.run_id <- t.run_id + 1

let push_frame t0 =
  if t.depth >= max_depth then failwith "tracer: span stack overflow";
  t.st_start.(t.depth) <- t0;
  t.st_child.(t.depth) <- 0;
  t.depth <- t.depth + 1

(* Close the innermost frame at [t1]: charge its duration to the
   enclosing frame's children and return its self time. *)
let pop_frame t1 =
  t.depth <- t.depth - 1;
  let d = t.depth in
  let dur = t1 - t.st_start.(d) in
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  dur - t.st_child.(d)

let open_span name =
  let i = span_count () in
  if i >= Array.length t.names then begin
    let a = Array.make (2 * i) "" in
    Array.blit t.names 0 a 0 i;
    t.names <- a
  end;
  t.names.(i) <- name;
  let t0 = now () in
  Vec.push t.start t0;
  Vec.push t.stop t0;
  Vec.push t.parent t.cur;
  Vec.push t.run t.run_id;
  Vec.push t.self 0;
  List.iter
    (fun v ->
      Vec.ensure v ((i + 1) * n_leaves);
      v.Vec.n <- (i + 1) * n_leaves;
      Array.fill v.Vec.a (i * n_leaves) n_leaves 0)
    [ t.l_count; t.l_busy; t.l_self ];
  push_frame t0;
  t.cur <- i;
  i

let close_span i =
  let t1 = now () in
  let self = pop_frame t1 in
  Vec.set t.stop i t1;
  Vec.set t.self i self;
  t.cur <- Vec.get t.parent i

(* [span name f] runs [f] inside a recorded span. *)
let span name f =
  if not t.on then f ()
  else begin
    let i = open_span name in
    match f () with
    | v ->
      close_span i;
      v
    | exception e ->
      close_span i;
      raise e
  end

let close_leaf k =
  let t1 = now () in
  let self = pop_frame t1 in
  if t.cur >= 0 then begin
    let j = (t.cur * n_leaves) + leaf_index k in
    Vec.add t.l_count j 1;
    Vec.add t.l_busy j (t1 - t.st_start.(t.depth));
    Vec.add t.l_self j self
  end

(* [leaf1 k f a] / [leaf2] / [leaf3]: an aggregated leaf call; no
   closure is allocated per call. *)
let leaf1 k f a =
  if not t.on then f a
  else begin
    push_frame (now ());
    match f a with
    | v ->
      close_leaf k;
      v
    | exception e ->
      close_leaf k;
      raise e
  end

let leaf2 k f a b =
  if not t.on then f a b
  else begin
    push_frame (now ());
    match f a b with
    | v ->
      close_leaf k;
      v
    | exception e ->
      close_leaf k;
      raise e
  end

let leaf3 k f a b c =
  if not t.on then f a b c
  else begin
    push_frame (now ());
    match f a b c with
    | v ->
      close_leaf k;
      v
    | exception e ->
      close_leaf k;
      raise e
  end

(* --- reading the record ---------------------------------------------- *)

let name i = t.names.(i)
let start i = Vec.get t.start i
let stop i = Vec.get t.stop i
let duration i = stop i - start i
let self i = Vec.get t.self i
let parent i = Vec.get t.parent i
let run_of i = Vec.get t.run i

let leaf_count i k = Vec.get t.l_count ((i * n_leaves) + leaf_index k)
let leaf_busy i k = Vec.get t.l_busy ((i * n_leaves) + leaf_index k)
let leaf_self i k = Vec.get t.l_self ((i * n_leaves) + leaf_index k)

(* Is span [i] inside span [anc] (or equal to it)? *)
let rec within i anc = i = anc || (i >= 0 && within (parent i) anc)

(* Write every span, one JSON object a line. *)
let write path =
  let oc = open_out path in
  for i = 0 to span_count () - 1 do
    let calls =
      List.filter_map
        (fun k ->
          let n = leaf_count i k in
          if n = 0 then None
          else
            Some
              (Printf.sprintf "%S:[%d,%d,%d]" (leaf_name k) n (leaf_busy i k)
                 (leaf_self i k)))
        leaves
    in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"run\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d,\"calls\":{%s}}\n"
      i (name i) (run_of i) (parent i) (start i) (stop i) (self i)
      (String.concat "," calls)
  done;
  close_out oc
