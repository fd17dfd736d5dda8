(* Per-operation aggregation over a telemetry stream: switch-latency
   histograms, a source->destination switch matrix, per-phase cycle and
   byte totals, and per-operation event counts (paper, Section 6.3). *)

(* Power-of-two latency buckets: bucket [i] counts spans whose cycle
   cost is in [2^i, 2^(i+1)).  32 buckets cover every span an [int]
   cycle counter can produce. *)
let hist_buckets = 32

type hist = {
  buckets : int array;
  mutable samples : int;
  mutable total : int;
  mutable min : int;
  mutable max : int;
}

let hist_create () =
  { buckets = Array.make hist_buckets 0; samples = 0; total = 0;
    min = max_int; max = 0 }

let bucket_of c =
  if c <= 1 then 0
  else
    let rec floor_log2 i v = if v <= 1 then i else floor_log2 (i + 1) (v lsr 1) in
    min (hist_buckets - 1) (floor_log2 0 c)

let hist_add_cycles h c =
  let b = bucket_of c in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.samples <- h.samples + 1;
  h.total <- h.total + c;
  if c < h.min then h.min <- c;
  if c > h.max then h.max <- c

let hist_add h cycles = hist_add_cycles h (Int64.to_int cycles)

let hist_mean h =
  if h.samples = 0 then 0. else float_of_int h.total /. float_of_int h.samples

(* Bounds of bucket [i]: [0,1] for bucket 0, [2^i, 2^(i+1)-1] above. *)
let bucket_bounds i = if i = 0 then (0, 1) else (1 lsl i, (1 lsl (i + 1)) - 1)

(* Quantile estimate from the power-of-two buckets: find the bucket
   holding the q-th sample and interpolate linearly inside it.  The
   observed extremes stand in for the first and last occupied buckets'
   theoretical bounds, so interpolation never invents a value outside
   [min, max] — and p0/p100 are exactly the extremes, not estimates. *)
let hist_percentile h q =
  if h.samples = 0 then 0L
  else if q <= 0. then Int64.of_int h.min
  else if q >= 1. then Int64.of_int h.max
  else if h.samples = 1 then Int64.of_int h.min (* min = max = the one sample *)
  else begin
    let rank = Float.max 1. (Float.of_int h.samples *. q) in
    let rec locate i seen =
      if i >= hist_buckets then hist_buckets - 1
      else
        let seen' = seen + h.buckets.(i) in
        if Float.of_int seen' >= rank then i else locate (i + 1) seen'
    in
    let rec seen_before i acc k =
      if k >= i then acc else seen_before i (acc + h.buckets.(k)) (k + 1)
    in
    let rec first_occupied i =
      if i >= hist_buckets - 1 || h.buckets.(i) > 0 then i
      else first_occupied (i + 1)
    in
    let rec last_occupied i =
      if i <= 0 || h.buckets.(i) > 0 then i else last_occupied (i - 1)
    in
    let b = locate 0 0 in
    let lo, hi = bucket_bounds b in
    (* the observed extremes live in the outermost occupied buckets, so
       they are tighter (and always correct) endpoints *)
    let lo = if b = first_occupied 0 then h.min else lo in
    let hi = if b = last_occupied (hist_buckets - 1) then h.max else hi in
    let inside = h.buckets.(b) in
    let frac =
      if inside = 0 then 0.
      else (rank -. Float.of_int (seen_before b 0 0)) /. Float.of_int inside
    in
    let v = lo + int_of_float (frac *. float_of_int (hi - lo)) in
    Int64.of_int (Stdlib.min h.max (Stdlib.max h.min v))
  end

(* Per-phase running totals, one cell per [Sink.phase]. *)
type phase_total = {
  mutable pt_cycles : int;
  mutable pt_bytes : int;
  mutable pt_samples : int;
}

let phase_index = function
  | Sink.Sanitize -> 0
  | Sink.Sync -> 1
  | Sink.Relocate -> 2
  | Sink.Mpu_config -> 3

let n_phases = 4

let phase_totals () =
  Array.init n_phases (fun _ -> { pt_cycles = 0; pt_bytes = 0; pt_samples = 0 })

type op_agg = {
  op_name : string;
  mutable enters : int;
  mutable exits : int;
  mutable threads : int;
  op_latency : hist;            (* Enter/Exit/Thread spans landing here *)
  op_phases : phase_total array;
  mutable op_synced_bytes : int;
  mutable op_swaps : int;
  mutable op_emulations : int;
  mutable op_denials : int;
}

let op_agg name =
  { op_name = name; enters = 0; exits = 0; threads = 0;
    op_latency = hist_create (); op_phases = phase_totals ();
    op_synced_bytes = 0; op_swaps = 0; op_emulations = 0; op_denials = 0 }

(* Lookups remembered by the physical identity of their name strings.
   An emitter passes the same string for the same operation on every
   event (the monitor passes its [Operation.t]'s name), so after the
   first event of an operation or a switch pair a lookup is a short
   scan of [==] tests; a string seen for the first time takes the
   structural tables and is remembered while room lasts. *)
let memo_slots = 32

type memo = {
  op_keys : string array;
  op_vals : op_agg array;
  mutable op_n : int;
  pair_src : string array;
  pair_dst : string array;
  pair_count : int ref array;
  mutable pair_n : int;
}

type t = {
  ops : (string, op_agg) Hashtbl.t;
  matrix : (string * string, int ref) Hashtbl.t;  (* src -> dst switch counts *)
  all_latency : hist;           (* every counted switch span *)
  totals : phase_total array;   (* across all operations, incl. Init *)
  mutable switch_spans : int;   (* Enter + Exit + Thread spans *)
  mutable init_spans : int;
  mutable swap_events : int;
  mutable emulation_events : int;
  mutable denial_events : int;
  mutable svc_marks : int;
  mutable switch_cycles : int;  (* total cycles inside counted spans *)
  mutable init_cycles : int;
  mutable synced_bytes : int;
  memo : memo;
}

(* Stands for "no operation" (a span owner of [""]) without an option. *)
let no_op = op_agg ""

let create () =
  {
    ops = Hashtbl.create 17;
    matrix = Hashtbl.create 17;
    all_latency = hist_create ();
    totals = phase_totals ();
    switch_spans = 0;
    init_spans = 0;
    swap_events = 0;
    emulation_events = 0;
    denial_events = 0;
    svc_marks = 0;
    switch_cycles = 0;
    init_cycles = 0;
    synced_bytes = 0;
    memo =
      { op_keys = Array.make memo_slots ""; op_vals = Array.make memo_slots no_op;
        op_n = 0; pair_src = Array.make memo_slots "";
        pair_dst = Array.make memo_slots ""; pair_count = Array.make memo_slots (ref 0);
        pair_n = 0 };
  }

let op_slow t name =
  match Hashtbl.find_opt t.ops name with
  | Some o -> o
  | None ->
    let o = op_agg name in
    Hashtbl.add t.ops name o;
    o

let rec op_scan t m name i =
  if i < m.op_n then
    if m.op_keys.(i) == name then m.op_vals.(i) else op_scan t m name (i + 1)
  else begin
    let o = op_slow t name in
    if m.op_n < memo_slots then begin
      m.op_keys.(m.op_n) <- name;
      m.op_vals.(m.op_n) <- o;
      m.op_n <- m.op_n + 1
    end;
    o
  end

let op t name = op_scan t t.memo name 0

let pair_slow t src dst =
  match Hashtbl.find_opt t.matrix (src, dst) with
  | Some c -> c
  | None ->
    let c = ref 0 in
    Hashtbl.add t.matrix (src, dst) c;
    c

let rec pair_scan t m src dst i =
  if i < m.pair_n then
    if m.pair_src.(i) == src && m.pair_dst.(i) == dst then m.pair_count.(i)
    else pair_scan t m src dst (i + 1)
  else begin
    let c = pair_slow t src dst in
    if m.pair_n < memo_slots then begin
      m.pair_src.(m.pair_n) <- src;
      m.pair_dst.(m.pair_n) <- dst;
      m.pair_count.(m.pair_n) <- c;
      m.pair_n <- m.pair_n + 1
    end;
    c
  end

(* The operation a span's cost is attributed to: the one being switched
   to on enter/thread, the one being left on exit. *)
let span_owner (s : Sink.span) =
  match s.Sink.sp_kind with
  | Sink.Enter | Sink.Thread | Sink.Init -> s.Sink.sp_dst
  | Sink.Exit -> s.Sink.sp_src

let add_cell cell cycles bytes =
  cell.pt_cycles <- cell.pt_cycles + cycles;
  cell.pt_bytes <- cell.pt_bytes + bytes;
  cell.pt_samples <- cell.pt_samples + 1

let rec add_phases t o = function
  | [] -> ()
  | (p : Sink.phase_sample) :: rest ->
    let i = phase_index p.Sink.ph in
    let cycles = Int64.to_int p.Sink.ph_end - Int64.to_int p.Sink.ph_start in
    let bytes = p.Sink.ph_bytes in
    add_cell t.totals.(i) cycles bytes;
    t.synced_bytes <- t.synced_bytes + bytes;
    if o != no_op then begin
      add_cell o.op_phases.(i) cycles bytes;
      o.op_synced_bytes <- o.op_synced_bytes + bytes
    end;
    add_phases t o rest

let add t (e : Sink.event) =
  match e with
  | Sink.Switch s ->
    let owner_name = span_owner s in
    let o = if String.equal owner_name "" then no_op else op t owner_name in
    let cycles = Int64.to_int s.Sink.sp_end - Int64.to_int s.Sink.sp_start in
    (match s.Sink.sp_kind with
    | Sink.Init ->
      t.init_spans <- t.init_spans + 1;
      t.init_cycles <- t.init_cycles + cycles
    | Sink.Enter | Sink.Exit | Sink.Thread ->
      t.switch_spans <- t.switch_spans + 1;
      t.switch_cycles <- t.switch_cycles + cycles;
      hist_add_cycles t.all_latency cycles;
      let c = pair_scan t t.memo s.Sink.sp_src s.Sink.sp_dst 0 in
      incr c;
      if o != no_op then begin
        hist_add_cycles o.op_latency cycles;
        match s.Sink.sp_kind with
        | Sink.Enter -> o.enters <- o.enters + 1
        | Sink.Exit -> o.exits <- o.exits + 1
        | Sink.Thread -> o.threads <- o.threads + 1
        | Sink.Init -> ()
      end);
    add_phases t o s.Sink.sp_phases
  | Sink.Region_swap r ->
    t.swap_events <- t.swap_events + 1;
    if r.rs_op <> "" then (
      let o = op t r.rs_op in
      o.op_swaps <- o.op_swaps + 1)
  | Sink.Emulation e ->
    t.emulation_events <- t.emulation_events + 1;
    if e.em_op <> "" then (
      let o = op t e.em_op in
      o.op_emulations <- o.op_emulations + 1)
  | Sink.Denial d ->
    t.denial_events <- t.denial_events + 1;
    if d.dn_op <> "" then (
      let o = op t d.dn_op in
      o.op_denials <- o.op_denials + 1)
  | Sink.Svc_switch _ -> t.svc_marks <- t.svc_marks + 1

let of_events events =
  let t = create () in
  List.iter (add t) events;
  t

(* Every telemetry event the aggregate has consumed — the load suite's
   "events observed" half of its throughput accounting. *)
let event_count t =
  t.switch_spans + t.init_spans + t.swap_events + t.emulation_events
  + t.denial_events + t.svc_marks

let phase_cycles t p = Int64.of_int t.totals.(phase_index p).pt_cycles

(* Ops sorted by total span cycles spent on their behalf, descending. *)
let ops_by_cost t =
  Hashtbl.fold (fun _ o acc -> o :: acc) t.ops []
  |> List.sort (fun a b ->
         match compare b.op_latency.total a.op_latency.total with
         | 0 -> compare a.op_name b.op_name
         | c -> c)

let matrix_rows t =
  Hashtbl.fold (fun (src, dst) n acc -> (src, dst, !n) :: acc) t.matrix []
  |> List.sort compare
