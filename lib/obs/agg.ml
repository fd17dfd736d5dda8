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
  mutable total : int64;
  mutable min : int64;
  mutable max : int64;
}

let hist_create () =
  {
    buckets = Array.make hist_buckets 0;
    samples = 0;
    total = 0L;
    min = Int64.max_int;
    max = 0L;
  }

let bucket_of cycles =
  let c = Int64.to_int cycles in
  if c <= 1 then 0
  else
    let rec floor_log2 i v = if v <= 1 then i else floor_log2 (i + 1) (v lsr 1) in
    min (hist_buckets - 1) (floor_log2 0 c)

let hist_add h cycles =
  h.buckets.(bucket_of cycles) <- h.buckets.(bucket_of cycles) + 1;
  h.samples <- h.samples + 1;
  h.total <- Int64.add h.total cycles;
  if cycles < h.min then h.min <- cycles;
  if cycles > h.max then h.max <- cycles

let hist_mean h =
  if h.samples = 0 then 0.
  else Int64.to_float h.total /. float_of_int h.samples

(* Bounds of bucket [i]: [0,1] for bucket 0, [2^i, 2^(i+1)-1] above. *)
let bucket_bounds i =
  if i = 0 then (0L, 1L)
  else
    ( Int64.shift_left 1L i,
      Int64.sub (Int64.shift_left 1L (min 62 (i + 1))) 1L )

(* Quantile estimate from the power-of-two buckets: find the bucket
   holding the q-th sample and interpolate linearly inside it.  The
   observed extremes stand in for the first and last occupied buckets'
   theoretical bounds, so interpolation never invents a value outside
   [min, max] — and p0/p100 are exactly the extremes, not estimates. *)
let hist_percentile h q =
  if h.samples = 0 then 0L
  else if q <= 0. then h.min
  else if q >= 1. then h.max
  else if h.samples = 1 then h.min (* min = max = the one sample *)
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
    let v =
      Int64.add lo
        (Int64.of_float (frac *. Int64.to_float (Int64.sub hi lo)))
    in
    let v = if v < h.min then h.min else v in
    if v > h.max then h.max else v
  end

(* Per-phase running totals, one cell per [Sink.phase]. *)
type phase_total = {
  mutable pt_cycles : int64;
  mutable pt_bytes : int;
  mutable pt_samples : int;
}

let phase_index = function
  | Sink.Sanitize -> 0
  | Sink.Sync -> 1
  | Sink.Relocate -> 2
  | Sink.Mpu_config -> 3

let n_phases = 4

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

type t = {
  ops : (string, op_agg) Hashtbl.t;
  matrix : (string * string, int) Hashtbl.t;  (* src -> dst switch counts *)
  all_latency : hist;           (* every counted switch span *)
  totals : phase_total array;   (* across all operations, incl. Init *)
  mutable switch_spans : int;   (* Enter + Exit + Thread spans *)
  mutable init_spans : int;
  mutable swap_events : int;
  mutable emulation_events : int;
  mutable denial_events : int;
  mutable svc_marks : int;
  mutable switch_cycles : int64;  (* total cycles inside counted spans *)
  mutable init_cycles : int64;
  mutable synced_bytes : int;
}

let create () =
  {
    ops = Hashtbl.create 17;
    matrix = Hashtbl.create 17;
    all_latency = hist_create ();
    totals = Array.init n_phases (fun _ -> { pt_cycles = 0L; pt_bytes = 0; pt_samples = 0 });
    switch_spans = 0;
    init_spans = 0;
    swap_events = 0;
    emulation_events = 0;
    denial_events = 0;
    svc_marks = 0;
    switch_cycles = 0L;
    init_cycles = 0L;
    synced_bytes = 0;
  }

let op t name =
  match Hashtbl.find_opt t.ops name with
  | Some o -> o
  | None ->
    let o =
      {
        op_name = name;
        enters = 0;
        exits = 0;
        threads = 0;
        op_latency = hist_create ();
        op_phases =
          Array.init n_phases (fun _ ->
              { pt_cycles = 0L; pt_bytes = 0; pt_samples = 0 });
        op_synced_bytes = 0;
        op_swaps = 0;
        op_emulations = 0;
        op_denials = 0;
      }
    in
    Hashtbl.add t.ops name o;
    o

(* The operation a span's cost is attributed to: the one being switched
   to on enter/thread, the one being left on exit. *)
let span_owner (s : Sink.span) =
  match s.Sink.sp_kind with
  | Sink.Enter | Sink.Thread | Sink.Init -> s.Sink.sp_dst
  | Sink.Exit -> s.Sink.sp_src

let add_phase_sample t o (p : Sink.phase_sample) =
  let i = phase_index p.Sink.ph in
  let cycles = Int64.sub p.Sink.ph_end p.Sink.ph_start in
  let cell = t.totals.(i) in
  cell.pt_cycles <- Int64.add cell.pt_cycles cycles;
  cell.pt_bytes <- cell.pt_bytes + p.Sink.ph_bytes;
  cell.pt_samples <- cell.pt_samples + 1;
  t.synced_bytes <- t.synced_bytes + p.Sink.ph_bytes;
  match o with
  | None -> ()
  | Some o ->
    let cell = o.op_phases.(i) in
    cell.pt_cycles <- Int64.add cell.pt_cycles cycles;
    cell.pt_bytes <- cell.pt_bytes + p.Sink.ph_bytes;
    cell.pt_samples <- cell.pt_samples + 1;
    o.op_synced_bytes <- o.op_synced_bytes + p.Sink.ph_bytes

let add t (e : Sink.event) =
  match e with
  | Sink.Switch s ->
    let owner_name = span_owner s in
    let o = if owner_name = "" then None else Some (op t owner_name) in
    let cycles = Sink.span_cycles s in
    (match s.Sink.sp_kind with
    | Sink.Init ->
      t.init_spans <- t.init_spans + 1;
      t.init_cycles <- Int64.add t.init_cycles cycles
    | Sink.Enter | Sink.Exit | Sink.Thread ->
      t.switch_spans <- t.switch_spans + 1;
      t.switch_cycles <- Int64.add t.switch_cycles cycles;
      hist_add t.all_latency cycles;
      let key = (s.Sink.sp_src, s.Sink.sp_dst) in
      Hashtbl.replace t.matrix key
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.matrix key));
      (match o with
      | None -> ()
      | Some o ->
        hist_add o.op_latency cycles;
        (match s.Sink.sp_kind with
        | Sink.Enter -> o.enters <- o.enters + 1
        | Sink.Exit -> o.exits <- o.exits + 1
        | Sink.Thread -> o.threads <- o.threads + 1
        | Sink.Init -> ())));
    List.iter (add_phase_sample t o) s.Sink.sp_phases
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

let phase_cycles t p = t.totals.(phase_index p).pt_cycles

(* Ops sorted by total span cycles spent on their behalf, descending. *)
let ops_by_cost t =
  Hashtbl.fold (fun _ o acc -> o :: acc) t.ops []
  |> List.sort (fun a b ->
         match compare b.op_latency.total a.op_latency.total with
         | 0 -> compare a.op_name b.op_name
         | c -> c)

let matrix_rows t =
  Hashtbl.fold (fun (src, dst) n acc -> (src, dst, n) :: acc) t.matrix []
  |> List.sort compare
