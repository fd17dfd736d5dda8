(* The host-speed reference kernel.

   Host time on a shared machine drifts by tens of percent between
   processes, and the drift lands on the memory system: an
   allocation-free arithmetic loop does not follow it, while a loop
   that allocates short-lived cells and chases pointers through a hash
   table does.  The interpreter's own load is of the second kind (boxed
   int64 values, closures, hash-table lookups, short lists), so this
   kernel is built the same way and uses nothing from the repository:
   a change to the system under test can never change the yardstick.

   The benchmark runs it interleaved with the measured work and scales
   every host time by [nominal_ms] over the median kernel time around
   it. *)

(* Kernel time, in ms, that a normalized host is defined to take. *)
let nominal_ms = 10.0

let buckets = 4096
let steps = 40_000

(* One kernel run: a Hashtbl of short int64 lists, updated and folded
   [steps] times.  Returns a checksum so the work cannot be elided and
   a miscompiled kernel is caught. *)
let run () =
  let tbl : (int, int64 list) Hashtbl.t = Hashtbl.create buckets in
  let acc = ref 0L in
  for i = 0 to steps - 1 do
    let k = i * 7919 land (buckets * 2 - 1) in
    let l = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
    let l =
      if List.compare_length_with l 6 >= 0 then [ Int64.of_int i ]
      else Int64.of_int i :: l
    in
    Hashtbl.replace tbl k l;
    acc := List.fold_left (fun a x -> Int64.add a (Int64.mul x 3L)) !acc l
  done;
  !acc

let expected = lazy (run ())

(* Run the kernel once, timed by [now]; returns the time and whether
   the checksum matched. *)
let timed now =
  let t0 = now () in
  let sum = run () in
  let t1 = now () in
  (t1 - t0, sum = Lazy.force expected)
