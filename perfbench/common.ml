(* Metrics, order statistics and the result line shared by every
   workload. *)

let now = Unix.gettimeofday

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;  (* how many measurements the value summarises *)
}

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Float.Array.length sorted in
  let rank = int_of_float (Float.ceil (p /. 100. *. float n)) in
  Float.Array.get sorted (max 0 (min (n - 1) (rank - 1)))

let sorted xs =
  let a = Float.Array.copy xs in
  Float.Array.sort compare a;
  a

let median xs = percentile (sorted (Float.Array.of_list xs)) 50.

(* Per-operation samples in a growing Bigarray: off the OCaml heap, so
   keeping them neither adds to peak_heap_words nor makes it grow with
   the number of operations a run got through. *)
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type samples = { mutable data : floats; mutable len : int }

let floats n : floats = Bigarray.(Array1.create float64 c_layout n)
let samples () = { data = floats 4096; len = 0 }

let push s x =
  if s.len = Bigarray.Array1.dim s.data then begin
    let d = floats (2 * s.len) in
    Bigarray.Array1.(blit s.data (sub d 0 s.len));
    s.data <- d
  end;
  Bigarray.Array1.unsafe_set s.data s.len x;
  s.len <- s.len + 1

let get s i = Bigarray.Array1.get s.data i
let to_float_array s = Float.Array.init s.len (get s)

(* How many samples lie above the nearest-rank [p] percentile. *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100. *. float n))

(* The highest of the usual tail percentiles with at least ten samples
   beyond it, for the human-readable report. *)
let supported_tail n =
  List.fold_left
    (fun acc p -> if beyond n p >= 10 then p else acc)
    50. [ 90.; 95.; 99.; 99.9; 99.99 ]

(* Throughput and latency of a timed run: functions done over the
   run's wall time, and the median and p99 of the per-function latencies
   (seconds in, milliseconds out). The p99 is only reported with at least
   ten samples beyond it. *)
let timing ~elapsed lat =
  let a = sorted (to_float_array lat) in
  let n = lat.len in
  if beyond n 99. < 10 then
    failwith
      (Printf.sprintf "only %d latency samples: p99 needs at least 1000" n);
  let ms p = 1000. *. percentile a p in
  let tail = supported_tail n in
  ( [
      metric ~samples:n "funcs_per_s" "1/s" (float n /. elapsed);
      metric ~samples:n "latency_ms_p50" "ms" (ms 50.);
      metric ~samples:n "latency_ms_p99" "ms" (ms 99.);
    ],
    Printf.sprintf "%d functions in %.3f s; latency tail p%g = %.4f ms (%d \
                    samples beyond)"
      n elapsed tail (ms tail) (beyond n tail) )

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (* human-readable lines printed before the JSON *)
}

(* Failures are collected, never raised: the run always finishes and
   reports how many of its operations failed. *)
type failures = { mutable count : int; mutable first : string list }

let failures () = { count = 0; first = [] }

let fail fs msg =
  fs.count <- fs.count + 1;
  if List.length fs.first < 5 then fs.first <- msg :: fs.first

(* Fisher-Yates, in place, from the benchmark's seed. *)
let shuffle ~seed a =
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Words allocated so far by the calling domain: minor plus direct major
   allocations (promotion moves words, it does not allocate them). *)
let domain_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The same, summed over every domain the process has run. *)
let gc_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* Names and units are plain ASCII, so quoting is all JSON needs; a
   value that is not finite is a benchmark bug, not a number to print. *)
let json_number name x =
  if not (Float.is_finite x) then
    invalid_arg ("metric " ^ name ^ " is not finite")
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
          (json_number m.name m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
