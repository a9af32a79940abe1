(* Timing that holds still on a shared host. The benchmark's host drifts:
   a fixed loop runs up to a third slower for seconds at a time, and
   process CPU time drifts with the wall clock, so neither clock alone
   tells a slower program from a slower host. Two corrections, both
   reported beside the raw figures, never instead of them:

   - Reference speed. Between operations, once [interval] seconds of
     work have passed since the last block, the run times one block of a
     fixed reference kernel. Each operation's time is rescaled by the
     median block time around it, to what it would have taken on a host
     where a block takes [nominal_s].

   - Lower decile per operation. A timed run repeats the same operations
     (a sweep compiles every function again; a server sees the same
     requests again), each under a key. Each operation counts with the
     lower decile of its key's rescaled times, which drops the repeats
     that a neighbour's burst of work slowed down.

   The kernel lives here, not in the library, so no change to the
   program moves it. It allocates nothing on the OCaml heap (its table
   is a Bigarray), so it neither triggers nor pays for the program's
   garbage collection, and all of the program's GC work stays in the
   program's time. It chases a random cycle through a table that fits a
   core's own cache, with a little arithmetic per step: like the
   compiler, it is bound by loads and branches more than by arithmetic,
   and a neighbour on the same core slows it through the same caches.
   Of the tables tried (256 KiB, 2 MiB, both summed), this one tracked
   the compile workloads best: over five seeds of paper-large, the
   spread (IQR over median) of functions per second was 0.12 raw, 0.085
   at the speed of the 2 MiB table and 0.024 at this one's; on corpus,
   0.085, 0.073 and 0.065. *)

open Common
open Bigarray

let table_words = 1 lsl 15
let steps = 100_000

(* A block's median time on one pinned vCPU of a 2-vCPU Intel Xeon VM.
   It only sets the scale: the figures at reference speed are about the
   raw ones a host of that speed gives. *)
let nominal_s = 0.002

(* Work between two blocks: the blocks take about a tenth of the run. *)
let interval = 0.02

(* Blocks on either side of an operation whose median rescales it. *)
let half_width = 8

(* One cycle through every slot (Sattolo's algorithm), fixed seed. *)
let table =
  let a = Array1.create int c_layout table_words in
  for i = 0 to table_words - 1 do
    Array1.unsafe_set a i i
  done;
  let rng = Random.State.make [| 0x5eed |] in
  for i = table_words - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = Array1.unsafe_get a i in
    Array1.unsafe_set a i (Array1.unsafe_get a j);
    Array1.unsafe_set a j t
  done;
  a

let sink = ref 0

let kernel () =
  let i = ref 0 and acc = ref 0 in
  for _ = 1 to steps do
    let j = Array1.unsafe_get table !i in
    acc := if j land 1 = 0 then (!acc * 31) + j else !acc lxor (j lsl 3);
    i := j
  done;
  sink := !acc

type t = {
  mutable peak_heap : int;
      (* most heap words seen between operations or at the end of a
         major collection *)
  mutable alarm : Gc.alarm option;
  keys : samples;  (* which operation each was, as a float *)
  lat : samples;  (* seconds each operation took *)
  fin : samples;  (* when each operation finished *)
  starts : samples;  (* when each block started ... *)
  ends : samples;  (* ... and ended *)
}

let block p =
  push p.starts (now ());
  kernel ();
  push p.ends (now ())

let see_heap p = p.peak_heap <- max p.peak_heap (Gc.quick_stat ()).heap_words

let end_alarm p =
  Option.iter Gc.delete_alarm p.alarm;
  p.alarm <- None

(* A paced run starts from a collected heap, so that earlier garbage is
   neither collected on its time nor in its heap peak, and it starts and
   ends with a block, so every operation lies between two. *)
let start () =
  Gc.full_major ();
  let p =
    {
      peak_heap = 0;
      alarm = None;
      keys = samples ();
      lat = samples ();
      fin = samples ();
      starts = samples ();
      ends = samples ();
    }
  in
  block p;
  p.alarm <- Some (Gc.create_alarm (fun () -> see_heap p));
  p

(* Whether the next [tick] runs a block. *)
let due p = now () -. get p.ends (p.ends.len - 1) >= interval

(* Call between operations. *)
let tick p =
  see_heap p;
  if due p then block p

(* Operation [key] took [seconds] and ended at [finished]. *)
let record p ~key ~finished seconds =
  push p.keys (float key);
  push p.lat seconds;
  push p.fin finished

let count p = p.lat.len
let dur p k = get p.ends k -. get p.starts k

(* Host slowness between blocks [j-1] and [j]: the median time of the
   [half_width] blocks on either side, over [nominal_s]. *)
let slowness p j =
  let lo = max 0 (j - half_width)
  and hi = min (p.starts.len - 1) (j + half_width - 1) in
  median (List.init (hi - lo + 1) (fun k -> dur p (lo + k))) /. nominal_s

(* The first block that starts at or after [x]. *)
let next_block p x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if get p.starts mid >= x then go lo mid else go (mid + 1) hi
  in
  max 1 (go 1 (p.starts.len - 1))

(* Each operation's time replaced by the lower decile (nearest rank) of
   the times recorded under its key. *)
let lower_decile_by_key keys times =
  let n = Float.Array.length times in
  let order = Array.init n Fun.id in
  let key i = Float.Array.get keys i and time i = Float.Array.get times i in
  Array.sort
    (fun a b ->
      match Float.compare (key a) (key b) with
      | 0 -> Float.compare (time a) (time b)
      | c -> c)
    order;
  let out = Float.Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j < n && key order.(!j) = key order.(!i) do
      incr j
    done;
    let rank = int_of_float (Float.ceil (0.1 *. float (!j - !i))) in
    let b = time order.(!i + max 0 (rank - 1)) in
    for k = !i to !j - 1 do
      Float.Array.set out order.(k) b
    done;
    i := !j
  done;
  out

(* Each operation's time at reference speed. *)
let rescaled p =
  let slow =
    Array.init p.starts.len (fun j -> if j = 0 then 1. else slowness p j)
  in
  Float.Array.init (count p) (fun i ->
      get p.lat i /. slow.(next_block p (get p.fin i)))

(* Ends the run with a block and returns the raw and the steadied
   timing metrics and the run's heap peak, with a human-readable note.
   The peak is the most heap words seen between two operations of the
   timed run or at the end of one of its major collections: the
   process's own high-water mark also holds the set-up and the
   verification, and in a multi-domain run it jumped by half from run to
   run. *)
let stop p =
  block p;
  end_alarm p;
  let b = p.starts.len and n = count p in
  let work = ref 0. in
  for j = 1 to b - 1 do
    work := !work +. (get p.starts j -. get p.ends (j - 1))
  done;
  let steady times =
    let best = lower_decile_by_key (to_float_array p.keys) times in
    ( float n /. Float.Array.fold_left ( +. ) 0. best,
      percentile (sorted best) 50. )
  in
  let raw_s = to_float_array p.lat in
  let tp, p50 = steady (rescaled p) in
  let tp_raw, p50_raw = steady raw_s in
  let blocks = List.init b (dur p) in
  let ref_s = List.fold_left ( +. ) 0. blocks in
  let raw, tail = timing ~elapsed:!work p.lat in
  ( raw
    @ [
        metric ~samples:n "funcs_per_s_steady" "1/s" tp;
        metric ~samples:n "latency_ms_p50_steady" "ms" (1000. *. p50);
        metric ~samples:n "peak_heap_words" "words" (float p.peak_heap);
      ],
    Printf.sprintf
      "%s; lower deciles of the raw times: %.6g funcs/s, p50 %.6g ms; %d \
       reference blocks, median %.3f ms (nominal %.3f ms), %.1f%% of the run"
      tail tp_raw (1000. *. p50_raw) b
      (1000. *. median blocks)
      (1000. *. nominal_s)
      (100. *. ref_s /. (ref_s +. !work)) )

(* Set-up is timed [reps] times, with a block after each. setup_s is
   the median of the repeats at reference speed, setup_s_raw that of
   their raw times: a set-up is short, and a run of them falls into one
   slow stretch of the host or another. The count is fixed, not timed:
   each set-up advances the program's fresh-name counters, and the
   lengths of later names show in the allocation figures. Runs [f] that
   often, hands all but the last result to [dispose], and returns the
   two metrics with the last result. *)
let timed_setup ~reps ~dispose f =
  let p = start () in
  let rec go i last =
    if i = reps then Option.get last
    else begin
      Option.iter dispose last;
      (* Each repeat starts from a collected heap, and the garbage of
         disposed repeats does not pile up into the heap's peak. *)
      Gc.full_major ();
      let t0 = now () in
      let r = f () in
      let t1 = now () in
      record p ~key:0 ~finished:t1 (t1 -. t0);
      block p;
      go (i + 1) (Some r)
    end
  in
  let last = go 0 None in
  end_alarm p;
  let n = count p in
  let median_of a = percentile (sorted a) 50. in
  ( [
      metric ~samples:n "setup_s" "s" (median_of (rescaled p));
      metric ~samples:n "setup_s_raw" "s" (median_of (to_float_array p.lat));
    ],
    last )
