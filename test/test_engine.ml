(* The batch-compilation engine: scratch-arena reuse, pool scheduling, and
   the determinism guarantee — parallel batch output must be byte-identical
   to the sequential pipeline, stats included. *)

open Helpers
module Scratch = Support.Scratch

(* ------------------------------------------------------------------ *)
(* Scratch arenas                                                     *)
(* ------------------------------------------------------------------ *)

let test_scratch_bitset_reuse () =
  let s = Scratch.create () in
  let b1 = Scratch.acquire_bitset s 64 in
  Support.Bitset.add b1 3;
  Support.Bitset.add b1 63;
  Scratch.release_bitset s b1;
  let b2 = Scratch.acquire_bitset s 64 in
  checkb "same buffer returned after release" true (b1 == b2);
  checkb "contents cleared on reacquire" true (Support.Bitset.is_empty b2);
  let b3 = Scratch.acquire_bitset s 64 in
  checkb "second acquire allocates fresh" false (b2 == b3);
  let st = Scratch.stats s in
  checki "one pool hit" 1 st.Scratch.bitset_hits;
  checki "two allocations" 2 st.Scratch.bitset_misses

let test_scratch_capacity_keying () =
  let s = Scratch.create () in
  let b64 = Scratch.acquire_bitset s 64 in
  Scratch.release_bitset s b64;
  let b128 = Scratch.acquire_bitset s 128 in
  checkb "different capacity misses the pool" false (b64 == b128);
  checki "capacity respected" 128 (Support.Bitset.capacity b128)

let test_scratch_int_array_reuse () =
  let s = Scratch.create () in
  let a1 = Scratch.acquire_int_array s 10 (-1) in
  checkb "filled on acquire" true (Array.for_all (fun x -> x = -1) a1);
  a1.(3) <- 7;
  Scratch.release_int_array s a1;
  let a2 = Scratch.acquire_int_array s 10 0 in
  checkb "same array returned after release" true (a1 == a2);
  checkb "refilled on reacquire" true (Array.for_all (fun x -> x = 0) a2);
  let st = Scratch.stats s in
  checki "one array hit" 1 st.Scratch.array_hits

(* A full analysis cycle through one arena: the second run of the same
   function must be served from the pool, and must compute the same sets. *)
let test_scratch_analysis_cycle () =
  let f = Ssa.Construct.run_exn (counting_loop ()) in
  let cfg = Ir.Cfg.of_func f in
  let s = Scratch.create () in
  let reference = Analysis.Liveness.compute f cfg in
  let run () =
    let live = Analysis.Liveness.compute_into ~scratch:s f cfg in
    for l = 0 to Ir.num_blocks f - 1 do
      checkb "live_in matches plain compute" true
        (Support.Bitset.equal
           (Analysis.Liveness.live_in live l)
           (Analysis.Liveness.live_in reference l));
      checkb "live_out matches plain compute" true
        (Support.Bitset.equal
           (Analysis.Liveness.live_out live l)
           (Analysis.Liveness.live_out reference l))
    done;
    Analysis.Liveness.release s live
  in
  run ();
  let st1 = Scratch.stats s in
  run ();
  let st2 = Scratch.stats s in
  checki "second run allocates nothing new" st1.Scratch.bitset_misses
    st2.Scratch.bitset_misses;
  checkb "second run hits the pool" true
    (st2.Scratch.bitset_hits > st1.Scratch.bitset_hits)

(* ------------------------------------------------------------------ *)
(* The domain pool                                                    *)
(* ------------------------------------------------------------------ *)

let test_pool_map () =
  Engine.Pool.with_pool ~jobs:3 (fun pool ->
      let input = Array.init 100 (fun i -> i) in
      let out = Engine.Pool.map_array pool (fun x -> (x * x) + 1) input in
      checki "all tasks ran" 100 (Array.length out);
      Array.iteri (fun i y -> checki "input-order results" ((i * i) + 1) y) out;
      (* A pool must survive multiple batches. *)
      let out2 = Engine.Pool.map_array pool string_of_int input in
      check Alcotest.(list string) "second batch"
        [ "0"; "1"; "2" ]
        (Array.to_list (Array.sub out2 0 3)))

let test_pool_exception () =
  let exception Boom of int in
  Engine.Pool.with_pool ~jobs:2 (fun pool ->
      match
        Engine.Pool.map_array pool
          (fun i -> if i mod 3 = 1 then raise (Boom i) else i)
          (Array.init 10 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected the batch to raise"
      | exception Boom i -> checki "lowest failing index wins" 1 i);
  (* The pool above still shut down cleanly despite the failure. *)
  checkb "with_pool unwound" true true

let test_pool_jobs_one_inline () =
  Engine.Pool.with_pool ~jobs:1 (fun pool ->
      checki "no worker domains for jobs=1" 1 (Engine.Pool.jobs pool);
      let seen = ref [] in
      Engine.Pool.run pool ~total:4 (fun i -> seen := i :: !seen);
      check
        Alcotest.(list int)
        "sequential order when inline" [ 0; 1; 2; 3 ] (List.rev !seen))

(* ------------------------------------------------------------------ *)
(* The streaming core                                                 *)
(* ------------------------------------------------------------------ *)

let counting_producer n =
  let next = ref 0 in
  fun () ->
    if !next >= n then None
    else (
      let i = !next in
      incr next;
      Some i)

let test_stream_in_order () =
  List.iter
    (fun jobs ->
      Engine.Pool.with_pool ~jobs (fun pool ->
          let seen = ref [] in
          Engine.Stream.run pool ~window:8
            ~producer:(counting_producer 200)
            ~consumer:(fun seq v -> seen := (seq, v) :: !seen)
            (fun i -> i * i);
          let seen = List.rev !seen in
          checki "every item emitted" 200 (List.length seen);
          List.iteri
            (fun i (seq, v) ->
              checki "emission order is input order" i seq;
              checki "value paired with its own index" (i * i) v)
            seen))
    [ 1; 4 ]

let test_stream_exception () =
  let exception Boom of int in
  List.iter
    (fun jobs ->
      Engine.Pool.with_pool ~jobs (fun pool ->
          match
            Engine.Stream.run pool ~window:4
              ~producer:(counting_producer 100)
              ~consumer:(fun _ _ -> ())
              (fun i -> if i mod 7 = 3 then raise (Boom i) else i)
          with
          | () -> Alcotest.fail "expected the stream to raise"
          | exception Boom i -> checki "lowest failing index wins" 3 i))
    [ 1; 4 ]

(* The admission gate: with window [w], the producer may run at most [w]
   items ahead of the emission frontier. The consumer runs under the
   stream's lock, so the produced count it reads is exact. *)
let test_stream_window_bound () =
  let window = 4 in
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      let produced = ref 0 in
      let max_ahead = ref 0 in
      let producer =
        let next = counting_producer 300 in
        fun () ->
          match next () with
          | None -> None
          | some ->
            incr produced;
            some
      in
      Engine.Stream.run pool ~window ~producer
        ~consumer:(fun seq _ ->
          let ahead = !produced - seq in
          if ahead > !max_ahead then max_ahead := ahead)
        (fun i -> i);
      checkb
        (Printf.sprintf "in-flight items bounded by the window (saw %d)"
           !max_ahead)
        true
        (!max_ahead <= window);
      (* The bound is also tight: a 4-domain pool should actually run
         ahead of the frontier, not degenerate to lock-step. *)
      checkb "pipeline actually overlaps" true (!max_ahead >= 2))

let test_stream_empty_and_bad_window () =
  Engine.Pool.with_pool ~jobs:3 (fun pool ->
      let emitted = ref 0 in
      Engine.Stream.run pool
        ~producer:(fun () -> None)
        ~consumer:(fun _ _ -> incr emitted)
        (fun (i : int) -> i);
      checki "empty producer emits nothing" 0 !emitted;
      match
        Engine.Stream.run pool ~window:0 ~producer:(counting_producer 1)
          ~consumer:(fun _ _ -> ())
          (fun i -> i)
      with
      | () -> Alcotest.fail "window 0 must be rejected"
      | exception Invalid_argument _ -> checkb "window 0 rejected" true true)

(* The differential that pins the refactor down: the streaming core must
   produce exactly what the materialized batch API produces — same
   reports, same order, same merged Obs counters — for any corpus, any
   job count, any window. *)
let prop_stream_equals_batch =
  QCheck.Test.make ~count:10 ~name:"stream = compile_batch_passes"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 8) (int_bound 10_000))
        (QCheck.oneofl [ 1; 4 ])
        (QCheck.oneofl [ 1; 2; 64 ]))
    (fun (seeds, jobs, window) ->
      let funcs =
        List.mapi (fun i seed -> random_program (seed + i) (8 + (seed mod 12))) seeds
      in
      let passes = Driver.Pipeline.passes_of_config Driver.Pipeline.default in
      let obs_ref = Obs.create () in
      let expected =
        Driver.Pipeline.compile_batch_passes ~jobs:1 ~obs:obs_ref passes funcs
      in
      let obs_stream = Obs.create () in
      let got = ref [] in
      Engine.Pool.with_pool ~jobs (fun pool ->
          Driver.Pipeline.stream_passes_in pool ~window ~obs:obs_stream
            ~producer:(Engine.Stream.of_list funcs)
            ~consumer:(fun _ r -> got := r :: !got)
            passes);
      let got = List.rev !got in
      List.length expected = List.length got
      && List.for_all2
           (fun (a : Driver.Pipeline.report) (b : Driver.Pipeline.report) ->
             Ir.Printer.func_to_string a.output
             = Ir.Printer.func_to_string b.output)
           expected got
      && Obs.counters obs_ref = Obs.counters obs_stream)

(* Words still reachable: the live words after a full major collection.
   The heap's size would follow major-GC pacing, and with it the whole
   process's live set; this counts only what is retained. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Bounded memory: stream a corpus 10× larger and the retained words must
   stay within a small constant factor, while materializing the same
   corpus (inputs and reports all live at once) must retain strictly more
   than streaming it. *)
let test_stream_bounded_memory () =
  let spec total =
    { Workloads.Corpus.seed = 11; total; mix = Workloads.Corpus.default_mix }
  in
  let pipeline = Driver.Pipeline.passes_of_config Driver.Pipeline.default in
  (* Peak retained words above the start, sampled at ten evenly spaced
     reports the consumer takes, so a short run is sampled as often as a
     long one; [keep] makes the consumer hold every report. Two domains:
     a full major collection stops every domain, and with more domains
     than cores each one can take tens of milliseconds. *)
  let streaming ?(keep = false) total =
    let kept = ref [] and peak = ref 0 in
    let every = total / 10 in
    let base = live_words () in
    Engine.Pool.with_pool ~jobs:2 (fun pool ->
        Driver.Pipeline.stream_passes_in pool
          ~producer:(Workloads.Corpus.producer (spec total))
          ~consumer:(fun seq r ->
            if keep then kept := r :: !kept;
            if (seq + 1) mod every = 0 then
              peak := max !peak (live_words () - base))
          pipeline);
    ignore (Sys.opaque_identity !kept);
    !peak
  in
  let materialized total =
    let base = live_words () in
    Engine.Pool.with_pool ~jobs:2 (fun pool ->
        let next = Workloads.Corpus.producer (spec total) in
        let rec all acc =
          match next () with Some f -> all (f :: acc) | None -> List.rev acc
        in
        let reports =
          Driver.Pipeline.compile_batch_passes_in pool pipeline (all [])
        in
        let retained = live_words () - base in
        ignore (Sys.opaque_identity reports);
        retained)
  in
  let small = streaming 100 in
  let large = streaming 1000 in
  let mat = materialized 1000 in
  (* A bounded window retains about as much at 1000 items as at 100
     (about 2x, from in-flight items at the sampled points); holding every
     report reads about 10x, which the same measurement must catch (the
     leaky consumer below). *)
  let flat small large = large <= 6 * small in
  checkb
    (Printf.sprintf "streaming retention flat across 10x corpus (%d -> %d words)"
       small large)
    true (flat small large);
  checkb
    (Printf.sprintf "streaming beats materialized at 1000 funcs (%d < %d)"
       large mat)
    true (large < mat);
  let leak_small = streaming ~keep:true 100 in
  let leak_large = streaming ~keep:true 1000 in
  checkb
    (Printf.sprintf "a consumer keeping every report is caught (%d -> %d words)"
       leak_small leak_large)
    false (flat leak_small leak_large)

(* ------------------------------------------------------------------ *)
(* Batch compilation determinism                                      *)
(* ------------------------------------------------------------------ *)

let batch_entries () =
  Workloads.Suite.kernels () @ Workloads.Suite.large ()

(* The sequential reference: the same pipeline, one function at a time, no
   shared arenas or pools involved. *)
let sequential_reference funcs =
  List.map
    (fun f ->
      let ssa = Ssa.Construct.run_exn f in
      let func, stats = Core.Coalesce.run ssa in
      (Ir.Printer.func_to_string func, stats))
    funcs

let check_stats name (a : Core.Coalesce.stats) (b : Core.Coalesce.stats) =
  checkb (name ^ ": identical Coalesce.stats") true (a = b)

let test_batch_matches_sequential () =
  let entries = batch_entries () in
  let funcs = List.map (fun (e : Workloads.Suite.entry) -> e.func) entries in
  let expected = sequential_reference funcs in
  let got = Engine.compile_batch ~jobs:4 funcs in
  List.iter2
    (fun (e : Workloads.Suite.entry) ((printed, stats), (c : Engine.compiled)) ->
      check Alcotest.string
        (e.name ^ ": byte-identical printer output")
        printed
        (Ir.Printer.func_to_string c.func);
      check_stats e.name stats c.stats)
    entries
    (List.combine expected got)

let test_batch_deterministic_across_runs () =
  let funcs =
    List.map (fun (e : Workloads.Suite.entry) -> e.func) (batch_entries ())
  in
  let print l =
    List.map (fun (c : Engine.compiled) -> Ir.Printer.func_to_string c.func) l
  in
  let r1 = Engine.compile_batch ~jobs:4 funcs in
  let r2 = Engine.compile_batch ~jobs:2 funcs in
  check
    Alcotest.(list string)
    "jobs=4 and jobs=2 agree" (print r1) (print r2)

let test_driver_batch_matches_compile () =
  let funcs =
    List.map
      (fun (e : Workloads.Suite.entry) -> e.func)
      (Workloads.Suite.kernels ())
  in
  let expected =
    List.map
      (fun f -> (Driver.Pipeline.compile f).Driver.Pipeline.output)
      funcs
  in
  let got = Driver.Pipeline.compile_batch ~jobs:4 funcs in
  List.iter2
    (fun e (r : Driver.Pipeline.report) ->
      check Alcotest.string "driver batch output matches compile"
        (Ir.Printer.func_to_string e)
        (Ir.Printer.func_to_string r.output))
    expected got

let test_harness_convert_batch () =
  let funcs =
    List.map
      (fun (e : Workloads.Suite.entry) -> e.func)
      (Workloads.Suite.kernels ())
  in
  let expected = List.map (Harness.Pipelines.convert Harness.Pipelines.New) funcs in
  let got = Harness.Pipelines.convert_batch ~jobs:3 Harness.Pipelines.New funcs in
  List.iter2
    (fun (a : Harness.Pipelines.result) (b : Harness.Pipelines.result) ->
      checki "static copies agree" a.static_copies b.static_copies;
      checki "aux bytes agree" a.aux_bytes b.aux_bytes;
      check Alcotest.string "functions agree"
        (Ir.Printer.func_to_string a.func)
        (Ir.Printer.func_to_string b.func))
    expected got

let suite =
  [
    Alcotest.test_case "scratch: bitset reuse + clearing" `Quick
      test_scratch_bitset_reuse;
    Alcotest.test_case "scratch: capacity keying" `Quick
      test_scratch_capacity_keying;
    Alcotest.test_case "scratch: int array reuse" `Quick
      test_scratch_int_array_reuse;
    Alcotest.test_case "scratch: liveness cycle reuses buffers" `Quick
      test_scratch_analysis_cycle;
    Alcotest.test_case "pool: parallel map, input order" `Quick test_pool_map;
    Alcotest.test_case "pool: exception propagation" `Quick
      test_pool_exception;
    Alcotest.test_case "pool: jobs=1 runs inline" `Quick
      test_pool_jobs_one_inline;
    Alcotest.test_case "stream: in-order completeness" `Quick
      test_stream_in_order;
    Alcotest.test_case "stream: exception propagation" `Quick
      test_stream_exception;
    Alcotest.test_case "stream: window bounds in-flight items" `Quick
      test_stream_window_bound;
    Alcotest.test_case "stream: empty producer + window validation" `Quick
      test_stream_empty_and_bad_window;
    QCheck_alcotest.to_alcotest prop_stream_equals_batch;
    Alcotest.test_case "stream: bounded memory vs materialized" `Slow
      test_stream_bounded_memory;
    Alcotest.test_case "batch = sequential (kernels + large)" `Slow
      test_batch_matches_sequential;
    Alcotest.test_case "batch deterministic across job counts" `Slow
      test_batch_deterministic_across_runs;
    Alcotest.test_case "driver compile_batch = compile" `Slow
      test_driver_batch_matches_compile;
    Alcotest.test_case "harness convert_batch = convert" `Slow
      test_harness_convert_batch;
  ]
