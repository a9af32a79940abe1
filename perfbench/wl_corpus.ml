(* Workload [corpus]: seeded Workloads.Corpus functions in the default
   family mix, written to corpus text during set-up, streamed line →
   Ir.Parse → construct:pruned,coalesce,regalloc:8 → Ir.Printer through
   Engine.Stream with no cache. The batch/JIT story: the only workload
   where parse, print, regalloc and the engine all do real work.

   The file concatenates [parts] corpora. One corpus renames copies of
   just eight base functions into a fifth of its items, so a single
   seed's eight bases would swing the copy counts by tens of percent from
   seed to seed. The first [parts - seeded_parts] corpora have fixed
   seeds, the same in every run; the last [seeded_parts] take theirs from
   the run's seed. With every part seeded, the copy counts spread by up
   to a tenth between seeds, more than a bound meant to catch a worse
   coalescer can allow; with three in sixteen, every seed still compiles
   375 functions of its own.

   The timed run uses one domain: with two, the heap peak swings by a
   quarter from run to run and allocation stops repeating. The engine's
   own figures come from a two-domain sweep in the traced run. *)

open Common

let spec = "construct:pruned,coalesce,regalloc:8"
let parts = 16
let part_size = 125
let seeded_parts = 3

(* The corpus seed of part [j]. *)
let part_seed ~seed j =
  if j < parts - seeded_parts then 0x5eed_0000 + j
  else (seed * seeded_parts) + j - (parts - seeded_parts)

let engine_jobs = min 2 (Domain.recommended_domain_count ())

type env = {
  path : string;
  pool : Engine.Pool.t;
  pipeline : Pass.Pipeline.t;
  count : int;
}

let setup ~dir ~seed () =
  let path = Filename.concat dir "corpus.txt" in
  let producers =
    ref
      (List.init parts (fun j ->
           Workloads.Corpus.producer
             {
               Workloads.Corpus.seed = part_seed ~seed j;
               total = part_size;
               mix = Workloads.Corpus.default_mix;
             }))
  in
  let rec next () =
    match !producers with
    | [] -> None
    | p :: rest -> (
      match p () with
      | Some f -> Some f
      | None ->
        producers := rest;
        next ())
  in
  let count = Workloads.Corpus.write_funcs path next in
  let pipeline =
    match Pass.Spec.parse spec with Ok p -> p | Error e -> failwith e
  in
  { path; pool = Engine.Pool.create ~jobs:1 (); pipeline; count }

let dispose env = Engine.Pool.shutdown env.pool

(* The corpus file's lines with their index. *)
let lines path =
  let ic = open_in_bin path in
  let i = ref (-1) in
  fun () ->
    match In_channel.input_line ic with
    | Some line ->
      incr i;
      Some (!i, line)
    | None ->
      close_in ic;
      None

let parse line = Ir.Parse.func_of_string (Workloads.Corpus.decode_line line)

let compile pipeline f =
  (Pass.run ~scratch:(Support.Scratch.domain ()) pipeline f).output

let sweep ?pool env f consumer =
  Engine.Stream.run
    (Option.value pool ~default:env.pool)
    ~producer:(lines env.path) ~consumer f

type compiled = {
  input : Ir.func;
  output : Ir.func;
  digest : string;  (* of the printed output *)
  seconds : float;
  finished : float;
  words : float;  (* allocated by the compiling domain *)
}

(* One line through parse, the pipeline and the printer, timed. *)
let compile_line env (_, line) =
  let w0 = domain_words () in
  let t0 = now () in
  let input = parse line in
  let output = compile env.pipeline input in
  let text = Ir.Printer.func_to_string output in
  let finished = now () in
  let words = domain_words () -. w0 in
  {
    input;
    output;
    digest = Digest.string text;
    seconds = finished -. t0;
    finished;
    words;
  }

(* Untimed first sweep: every output is verified and its digest kept, so
   the timed sweeps only have to reproduce the verified bytes. The words
   allocated here are the allocation figure: one domain and a fixed
   sequence of calls, so it repeats exactly for a seed. *)
let verify ?(span = fun f -> f ()) env fs =
  let digests = Array.make env.count "" in
  let quality = ref Verify.zero and words = ref 0. in
  sweep env
    (fun item ->
      let c = compile_line env item in
      ( c,
        span (fun () ->
            Verify.output ~pipeline:env.pipeline
              ~args:(Verify.default_args c.input) ~input:c.input c.output) ))
    (fun seq (c, q) ->
      digests.(seq) <- c.digest;
      words := !words +. c.words;
      match q with
      | Ok q -> quality := Verify.add !quality q
      | Error msg -> fail fs msg);
  (digests, !quality, !words)

let check fs digests seq d what =
  if d <> digests.(seq) then
    fail fs (Printf.sprintf "item %d: %s output differs from verified" seq what)

let run ~dir ~seed ~seconds =
  let fs = failures () in
  let setup_s, env = Calib.timed_setup ~reps:5 ~dispose (setup ~dir ~seed) in
  let digests, quality, words = verify env fs in
  let paced = Calib.start () in
  let t0 = now () in
  while now () -. t0 < seconds do
    sweep env (compile_line env) (fun seq c ->
        Calib.record paced ~key:seq ~finished:c.finished c.seconds;
        check fs digests seq c.digest "timed";
        Calib.tick paced)
  done;
  let timing, tail = Calib.stop paced in
  dispose env;
  let attempted = env.count + Calib.count paced in
  {
    attempted;
    failed = fs.count;
    metrics =
      setup_s @ timing
      @ [
          metric ~samples:env.count "alloc_words_per_func" "words"
            (words /. float env.count);
          metric ~samples:env.count "static_copies" "count"
            (float quality.static_copies);
          metric ~samples:env.count "dynamic_copies" "count"
            (float quality.dynamic_copies);
          metric ~samples:env.count "spill_ops" "count"
            (float quality.spill_ops);
          metric ~samples:attempted "fail_ratio" "ratio"
            (float fs.count /. float attempted);
        ];
    notes =
      [
        Printf.sprintf "corpus: %d functions, spec %s, jobs 1, inputs %s"
          env.count spec
          (Digest.to_hex (Digest.file env.path));
        tail;
      ]
      @ fs.first;
  }

(* The traced run: an untraced sweep (the tracing-overhead baseline), the
   same sweep with every layer call in a span, then the layer-by-layer
   composition, which must print exactly what Pass.run printed; last, an
   untraced sweep on [engine_jobs] domains for the engine and GC
   figures. *)
let traced ~dir ~seed =
  let fs = failures () in
  let env = setup ~dir ~seed () in
  let digests, quality, _ =
    verify ~span:(Trace.span ~item:(-1) "check.verify") env fs
  in
  let check = check fs digests in
  let t0 = now () in
  sweep env (compile_line env) (fun seq c -> check seq c.digest "untraced");
  let wall_a = now () -. t0 in
  let t0 = now () in
  sweep env
    (fun (item, line) ->
      let f = Trace.span ~item "ir.parse" (fun () -> parse line) in
      let out = Trace.span ~item "pass.run" (fun () -> compile env.pipeline f) in
      Digest.string
        (Trace.span ~item "ir.print" (fun () -> Ir.Printer.func_to_string out)))
    (fun seq d -> check seq d "traced");
  let wall_b = now () -. t0 in
  let counts = Compose.counts () in
  sweep env
    (fun (item, line) ->
      let c = Compose.counts () in
      let out =
        Compose.run ~item ~scratch:(Support.Scratch.domain ()) c env.pipeline
          (parse line)
      in
      (Digest.string (Ir.Printer.func_to_string out), c))
    (fun seq (d, c) ->
      Compose.merge ~into:counts c;
      check seq d "composed");
  let engine = Engine.Pool.create ~jobs:engine_jobs () in
  let busy = ref 0. and wait = ref 0. in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  sweep ~pool:engine env (compile_line env) (fun seq c ->
      busy := !busy +. c.seconds;
      wait := !wait +. (now () -. c.finished);
      check seq c.digest "engine");
  let wall_e = now () -. t0 in
  let gc = Layers.gc_delta gc0 in
  Engine.Pool.shutdown engine;
  dispose env;
  let n = env.count in
  {
    attempted = 5 * n;
    failed = fs.count;
    metrics =
      Layers.metrics
        (Layers.of_spans () @ Layers.of_counts counts ~calls:n @ gc
        @ [
            ("engine.busy_ratio", !busy /. (float engine_jobs *. wall_e), n);
            ("engine.reorder_wait_s", !wait, n);
            ("regalloc.spill_ops", float quality.spill_ops, n);
            ("check.failures", float fs.count, 5 * n);
            ("interp.copies_executed", float quality.dynamic_copies, n);
            ("trace.overhead_s", wall_b -. wall_a, n);
          ]);
    notes =
      [
        Printf.sprintf
          "corpus traced: %d functions, untraced sweep %.3f s, traced sweep \
           %.3f s, %d-domain engine sweep %.3f s"
          n wall_a wall_b engine_jobs wall_e;
      ]
      @ fs.first;
  }
