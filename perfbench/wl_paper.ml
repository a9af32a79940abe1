(* Workload [paper-large]: the paper's four conversions (Standard, New,
   Briggs, Briggs* ) over the large suite (big300/600/1200, num250/500)
   plus the kernels, one domain, no allocation. This is where the
   coalescers and SSA construction do most of the work and where the
   paper's claims live. Regalloc is left out on purpose: it takes seconds
   on num500 alone and would hide every coalescer change.

   The inputs are the fixed suite, as in the paper; the seed draws the
   order in which the (function, conversion) pairs are compiled. *)

open Common

let specs =
  [
    "construct:pruned,standard";
    "construct:pruned,coalesce";
    "construct:pruned,briggs";
    "construct:pruned,briggs-star";
  ]

type entry = { name : string; func : Ir.func; args : Ir.value list }

(* The same functions as Workloads.Suite.large and Suite.kernels, built
   here so that every set-up pays for them (the suite memoizes). *)
let large () =
  let gen family make (seed, size) =
    {
      name = Printf.sprintf "%s%d" family size;
      func =
        make
          { Workloads.Generator.seed; size; num_vars = 16; max_depth = 4 };
      args = [ Ir.Int 9; Ir.Int 2 ];
    }
  in
  List.map
    (gen "big" Workloads.Generator.generate_ir)
    [ (101, 300); (102, 600); (103, 1200) ]
  @ List.map
      (gen "num" Workloads.Generator.generate_numeric_ir)
      [ (201, 250); (202, 500) ]

let kernels () =
  List.map
    (fun (name, source, n) ->
      match Frontend.Lower.compile source with
      | [ func ] -> { name; func; args = [ Ir.Int n; Ir.Int 3 ] }
      | _ -> failwith ("kernel " ^ name ^ ": expected one function"))
    Workloads.Kernels.all

type item = { entry : entry; spec : string; pipeline : Pass.Pipeline.t }

let setup ~seed () =
  let pipelines =
    List.map
      (fun s ->
        match Pass.Spec.parse s with Ok p -> (s, p) | Error e -> failwith e)
      specs
  in
  let items =
    List.concat_map
      (fun entry ->
        List.map (fun (spec, pipeline) -> { entry; spec; pipeline }) pipelines)
      (large () @ kernels ())
    |> Array.of_list
  in
  shuffle ~seed items;
  items

let compile it =
  (Pass.run ~scratch:(Support.Scratch.domain ()) it.pipeline it.entry.func)
    .output

(* Untimed first sweep: every output is verified and kept for the timed
   sweeps to match. The words the compiles allocate here are the
   allocation figure: a fixed sequence of calls, so it repeats exactly
   for a seed (later sweeps drift by a few words as the program's fresh
   names grow longer). *)
let verify ?(span = fun f -> f ()) items fs =
  let quality = ref Verify.zero and words = ref 0. in
  let outputs =
    Array.map
      (fun it ->
        let w0 = domain_words () in
        let out = compile it in
        words := !words +. (domain_words () -. w0);
        (match
           span (fun () ->
               Verify.output ~pipeline:it.pipeline ~args:it.entry.args
                 ~input:it.entry.func out)
         with
        | Ok q -> quality := Verify.add !quality q
        | Error msg -> fail fs (it.spec ^ " " ^ msg));
        out)
      items
  in
  (outputs, !quality, !words)

(* One sweep over every pair; [each] sees each pair's index and compile
   time. *)
let sweep items outputs fs each =
  Array.iteri
    (fun i it ->
      let t0 = now () in
      let out = compile it in
      let dt = now () -. t0 in
      if out <> outputs.(i) then
        fail fs
          (Printf.sprintf "%s %s: output differs from verified" it.entry.name
             it.spec);
      each i dt)
    items

let run ~seed ~seconds =
  let fs = failures () in
  let setup_s, items = Calib.timed_setup ~reps:25 ~dispose:ignore (setup ~seed) in
  let outputs, quality, words = verify items fs in
  let paced = Calib.start () in
  let t0 = now () in
  (* Whole sweeps only, so every pair weighs the same. *)
  while now () -. t0 < seconds do
    sweep items outputs fs (fun i dt ->
        Calib.record paced ~key:i ~finished:(now ()) dt;
        Calib.tick paced)
  done;
  let n = Calib.count paced in
  let timing, tail = Calib.stop paced in
  let count = Array.length items in
  let attempted = count + n in
  {
    attempted;
    failed = fs.count;
    metrics =
      setup_s @ timing
      @ [
          metric ~samples:count "alloc_words_per_func" "words"
            (words /. float count);
          metric ~samples:count "static_copies" "count"
            (float quality.static_copies);
          metric ~samples:count "dynamic_copies" "count"
            (float quality.dynamic_copies);
          metric ~samples:count "spill_ops" "count" (float quality.spill_ops);
          metric ~samples:attempted "fail_ratio" "ratio"
            (float fs.count /. float attempted);
        ];
    notes =
      [
        Printf.sprintf "paper-large: %d (function, conversion) pairs, inputs %s"
          count
          (Digest.to_hex
             (Digest.string
                (String.concat ","
                   (Array.to_list
                      (Array.map
                         (fun it -> it.entry.name ^ " " ^ it.spec)
                         items)))));
        tail;
      ]
      @ fs.first;
  }

let phi_args f =
  let n = ref 0 in
  Ir.iter_phis f (fun _ (p : Ir.phi) -> n := !n + List.length p.args);
  !n

let sweeps_traced = 2

(* The traced run: untraced sweeps (the tracing-overhead baseline), the
   same sweeps with Pass.run in a span, then the layer-by-layer
   composition, checked against Pass.run's printed output. *)
let traced ~seed =
  let fs = failures () in
  let items = setup ~seed () in
  let outputs, quality, _ =
    verify ~span:(Trace.span ~item:(-1) "check.verify") items fs
  in
  let count = Array.length items in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  for _ = 1 to sweeps_traced do
    sweep items outputs fs (fun _ _ -> ())
  done;
  let wall_a = now () -. t0 in
  let gc = Layers.gc_delta gc0 in
  let t0 = now () in
  for _ = 1 to sweeps_traced do
    Array.iteri
      (fun item it ->
        let out = Trace.span ~item "pass.run" (fun () -> compile it) in
        if out <> outputs.(item) then
          fail fs (it.entry.name ^ " " ^ it.spec ^ ": traced output differs"))
      items
  done;
  let wall_b = now () -. t0 in
  let counts = Compose.counts () in
  let graph_bytes = Hashtbl.create 2 in
  for _ = 1 to sweeps_traced do
    Array.iteri
      (fun item it ->
        let c = Compose.counts () in
        let out =
          Compose.run ~item ~scratch:(Support.Scratch.domain ()) c it.pipeline
            it.entry.func
        in
        Compose.merge ~into:counts c;
        Hashtbl.replace graph_bytes it.spec
          (c.peak_graph_bytes
          + Option.value ~default:0 (Hashtbl.find_opt graph_bytes it.spec));
        if Ir.Printer.func_to_string out
           <> Ir.Printer.func_to_string outputs.(item)
        then
          fail fs (it.entry.name ^ " " ^ it.spec ^ ": composed output differs"))
      items
  done;
  let layer = Trace.layers () in
  (* New's conversion time per φ argument on the three sizes of one
     family: flat across sizes if the coalescer is linear in them. *)
  let coalesce_s = Hashtbl.create 8 in
  List.iter
    (fun (s : Trace.span) ->
      if s.name = "core.coalesce" then
        let e = items.(s.item).entry.name in
        Hashtbl.replace coalesce_s e
          (s.t1 -. s.t0
          +. Option.value ~default:0. (Hashtbl.find_opt coalesce_s e)))
    (Trace.all_spans ());
  let per_phi_arg name =
    let it = Array.to_list items |> List.find (fun it -> it.entry.name = name) in
    let args =
      phi_args
        (Ssa.Construct.run_exn ~pruning:Ssa.Construct.Pruned it.entry.func)
    in
    ( "paper.new_ns_per_phi_arg." ^ name,
      1e9 *. Hashtbl.find coalesce_s name /. float (sweeps_traced * args),
      sweeps_traced )
  in
  let calls = sweeps_traced * count in
  {
    attempted = count + (3 * calls);
    failed = fs.count;
    metrics =
      Layers.metrics
        (Layers.of_spans ()
        @ Layers.of_counts counts ~calls
        @ gc
        @ [
            ("check.failures", float fs.count, count + (3 * calls));
            ("interp.copies_executed", float quality.dynamic_copies, count);
            ("trace.overhead_s", wall_b -. wall_a, calls);
            (* The coalescers alone, as the paper times them. *)
            ( "paper.briggs_vs_star_time",
              (layer "baseline.briggs").self_s
              /. (layer "baseline.briggs_star").self_s,
              (layer "baseline.briggs").calls );
            ( "paper.briggs_vs_star_graph_bytes",
              float (Hashtbl.find graph_bytes "construct:pruned,briggs")
              /. float (Hashtbl.find graph_bytes "construct:pruned,briggs-star"),
              (layer "baseline.briggs").calls );
            per_phi_arg "big300";
            per_phi_arg "big600";
            per_phi_arg "big1200";
          ]);
    notes =
      [
        Printf.sprintf
          "paper-large traced: %d pairs x %d sweeps, untraced %.3f s, traced \
           %.3f s"
          count sweeps_traced wall_a wall_b;
      ]
      @ fs.first;
  }
