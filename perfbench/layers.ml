(* The traced run's per-layer metrics. Every workload reports every name
   below; a layer the workload never calls reads 0 with 0 samples, which
   is the prediction for that workload (it bypasses the layer). *)

open Common

let names =
  [
    ("ir.parse_s", "s");
    ("ir.parse_words", "words");
    ("ir.print_s", "s");
    ("frontend.lower_s", "s");
    ("ssa.construct_s", "s");
    ("ssa.construct_words", "words");
    ("ssa.phis_inserted", "count");
    ("ssa.destruct_s", "s");
    ("core.coalesce_s", "s");
    ("core.coalesce_words", "words");
    ("core.aux_bytes", "bytes");
    ("core.copies_inserted", "count");
    ("core.filter_refusals", "count");
    ("core.forest_detached", "count");
    ("core.local_pairs", "count");
    ("baseline.briggs_s", "s");
    ("baseline.briggs_star_s", "s");
    ("baseline.rounds", "count");
    ("baseline.coalesced", "count");
    ("baseline.peak_graph_bytes", "bytes");
    ("baseline.words", "words");
    ("regalloc.alloc_s", "s");
    ("regalloc.alloc_words", "words");
    ("regalloc.rounds", "count");
    ("regalloc.spilled_ranges", "count");
    ("regalloc.spill_ops", "count");
    ("pass.overhead_s", "s");
    ("engine.busy_ratio", "ratio");
    ("engine.reorder_wait_s", "s");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("cache.hit_ratio", "ratio");
    ("cache.misses", "count");
    ("cache.evictions", "count");
    ("cache.contention", "count");
    ("cache.key_s", "s");
    ("serve.respond_s", "s");
    ("serve.transport_s", "s");
    ("check.verify_s", "s");
    ("check.failures", "count");
    ("interp.copies_executed", "count");
    ("trace.overhead_s", "s");
    ("paper.briggs_vs_star_time", "ratio");
    ("paper.briggs_vs_star_graph_bytes", "ratio");
    ("paper.new_ns_per_phi_arg.big300", "ns/arg");
    ("paper.new_ns_per_phi_arg.big600", "ns/arg");
    ("paper.new_ns_per_phi_arg.big1200", "ns/arg");
  ]

(* The layers whose calls [Pass.run] makes: its time minus theirs, over
   the same functions, is the pass manager's own residue. *)
let pass_layers =
  [
    "ssa.construct";
    "ssa.destruct";
    "core.coalesce";
    "baseline.briggs";
    "baseline.briggs_star";
    "regalloc.alloc";
  ]

(* Metrics read straight off the spans. *)
let of_spans () =
  let l = Trace.layers () in
  let time name = (name ^ "_s", (l name).self_s, (l name).calls) in
  let words metric names =
    ( metric,
      List.fold_left (fun a n -> a +. (l n).self_words) 0. names,
      List.fold_left (fun a n -> a + (l n).calls) 0 names )
  in
  let sum_s names = List.fold_left (fun a n -> a +. (l n).self_s) 0. names in
  List.map time
    [
      "ir.parse";
      "ir.print";
      "frontend.lower";
      "ssa.construct";
      "ssa.destruct";
      "core.coalesce";
      "baseline.briggs";
      "baseline.briggs_star";
      "regalloc.alloc";
      "cache.key";
      "check.verify";
    ]
  @ [
      words "ir.parse_words" [ "ir.parse" ];
      words "ssa.construct_words" [ "ssa.construct" ];
      words "core.coalesce_words" [ "core.coalesce" ];
      words "regalloc.alloc_words" [ "regalloc.alloc" ];
      words "baseline.words" [ "baseline.briggs"; "baseline.briggs_star" ];
    ]
  @
  if (l "pass.run").calls = 0 then []
  else
    [
      ( "pass.overhead_s",
        (l "pass.run").self_s -. sum_s pass_layers,
        (l "pass.run").calls );
    ]

let of_counts (c : Compose.counts) ~calls =
  let i name v = (name, float v, calls) in
  [
    i "ssa.phis_inserted" c.phis_inserted;
    i "core.copies_inserted" c.core_copies_inserted;
    i "core.filter_refusals" c.filter_refusals;
    i "core.forest_detached" c.forest_detached;
    i "core.local_pairs" c.local_pairs;
    i "core.aux_bytes" c.aux_bytes;
    i "baseline.rounds" c.baseline_rounds;
    i "baseline.coalesced" c.baseline_coalesced;
    i "baseline.peak_graph_bytes" c.peak_graph_bytes;
    i "regalloc.rounds" c.regalloc_rounds;
    i "regalloc.spilled_ranges" c.spilled_ranges;
  ]

let gc_delta (s0 : Gc.stat) =
  let s1 = Gc.quick_stat () in
  let count name n = (name, float n, 1) in
  [
    count "gc.minor_collections" (s1.minor_collections - s0.minor_collections);
    count "gc.major_collections" (s1.major_collections - s0.major_collections);
  ]

(* Fill [measured] (name, value, samples) out to the full list, in order;
   a measured name that is not in the list is a benchmark bug. *)
let metrics measured =
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n names) then
        invalid_arg ("Layers.metrics: unlisted metric " ^ n))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (n, _, _) -> n = name) measured with
      | Some (_, v, samples) -> metric ~samples name unit_ v
      | None -> metric ~samples:0 name unit_ 0.)
    names
