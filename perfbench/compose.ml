(* The traced run's layer-by-layer composition of a pass spec.

   Each spec item is replayed by calling the layer's public function
   directly, inside a span named after the layer, so per-layer time and
   allocation come from the benchmark's own code rather than from
   instrumentation inside the program. [Pass.run] of the same spec must
   print byte-identical output (the fidelity check), which shows the
   trace measures the same program as the untraced run. *)

type counts = {
  mutable phis_inserted : int;
  mutable core_copies_inserted : int;
  mutable filter_refusals : int;
  mutable forest_detached : int;
  mutable local_pairs : int;
  mutable aux_bytes : int;  (* largest single call *)
  mutable baseline_rounds : int;
  mutable baseline_coalesced : int;
  mutable peak_graph_bytes : int;  (* largest single call *)
  mutable regalloc_rounds : int;
  mutable spilled_ranges : int;
}

let counts () =
  {
    phis_inserted = 0;
    core_copies_inserted = 0;
    filter_refusals = 0;
    forest_detached = 0;
    local_pairs = 0;
    aux_bytes = 0;
    baseline_rounds = 0;
    baseline_coalesced = 0;
    peak_graph_bytes = 0;
    regalloc_rounds = 0;
    spilled_ranges = 0;
  }

let merge ~into c =
  into.phis_inserted <- into.phis_inserted + c.phis_inserted;
  into.core_copies_inserted <-
    into.core_copies_inserted + c.core_copies_inserted;
  into.filter_refusals <- into.filter_refusals + c.filter_refusals;
  into.forest_detached <- into.forest_detached + c.forest_detached;
  into.local_pairs <- into.local_pairs + c.local_pairs;
  into.aux_bytes <- max into.aux_bytes c.aux_bytes;
  into.baseline_rounds <- into.baseline_rounds + c.baseline_rounds;
  into.baseline_coalesced <- into.baseline_coalesced + c.baseline_coalesced;
  into.peak_graph_bytes <- max into.peak_graph_bytes c.peak_graph_bytes;
  into.regalloc_rounds <- into.regalloc_rounds + c.regalloc_rounds;
  into.spilled_ranges <- into.spilled_ranges + c.spilled_ranges

(* Critical-edge splitting plus naive φ instantiation: the destruction
   step of Standard, and the input every graph coalescer starts from. *)
let destruct ~item f =
  Trace.span ~item "ssa.destruct" (fun () ->
      let split = fst (Ir.Edge_split.run_cfg f) in
      fst (Ssa.Destruct_naive.run split))

let graph ~item c variant span f =
  let inst = destruct ~item f in
  let g, (s : Baseline.Ig_coalesce.stats) =
    Trace.span ~item span (fun () -> Baseline.Ig_coalesce.run ~variant inst)
  in
  c.baseline_rounds <- c.baseline_rounds + s.rounds;
  c.baseline_coalesced <- c.baseline_coalesced + s.coalesced;
  c.peak_graph_bytes <- max c.peak_graph_bytes s.peak_graph_bytes;
  g

(* One spec item, by its canonical key. Only the items the workloads use
   are known; anything else is a benchmark bug. *)
let step ~item ~scratch c key f =
  match key with
  | "construct:pruned" ->
    let g, (s : Ssa.Construct.stats) =
      Trace.span ~item "ssa.construct" (fun () ->
          Ssa.Construct.run ~pruning:Ssa.Construct.Pruned ~fold_copies:true f)
    in
    c.phis_inserted <- c.phis_inserted + s.phis_inserted;
    g
  | "coalesce" ->
    let g, (s : Core.Coalesce.stats) =
      Trace.span ~item "core.coalesce" (fun () ->
          Core.Coalesce.run ~scratch f)
    in
    c.core_copies_inserted <- c.core_copies_inserted + s.copies_inserted;
    c.filter_refusals <- c.filter_refusals + s.filter_refusals;
    c.forest_detached <- c.forest_detached + s.forest_detached;
    c.local_pairs <- c.local_pairs + s.local_pairs;
    c.aux_bytes <- max c.aux_bytes s.aux_memory_bytes;
    g
  | "standard" -> destruct ~item f
  | "briggs" -> graph ~item c Baseline.Ig_coalesce.Briggs "baseline.briggs" f
  | "briggs-star" ->
    graph ~item c Baseline.Ig_coalesce.Briggs_star "baseline.briggs_star" f
  | "regalloc:8" ->
    let r =
      Trace.span ~item "regalloc.alloc" (fun () ->
          Regalloc.run
            ~options:{ Regalloc.default_options with registers = 8 }
            f)
    in
    c.regalloc_rounds <- c.regalloc_rounds + r.stats.rounds;
    c.spilled_ranges <- c.spilled_ranges + r.stats.spilled_ranges;
    r.func
  | k -> invalid_arg ("Compose.step: no direct layer call for " ^ k)

let run ~item ~scratch c (pipeline : Pass.Pipeline.t) f =
  List.fold_left (fun g (p : Pass.t) -> step ~item ~scratch c p.key g) f
    pipeline
