(* A JIT-style backend pipeline — the use case the paper's introduction
   motivates ("systems in which compile time is a critical concern, such as
   JIT compilers").

   For every kernel in the workload suite we run the full backend:

     parse → lower → pruned SSA (copies folded) → graph-free coalescing
           → Chaitin/Briggs register allocation (k = 8) → execute

   and report per-stage statistics: how many copies the coalescer avoided,
   how many real registers the allocator needed, and whether anything had
   to spill. Every stage is verified against the interpreter.

     dune exec examples/jit_pipeline.exe *)

let () =
  Printf.printf "%-10s %7s %7s %7s %7s %7s %7s %7s\n" "kernel" "blocks"
    "phis" "naiveC" "coalC" "colors" "spills" "ok";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let ssa = Ssa.Construct.run_exn e.func in
      let nphis =
        let n = ref 0 in
        Ir.iter_phis ssa (fun _ _ -> incr n);
        !n
      in
      let naive = Ssa.Destruct_naive.run_exn (Ir.Edge_split.run ssa) in
      let coalesced = Core.Coalesce.run_exn ssa in
      let alloc =
        Regalloc.run
          ~options:{ Regalloc.default_options with registers = 8 }
          coalesced
      in
      let reference = Interp.run ~args:e.args e.func in
      let final = Interp.run ~args:e.args alloc.func in
      let ok =
        reference.return_value = final.return_value
        && reference.arrays
           = List.remove_assoc alloc.spill_array final.arrays
      in
      Printf.printf "%-10s %7d %7d %7d %7d %7d %7d %7s\n" e.name
        (Ir.num_blocks e.func) nphis
        (Ir.count_copies naive)
        (Ir.count_copies coalesced)
        alloc.stats.colors_used alloc.stats.spilled_ranges
        (if ok then "yes" else "NO");
      if not ok then exit 1)
    (Workloads.Suite.kernels ());
  print_newline ();
  (* The compile-time story: time the two halves of the backend on the
     biggest kernel, JIT-style (one-shot, no warmup games — just a
     representative figure). *)
  let e = Workloads.Suite.find_exn "twldrv" in
  let t0 = Sys.time () in
  for _ = 1 to 200 do
    let ssa = Ssa.Construct.run_exn e.func in
    ignore (Core.Coalesce.run_exn ssa)
  done;
  let t1 = Sys.time () in
  for _ = 1 to 200 do
    let ssa = Ssa.Construct.run_exn e.func in
    let c = Core.Coalesce.run_exn ssa in
    ignore (Regalloc.run ~options:{ Regalloc.default_options with registers = 8 } c)
  done;
  let t2 = Sys.time () in
  Printf.printf
    "twldrv backend time (mean of 200): SSA+coalesce %.0fus, +regalloc %.0fus\n"
    ((t1 -. t0) /. 200. *. 1e6)
    ((t2 -. t1) /. 200. *. 1e6)
