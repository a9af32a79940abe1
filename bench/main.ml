(* Benchmark harness: regenerates every table of the paper's evaluation
   (Section 4) plus two extension studies, on the kernel suite described in
   DESIGN.md. Time columns are Bechamel OLS estimates (one Test.make per
   measured conversion, wrapped by Harness.Measure); memory columns are the
   byte-accurate models of the distinguishing data structures.

   Usage: main.exe [table1|table2|table3|table4|table5|scaling|ablation|
                    destruction|passes|regalloc|throughput|cache|analysis|serve|
                    corpus|tables|metrics|all]
          main.exe --fast ...     (shorter Bechamel quotas, noisier numbers)
          main.exe --json ...     (also write BENCH_10.json: per-target wall
                                   times + the four-pipeline "tables"
                                   evaluation + throughput + cache cold/warm +
                                   the analysis-core comparisons + the
                                   streaming-corpus memory study,
                                   machine-readable)

   Expected shapes (what the paper's tables show and ours must reproduce):
   - Table 1: Briggs* needs far less graph memory than Briggs and roughly
     half the time, with identical resulting code.
   - Table 2: Standard < New < Briggs* in conversion time.
   - Table 3: New uses modestly more memory than Standard, far less than
     the graphs.
   - Tables 4/5: New ≈ Briggs* in dynamic/static copies, both way below
     Standard. *)

module P = Harness.Pipelines
module T = Harness.Tables
module M = Harness.Measure

let quota = ref 0.25

let kernels () = Workloads.Suite.kernels ()

(* Tables 1–3 also include the big generated routines, which stand in for
   the paper's largest inputs (fpppp, twldrv were thousands of lines): the
   quadratic graph costs only separate from the linear coalescer at size. *)
let kernels_and_large () = kernels () @ Workloads.Suite.large ()

let time_pipeline ~name pipeline f =
  M.seconds ~quota_s:!quota ~name (fun () -> P.convert pipeline f)

(* ------------------------------------------------------------------ *)
(* Table 1: the two interference-graph coalescers, time and per-pass
   graph memory.                                                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let rows = ref [] in
  let ratios_t = ref [] in
  let total_b = ref 0 and total_s = ref 0 in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let ssa = Ssa.Construct.run_exn e.func in
      let inst = Ssa.Destruct_naive.run_exn (Ir.Edge_split.run ssa) in
      let run variant = Baseline.Ig_coalesce.run ~variant inst in
      let _, sb = run Baseline.Ig_coalesce.Briggs in
      let _, ss = run Baseline.Ig_coalesce.Briggs_star in
      assert (sb.copies_remaining = ss.copies_remaining);
      let tb =
        M.seconds ~quota_s:!quota ~name:(e.name ^ "/briggs") (fun () ->
            run Baseline.Ig_coalesce.Briggs)
      in
      let ts =
        M.seconds ~quota_s:!quota ~name:(e.name ^ "/briggs*") (fun () ->
            run Baseline.Ig_coalesce.Briggs_star)
      in
      let pass l i = match List.nth_opt l i with Some b -> b | None -> 0 in
      let b1 = pass sb.graph_bytes_per_round 0
      and b2 = pass sb.graph_bytes_per_round 1
      and s1 = pass ss.graph_bytes_per_round 0
      and s2 = pass ss.graph_bytes_per_round 1 in
      if ts > 0. then ratios_t := (tb /. ts) :: !ratios_t;
      total_b := !total_b + b1 + b2;
      total_s := !total_s + s1 + s2;
      rows :=
        [
          e.name;
          T.fmt_seconds tb;
          T.fmt_seconds ts;
          T.fmt_ratio (tb /. ts);
          T.fmt_bytes b1;
          T.fmt_bytes s1;
          T.fmt_bytes b2;
          T.fmt_bytes s2;
        ]
        :: !rows)
    (kernels_and_large ());
  let rows =
    List.rev !rows
    @ [
        [
          "AVERAGE";
          "";
          "";
          T.fmt_ratio (T.average !ratios_t);
          "";
          "";
          "";
          Printf.sprintf "mem x%.1f"
            (float_of_int !total_b /. float_of_int (max 1 !total_s));
        ];
      ]
  in
  T.print
    ~title:
      "Table 1: interference-graph coalescers -- time and graph memory \
       (first/second build pass)"
    ~header:
      [
        "File"; "Briggs t"; "Briggs* t"; "t ratio"; "B mem p1"; "B* mem p1";
        "B mem p2"; "B* mem p2";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Table 2: conversion times.                                          *)
(* ------------------------------------------------------------------ *)

let table2 () =
  let rows = ref [] in
  let r_std = ref [] and r_big = ref [] in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let t p = time_pipeline ~name:(e.name ^ "/" ^ P.name p) p e.func in
      let ts = t P.Standard in
      let tn = t P.New in
      let tb = t P.Briggs_star in
      r_std := (tn /. ts) :: !r_std;
      r_big := (tn /. tb) :: !r_big;
      rows :=
        [
          e.name;
          T.fmt_seconds ts;
          T.fmt_seconds tn;
          T.fmt_seconds tb;
          T.fmt_ratio (tn /. ts);
          T.fmt_ratio (tn /. tb);
        ]
        :: !rows)
    (kernels_and_large ());
  let rows =
    List.rev !rows
    @ [
        [
          "AVERAGE"; ""; ""; "";
          T.fmt_ratio (T.average !r_std);
          T.fmt_ratio (T.average !r_big);
        ];
      ]
  in
  T.print
    ~title:"Table 2: SSA-to-CFG conversion times"
    ~header:[ "File"; "Standard"; "New"; "Briggs*"; "New/Std"; "New/Briggs*" ]
    rows

(* ------------------------------------------------------------------ *)
(* Table 3: modeled peak memory of the conversions.                    *)
(* ------------------------------------------------------------------ *)

let table3 () =
  let rows = ref [] in
  let r_std = ref [] and r_big = ref [] in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let m p = (P.convert p e.func).P.aux_bytes in
      let ms = m P.Standard and mn = m P.New and mbs = m P.Briggs_star in
      let mb = m P.Briggs in
      r_std := (float_of_int mn /. float_of_int ms) :: !r_std;
      r_big := (float_of_int mn /. float_of_int mb) :: !r_big;
      rows :=
        [
          e.name;
          T.fmt_bytes ms;
          T.fmt_bytes mn;
          T.fmt_bytes mbs;
          T.fmt_bytes mb;
          T.fmt_ratio (float_of_int mn /. float_of_int ms);
          T.fmt_ratio (float_of_int mn /. float_of_int mb);
        ]
        :: !rows)
    (kernels_and_large ());
  let rows =
    List.rev !rows
    @ [
        [
          "AVERAGE"; ""; ""; ""; "";
          T.fmt_ratio (T.average !r_std);
          T.fmt_ratio (T.average !r_big);
        ];
      ]
  in
  T.print
    ~title:"Table 3: working memory of the conversions"
    ~header:
      [ "File"; "Standard"; "New"; "Briggs*"; "Briggs"; "New/Std"; "New/Briggs" ]
    rows

(* ------------------------------------------------------------------ *)
(* Tables 4 and 5: dynamic and static copies.                          *)
(* ------------------------------------------------------------------ *)

let copy_tables () =
  let rows4 = ref [] and rows5 = ref [] in
  let r4_std = ref [] and r4_big = ref [] in
  let r5_std = ref [] and r5_big = ref [] in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let std = P.convert P.Standard e.func in
      let new_ = P.convert P.New e.func in
      let big = P.convert P.Briggs_star e.func in
      (* All three must agree with the original semantics. *)
      let reference = Interp.run ~args:e.args e.func in
      List.iter
        (fun (r : P.result) ->
          let o = Interp.run ~args:e.args r.func in
          if not (Interp.equivalent reference o) then
            failwith ("pipeline changed semantics of " ^ e.name))
        [ std; new_; big ];
      let d (r : P.result) = P.dynamic_copies r ~args:e.args in
      let ds = d std and dn = d new_ and db = d big in
      let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
      r4_std := ratio dn ds :: !r4_std;
      r4_big := ratio dn db :: !r4_big;
      rows4 :=
        [
          e.name;
          string_of_int ds;
          string_of_int dn;
          string_of_int db;
          T.fmt_ratio (ratio dn ds);
          T.fmt_ratio (ratio dn db);
        ]
        :: !rows4;
      let ss = std.P.static_copies
      and sn = new_.P.static_copies
      and sb = big.P.static_copies in
      r5_std := ratio sn ss :: !r5_std;
      r5_big := ratio sn sb :: !r5_big;
      rows5 :=
        [
          e.name;
          string_of_int ss;
          string_of_int sn;
          string_of_int sb;
          T.fmt_ratio (ratio sn ss);
          T.fmt_ratio (ratio sn sb);
        ]
        :: !rows5)
    (kernels ());
  let avg_row r1 r2 =
    [ "AVERAGE"; ""; ""; ""; T.fmt_ratio (T.average !r1); T.fmt_ratio (T.average !r2) ]
  in
  T.print
    ~title:"Table 4: dynamic copies executed"
    ~header:[ "File"; "Standard"; "New"; "Briggs*"; "New/Std"; "New/Briggs*" ]
    (List.rev !rows4 @ [ avg_row r4_std r4_big ]);
  T.print
    ~title:"Table 5: static copies remaining"
    ~header:[ "File"; "Standard"; "New"; "Briggs*"; "New/Std"; "New/Briggs*" ]
    (List.rev !rows5 @ [ avg_row r5_std r5_big ])

(* ------------------------------------------------------------------ *)
(* Extension: batch-compilation throughput across domains.             *)
(* ------------------------------------------------------------------ *)

(* (jobs, functions/sec, speedup) rows, kept for the JSON emitter. *)
let throughput_results : (int * float * float) list ref = ref []

let throughput () =
  let entries = kernels_and_large () in
  let batch = List.map (fun (e : Workloads.Suite.entry) -> e.func) entries in
  let nfuncs = List.length batch in
  (* Coarse wall-clock over whole batches: a batch is tens of milliseconds,
     so an OLS fit per batch adds nothing; repeat until the budget runs out.
     One pool per row, reused across every timed batch, so domain spawning
     is paid once and each domain's scratch arena stays warm. *)
  let budget = Float.max 0.5 (!quota *. 4.) in
  let fps jobs =
    Engine.Pool.with_pool ~jobs (fun pool ->
        ignore (P.convert_batch_in pool P.New batch);
        let t0 = M.now_s () in
        let batches = ref 0 in
        while M.now_s () -. t0 < budget do
          ignore (P.convert_batch_in pool P.New batch);
          incr batches
        done;
        let dt = M.now_s () -. t0 in
        float_of_int (!batches * nfuncs) /. dt)
  in
  throughput_results := [];
  let base = ref 0.0 in
  let rows =
    List.map
      (fun jobs ->
        let f = fps jobs in
        if !base = 0.0 then base := f;
        let speedup = f /. !base in
        throughput_results := (jobs, f, speedup) :: !throughput_results;
        [
          string_of_int jobs;
          Printf.sprintf "%.1f" f;
          T.fmt_ratio speedup;
        ])
      [ 1; 2; 4 ]
  in
  throughput_results := List.rev !throughput_results;
  T.print
    ~title:
      (Printf.sprintf
         "Throughput: functions/sec over the kernel + generated large suite \
          (%d functions, New pipeline; speedup vs 1 domain, %d cores \
          available)"
         nfuncs (Domain.recommended_domain_count ()))
    ~header:[ "domains"; "funcs/sec"; "speedup" ]
    rows

(* ------------------------------------------------------------------ *)
(* Extension: the content-addressed compile cache — cold-vs-warm batch
   throughput, i.e. what a serve loop gains on repeated inputs.         *)
(* ------------------------------------------------------------------ *)

(* (mode, functions/sec, speedup vs cold) rows, kept for the JSON
   emitter. *)
let cache_results : (string * float * float) list ref = ref []

let cache_bench () =
  let entries = kernels_and_large () in
  let batch = List.map (fun (e : Workloads.Suite.entry) -> e.func) entries in
  let nfuncs = List.length batch in
  let pipeline = Driver.Pipeline.passes_of_config Driver.Pipeline.default in
  let budget = Float.max 0.5 (!quota *. 4.) in
  let hits = ref 0 and misses = ref 0 in
  let modes =
    Engine.Pool.with_pool ~jobs:2 (fun pool ->
        (* Warm the pool and the domain scratch arenas before timing. *)
        ignore (Driver.Pipeline.compile_batch_passes_in pool pipeline batch);
        let fps thunk =
          let t0 = M.now_s () in
          let batches = ref 0 in
          while M.now_s () -. t0 < budget do
            thunk ();
            incr batches
          done;
          let dt = M.now_s () -. t0 in
          float_of_int (!batches * nfuncs) /. dt
        in
        let uncached =
          fps (fun () ->
              ignore
                (Driver.Pipeline.compile_batch_passes_in pool pipeline batch))
        in
        (* Cold: a fresh cache per batch, so every item misses and pays
           key hashing plus the store on top of compilation. *)
        let cold =
          fps (fun () ->
              let cache = Cache.create ~capacity:1024 () in
              ignore
                (Driver.Pipeline.compile_batch_passes_in pool ~cache pipeline
                   batch))
        in
        (* Warm: one cache populated once, so every item hits. *)
        let cache = Cache.create ~capacity:1024 () in
        ignore
          (Driver.Pipeline.compile_batch_passes_in pool ~cache pipeline batch);
        let warm =
          fps (fun () ->
              ignore
                (Driver.Pipeline.compile_batch_passes_in pool ~cache pipeline
                   batch))
        in
        let s = Cache.stats cache in
        hits := s.Cache.hits;
        misses := s.Cache.misses;
        [ ("uncached", uncached); ("cold", cold); ("warm", warm) ])
  in
  let cold_fps = List.assoc "cold" modes in
  cache_results :=
    List.map (fun (mode, f) -> (mode, f, f /. cold_fps)) modes;
  T.print
    ~title:
      (Printf.sprintf
         "Cache: batch throughput over the kernel + generated large suite \
          (%d functions, default pipeline, 2 domains; cold = fresh cache \
          per batch, warm = every item hits; warm cache served %d hits / \
          %d misses)"
         nfuncs !hits !misses)
    ~header:[ "mode"; "funcs/sec"; "vs cold" ]
    (List.map
       (fun (mode, f, speedup) ->
         [ mode; Printf.sprintf "%.1f" f; T.fmt_ratio speedup ])
       !cache_results)

(* ------------------------------------------------------------------ *)
(* Extension: O(n·α(n)) scaling of the coalescer itself.               *)
(* ------------------------------------------------------------------ *)

let scaling () =
  (* The paper's O(n·α(n)) bound covers the coalescing machinery itself;
     liveness (and dominance) are prerequisites it assumes ("parts of the
     analysis necessary for pruned SSA, such as liveness analysis, are
     assumed"). We therefore report total conversion time, the prerequisite
     time (edge split + CFG + dominance + liveness), and their difference —
     the algorithm proper — per φ argument. *)
  let rows = ref [] in
  List.iter
    (fun size ->
      let f =
        Workloads.Generator.generate_ir
          { Workloads.Generator.default with seed = 7; size; num_vars = 12 }
      in
      let ssa = Ssa.Construct.run_exn f in
      let split = Ir.Edge_split.run ssa in
      let nargs = Ir.count_phi_args ssa in
      let t_total =
        M.seconds ~quota_s:!quota
          ~name:(Printf.sprintf "coalesce/size%d" size)
          (fun () -> Core.Coalesce.run ssa)
      in
      let t_prereq =
        M.seconds ~quota_s:!quota
          ~name:(Printf.sprintf "prereq/size%d" size)
          (fun () ->
            let split = Ir.Edge_split.run ssa in
            let cfg = Ir.Cfg.of_func split in
            let dom = Analysis.Dominance.compute split cfg in
            let live = Analysis.Liveness.compute split cfg in
            (dom, live))
      in
      ignore split;
      let t_algo = Float.max 0.0 (t_total -. t_prereq) in
      rows :=
        [
          string_of_int size;
          string_of_int (Ir.num_blocks ssa);
          string_of_int nargs;
          T.fmt_seconds t_total;
          T.fmt_seconds t_prereq;
          T.fmt_seconds t_algo;
          (if nargs = 0 then "-"
           else Printf.sprintf "%.0fns" (t_algo *. 1e9 /. float_of_int nargs));
        ]
        :: !rows)
    [ 25; 50; 100; 200; 400; 800 ];
  T.print
    ~title:
      "Scaling: coalescer cost per phi argument, net of the liveness/\
       dominance prerequisites the paper assumes (flat last column = the \
       O(n a(n)) claim)"
    ~header:
      [ "gen size"; "blocks"; "phi args"; "total"; "prereq"; "algorithm";
        "algo/arg" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Extension: ablation of the design choices DESIGN.md calls out.      *)
(* ------------------------------------------------------------------ *)

let ablation () =
  let variants =
    [
      ("default", Core.Coalesce.default_options);
      ("no-filters", { Core.Coalesce.default_options with use_filters = false });
      ( "no-victim-rule",
        { Core.Coalesce.default_options with victim_heuristic = false } );
    ]
  in
  let sums = List.map (fun (n, _) -> (n, ref 0, ref 0.0)) variants in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let ssa = Ssa.Construct.run_exn e.func in
      let reference = Interp.run ~args:e.args e.func in
      List.iter2
        (fun (vname, options) (_, copies_sum, time_sum) ->
          let out, _ = Core.Coalesce.run ~options ssa in
          if not (Interp.equivalent reference (Interp.run ~args:e.args out))
          then failwith ("ablation " ^ vname ^ " broke " ^ e.name);
          copies_sum := !copies_sum + Ir.count_copies out;
          time_sum :=
            !time_sum
            +. M.seconds ~quota_s:(!quota /. 2.)
                 ~name:(e.name ^ "/" ^ vname)
                 (fun () -> Core.Coalesce.run ~options ssa))
        variants sums)
    (kernels ());
  (* SSA pruning flavours as input to New: the paper predicts extra copies
     for the less precise forms. *)
  let pruning_copies pruning =
    List.fold_left
      (fun acc (e : Workloads.Suite.entry) ->
        let ssa = Ssa.Construct.run_exn ~pruning e.func in
        acc + Ir.count_copies (Core.Coalesce.run_exn ssa))
      0 (kernels ())
  in
  (* DCE recovers most of pruned SSA's advantage for the imprecise forms —
     the paper's Section 2 suggestion quantified. *)
  let pruning_copies_dce pruning =
    List.fold_left
      (fun acc (e : Workloads.Suite.entry) ->
        let ssa = Ssa.Construct.run_exn ~pruning e.func in
        acc + Ir.count_copies (Core.Coalesce.run_exn (Ssa.Dce.run_exn ssa)))
      0 (kernels ())
  in
  T.print
    ~title:"Ablation: coalescer variants (totals over the whole suite)"
    ~header:[ "variant"; "static copies"; "total time" ]
    (List.map
       (fun (n, c, t) -> [ n; string_of_int !c; T.fmt_seconds !t ])
       sums
    @ [
        [ "pruned SSA input"; string_of_int (pruning_copies Ssa.Construct.Pruned); "" ];
        [
          "semi-pruned input";
          string_of_int (pruning_copies Ssa.Construct.Semi_pruned);
          "";
        ];
        [ "minimal input"; string_of_int (pruning_copies Ssa.Construct.Minimal); "" ];
        [
          "semi-pruned + DCE";
          string_of_int (pruning_copies_dce Ssa.Construct.Semi_pruned);
          "";
        ];
        [
          "minimal + DCE";
          string_of_int (pruning_copies_dce Ssa.Construct.Minimal);
          "";
        ];
      ])

(* ------------------------------------------------------------------ *)
(* Extension: all five destruction strategies side by side (static
   copies), adding Sreedhar et al.'s Method I — the correctness floor
   later out-of-SSA work measures against.                              *)
(* ------------------------------------------------------------------ *)

let destruction () =
  let rows = ref [] in
  let tot = Array.make 5 0 in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let ssa = Ssa.Construct.run_exn e.func in
      let split = Ir.Edge_split.run ssa in
      let counts =
        [
          Ir.count_copies (Baseline.Sreedhar.run_exn ssa);
          Ir.count_copies (Ssa.Destruct_naive.run_exn split);
          Ir.count_copies
            (Baseline.Ig_coalesce.run_exn ~variant:Baseline.Ig_coalesce.Briggs
               (Ssa.Destruct_naive.run_exn split));
          Ir.count_copies
            (Baseline.Ig_coalesce.run_exn
               ~variant:Baseline.Ig_coalesce.Briggs_star
               (Ssa.Destruct_naive.run_exn split));
          Ir.count_copies (Core.Coalesce.run_exn ssa);
        ]
      in
      List.iteri (fun i c -> tot.(i) <- tot.(i) + c) counts;
      rows := (e.name :: List.map string_of_int counts) :: !rows)
    (kernels ());
  T.print
    ~title:
      "Destruction strategies, static copies (Sreedhar Method I is the \
       correct-by-construction ceiling)"
    ~header:[ "File"; "Sreedhar-I"; "Standard"; "Briggs"; "Briggs*"; "New" ]
    (List.rev !rows
    @ [ "TOTAL" :: Array.to_list (Array.map string_of_int tot) ])

(* ------------------------------------------------------------------ *)
(* Extension: pass-manager pipelines — what the optimizing SSA passes
   feed the coalescer. Copy-prop/simplify/dce ahead of the conversion
   should never increase the copies the coalescer inserts, and the
   table shows what each ordering costs in compile time.                *)
(* ------------------------------------------------------------------ *)

let pass_pipelines () =
  let specs =
    [
      "construct:pruned,coalesce";
      "construct:pruned,copy-prop,coalesce";
      "construct:pruned,copy-prop,simplify,dce,coalesce";
      "construct:pruned+nofold,copy-prop,coalesce";
      "construct:minimal,copy-prop,dce,coalesce";
    ]
  in
  let rows =
    List.map
      (fun spec ->
        let copies = ref 0 in
        let time = ref 0.0 in
        List.iter
          (fun (e : Workloads.Suite.entry) ->
            let r = P.compile_spec spec e.func in
            let reference = Interp.run ~args:e.args e.func in
            if not (Interp.equivalent reference (Interp.run ~args:e.args r.output))
            then failwith ("pipeline " ^ spec ^ " broke " ^ e.name);
            copies := !copies + Ir.count_copies r.output;
            time :=
              !time
              +. M.seconds ~quota_s:(!quota /. 2.)
                   ~name:(e.name ^ "/" ^ spec)
                   (fun () -> P.compile_spec spec e.func))
          (kernels ());
        [ spec; string_of_int !copies; T.fmt_seconds !time ])
      specs
  in
  T.print
    ~title:
      "Pass-manager pipelines (totals over the whole suite; specs as \
       accepted by repro-cli opt --passes)"
    ~header:[ "pipeline"; "static copies"; "total time" ]
    rows

(* ------------------------------------------------------------------ *)
(* Extension: downstream effect on register allocation — the "future
   work" consumer the paper names. Allocating after the New coalescer
   should match allocating after the graph coalescer, and both should
   beat allocating naive-instantiation output.                          *)
(* ------------------------------------------------------------------ *)

let regalloc_study () =
  let rows = ref [] in
  let totals = Hashtbl.create 4 in
  let add key v =
    Hashtbl.replace totals key (v + (try Hashtbl.find totals key with Not_found -> 0))
  in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let alloc (r : P.result) =
        Regalloc.run
          ~options:{ Regalloc.default_options with registers = 6 }
          r.P.func
      in
      let measure pipeline =
        let r = alloc (P.convert pipeline e.func) in
        let o = Interp.run ~args:e.args r.Regalloc.func in
        (* Memory traffic = executed loads+stores against the spill slots
           is what spilling costs at run time; count all copies too. *)
        (r.Regalloc.stats.spilled_ranges, o.Interp.stats.copies_executed)
      in
      let s_sp, s_cp = measure P.Standard in
      let n_sp, n_cp = measure P.New in
      let b_sp, b_cp = measure P.Briggs_star in
      add "std_sp" s_sp; add "new_sp" n_sp; add "big_sp" b_sp;
      add "std_cp" s_cp; add "new_cp" n_cp; add "big_cp" b_cp;
      rows :=
        [
          e.name;
          string_of_int s_sp; string_of_int n_sp; string_of_int b_sp;
          string_of_int s_cp; string_of_int n_cp; string_of_int b_cp;
        ]
        :: !rows)
    (kernels ());
  let t k = string_of_int (try Hashtbl.find totals k with Not_found -> 0) in
  T.print
    ~title:
      "Register allocation (k=6) downstream of each conversion: spilled \
       live ranges and dynamic copies of the allocated code"
    ~header:
      [ "File"; "spill Std"; "spill New"; "spill B*"; "dyncopy Std";
        "dyncopy New"; "dyncopy B*" ]
    (List.rev !rows
    @ [ [ "TOTAL"; t "std_sp"; t "new_sp"; t "big_sp"; t "std_cp";
          t "new_cp"; t "big_cp" ] ])

(* ------------------------------------------------------------------ *)
(* Extension: the dense analysis core — iterative (CHK) vs DSU
   (Lengauer–Tarjan) dominators on the adversarial CFG families, and
   hashtbl-shaped vs dense bit-vector liveness over the whole suite,
   with minor-heap allocation words per run.                            *)
(* ------------------------------------------------------------------ *)

(* (bench, input, variant, seconds, minor_words) rows, kept for the JSON
   emitter. *)
let analysis_results : (string * string * string * float * float) list ref =
  ref []

(* Average minor-heap words allocated per call — the allocation half of
   the dense-representation claim; wall time alone can hide a solver that
   wins by churning the minor heap. *)
let minor_words_per_run thunk =
  ignore (thunk ());
  let reps = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (thunk ())
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

let analysis_bench () =
  analysis_results := [];
  let record bench input variant seconds words =
    analysis_results :=
      (bench, input, variant, seconds, words) :: !analysis_results
  in
  let rows = ref [] in
  (* Dominators on the degenerate families where the iterative solver's
     intersect walks go quadratic. These sizes are only ever analyzed,
     never interpreted, so the loop nest can be deep. We time the idom
     solve proper ([Dominance.idoms_into], arena recycled) — the derived
     frontiers are algorithm-independent and themselves quadratic in size
     on these graphs, so timing the full [compute] would mostly measure
     work the two solvers share. *)
  let scratch = Support.Scratch.create () in
  List.iter
    (fun (shape, size) ->
      let f = Workloads.Generator.adversarial shape ~size in
      let cfg = Ir.Cfg.of_func f in
      let solve alg () =
        Support.Scratch.release_int_array scratch
          (Analysis.Dominance.idoms_into ~algorithm:alg ~scratch cfg)
      in
      let label =
        Printf.sprintf "%s%d" (Workloads.Generator.shape_name shape) size
      in
      let t_chk =
        M.seconds ~quota_s:!quota ~name:("dom-chk/" ^ label)
          (solve Analysis.Dominance.Chk)
      in
      let t_dsu =
        M.seconds ~quota_s:!quota ~name:("dom-dsu/" ^ label)
          (solve Analysis.Dominance.Dsu)
      in
      let w_chk = minor_words_per_run (solve Analysis.Dominance.Chk) in
      let w_dsu = minor_words_per_run (solve Analysis.Dominance.Dsu) in
      record "dominators" label "chk" t_chk w_chk;
      record "dominators" label "dsu" t_dsu w_dsu;
      rows :=
        [
          "dominators";
          label;
          string_of_int (Ir.num_blocks f);
          T.fmt_seconds t_chk;
          T.fmt_seconds t_dsu;
          T.fmt_ratio (t_chk /. t_dsu);
          Printf.sprintf "%.0f" w_chk;
          Printf.sprintf "%.0f" w_dsu;
        ]
        :: !rows)
    [
      (Workloads.Generator.Comb, 512);
      (Workloads.Generator.Skewed_ladder, 512);
      (Workloads.Generator.Dense_diamonds, 256);
      (Workloads.Generator.Deep_loop_nest, 300);
    ];
  (* Liveness over the whole suite in SSA form: the deliberately
     Hashtbl-shaped reference against the dense bit-vector solver the
     pipeline uses — the batch analysis throughput the dense core buys. *)
  let batch =
    List.map
      (fun (e : Workloads.Suite.entry) ->
        let ssa = Ssa.Construct.run_exn e.func in
        (ssa, Ir.Cfg.of_func ssa))
      (kernels_and_large ())
  in
  let nfuncs = List.length batch in
  let nblocks =
    List.fold_left (fun acc (f, _) -> acc + Ir.num_blocks f) 0 batch
  in
  let run_hashtbl () =
    List.iter
      (fun (f, cfg) -> ignore (Analysis.Liveness_ref.compute f cfg))
      batch
  in
  let run_dense () =
    List.iter (fun (f, cfg) -> ignore (Analysis.Liveness.compute f cfg)) batch
  in
  let t_hash =
    M.seconds ~quota_s:!quota ~name:"liveness-hashtbl/suite" run_hashtbl
  in
  let t_dense =
    M.seconds ~quota_s:!quota ~name:"liveness-dense/suite" run_dense
  in
  let per_fn w = w /. float_of_int nfuncs in
  let w_hash = per_fn (minor_words_per_run run_hashtbl) in
  let w_dense = per_fn (minor_words_per_run run_dense) in
  record "liveness" "suite-batch" "hashtbl" t_hash w_hash;
  record "liveness" "suite-batch" "dense" t_dense w_dense;
  rows :=
    [
      "liveness";
      Printf.sprintf "suite-batch (%d fns)" nfuncs;
      string_of_int nblocks;
      T.fmt_seconds t_hash;
      T.fmt_seconds t_dense;
      T.fmt_ratio (t_hash /. t_dense);
      Printf.sprintf "%.0f" w_hash;
      Printf.sprintf "%.0f" w_dense;
    ]
    :: !rows;
  analysis_results := List.rev !analysis_results;
  T.print
    ~title:
      "Analysis core: CHK vs DSU dominators on adversarial CFGs, and \
       hashtbl vs dense liveness over the SSA'd suite (minor words = \
       allocation per solve; liveness words are per function)"
    ~header:
      [
        "bench"; "input"; "blocks"; "base t"; "new t"; "base/new";
        "base minor w"; "new minor w";
      ]
    (List.rev !rows)


(* ------------------------------------------------------------------ *)
(* Extension: the concurrent socket server under load — throughput,    *)
(* client-observed latency percentiles, dedup collapse, busy shedding. *)
(* ------------------------------------------------------------------ *)

(* scenario, loadgen result *)
let serve_results : (string * Serve.Loadgen.result) list ref = ref []

let serve_scenario ~name ~config ~clients ~requests ~distinct rows =
  let server = Serve.Server.start ~config (Serve.Server.Tcp ("", 0)) in
  let r =
    Fun.protect
      ~finally:(fun () -> Serve.Server.stop server)
      (fun () ->
        Serve.Loadgen.run
          ~port:(Serve.Server.port server)
          ~clients ~requests_per_client:requests ~distinct ())
  in
  serve_results := (name, r) :: !serve_results;
  let stat k = Option.value ~default:0 (List.assoc_opt k r.server_stats) in
  rows :=
    [
      name;
      string_of_int r.clients;
      string_of_int r.requests;
      string_of_int r.ok;
      string_of_int r.busy;
      Printf.sprintf "%.0f" r.throughput;
      Printf.sprintf "%.2f" r.p50_ms;
      Printf.sprintf "%.2f" r.p95_ms;
      Printf.sprintf "%.2f" r.p99_ms;
      string_of_int (stat "dedup");
      string_of_int (stat "contention");
    ]
    :: !rows

let serve_bench () =
  serve_results := [];
  let rows = ref [] in
  let fast = !quota < 0.2 in
  let cache () = Some (Cache.create ~capacity:4096 ~shards:8 ()) in
  (* Capacity: a deep queue sized to the fleet, so nothing sheds and the
     percentiles measure queueing + compile + dedup collapse. *)
  serve_scenario ~name:"capacity"
    ~config:
      {
        Serve.Server.jobs = 2;
        queue_capacity = 4096;
        per_conn = 8;
        max_conns = 4096;
        cache = cache ();
      }
    ~clients:(if fast then 128 else 1000)
    ~requests:(if fast then 4 else 5)
    ~distinct:32 rows;
  (* Overload: a tiny queue against the same fleet — the server must shed
     with err status=busy rather than queue unboundedly or fall over. *)
  serve_scenario ~name:"overload"
    ~config:
      {
        Serve.Server.jobs = 2;
        queue_capacity = 4;
        per_conn = 2;
        max_conns = 4096;
        cache = cache ();
      }
    ~clients:(if fast then 64 else 256)
    ~requests:(if fast then 4 else 8)
    ~distinct:8 rows;
  T.print
    ~title:
      "Serve: concurrent TCP clients against the shared warm pool (2 \
       domains; capacity = deep queue, overload = 4-deep queue with \
       per-conn limit 2; latency percentiles are client-observed over ok \
       replies)"
    ~header:
      [
        "scenario"; "clients"; "reqs"; "ok"; "busy"; "req/s"; "p50 ms";
        "p95 ms"; "p99 ms"; "dedup"; "contention";
      ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Extension: streaming corpus compilation — the bounded-memory story.
   Streaming through Engine.Stream must hold peak live words flat as the
   corpus grows 10×, while the materialized batch mode (every input and
   report in a list) grows linearly.                                    *)
(* ------------------------------------------------------------------ *)

(* (mode, funcs, seconds, funcs/sec, peak growth words) rows for the JSON
   emitter. *)
let corpus_results : (string * int * float * float * int) list ref = ref []

let corpus_bench () =
  corpus_results := [];
  let fast = !quota < 0.2 in
  let jobs = 4 in
  let pipeline = Driver.Pipeline.passes_of_config Driver.Pipeline.default in
  let spec total =
    { Workloads.Corpus.seed = 42; total; mix = Workloads.Corpus.default_mix }
  in
  (* One measured run per (mode, size): wall clock over the whole corpus
     dwarfs timer noise at these sizes, and repeating a 10⁵-function run
     for an OLS fit would cost minutes for no extra signal. The heap
     watch compacts first, so growth is the run's own high-water. *)
  let streaming total =
    let watch = M.heap_watch () in
    let (), dt =
      M.wall (fun () ->
          Engine.Pool.with_pool ~jobs (fun pool ->
              Driver.Pipeline.stream_passes_in pool
                ~producer:(Workloads.Corpus.producer (spec total))
                ~consumer:(fun _ _ -> M.heap_sample watch)
                pipeline))
    in
    (dt, M.heap_growth_words watch)
  in
  let materialized total =
    let watch = M.heap_watch () in
    let (), dt =
      M.wall (fun () ->
          Engine.Pool.with_pool ~jobs (fun pool ->
              let next = Workloads.Corpus.producer (spec total) in
              let rec all acc =
                match next () with Some f -> all (f :: acc) | None -> List.rev acc
              in
              let funcs = all [] in
              let reports =
                Driver.Pipeline.compile_batch_passes_in pool pipeline funcs
              in
              ignore (Sys.opaque_identity reports);
              M.heap_sample watch))
    in
    (dt, M.heap_growth_words watch)
  in
  (* Streaming sizes carry the flatness claim (10× growth in corpus, peak
     within 2×); the materialized baseline shows the linear growth at
     sizes that fit comfortably in memory. *)
  let stream_sizes = if fast then [ 500; 5_000 ] else [ 10_000; 100_000 ] in
  let mat_sizes = if fast then [ 500; 5_000 ] else [ 1_000; 10_000 ] in
  let rows = ref [] in
  let run mode sizes f =
    let first_peak = ref 0 in
    List.iter
      (fun total ->
        let dt, peak = f total in
        if !first_peak = 0 then first_peak := peak;
        let fps = float_of_int total /. Float.max dt 1e-9 in
        corpus_results := (mode, total, dt, fps, peak) :: !corpus_results;
        rows :=
          [
            mode;
            string_of_int total;
            Printf.sprintf "%.2f" dt;
            Printf.sprintf "%.0f" fps;
            Printf.sprintf "%.0f" (fps /. float_of_int jobs);
            string_of_int peak;
            T.fmt_ratio (float_of_int peak /. float_of_int (max 1 !first_peak));
          ]
          :: !rows)
      sizes
  in
  run "streaming" stream_sizes streaming;
  run "materialized" mat_sizes materialized;
  corpus_results := List.rev !corpus_results;
  T.print
    ~title:
      (Printf.sprintf
         "Corpus: streaming vs materialized batch compilation (default \
          pipeline, %d domains, window %d; peak = heap high-water growth \
          in words over a compacted baseline; 'vs first' compares against \
          the mode's smallest corpus — streaming must stay flat while \
          materialized grows with the corpus)"
         jobs Engine.Stream.default_window)
    ~header:
      [ "mode"; "funcs"; "wall s"; "funcs/s"; "funcs/s/core"; "peak words";
        "vs first" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* tables: the paper's whole evaluation, one aggregate row per
   pipeline. Every conversion goes through the pass-manager door
   (spec_of → compile_passes with an Obs recorder) so the copy counts
   are the published counters, not private stats; graph peaks come from
   the per-round stats Pipelines.convert carries; the allocation
   columns run the Chaitin/Briggs allocator (k=8) downstream on the
   interpretable kernels. The mode also asserts the paper's two
   headline identities: Briggs, Briggs* and the fused variant eliminate
   the same copies on every workload, and Briggs*'s aggregate peak
   graph memory is an order of magnitude below Briggs'.               *)
(* ------------------------------------------------------------------ *)

type tables_row = {
  tr_name : string;
  tr_spec : string;
  tr_convert_s : float;  (* summed OLS estimates, kernels+large *)
  tr_copies_inserted : int;
  tr_copies_eliminated : int;
  tr_static_copies : int;
  tr_ig_rounds : int;
  tr_ig_peak_nodes : int;  (* largest single graph over the suite *)
  tr_ig_peak_edges : int;
  tr_ig_peak_bytes : int;  (* summed per-workload peaks *)
  tr_dynamic_copies : int;  (* kernels only *)
  tr_spilled_ranges : int;  (* kernels, k=8 *)
  tr_spill_loads : int;
  tr_spill_stores : int;
  tr_colors_max : int;
}

let tables_registers = 8
let tables_results : tables_row list ref = ref []
let tables_memory_ratio = ref 0.0

let tables () =
  tables_results := [];
  let entries = kernels_and_large () in
  (* (pipeline name, workload name) -> copies eliminated / peak bytes,
     for the cross-pipeline identity and memory assertions. *)
  let eliminated : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
  let peak_bytes : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
  let row_of pipeline =
    let pname = P.name pipeline in
    let spec = P.spec_of pipeline in
    let passes =
      match Pass.Spec.parse spec with
      | Ok l -> l
      | Error msg -> failwith ("tables: bad spec " ^ spec ^ ": " ^ msg)
    in
    let ins = ref 0 and elim = ref 0 and static = ref 0 in
    let rounds = ref 0 and pk_nodes = ref 0 and pk_edges = ref 0 in
    let pk_bytes = ref 0 in
    let tconv = ref 0.0 in
    List.iter
      (fun (e : Workloads.Suite.entry) ->
        let obs = Obs.create () in
        ignore (Driver.Pipeline.compile_passes ~obs passes e.func);
        ins := !ins + Obs.get obs Obs.Copies_inserted;
        let el = Obs.get obs Obs.Copies_eliminated in
        elim := !elim + el;
        Hashtbl.replace eliminated (pname, e.name) el;
        let r = P.convert pipeline e.func in
        static := !static + r.P.static_copies;
        rounds := !rounds + r.P.ig_rounds;
        pk_nodes := max !pk_nodes r.P.ig_peak_nodes;
        pk_edges := max !pk_edges r.P.ig_peak_edges;
        let pk = List.fold_left max 0 r.P.ig_bytes_per_round in
        pk_bytes := !pk_bytes + pk;
        Hashtbl.replace peak_bytes (pname, e.name) pk;
        tconv :=
          !tconv
          +. time_pipeline ~name:(e.name ^ "/tables/" ^ pname) pipeline e.func)
      entries;
    let dyn = ref 0 and spilled = ref 0 in
    let loads = ref 0 and stores = ref 0 and colors = ref 0 in
    List.iter
      (fun (e : Workloads.Suite.entry) ->
        let r = P.convert pipeline e.func in
        let reference = Interp.run ~args:e.args e.func in
        let o = Interp.run ~args:e.args r.P.func in
        if not (Interp.equivalent reference o) then
          failwith (pname ^ " changed semantics of " ^ e.name);
        dyn := !dyn + o.Interp.stats.copies_executed;
        let a =
          Regalloc.run
            ~options:
              { Regalloc.default_options with registers = tables_registers }
            r.P.func
        in
        (* The allocated code writes its spill slab; compare through
           Check.equiv so that side array is excluded, exactly as the
           pass manager's --check does. *)
        (match
           Check.equiv ~ignore_arrays:[ a.Regalloc.spill_array ]
             ~reference:e.func a.Regalloc.func
         with
        | Ok () -> ()
        | Error m ->
          failwith
            (Format.asprintf "%s+regalloc changed semantics of %s: %a" pname
               e.name Check.pp_mismatch m));
        spilled := !spilled + a.Regalloc.stats.spilled_ranges;
        loads := !loads + a.Regalloc.stats.spill_loads;
        stores := !stores + a.Regalloc.stats.spill_stores;
        colors := max !colors a.Regalloc.stats.colors_used)
      (kernels ());
    {
      tr_name = pname;
      tr_spec = spec;
      tr_convert_s = !tconv;
      tr_copies_inserted = !ins;
      tr_copies_eliminated = !elim;
      tr_static_copies = !static;
      tr_ig_rounds = !rounds;
      tr_ig_peak_nodes = !pk_nodes;
      tr_ig_peak_edges = !pk_edges;
      tr_ig_peak_bytes = !pk_bytes;
      tr_dynamic_copies = !dyn;
      tr_spilled_ranges = !spilled;
      tr_spill_loads = !loads;
      tr_spill_stores = !stores;
      tr_colors_max = !colors;
    }
  in
  let rows = List.map row_of P.with_fused in
  (* Decision identity: the three graph coalescers eliminate exactly the
     same copies on every workload (Section 4.1's "identical code"). *)
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let el p = Hashtbl.find eliminated (P.name p, e.name) in
      let b = el P.Briggs and s = el P.Briggs_star in
      let f = el P.Briggs_star_fused in
      if b <> s || s <> f then
        failwith
          (Printf.sprintf
             "tables: coalescing decisions diverge on %s (Briggs %d, \
              Briggs* %d, fused %d)"
             e.name b s f))
    entries;
  (* Memory: aggregate peak graph bytes, Briggs over Briggs* — the ≥10×
     claim. Per-workload the mapping array can dominate tiny kernels, so
     the claim is about the suite total, where the large routines'
     quadratic full matrices live. *)
  let sum p =
    List.fold_left
      (fun acc (e : Workloads.Suite.entry) ->
        acc + Hashtbl.find peak_bytes (P.name p, e.name))
      0 entries
  in
  let ratio = float_of_int (sum P.Briggs) /. float_of_int (max 1 (sum P.Briggs_star)) in
  tables_memory_ratio := ratio;
  if ratio < 10.0 then
    failwith
      (Printf.sprintf
         "tables: Briggs/Briggs* aggregate peak graph memory ratio %.1f < 10"
         ratio);
  tables_results := rows;
  T.print
    ~title:
      (Printf.sprintf
         "Tables 1-3 aggregate: conversion time, copies and peak graph \
          size per pipeline (kernels + large; Briggs/Briggs* peak-memory \
          ratio %.0fx)"
         ratio)
    ~header:
      [
        "pipeline"; "conv t"; "ins"; "elim"; "static"; "IG rounds";
        "IG peak nodes"; "IG peak edges"; "IG peak bytes";
      ]
    (List.map
       (fun r ->
         [
           r.tr_name;
           T.fmt_seconds r.tr_convert_s;
           string_of_int r.tr_copies_inserted;
           string_of_int r.tr_copies_eliminated;
           string_of_int r.tr_static_copies;
           string_of_int r.tr_ig_rounds;
           string_of_int r.tr_ig_peak_nodes;
           string_of_int r.tr_ig_peak_edges;
           T.fmt_bytes r.tr_ig_peak_bytes;
         ])
       rows);
  T.print
    ~title:
      (Printf.sprintf
         "Tables 4-5 + allocation: dynamic copies and downstream \
          register allocation (kernels, k=%d)"
         tables_registers)
    ~header:
      [
        "pipeline"; "dyn copies"; "spilled"; "spill loads"; "spill stores";
        "colors max";
      ]
    (List.map
       (fun r ->
         [
           r.tr_name;
           string_of_int r.tr_dynamic_copies;
           string_of_int r.tr_spilled_ranges;
           string_of_int r.tr_spill_loads;
           string_of_int r.tr_spill_stores;
           string_of_int r.tr_colors_max;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* metrics: the Obs counter vectors over the kernel suite — the same   *)
(* numbers the golden metrics-regression test pins down.               *)
(* ------------------------------------------------------------------ *)

let metrics () =
  let funcs =
    List.map (fun (e : Workloads.Suite.entry) -> e.func) (kernels ())
  in
  Harness.Obs_report.print (Harness.Obs_report.collect funcs)

(* ------------------------------------------------------------------ *)
(* JSON emission: a perf trajectory future PRs can diff against.       *)
(* ------------------------------------------------------------------ *)

let emit_json ~path ~fast timings =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"repro-bench/2\",\n";
  out "  \"fast\": %b,\n" fast;
  out "  \"quota_s\": %g,\n" !quota;
  (* Per-target wall times (the key was "tables" under repro-bench/1;
     renamed so the four-pipeline evaluation below can own that name). *)
  out "  \"targets\": [\n";
  List.iteri
    (fun i (name, wall_s) ->
      out "    {\"name\": %S, \"wall_s\": %.6f}%s\n" name wall_s
        (if i = List.length timings - 1 then "" else ","))
    timings;
  out "  ],\n";
  out "  \"tables\": {\n";
  out "    \"registers\": %d,\n" tables_registers;
  out "    \"briggs_star_memory_ratio\": %.2f,\n" !tables_memory_ratio;
  out "    \"rows\": [\n";
  let tr = !tables_results in
  List.iteri
    (fun i r ->
      out
        "      {\"pipeline\": %S, \"spec\": %S, \"convert_s\": %.6f, \
         \"copies_inserted\": %d, \"copies_eliminated\": %d, \
         \"static_copies\": %d, \"dynamic_copies\": %d, \"ig_rounds\": %d, \
         \"ig_peak_nodes\": %d, \"ig_peak_edges\": %d, \"ig_peak_bytes\": \
         %d, \"spilled_ranges\": %d, \"spill_loads\": %d, \"spill_stores\": \
         %d, \"colors_max\": %d}%s\n"
        r.tr_name r.tr_spec r.tr_convert_s r.tr_copies_inserted
        r.tr_copies_eliminated r.tr_static_copies r.tr_dynamic_copies
        r.tr_ig_rounds r.tr_ig_peak_nodes r.tr_ig_peak_edges
        r.tr_ig_peak_bytes r.tr_spilled_ranges r.tr_spill_loads
        r.tr_spill_stores r.tr_colors_max
        (if i = List.length tr - 1 then "" else ","))
    tr;
  out "    ]\n";
  out "  },\n";
  out "  \"throughput\": [\n";
  let tp = !throughput_results in
  List.iteri
    (fun i (jobs, fps, speedup) ->
      out
        "    {\"jobs\": %d, \"functions_per_sec\": %.3f, \"speedup\": %.4f}%s\n"
        jobs fps speedup
        (if i = List.length tp - 1 then "" else ","))
    tp;
  out "  ],\n";
  out "  \"cache\": [\n";
  let cr = !cache_results in
  List.iteri
    (fun i (mode, fps, speedup) ->
      out
        "    {\"mode\": %S, \"functions_per_sec\": %.3f, \"vs_cold\": %.4f}%s\n"
        mode fps speedup
        (if i = List.length cr - 1 then "" else ","))
    cr;
  out "  ],\n";
  out "  \"analysis\": [\n";
  let ar = !analysis_results in
  List.iteri
    (fun i (bench, input, variant, seconds, words) ->
      out
        "    {\"bench\": %S, \"input\": %S, \"variant\": %S, \"seconds\": \
         %.9f, \"minor_words\": %.1f}%s\n"
        bench input variant seconds words
        (if i = List.length ar - 1 then "" else ","))
    ar;
  out "  ],\n";
  out "  \"corpus\": [\n";
  let co = !corpus_results in
  List.iteri
    (fun i (mode, funcs, wall_s, fps, peak) ->
      out
        "    {\"mode\": %S, \"funcs\": %d, \"wall_s\": %.4f, \
         \"functions_per_sec\": %.2f, \"peak_growth_words\": %d}%s\n"
        mode funcs wall_s fps peak
        (if i = List.length co - 1 then "" else ","))
    co;
  out "  ],\n";
  out "  \"serve\": [\n";
  let sr = List.rev !serve_results in
  List.iteri
    (fun i ((name, r) : string * Serve.Loadgen.result) ->
      let stat k =
        Option.value ~default:0 (List.assoc_opt k r.server_stats)
      in
      out
        "    {\"scenario\": %S, \"clients\": %d, \"requests\": %d, \
         \"ok\": %d, \"busy\": %d, \"errors\": %d, \"elapsed_s\": %.4f, \
         \"throughput_rps\": %.2f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, \
         \"p99_ms\": %.4f, \"dedup\": %d, \"shed\": %d, \
         \"contention\": %d}%s\n"
        name r.clients r.requests r.ok r.busy r.errors r.elapsed_s
        r.throughput r.p50_ms r.p95_ms r.p99_ms (stat "dedup") (stat "shed")
        (stat "contention")
        (if i = List.length sr - 1 then "" else ","))
    sr;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let fast = List.mem "--fast" args in
  let json = List.mem "--json" args in
  if fast then quota := 0.05;
  let args = List.filter (fun a -> a <> "--fast" && a <> "--json") args in
  let what = match args with [] -> [ "all" ] | l -> l in
  let timings = ref [] in
  let timed name thunk =
    let (), wall_s = M.wall thunk in
    timings := (name, wall_s) :: !timings
  in
  let rec run name =
    match name with
    | "table1" -> timed name table1
    | "table2" -> timed name table2
    | "table3" -> timed name table3
    | "table4" | "table5" -> timed "table4+5" copy_tables
    | "scaling" -> timed name scaling
    | "ablation" -> timed name ablation
    | "regalloc" -> timed name regalloc_study
    | "destruction" -> timed name destruction
    | "passes" -> timed name pass_pipelines
    | "throughput" -> timed name throughput
    | "cache" -> timed name cache_bench
    | "analysis" -> timed name analysis_bench
    | "serve" -> timed name serve_bench
    | "corpus" -> timed name corpus_bench
    | "tables" -> timed name tables
    | "metrics" -> timed name metrics
    | "all" ->
      List.iter run
        [
          "table1"; "table2"; "table3"; "table4"; "scaling"; "ablation";
          "destruction"; "passes"; "regalloc"; "throughput"; "cache";
          "analysis"; "serve"; "corpus"; "tables"; "metrics";
        ]
    | other ->
      Printf.eprintf "unknown target %S\n" other;
      exit 2
  in
  List.iter run what;
  if json then emit_json ~path:"BENCH_10.json" ~fast (List.rev !timings)
