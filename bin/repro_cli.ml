(* Command-line driver: compile mini-language sources and show every stage
   of the SSA-coalescing pipeline, run programs, and compare coalescers. *)

open Cmdliner

(* Exit codes: 0 success; 1 a fuzz discrepancy was found; 2 the input file
   could not be parsed (usage errors keep cmdliner's own 124); 3 the program
   faulted under the interpreter; 125 internal error. User-facing failures
   are printed as diagnostics on stderr, never as raw exception backtraces. *)
let exit_parse_error = 2
let exit_runtime_fault = 3

exception Input_error of string

(* Mini-language sources by default; files ending in .ir hold the textual
   IR syntax of Ir.Printer/Ir.Parse. The serve protocol's loader, so a
   file gets the same checks and diagnostics in both. *)
let load path =
  try Serve.Protocol.load path
  with Serve.Protocol.Bad_request msg -> raise (Input_error msg)

let print_func title f =
  Printf.printf "==== %s ====\n%s\n\n" title (Ir.Printer.func_to_string f)

let stage_names = [ "cfg"; "ssa"; "standard"; "new"; "briggs"; "briggs-star" ]

let dump_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let stage =
    Arg.(
      value
      & opt (enum (List.map (fun s -> (s, s)) stage_names)) "new"
      & info [ "stage" ] ~doc:"Pipeline stage to dump: $(docv)."
          ~docv:"cfg|ssa|standard|new|briggs|briggs-star")
  in
  let run path stage =
    List.iter
      (fun f ->
        Ir.Validate.check_exn f;
        match stage with
        | "cfg" -> print_func (f.Ir.name ^ " (input CFG)") f
        | "ssa" ->
          let f = Ssa.Construct.run_exn f in
          Ssa.Ssa_validate.check_exn f;
          print_func (f.Ir.name ^ " (pruned SSA, copies folded)") f
        | "standard" ->
          let f = Ssa.Construct.run_exn f in
          let f = Ir.Edge_split.run f in
          let f = Ssa.Destruct_naive.run_exn f in
          Ir.Validate.check_exn f;
          print_func (f.Ir.name ^ " (Standard phi instantiation)") f
        | "new" ->
          let f = Ssa.Construct.run_exn f in
          let f, stats = Core.Coalesce.run f in
          Ir.Validate.check_exn f;
          print_func (f.Ir.name ^ " (New coalescer)") f;
          Printf.printf
            "classes=%d members=%d copies=%d filter-refusals=%d forest-detached=%d \
             local-detached=%d\n"
            stats.classes stats.class_members stats.copies_inserted
            stats.filter_refusals stats.forest_detached stats.local_detached
        | "briggs" | "briggs-star" ->
          let variant =
            if stage = "briggs" then Baseline.Ig_coalesce.Briggs
            else Baseline.Ig_coalesce.Briggs_star
          in
          let f = Ssa.Construct.run_exn f in
          let f = Ir.Edge_split.run f in
          let f = Ssa.Destruct_naive.run_exn f in
          let f, stats = Baseline.Ig_coalesce.run ~variant f in
          Ir.Validate.check_exn f;
          print_func (f.Ir.name ^ " (" ^ stage ^ ")") f;
          Printf.printf "rounds=%d coalesced=%d remaining-copies=%d\n"
            stats.rounds stats.coalesced stats.copies_remaining
        | _ -> assert false)
      (load path);
    0
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Show the IR of a pipeline stage")
    Term.(const run $ path $ stage)

let run_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let args =
    Arg.(value & opt (list float) [] & info [ "args" ] ~doc:"Arguments (floats).")
  in
  let pipeline =
    Arg.(
      value
      & opt (enum [ ("cfg", `Cfg); ("standard", `Standard); ("new", `New) ]) `Cfg
      & info [ "pipeline" ] ~doc:"Which code to execute.")
  in
  let run path args pipeline =
    let vals =
      List.map
        (fun x ->
          if Float.is_integer x then Ir.Int (int_of_float x) else Ir.Float x)
        args
    in
    List.iter
      (fun f ->
        let f =
          match pipeline with
          | `Cfg -> f
          | `Standard ->
            Ssa.Destruct_naive.run_exn
              (Ir.Edge_split.run (Ssa.Construct.run_exn f))
          | `New -> Core.Coalesce.run_exn (Ssa.Construct.run_exn f)
        in
        let o = Interp.run ~args:vals f in
        Printf.printf "%s: returned %s; %d instructions, %d copies executed\n"
          f.Ir.name
          (match o.return_value with
          | Some v -> Format.asprintf "%a" Ir.Printer.pp_value v
          | None -> "(nothing)")
          o.stats.instrs_executed o.stats.copies_executed)
      (load path);
    0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret a program and report dynamic statistics")
    Term.(const run $ path $ args $ pipeline)

let compare_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run path =
    Printf.printf "%-16s %10s %10s %10s %10s\n" "function" "standard" "new"
      "briggs" "briggs*";
    List.iter
      (fun f ->
        let ssa = Ssa.Construct.run_exn f in
        let standard =
          Ssa.Destruct_naive.run_exn (Ir.Edge_split.run ssa)
        in
        let new_ = Core.Coalesce.run_exn ssa in
        let briggs =
          Baseline.Ig_coalesce.run_exn ~variant:Baseline.Ig_coalesce.Briggs standard
        in
        let briggs_star =
          Baseline.Ig_coalesce.run_exn ~variant:Baseline.Ig_coalesce.Briggs_star
            standard
        in
        Printf.printf "%-16s %10d %10d %10d %10d\n" f.Ir.name
          (Ir.count_copies standard) (Ir.count_copies new_)
          (Ir.count_copies briggs) (Ir.count_copies briggs_star))
      (load path);
    0
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Static copy counts for all four pipelines")
    Term.(const run $ path)

let alloc_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let k = Arg.(value & opt int 8 & info [ "k" ] ~doc:"Number of registers.") in
  let args =
    Arg.(value & opt (list float) [] & info [ "args" ] ~doc:"Arguments (floats).")
  in
  let run path k args =
    let vals =
      List.map
        (fun x ->
          if Float.is_integer x then Ir.Int (int_of_float x) else Ir.Float x)
        args
    in
    List.iter
      (fun f ->
        let coalesced = Core.Coalesce.run_exn (Ssa.Construct.run_exn f) in
        let r =
          Regalloc.run
            ~options:{ Regalloc.default_options with registers = k }
            coalesced
        in
        print_func
          (Printf.sprintf "%s (allocated to %d registers)" f.Ir.name
             r.stats.colors_used)
          r.func;
        Printf.printf "rounds=%d spilled=%d loads=%d stores=%d\n" r.stats.rounds
          r.stats.spilled_ranges r.stats.spill_loads r.stats.spill_stores;
        if vals <> [] then begin
          let before = Interp.run ~args:vals f in
          let after = Interp.run ~args:vals r.func in
          let same =
            before.return_value = after.return_value
            && List.remove_assoc r.spill_array after.arrays = before.arrays
          in
          Printf.printf "semantics preserved: %b\n" same
        end)
      (load path);
    0
  in
  Cmd.v
    (Cmd.info "alloc"
       ~doc:"Coalesce and then run the Chaitin/Briggs register allocator")
    Term.(const run $ path $ k $ args)

let opt_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let passes =
    Arg.(
      value
      & opt (some string) None
      & info [ "passes" ]
          ~doc:
            "Run an explicit pass pipeline instead of the flag-derived one: \
             a comma-separated spec such as \
             $(b,construct:pruned,copy-prop,simplify,dce,coalesce). Conflicts \
             with --simplify/--dce/--via/--registers (exit 2): the spec \
             already determines the passes. An unknown pass name exits with \
             code 2 and lists the registered passes."
          ~docv:"SPEC")
  in
  let simplify = Arg.(value & flag & info [ "simplify" ] ~doc:"Run Ssa.Simplify.") in
  let dce = Arg.(value & flag & info [ "dce" ] ~doc:"Run Ssa.Dce.") in
  let k =
    Arg.(
      value
      & opt (some int) None
      & info [ "registers" ] ~doc:"Finish with a $(docv)-register allocation."
          ~docv:"K")
  in
  let conversion =
    Arg.(
      value
      & opt
          (enum
             [
               ("new", Driver.Pipeline.Coalescing Core.Coalesce.default_options);
               ("standard", Driver.Pipeline.Standard);
               ("briggs", Driver.Pipeline.Graph Baseline.Ig_coalesce.Briggs);
               ("briggs-star", Driver.Pipeline.Graph Baseline.Ig_coalesce.Briggs_star);
             ])
          (Driver.Pipeline.Coalescing Core.Coalesce.default_options)
      & info [ "via" ] ~doc:"SSA-to-CFG conversion: new|standard|briggs|briggs-star.")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:
            "Compile the file's functions in parallel on $(docv) domains \
             (engine batch mode; results are identical to sequential \
             compilation). 0 means one domain per core."
          ~docv:"N")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Translation-validate every compilation: execute input and \
             output on Check.equiv's argument battery and audit the \
             coalescer's congruence classes for interference.")
  in
  let dominators =
    Arg.(
      value
      & opt
          (enum
             [ ("chk", Analysis.Dominance.Chk); ("dsu", Analysis.Dominance.Dsu) ])
          Analysis.Dominance.Chk
      & info [ "dominators" ]
          ~doc:
            "Dominator algorithm for every analysis in the pipeline: \
             $(b,chk) (Cooper-Harvey-Kennedy iteration) or $(b,dsu) \
             (Lengauer-Tarjan with disjoint-set-union path compression). \
             Both produce identical results; dsu avoids chk's quadratic \
             tail on degenerate CFGs."
          ~docv:"chk|dsu")
  in
  let run path passes simplify dce registers conversion jobs check dominators =
    Analysis.Dominance.set_default_algorithm dominators;
    let pipeline =
      match passes with
      | Some spec -> (
        (* Bad specs are input errors (exit 2), same contract as a file
           that does not parse. *)
        match Pass.Spec.parse spec with
        | Ok pipeline -> pipeline
        | Error msg -> raise (Input_error msg))
      | None ->
        Driver.Pipeline.passes_of_config
          { Driver.Pipeline.default with simplify; dce; registers; conversion }
    in
    let funcs = load path in
    let reports =
      if jobs = 1 then
        List.map
          (fun f -> Driver.Pipeline.compile_passes ~check pipeline f)
          funcs
      else
        let jobs = if jobs = 0 then Engine.default_jobs () else jobs in
        Driver.Pipeline.compile_batch_passes ~jobs ~check pipeline funcs
    in
    List.iter2
      (fun f (r : Driver.Pipeline.report) ->
        print_func (f.Ir.name ^ " (optimized)") r.output;
        Format.printf "%a@." Driver.Pipeline.pp_report r)
      funcs reports;
    0
  in
  Cmd.v
    (Cmd.info "opt" ~doc:"Run the whole configurable backend pipeline")
    Term.(
      const run $ path $ passes $ simplify $ dce $ k $ conversion $ jobs
      $ check $ dominators)

let dot_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let what =
    Arg.(
      value
      & opt (enum [ ("cfg", `Cfg); ("domtree", `Domtree) ]) `Cfg
      & info [ "graph" ] ~doc:"Which graph to emit: cfg or domtree.")
  in
  let ssa = Arg.(value & flag & info [ "ssa" ] ~doc:"Convert to SSA first.") in
  let run path what ssa =
    List.iter
      (fun f ->
        let f = if ssa then Ssa.Construct.run_exn f else f in
        print_string
          (match what with
          | `Cfg -> Ir.Dot.cfg f
          | `Domtree -> Ir.Dot.dominator_tree f))
      (load path);
    0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz for the CFG or the dominator tree")
    Term.(const run $ path $ what $ ssa)

(* ------------------------------------------------------------------ *)
(* fuzz: differential fuzzing of every SSA-to-CFG route               *)
(* ------------------------------------------------------------------ *)

(* The four conversion routes of Driver.Pipeline, cross-compared through
   the input program (equivalence to the input is transitive, so any
   route-vs-route discrepancy shows up as at least one route-vs-input
   mismatch). *)
let fuzz_routes : (string * Driver.Pipeline.conversion) list =
  [
    ("standard", Driver.Pipeline.Standard);
    ("new", Driver.Pipeline.Coalescing Core.Coalesce.default_options);
    ("briggs*", Driver.Pipeline.Graph Baseline.Ig_coalesce.Briggs_star);
    ("sreedhar-i", Driver.Pipeline.Sreedhar_i);
  ]

type fuzz_failure = {
  seed : int;
  route : string;  (** a conversion route, or ["audit"] *)
  detail : string;
}

(* Does this failing seed still fail on a candidate program? Any breakage —
   the same semantic mismatch, an audit violation, or a compiler crash — is
   kept, the standard fuzzing convention. *)
let fuzz_keep ~route ~vectors (ast : Frontend.Ast.func) =
  match Frontend.Lower.lower ast with
  | exception _ -> false
  | ir, _ -> (
    if route = "audit" then
      match Check.interference_audit (Ssa.Construct.run_exn ir) with
      | Ok () -> false
      | Error _ | (exception _) -> true
    else
      let conversion = List.assoc route fuzz_routes in
      let config = { Driver.Pipeline.default with conversion } in
      match Driver.Pipeline.compile ~config ir with
      | exception _ -> true
      | r -> (
        match Check.equiv ~vectors ~reference:ir r.output with
        | Ok () -> false
        | Error _ -> true))

(* Analysis differentials, run on the raw CFG of a fuzzed program: the two
   dominator solvers must agree idom-for-idom on every reachable block
   (idoms are unique), and dense bitset liveness must match the hash-table
   reference set-for-set. *)
let analysis_differentials (ir : Ir.func) : (string * string) list =
  let cfg = Ir.Cfg.of_func ir in
  let chk = Analysis.Dominance.compute ~algorithm:Chk ir cfg in
  let dsu = Analysis.Dominance.compute ~algorithm:Dsu ir cfg in
  let dom_mismatches = ref [] in
  for l = 0 to Ir.num_blocks ir - 1 do
    if Ir.Cfg.reachable cfg l then begin
      let a = Analysis.Dominance.idom chk l in
      let b = Analysis.Dominance.idom dsu l in
      if a <> b then
        dom_mismatches :=
          Printf.sprintf "b%d: chk idom=%s, dsu idom=%s" l
            (match a with Some i -> string_of_int i | None -> "-")
            (match b with Some i -> string_of_int i | None -> "-")
          :: !dom_mismatches
    end
  done;
  let dom_failures =
    match !dom_mismatches with
    | [] -> []
    | ms -> [ ("dominators", String.concat "; " (List.rev ms)) ]
  in
  let dense = Analysis.Liveness.compute ir cfg in
  let reference = Analysis.Liveness_ref.compute ir cfg in
  let live_mismatches = ref [] in
  for l = 0 to Ir.num_blocks ir - 1 do
    if Ir.Cfg.reachable cfg l then begin
      let dense_elems sel =
        List.filter
          (fun r -> Support.Bitset.mem (sel dense l) r)
          (List.init ir.Ir.nregs Fun.id)
      in
      let din = dense_elems Analysis.Liveness.live_in in
      let dout = dense_elems Analysis.Liveness.live_out in
      let rin = Analysis.Liveness_ref.live_in reference l in
      let rout = Analysis.Liveness_ref.live_out reference l in
      if din <> rin || dout <> rout then
        live_mismatches :=
          Printf.sprintf "b%d: dense in=[%s] out=[%s], ref in=[%s] out=[%s]" l
            (String.concat "," (List.map string_of_int din))
            (String.concat "," (List.map string_of_int dout))
            (String.concat "," (List.map string_of_int rin))
            (String.concat "," (List.map string_of_int rout))
          :: !live_mismatches
    end
  done;
  let live_failures =
    match !live_mismatches with
    | [] -> []
    | ms -> [ ("liveness", String.concat "; " (List.rev ms)) ]
  in
  dom_failures @ live_failures

let fuzz_seed ~size ~vectors seed : fuzz_failure list =
  let ast =
    Workloads.Generator.generate
      { Workloads.Generator.default with seed; size }
  in
  let ir, _ = Frontend.Lower.lower ast in
  let analysis_failures =
    List.map
      (fun (route, detail) -> { seed; route; detail })
      (analysis_differentials ir)
  in
  let audit_failures =
    match Check.interference_audit (Ssa.Construct.run_exn ir) with
    | Ok () -> []
    | Error i ->
      [
        {
          seed;
          route = "audit";
          detail = Format.asprintf "%a" Check.pp_interference i;
        };
      ]
  in
  analysis_failures @ audit_failures
  @ List.concat_map
      (fun (route, conversion) ->
        let config = { Driver.Pipeline.default with conversion } in
        match Driver.Pipeline.compile ~config ir with
        | exception e ->
          [ { seed; route; detail = "compiler raised " ^ Printexc.to_string e } ]
        | r -> (
          match Check.equiv ~vectors ~reference:ir r.output with
          | Ok () -> []
          | Error m ->
            [ { seed; route; detail = Format.asprintf "%a" Check.pp_mismatch m } ]))
      fuzz_routes

let fuzz_cmd =
  let seeds =
    Arg.(
      value & opt int 50
      & info [ "seeds" ] ~doc:"Number of random programs to generate."
          ~docv:"N")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:"Fan seeds out over $(docv) engine domains (0 = one per core)."
          ~docv:"J")
  in
  let size =
    Arg.(
      value & opt int 40
      & info [ "size" ] ~doc:"Rough statement count of each program.")
  in
  let vectors =
    Arg.(
      value & opt int 8
      & info [ "vectors" ] ~doc:"Argument vectors per equivalence check.")
  in
  let run seeds jobs size vectors =
    let jobs = if jobs = 0 then Engine.default_jobs () else jobs in
    let results =
      Engine.Pool.with_pool ~jobs (fun pool ->
          Engine.Pool.map_array pool
            (fuzz_seed ~size ~vectors)
            (Array.init seeds (fun i -> i + 1)))
    in
    let failures = List.concat (Array.to_list results) in
    match failures with
    | [] ->
      Printf.printf
        "fuzz: %d seeds x %d routes (+ interference audit, dominator and \
         liveness differentials): no discrepancies\n"
        seeds
        (List.length fuzz_routes);
      0
    | first :: _ ->
      List.iter
        (fun f ->
          Printf.eprintf "fuzz: seed %d, route %s:\n%s\n" f.seed f.route
            f.detail)
        failures;
      (* Shrink the first failure into a minimal standalone repro. *)
      let ast =
        Workloads.Generator.generate
          { Workloads.Generator.default with seed = first.seed; size }
      in
      let shrunk =
        Check.shrink ~keep:(fuzz_keep ~route:first.route ~vectors) ast
      in
      Printf.eprintf
        "fuzz: %d failure(s); minimal repro for seed %d route %s (%d \
         statements):\n%s"
        (List.length failures) first.seed first.route
        (Frontend.Ast.count_stmts shrunk)
        (Frontend.Ast.func_to_source shrunk);
      1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random programs through every SSA-to-CFG \
          route, outputs executed and cross-compared, congruence classes \
          audited; failures are shrunk to a minimal repro")
    Term.(const run $ seeds $ jobs $ size $ vectors)

(* ------------------------------------------------------------------ *)
(* report: the Obs counter/timing vectors for all four routes          *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let path =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Program to report on (mini-language, or .ir). Defaults to the \
             built-in workload kernel suite.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the repro-obs/1 JSON document instead of tables.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:"Compile on $(docv) engine domains (0 = one per core)."
          ~docv:"N")
  in
  let run path json jobs =
    let jobs = if jobs = 0 then Engine.default_jobs () else jobs in
    let funcs =
      match path with
      | Some p -> load p
      | None ->
        List.map
          (fun (e : Workloads.Suite.entry) -> e.func)
          (Workloads.Suite.kernels ())
    in
    let report = Harness.Obs_report.collect ~jobs funcs in
    if json then print_string (Obs.report_to_json ~spans:true report)
    else Harness.Obs_report.print report;
    0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Operation counters and phase times for every SSA-to-CFG \
          conversion route (the paper's Tables 1-5 vectors)")
    Term.(const run $ path $ json $ jobs)

(* ------------------------------------------------------------------ *)
(* serve: persistent compile service (stdin, TCP, unix socket)         *)
(* ------------------------------------------------------------------ *)

(* The request grammar, response taxonomy and every diagnostic string
   live in Serve.Protocol, shared between this front end and the
   concurrent Serve.Server. Default transport is the historical one —
   one request per stdin line, one response per stdout line, per-request
   latency on stderr so scripted sessions diff stdout deterministically.
   --tcp PORT / --socket PATH instead run the concurrent server on that
   address and keep serving until stdin reports EOF (or a lone "stop"
   line), then drain gracefully. *)

let serve_stdin ~jobs ~cache =
  Engine.Pool.with_pool ~jobs (fun pool ->
      let n = ref 0 in
      let compile = Serve.Protocol.batch_compile ~pool ~cache in
      let stats () =
        let s =
          match cache with Some c -> Cache.stats c | None -> Cache.zero_stats
        in
        Printf.sprintf
          "stats served=%d hits=%d misses=%d evictions=%d dedup=%d \
           contention=%d"
          !n s.Cache.hits s.Cache.misses s.Cache.evictions
          s.Cache.dedup_collapsed s.Cache.contention
      in
      let rec loop () =
        match In_channel.input_line stdin with
        | None -> ()
        | Some line -> (
          let t0 = Unix.gettimeofday () in
          match Serve.Protocol.respond ~compile ~stats line with
          | Serve.Protocol.No_reply -> loop ()
          | Serve.Protocol.Reply s ->
            incr n;
            print_string s;
            print_newline ();
            flush stdout;
            Printf.eprintf "# request %d: %.2f ms\n%!" !n
              ((Unix.gettimeofday () -. t0) *. 1000.);
            loop ()
          | Serve.Protocol.Bye s ->
            print_string s;
            print_newline ();
            flush stdout)
      in
      loop ();
      Option.iter
        (fun c ->
          let s = Cache.stats c in
          Printf.eprintf
            "# served %d request(s); cache hits=%d misses=%d evictions=%d \
             disk_evictions=%d dedup=%d bytes=%d\n%!"
            !n s.Cache.hits s.Cache.misses s.Cache.evictions
            s.Cache.disk_evictions s.Cache.dedup_collapsed s.Cache.bytes_stored)
        cache);
  0

let serve_socket ~config listen =
  let server = Serve.Server.start ~config listen in
  Printf.printf "listening %s\n%!" (Serve.Server.address server);
  (* Foreground until stdin closes or says stop; then drain gracefully. *)
  let rec wait () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some l when String.trim l = "stop" || String.trim l = "quit" -> ()
    | Some _ -> wait ()
  in
  wait ();
  Serve.Server.stop server;
  let c = Serve.Server.counters server in
  let s = match config.Serve.Server.cache with
    | Some cache -> Cache.stats cache
    | None -> Cache.zero_stats
  in
  Printf.eprintf
    "# accepted=%d refused=%d served=%d shed=%d; cache hits=%d misses=%d \
     dedup=%d contention=%d disk_evictions=%d\n%!"
    c.Serve.Server.accepted c.Serve.Server.refused c.Serve.Server.served
    c.Serve.Server.shed s.Cache.hits s.Cache.misses s.Cache.dedup_collapsed
    s.Cache.contention s.Cache.disk_evictions;
  0

let serve_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:
            "Keep a warm engine pool of $(docv) domains across requests \
             (0 = one per core)."
          ~docv:"N")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Disable the content-addressed result cache.")
  in
  let capacity =
    Arg.(
      value & opt int 256
      & info [ "cache-capacity" ]
          ~doc:"In-memory cache entries to keep (LRU)." ~docv:"N")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ]
          ~doc:
            "Also persist cache entries under $(docv) so results survive \
             across serve sessions."
          ~docv:"DIR")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ]
          ~doc:
            "Serve many concurrent clients over TCP on 127.0.0.1:$(docv) \
             (0 = ephemeral; the bound address is printed on stdout)."
          ~docv:"PORT")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ]
          ~doc:"Serve many concurrent clients on a unix-domain socket at \
                $(docv)."
          ~docv:"PATH")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ]
          ~doc:
            "Bound on globally pending requests; beyond it requests are \
             shed with err status=busy (socket modes)."
          ~docv:"N")
  in
  let per_conn =
    Arg.(
      value & opt int 8
      & info [ "per-conn" ]
          ~doc:"In-flight request limit per connection (socket modes)."
          ~docv:"N")
  in
  let max_conns =
    Arg.(
      value & opt int 1024
      & info [ "max-conns" ]
          ~doc:"Simultaneous-connection limit (socket modes)." ~docv:"N")
  in
  let shards =
    Arg.(
      value & opt int 8
      & info [ "cache-shards" ]
          ~doc:
            "LRU lock shards for the shared cache under concurrency \
             (socket modes; the stdin loop always uses one)."
          ~docv:"N")
  in
  let run jobs no_cache capacity cache_dir tcp socket queue per_conn max_conns
      shards =
    let jobs = if jobs = 0 then Engine.default_jobs () else jobs in
    let make_cache ~shards =
      if no_cache then None
      else Some (Cache.create ~capacity ?dir:cache_dir ~shards ())
    in
    match (tcp, socket) with
    | Some _, Some _ ->
      raise (Input_error "serve: --tcp and --socket are mutually exclusive")
    | None, None -> serve_stdin ~jobs ~cache:(make_cache ~shards:1)
    | _ ->
      let config =
        {
          Serve.Server.jobs;
          queue_capacity = queue;
          per_conn;
          max_conns;
          cache = make_cache ~shards;
        }
      in
      let listen =
        match (tcp, socket) with
        | Some port, None -> Serve.Server.Tcp ("", port)
        | None, Some path -> Serve.Server.Unix_path path
        | _ -> assert false
      in
      serve_socket ~config listen
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Persistent compile service: one request per line, one response \
          per line, reusing a warm engine pool and the result cache across \
          requests — over stdin/stdout by default, or concurrently over \
          TCP/unix sockets with --tcp/--socket")
    Term.(
      const run $ jobs $ no_cache $ capacity $ cache_dir $ tcp $ socket
      $ queue $ per_conn $ max_conns $ shards)

(* ------------------------------------------------------------------ *)
(* loadgen: drive a running socket server                              *)
(* ------------------------------------------------------------------ *)

let loadgen_cmd =
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~doc:"TCP port of the server to drive." ~docv:"PORT")
  in
  let host =
    Arg.(
      value & opt string ""
      & info [ "host" ] ~doc:"Numeric server address (default loopback)."
          ~docv:"ADDR")
  in
  let clients =
    Arg.(
      value & opt int 50
      & info [ "clients" ] ~doc:"Concurrent client connections." ~docv:"N")
  in
  let requests =
    Arg.(
      value & opt int 20
      & info [ "requests" ] ~doc:"Requests per client, sent back-to-back."
          ~docv:"N")
  in
  let distinct =
    Arg.(
      value & opt int 16
      & info [ "distinct" ]
          ~doc:
            "Distinct programs in the corpus; smaller = more identical \
             requests in flight at once (dedup pressure)."
          ~docv:"N")
  in
  let run port host clients requests distinct =
    let r =
      Serve.Loadgen.run ~host ~port ~clients ~requests_per_client:requests
        ~distinct ()
    in
    Format.printf "%a@." Serve.Loadgen.pp r;
    if r.Serve.Loadgen.errors > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Closed-loop load generator for a serve socket server: concurrent \
          clients, tagged pipelined requests, latency percentiles and the \
          server's own final counters")
    Term.(const run $ port $ host $ clients $ requests $ distinct)

(* ------------------------------------------------------------------ *)
(* corpus: generate and stream-compile large on-disk corpora           *)
(* ------------------------------------------------------------------ *)

(* The corpus subcommands exist to exercise the scale story: corpora of
   10⁵–10⁶ functions streaming through the Domain pool with bounded
   memory. Everything is deterministic in (seed, total, mix); the
   manifest sitting next to a corpus file is enough to regenerate it. *)

let parse_mix s =
  match
    Scanf.sscanf s "%d,%d,%d,%d" (fun kernels generated adversarial near_dups ->
        { Workloads.Corpus.kernels; generated; adversarial; near_dups })
  with
  | m when Workloads.Corpus.(m.kernels + m.generated + m.adversarial
                             + m.near_dups) > 0 -> m
  | _ -> raise (Input_error ("corpus: mix weights must sum > 0: " ^ s))
  | exception _ ->
    raise
      (Input_error
         ("corpus: bad --mix (want KERNELS,GENERATED,ADVERSARIAL,NEAR_DUPS \
           e.g. 2,5,1,2): " ^ s))

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~doc:"Corpus derivation seed." ~docv:"N")

let total_arg default =
  Arg.(
    value & opt int default
    & info [ "total" ] ~doc:"Number of functions in the corpus." ~docv:"N")

let mix_arg =
  Arg.(
    value & opt string "2,5,1,2"
    & info [ "mix" ]
        ~doc:
          "Family weights $(docv): kernels (repeated verbatim — the \
           warm-cache component), seeded generated programs, adversarial \
           CFG shapes, and cache-hostile near-duplicates."
        ~docv:"K,G,A,D")

let corpus_gen_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~doc:"Corpus file to write." ~docv:"PATH")
  in
  let run out total seed mix =
    let spec =
      { Workloads.Corpus.seed; total; mix = parse_mix mix }
    in
    let count, dt = Harness.Measure.wall (fun () ->
        Workloads.Corpus.write out spec)
    in
    Printf.printf "wrote %s: %d function(s) in %.2f s (%.0f funcs/s)\n" out
      count dt (float_of_int count /. Float.max dt 1e-9);
    Printf.printf "manifest %s\n" (Workloads.Corpus.manifest_path out);
    List.iter
      (fun (name, n) -> Printf.printf "  %s %d\n" name n)
      (Workloads.Corpus.family_counts spec);
    0
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a deterministic corpus to a line-delimited file plus a \
          reproducibility manifest")
    Term.(const run $ out $ total_arg 2000 $ seed_arg $ mix_arg)

let corpus_info_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Also stream-parse every function in the file and check the \
             count against the manifest.")
  in
  let run path deep =
    match Workloads.Corpus.read_manifest path with
    | None ->
      raise
        (Input_error
           (Workloads.Corpus.manifest_path path
           ^ ": missing or malformed manifest"))
    | Some m ->
      let spec = m.Workloads.Corpus.spec in
      Printf.printf "corpus %s\n" path;
      Printf.printf "  seed %d\n  total %d\n  count %d\n"
        spec.Workloads.Corpus.seed spec.Workloads.Corpus.total
        m.Workloads.Corpus.count;
      Printf.printf "  mix kernels=%d generated=%d adversarial=%d \
                     near_dups=%d\n"
        spec.Workloads.Corpus.mix.Workloads.Corpus.kernels
        spec.Workloads.Corpus.mix.Workloads.Corpus.generated
        spec.Workloads.Corpus.mix.Workloads.Corpus.adversarial
        spec.Workloads.Corpus.mix.Workloads.Corpus.near_dups;
      List.iter
        (fun (name, n) -> Printf.printf "  family %s %d\n" name n)
        (Workloads.Corpus.family_counts spec);
      if deep then begin
        let next = Workloads.Corpus.read_funcs path in
        let n = ref 0 in
        let rec loop () =
          match next () with
          | Some _ ->
            incr n;
            loop ()
          | None -> ()
        in
        loop ();
        Printf.printf "  parsed %d function(s)\n" !n;
        if !n <> m.Workloads.Corpus.count then
          raise
            (Input_error
               (Printf.sprintf
                  "%s: file holds %d function(s) but manifest says %d" path
                  !n m.Workloads.Corpus.count))
      end;
      0
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Show (and optionally verify) a corpus file's manifest")
    Term.(const run $ path $ deep)

let corpus_compile_cmd =
  let input =
    Arg.(
      value
      & opt (some file) None
      & info [ "in"; "i" ]
          ~doc:
            "Stream functions from corpus file $(docv) instead of \
             generating them on the fly."
          ~docv:"PATH")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:"Engine pool size (0 = one domain per core)." ~docv:"N")
  in
  let window =
    Arg.(
      value & opt int Engine.Stream.default_window
      & info [ "window" ]
          ~doc:"Reorder-window bound of the streaming core." ~docv:"N")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Translation-validate every compilation.")
  in
  let materialized =
    Arg.(
      value & flag
      & info [ "materialized" ]
          ~doc:
            "Collect every input and report into lists (the pre-streaming \
             batch mode) instead of streaming — the memory-comparison \
             baseline; peak heap grows linearly with the corpus.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ]
          ~doc:"Compile through a content-addressed cache persisted under \
                $(docv)."
          ~docv:"DIR")
  in
  let cache_capacity =
    Arg.(
      value & opt int 256
      & info [ "cache-capacity" ]
          ~doc:"In-memory cache entries to keep (LRU)." ~docv:"N")
  in
  let disk_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-disk-capacity" ]
          ~doc:
            "Cap the disk tier at $(docv) entries (oldest-mtime eviction)."
          ~docv:"N")
  in
  let run input total seed mix jobs window check materialized cache_dir
      cache_capacity disk_capacity =
    let jobs = if jobs = 0 then Engine.default_jobs () else jobs in
    let cache =
      match cache_dir with
      | None -> None
      | Some dir ->
        Some
          (Cache.create ~capacity:cache_capacity ~dir ~shards:8
             ?disk_capacity ())
    in
    let producer () =
      match input with
      | Some path -> Workloads.Corpus.read_funcs path
      | None ->
        Workloads.Corpus.producer
          { Workloads.Corpus.seed; total; mix = parse_mix mix }
    in
    let pipeline =
      Driver.Pipeline.passes_of_config Driver.Pipeline.default
    in
    let watch = Harness.Measure.heap_watch () in
    let compiled = ref 0 in
    let (), dt =
      Harness.Measure.wall (fun () ->
          Engine.Pool.with_pool ~jobs (fun pool ->
              if materialized then begin
                (* The baseline the streaming core replaces: read the whole
                   corpus into a list, compile it to a list of reports. *)
                let funcs =
                  let next = producer () in
                  let rec all acc =
                    match next () with
                    | Some f -> all (f :: acc)
                    | None -> List.rev acc
                  in
                  all []
                in
                let reports =
                  Driver.Pipeline.compile_batch_passes_in pool ~check ?cache
                    pipeline funcs
                in
                compiled := List.length reports;
                Harness.Measure.heap_sample watch
              end
              else
                Driver.Pipeline.stream_passes_in pool ~check ~window ?cache
                  ~producer:(producer ())
                  ~consumer:(fun _ _ ->
                    incr compiled;
                    Harness.Measure.heap_sample watch)
                  pipeline))
    in
    let peak = Harness.Measure.heap_peak_words watch in
    Printf.printf
      "compiled %d function(s) in %.2f s: %.0f funcs/s (%.0f per core, \
       jobs=%d, %s)\n"
      !compiled dt
      (float_of_int !compiled /. Float.max dt 1e-9)
      (float_of_int !compiled /. Float.max dt 1e-9 /. float_of_int jobs)
      jobs
      (if materialized then "materialized" else
         Printf.sprintf "streaming window=%d" window);
    Printf.printf "peak heap %d words (baseline %d)\n" peak
      (peak - Harness.Measure.heap_growth_words watch);
    Option.iter
      (fun c ->
        let s = Cache.stats c in
        Printf.printf
          "cache hits=%d misses=%d evictions=%d disk_evictions=%d dedup=%d\n"
          s.Cache.hits s.Cache.misses s.Cache.evictions s.Cache.disk_evictions
          s.Cache.dedup_collapsed)
      cache;
    0
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Stream-compile a corpus (from a file or generated on the fly) \
          through the engine pool with bounded memory, reporting \
          throughput, peak heap words, and cache stats")
    Term.(
      const run $ input $ total_arg 10_000 $ seed_arg $ mix_arg $ jobs
      $ window $ check $ materialized $ cache_dir $ cache_capacity
      $ disk_capacity)

let corpus_cmd =
  Cmd.group
    (Cmd.info "corpus"
       ~doc:
         "Million-function corpora: deterministic generation to disk and \
          streaming batch compilation with bounded memory")
    [ corpus_gen_cmd; corpus_compile_cmd; corpus_info_cmd ]

let subcommands =
  [
    dump_cmd; run_cmd; compare_cmd; alloc_cmd; opt_cmd; dot_cmd; fuzz_cmd;
    report_cmd; serve_cmd; loadgen_cmd; corpus_cmd;
  ]

(* An unknown subcommand is an input error like any other: exit 2 with a
   "did you mean" hint, not cmdliner's generic usage error (124). *)
let check_subcommand () =
  match Array.to_list Sys.argv with
  | _ :: name :: _
    when String.length name > 0
         && name.[0] <> '-'
         && not (List.exists (fun c -> Cmd.name c = name) subcommands) ->
    let names = List.map Cmd.name subcommands in
    let hint =
      match Pass.Registry.suggest name ~candidates:names with
      | Some c -> Printf.sprintf " — did you mean '%s'?" c
      | None -> ""
    in
    raise
      (Input_error
         (Printf.sprintf "unknown command '%s'%s (commands: %s)" name hint
            (String.concat ", " names)))
  | _ -> ()

(* cmdliner resolves a repeated option by last-wins, which for a compiler
   driver silently discards half of what the user asked for. Repeated
   options, and option combinations where one side would be ignored, are
   input errors (exit 2). The scan normalizes --opt=value to --opt, folds
   the -j alias onto --jobs, skips negative-number values, and stops at a
   bare "--". *)
let check_flag_conflicts () =
  let canonical tok =
    let base =
      match String.index_opt tok '=' with
      | Some i -> String.sub tok 0 i
      | None -> tok
    in
    if base = "-j" then "--jobs" else base
  in
  let is_option tok =
    String.length tok > 1
    && tok.[0] = '-'
    && tok <> "--"
    && not (tok.[1] >= '0' && tok.[1] <= '9')
  in
  let rec scan seen = function
    | [] -> seen
    | "--" :: _ -> seen
    | tok :: rest when is_option tok ->
      let name = canonical tok in
      if List.mem name seen then
        raise
          (Input_error
             (Printf.sprintf "option '%s' given more than once" name));
      scan (name :: seen) rest
    | _ :: rest -> scan seen rest
  in
  let seen = scan [] (List.tl (Array.to_list Sys.argv)) in
  if List.mem "--passes" seen then
    List.iter
      (fun flag ->
        if List.mem flag seen then
          raise
            (Input_error
               (Printf.sprintf
                  "option '--passes' conflicts with '%s': the pipeline spec \
                   already determines the passes" flag)))
      [ "--via"; "--simplify"; "--dce"; "--registers" ]

let () =
  let doc = "fast copy coalescing and live-range identification (PLDI 2002)" in
  let code =
    try
      check_subcommand ();
      check_flag_conflicts ();
      Cmd.eval' ~catch:false
        (Cmd.group (Cmd.info "repro-cli" ~doc) subcommands)
    with
    | Input_error msg ->
      Printf.eprintf "repro-cli: %s\n" msg;
      exit_parse_error
    | Interp.Error e ->
      Printf.eprintf "repro-cli: runtime fault: %s\n"
        (Format.asprintf "%a" Interp.pp_error e);
      exit_runtime_fault
    | Check.Failed msg ->
      Printf.eprintf "repro-cli: %s\n" msg;
      exit_runtime_fault
  in
  exit code
