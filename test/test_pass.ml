(* Tests for the pass manager: registry, spec parsing, pipeline shape
   checking, middleware equivalence with the config shim, and the qcheck
   differential over pass orderings. *)

open Helpers

let parse_exn spec =
  match Pass.Spec.parse spec with
  | Ok p -> p
  | Error msg -> Alcotest.fail ("spec should parse: " ^ spec ^ ": " ^ msg)

let parse_err spec =
  match Pass.Spec.parse spec with
  | Ok _ -> Alcotest.fail ("spec should not parse: " ^ spec)
  | Error msg -> msg

let test_registry () =
  let names = Pass.Registry.names () in
  List.iter
    (fun n -> checkb ("registered: " ^ n) true (List.mem n names))
    [
      "construct"; "copy-prop"; "simplify"; "dce"; "coalesce"; "standard";
      "briggs"; "briggs-star"; "sreedhar-i"; "regalloc";
    ];
  checkb "find hit" true (Pass.Registry.find "coalesce" <> None);
  checkb "find miss" true (Pass.Registry.find "noalesce" = None)

let test_suggest () =
  let s = Pass.Registry.suggest "copyprop" ~candidates:(Pass.Registry.names ()) in
  checkb "close typo suggested" true (s = Some "copy-prop");
  let s = Pass.Registry.suggest "zzzzzzzzzz" ~candidates:(Pass.Registry.names ()) in
  checkb "garbage gets no suggestion" true (s = None)

let test_spec_parse () =
  let p = parse_exn "construct:pruned,copy-prop,simplify,dce,coalesce" in
  check
    Alcotest.(list string)
    "names"
    [ "construct"; "copy-prop"; "simplify"; "dce"; "coalesce" ]
    (List.map (fun (q : Pass.t) -> q.name) p);
  checkb "whitespace tolerated" true
    (Result.is_ok (Pass.Spec.parse " construct , dce , standard "));
  checkb "regalloc arg" true
    (Result.is_ok (Pass.Spec.parse "construct,coalesce,regalloc:8"));
  checkb "construct nofold arg" true
    (Result.is_ok (Pass.Spec.parse "construct:minimal+nofold,standard"));
  checkb "coalesce options arg" true
    (Result.is_ok (Pass.Spec.parse "construct,coalesce:no-filters+no-victim"))

let test_spec_errors () =
  let msg = parse_err "construct,copyprop,coalesce" in
  checkb "did-you-mean hint" true (contains msg "did you mean 'copy-prop'");
  checkb "lists registered passes" true (contains msg "registered passes");
  checkb "missing construct" true
    (contains (parse_err "copy-prop,coalesce") "must begin");
  checkb "no conversion" true
    (contains (parse_err "construct,simplify") "never leaves SSA");
  checkb "two conversions" true
    (contains (parse_err "construct,coalesce,standard") "cannot follow");
  checkb "transform after conversion" true
    (contains (parse_err "construct,coalesce,dce") "cannot follow");
  checkb "finish before conversion" true
    (contains (parse_err "construct,regalloc:8,coalesce") "phi-free");
  checkb "construct not first only" true
    (contains (parse_err "construct,construct,coalesce") "only appear first");
  checkb "regalloc needs K" true
    (contains (parse_err "construct,coalesce,regalloc") "register count");
  checkb "bad construct arg" true
    (contains (parse_err "construct:prunes,coalesce") "bad argument");
  checkb "arg on argless pass" true
    (contains (parse_err "construct,dce:hard,coalesce") "takes no argument");
  checkb "empty spec" true (contains (parse_err "  ,  ") "empty")

(* The config shim and the explicit pipeline are the same door: identical
   stage names, notes and printed output funcs. *)
let test_config_shim_equivalence () =
  let f = Workloads.Suite.(find_exn "twldrv").func in
  let config =
    {
      Driver.Pipeline.default with
      simplify = true;
      dce = true;
      registers = Some 8;
    }
  in
  let via_config = Driver.Pipeline.compile ~config ~check:true f in
  let via_spec =
    Harness.Pipelines.compile_spec ~check:true
      "construct:pruned,simplify,dce,coalesce,regalloc:8" f
  in
  check
    Alcotest.(list string)
    "stage names"
    (List.map (fun (s : Pass.stage) -> s.name) via_config.stages)
    (List.map (fun (s : Pass.stage) -> s.name) via_spec.stages);
  check
    Alcotest.(list string)
    "stage notes"
    (List.map (fun (s : Pass.stage) -> s.note) via_config.stages)
    (List.map (fun (s : Pass.stage) -> s.note) via_spec.stages);
  checkb "same output code" true
    (Ir.Printer.func_to_string via_config.output
    = Ir.Printer.func_to_string via_spec.output)

(* Harness.Pipelines' four named conversions and their specs agree. *)
let test_pipelines_one_door () =
  let f = Workloads.Suite.(find_exn "saxpy").func in
  List.iter
    (fun p ->
      let direct = Harness.Pipelines.convert p f in
      let speced = Harness.Pipelines.compile_spec (Harness.Pipelines.spec_of p) f in
      checkb (Harness.Pipelines.name p ^ ": same code") true
        (Ir.Printer.func_to_string direct.func
        = Ir.Printer.func_to_string speced.output))
    Harness.Pipelines.all

let test_batch_passes () =
  let funcs =
    List.map (fun (e : Workloads.Suite.entry) -> e.func) (Workloads.Suite.kernels ())
  in
  let pipeline = parse_exn "construct:pruned,copy-prop,coalesce" in
  let seq = List.map (Driver.Pipeline.compile_passes pipeline) funcs in
  let par = Driver.Pipeline.compile_batch_passes ~jobs:4 pipeline funcs in
  List.iter2
    (fun (a : Pass.report) (b : Pass.report) ->
      checkb "batch = sequential" true
        (Ir.Printer.func_to_string a.output = Ir.Printer.func_to_string b.output))
    seq par

(* With a recorder, the stage checks are charged to a "validate" span
   (first, since the input is checked before any pass runs) and touch no
   counter: the counter vector equals the one the same passes charge when
   called directly, outside the pass manager. Timings are not asserted. *)
let test_validate_span () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let obs = Obs.create () in
      ignore (Pass.run ~obs (parse_exn "construct:pruned,coalesce") e.func);
      check
        Alcotest.(list string)
        (e.name ^ ": span names")
        [ "validate"; "construct"; "convert" ]
        (List.map fst (Obs.spans obs));
      let direct = Obs.create () in
      let ssa, _ = Ssa.Construct.run ~obs:direct e.func in
      ignore (Core.Coalesce.run ~obs:direct ssa);
      check
        Alcotest.(list (pair string int))
        (e.name ^ ": counters unchanged")
        (Obs.counters direct) (Obs.counters obs))
    (Workloads.Suite.kernels ())

let test_run_rejects_bad_shape () =
  let f = Workloads.Suite.(find_exn "saxpy").func in
  checkb "runner rejects shape-invalid pipelines" true
    (try
       ignore (Pass.run [ Pass.simplify ] f);
       false
     with Invalid_argument _ -> true)

let test_ssa_pass_extension () =
  (* Downstream code registers a pass once and drives it by name. *)
  let p =
    Pass.ssa_pass ~name:"nop" ~doc:"identity (test)" (fun f -> (f, "did nothing"))
  in
  checkb "extension registered" true (List.mem "nop" (Pass.Registry.names ()));
  checki "shape is transform" 0
    (match p.Pass.shape with Pass.Transform -> 0 | _ -> 1);
  let f = Workloads.Suite.(find_exn "saxpy").func in
  let r = Harness.Pipelines.compile_spec "construct,nop,coalesce" f in
  checkb "custom stage recorded" true
    (List.exists (fun (s : Pass.stage) -> s.name = "nop" && s.note = "did nothing")
       r.stages);
  checkb "duplicate registration rejected" true
    (try
       ignore (Pass.ssa_pass ~name:"nop" (fun f -> (f, "")));
       false
     with Invalid_argument _ -> true)

(* All orderings of the optimizing transforms, without repetition. *)
let orderings =
  let xs = [ "copy-prop"; "simplify"; "dce" ] in
  let rec insert x = function
    | [] -> [ [ x ] ]
    | y :: ys as l -> (x :: l) :: List.map (fun z -> y :: z) (insert x ys)
  in
  let rec seqs = function
    | [] -> [ [] ]
    | x :: rest ->
      let without = seqs rest in
      without @ List.concat_map (insert x) without
  in
  seqs xs

let conversions = [ "coalesce"; "standard"; "briggs"; "briggs-star"; "sreedhar-i" ]

(* The differential: any legal ordering that ends in a conversion route is
   translation-validated against the input — compile_passes ~check:true
   runs Check.equiv (and the coalescer's interference audit) itself, so
   the property is simply "no route raises". *)
let prop_ordering_differential =
  QCheck.Test.make ~count:30
    ~name:"every legal pass ordering is Check.equiv to the input"
    QCheck.(triple (int_bound 10_000) (int_range 10 35) (int_bound 1_000))
    (fun (seed, size, pick) ->
      let f = random_program seed size in
      let ordering = List.nth orderings (pick mod List.length orderings) in
      let conversion = List.nth conversions (pick mod List.length conversions) in
      let construct =
        match pick mod 3 with
        | 0 -> "construct:pruned"
        | 1 -> "construct:pruned+nofold"
        | _ -> "construct:minimal"
      in
      let spec = String.concat "," ((construct :: ordering) @ [ conversion ]) in
      ignore (Harness.Pipelines.compile_spec ~check:true spec f);
      true)

let inserted_copies spec f =
  let obs = Obs.create () in
  let pipeline = Result.get_ok (Pass.Spec.parse spec) in
  ignore (Pass.run ~obs pipeline f);
  Obs.get obs Obs.Copies_inserted

(* Adding copy-prop to the optimizing pipeline never costs the coalescer
   copies: its rewrites are the propagation fragment of simplify, so the
   baseline converges to the same fixpoint and the counter can only stay
   or drop. Note the stronger bare form "copy-prop,coalesce ≤ coalesce"
   is FALSE — collapsing a trivial φ extends its argument's live range,
   which can flip a liveness filter elsewhere (generator seed 89, size
   12: 34 > 32), the same classic non-monotonicity copy folding itself
   has — which is why the property quantifies over the pipeline the pass
   is meant to run in. *)
let prop_copy_prop_monotone =
  QCheck.Test.make ~count:30
    ~name:
      "copy-prop never increases copies-inserted on the coalescing route \
       (within the optimizing pipeline)"
    QCheck.(pair (int_bound 10_000) (int_range 10 40))
    (fun (seed, size) ->
      let f = random_program seed size in
      List.for_all
        (fun construct ->
          inserted_copies (construct ^ ",copy-prop,simplify,dce,coalesce") f
          <= inserted_copies (construct ^ ",simplify,dce,coalesce") f)
        [ "construct:pruned"; "construct:pruned+nofold"; "construct:minimal" ])

(* On the deterministic workload suite even the bare form holds — pinned
   so a copy-prop change that starts costing the benchmarked pipelines
   copies is caught here rather than in the bench tables. *)
let test_copy_prop_suite_totals () =
  let total spec =
    List.fold_left
      (fun acc (e : Workloads.Suite.entry) -> acc + inserted_copies spec e.func)
      0 (Workloads.Suite.kernels ())
  in
  let base = total "construct:pruned,coalesce" in
  let with_cp = total "construct:pruned,copy-prop,coalesce" in
  checkb
    (Printf.sprintf "suite totals: %d (copy-prop) <= %d (bare)" with_cp base)
    true (with_cp <= base)

(* --check ignores the spill slab the allocator really wrote, not the base
   name: on a function whose own data lives in "$spill", the slab is
   "$spill.2", so a correct allocation passes and a wrong store into the
   user's "$spill" is still caught. *)
let test_check_reserved_spill_array () =
  let f = hostile_spill_func () in
  let pipeline = parse_exn "construct:pruned,coalesce,regalloc:3" in
  let r = Pass.run ~check:true pipeline f in
  let spills = ref 0 in
  Ir.iter_instrs r.output (fun _ -> function
    | Ir.Load { arr = "$spill.2"; _ } | Ir.Store { arr = "$spill.2"; _ } ->
      incr spills
    | _ -> ());
  checkb "allocation spilled into $spill.2" true (!spills > 0);
  (* The same pipeline, with the allocator's output storing to the wrong
     slot of the user's array. *)
  let wrong_slot = function
    | Ir.Store ({ arr = "$spill"; idx = Ir.Const (Ir.Int 1); _ } as s) ->
      Ir.Store { s with idx = Ir.Const (Ir.Int 2) }
    | i -> i
  in
  let broken (p : Pass.t) =
    if p.name <> "regalloc" then p
    else
      {
        p with
        run =
          (fun ctx g ->
            let out, note = p.run ctx g in
            let blocks =
              Array.map
                (fun (b : Ir.block) ->
                  { b with body = List.map wrong_slot b.body })
                out.Ir.blocks
            in
            ({ out with blocks }, note));
      }
  in
  match Pass.run ~check:true (List.map broken pipeline) f with
  | _ -> Alcotest.fail "a wrong store to the user's $spill went unnoticed"
  | exception Check.Failed _ -> ()

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "did-you-mean suggestions" `Quick test_suggest;
    Alcotest.test_case "spec parsing" `Quick test_spec_parse;
    Alcotest.test_case "spec errors" `Quick test_spec_errors;
    Alcotest.test_case "config shim = explicit pipeline" `Quick
      test_config_shim_equivalence;
    Alcotest.test_case "harness pipelines one door" `Quick
      test_pipelines_one_door;
    Alcotest.test_case "batch over explicit passes" `Quick test_batch_passes;
    Alcotest.test_case "stage checks charged to a validate span" `Quick
      test_validate_span;
    Alcotest.test_case "runner rejects bad shapes" `Quick
      test_run_rejects_bad_shape;
    Alcotest.test_case "ssa_pass extension point" `Quick
      test_ssa_pass_extension;
    Alcotest.test_case "copy-prop suite totals" `Quick
      test_copy_prop_suite_totals;
    Alcotest.test_case "--check ignores the reserved spill array only" `Quick
      test_check_reserved_spill_array;
    QCheck_alcotest.to_alcotest prop_ordering_differential;
    QCheck_alcotest.to_alcotest prop_copy_prop_monotone;
  ]
