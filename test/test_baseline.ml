(* Tests for the interference graph and the Briggs/Briggs* coalescers. *)

open Helpers

let kernels = lazy (Workloads.Suite.kernels ())

let graph_of f =
  let cfg = Ir.Cfg.of_func f in
  let live = Analysis.Liveness.compute f cfg in
  Baseline.Igraph.build_full f cfg live

let test_igraph_straight () =
  (* x := 1; y := 2; r := x + y. x-y interfere; copies don't. *)
  let b = Ir.Builder.create "ig" in
  let x = Ir.Builder.fresh_reg b in
  let y = Ir.Builder.fresh_reg b in
  let r = Ir.Builder.fresh_reg b in
  let l = Ir.Builder.add_block b in
  Ir.Builder.push b l (Copy { dst = x; src = Const (Int 1) });
  Ir.Builder.push b l (Copy { dst = y; src = Const (Int 2) });
  Ir.Builder.push b l (Binop { op = Add; dst = r; l = Reg x; r = Reg y });
  Ir.Builder.terminate b l (Return (Some (Reg r)));
  let f = Ir.Builder.finish b in
  let g = graph_of f in
  checkb "x-y edge" true (Baseline.Igraph.interferes g x y);
  checkb "x-r no edge" false (Baseline.Igraph.interferes g x r);
  let adj = Baseline.Igraph.adjacency g in
  check Alcotest.(list int) "neighbors x" [ y ] (Array.to_list adj.(x))

let test_igraph_copy_rule () =
  (* y := x with x dead afterwards: Chaitin's rule removes the src from the
     live set, so no x-y edge and the copy is coalescible. *)
  let b = Ir.Builder.create "copyrule" in
  let x = Ir.Builder.fresh_reg b in
  let y = Ir.Builder.fresh_reg b in
  let l = Ir.Builder.add_block b in
  Ir.Builder.push b l (Copy { dst = x; src = Const (Int 1) });
  Ir.Builder.push b l (Copy { dst = y; src = Reg x });
  Ir.Builder.terminate b l (Return (Some (Reg y)));
  let f = Ir.Builder.finish b in
  let g = graph_of f in
  checkb "no edge across the copy" false (Baseline.Igraph.interferes g x y)

let test_igraph_params_interfere () =
  (* Two parameters both used later are parallel entry definitions. *)
  let b = Ir.Builder.create "params" in
  let p = Ir.Builder.add_param b in
  let q = Ir.Builder.add_param b in
  let r = Ir.Builder.fresh_reg b in
  let l = Ir.Builder.add_block b in
  Ir.Builder.push b l (Binop { op = Add; dst = r; l = Reg p; r = Reg q });
  Ir.Builder.terminate b l (Return (Some (Reg r)));
  let f = Ir.Builder.finish b in
  let g = graph_of f in
  checkb "p-q edge" true (Baseline.Igraph.interferes g p q)

let test_igraph_restricted () =
  let f = Workloads.Suite.(find_exn "parmovx").func in
  let inst =
    Ssa.Destruct_naive.run_exn (Ir.Edge_split.run (Ssa.Construct.run_exn f))
  in
  let cfg = Ir.Cfg.of_func inst in
  let live = Analysis.Liveness.compute inst cfg in
  let full = Baseline.Igraph.build_full inst cfg live in
  let members = ref [] in
  Ir.iter_instrs inst (fun _ i ->
      match i with
      | Ir.Copy { dst; src = Ir.Reg s } -> members := dst :: s :: !members
      | _ -> ());
  let members = List.sort_uniq compare !members in
  let restricted = Baseline.Igraph.build_restricted inst cfg live ~members in
  checkb "restricted is smaller" true
    (Baseline.Igraph.num_nodes restricted < Baseline.Igraph.num_nodes full);
  checkb "matrix smaller" true
    (Baseline.Igraph.matrix_bytes restricted <= Baseline.Igraph.matrix_bytes full);
  (* Agreement on member pairs. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          checkb "same answer" true
            (Baseline.Igraph.interferes full a b
            = Baseline.Igraph.interferes restricted a b))
        members)
    members

let test_igraph_rejects_phis () =
  let ssa = Ssa.Construct.run_exn (diamond ()) in
  checkb "phi input rejected" true
    (try
       ignore (graph_of ssa);
       false
     with Invalid_argument _ -> true)

let test_merge () =
  (* merge ORs one node's row into another, Chaitin-style. *)
  let b = Ir.Builder.create "m" in
  let x = Ir.Builder.fresh_reg b in
  let y = Ir.Builder.fresh_reg b in
  let z = Ir.Builder.fresh_reg b in
  let r = Ir.Builder.fresh_reg b in
  let l = Ir.Builder.add_block b in
  Ir.Builder.push b l (Copy { dst = x; src = Const (Int 1) });
  Ir.Builder.push b l (Copy { dst = y; src = Const (Int 2) });
  Ir.Builder.push b l (Copy { dst = z; src = Const (Int 3) });
  Ir.Builder.push b l (Binop { op = Add; dst = r; l = Reg x; r = Reg y });
  Ir.Builder.push b l (Binop { op = Add; dst = r; l = Reg r; r = Reg z });
  Ir.Builder.terminate b l (Return (Some (Reg r)));
  let f = Ir.Builder.finish b in
  let g = graph_of f in
  checkb "x-y edge" true (Baseline.Igraph.interferes g x y);
  checkb "x-z edge" true (Baseline.Igraph.interferes g x z);
  checkb "y-z edge" true (Baseline.Igraph.interferes g y z);
  (* Merging y into x must not lose z's interference. *)
  Baseline.Igraph.merge g ~into:x y;
  checkb "x keeps z edge" true (Baseline.Igraph.interferes g x z)

(* [Igraph.adjacency] against the matrix it is derived from: every row is
   strictly ascending (so duplicate-free), each row is exactly the set of
   nodes [interferes] reports for that node (which makes the rows
   symmetric), and the rows hold 2 × num_edges entries. *)
let check_adjacency name g =
  let module Igraph = Baseline.Igraph in
  let adj = Igraph.adjacency g in
  let n = Igraph.num_nodes g in
  checki (name ^ ": nodes") n (Array.length adj);
  let total = ref 0 in
  for u = 0 to n - 1 do
    let row = Array.to_list adj.(u) in
    let rec ascending = function
      | a :: (b :: _ as rest) -> a < b && ascending rest
      | _ -> true
    in
    if not (ascending row) then
      Alcotest.failf "%s: row %d not strictly ascending" name u;
    let expected = List.filter (Igraph.interferes g u) (List.init n Fun.id) in
    if row <> expected then
      Alcotest.failf "%s: row %d differs from the matrix" name u;
    List.iter
      (fun v ->
        if not (Array.mem u adj.(v)) then
          Alcotest.failf "%s: edge %d-%d not symmetric" name u v)
      row;
    total := !total + Array.length adj.(u)
  done;
  checki (name ^ ": degrees sum to 2 × edges") (2 * Igraph.num_edges g) !total

(* The allocator's input shape: SSA through the paper's coalescer. *)
let coalesced_graph f = graph_of (Core.Coalesce.run_exn (Ssa.Construct.run_exn f))

let test_adjacency_matches_matrix () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      check_adjacency e.name (coalesced_graph e.func);
      check_adjacency (e.name ^ " (non-SSA input)") (graph_of e.func))
    (Lazy.force kernels @ Workloads.Suite.adversarial ());
  List.iter
    (fun shape ->
      List.iter
        (fun size ->
          let f = Workloads.Generator.adversarial shape ~size in
          check_adjacency
            (Printf.sprintf "%s/%d" (Workloads.Generator.shape_name shape) size)
            (coalesced_graph f))
        [ 3; 17 ])
    Workloads.Generator.shapes;
  let spec =
    { Workloads.Corpus.seed = 13; total = 24; mix = Workloads.Corpus.default_mix }
  in
  for i = 0 to spec.total - 1 do
    check_adjacency
      (Printf.sprintf "corpus item %d" i)
      (coalesced_graph (Workloads.Corpus.item spec i))
  done;
  List.iter
    (fun seed -> check_adjacency (Printf.sprintf "random %d" seed)
        (coalesced_graph (random_program seed 40)))
    [ 1; 2; 3; 4; 5 ]

(* After merges the rows follow the updated matrix and edge count. *)
let test_adjacency_after_merge () =
  let e = Workloads.Suite.find_exn "tomcatv" in
  let g = coalesced_graph e.func in
  let n = Baseline.Igraph.num_nodes g in
  check_adjacency "before merge" g;
  Baseline.Igraph.merge g ~into:0 (n - 1);
  Baseline.Igraph.merge g ~into:(n / 2) 1;
  check_adjacency "after merge" g

let instantiate (e : Workloads.Suite.entry) =
  Ssa.Destruct_naive.run_exn (Ir.Edge_split.run (Ssa.Construct.run_exn e.func))

let test_briggs_equals_star () =
  (* The paper's claim for Briggs*: "providing the exact same results". *)
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let inst = instantiate e in
      let out_b, sb = Baseline.Ig_coalesce.run ~variant:Baseline.Ig_coalesce.Briggs inst in
      let out_s, ss =
        Baseline.Ig_coalesce.run ~variant:Baseline.Ig_coalesce.Briggs_star inst
      in
      checki (e.name ^ ": same static copies") sb.copies_remaining ss.copies_remaining;
      checki (e.name ^ ": same coalesces") sb.coalesced ss.coalesced;
      (* And the same dynamic behaviour. *)
      let da = (Interp.run ~args:e.args out_b).stats.copies_executed in
      let db = (Interp.run ~args:e.args out_s).stats.copies_executed in
      checki (e.name ^ ": same dynamic copies") da db;
      (* Briggs* graphs must never be larger. *)
      List.iter2
        (fun b s -> checkb (e.name ^ ": star matrix <= full") true (s <= b + 4 * inst.Ir.nregs))
        sb.graph_bytes_per_round ss.graph_bytes_per_round)
    (Lazy.force kernels)

let test_briggs_correct () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let inst = instantiate e in
      let out, stats =
        Baseline.Ig_coalesce.run ~variant:Baseline.Ig_coalesce.Briggs_star inst
      in
      checkb (e.name ^ ": valid") true (Ir.Validate.run out = []);
      checkb (e.name ^ ": rounds >= 1") true (stats.rounds >= 1);
      checkb (e.name ^ ": removed copies") true
        (Ir.count_copies out <= Ir.count_copies inst);
      assert_equiv ~args:e.args (e.name ^ ": semantics") e.func out)
    (Lazy.force kernels)

let prop_briggs_random =
  QCheck.Test.make ~count:50 ~name:"briggs* correct on random programs"
    QCheck.(pair (int_bound 10_000) (int_range 10 50))
    (fun (seed, size) ->
      let f = random_program seed size in
      let inst =
        Ssa.Destruct_naive.run_exn (Ir.Edge_split.run (Ssa.Construct.run_exn f))
      in
      let out =
        Baseline.Ig_coalesce.run_exn ~variant:Baseline.Ig_coalesce.Briggs_star inst
      in
      Ir.Validate.run out = []
      && outcomes_equal (Interp.run ~args:run_args f) (Interp.run ~args:run_args out))

let prop_briggs_variants_agree =
  QCheck.Test.make ~count:30 ~name:"briggs and briggs* agree on random programs"
    QCheck.(pair (int_bound 10_000) (int_range 10 50))
    (fun (seed, size) ->
      let f = random_program seed size in
      let inst =
        Ssa.Destruct_naive.run_exn (Ir.Edge_split.run (Ssa.Construct.run_exn f))
      in
      let _, sb = Baseline.Ig_coalesce.run ~variant:Baseline.Ig_coalesce.Briggs inst in
      let _, ss =
        Baseline.Ig_coalesce.run ~variant:Baseline.Ig_coalesce.Briggs_star inst
      in
      sb.copies_remaining = ss.copies_remaining)

(* ------------------------------------------------------------------ *)
(* The fused Briggs* coalescer: byte-identical decisions to the        *)
(* reference build/rewrite loop, over every workload family.           *)
(* ------------------------------------------------------------------ *)

(* Field-for-field decision equality: same unions in the same order imply
   the same printed output, round count, per-round graph sizes. *)
let assert_fused_identical name (inst : Ir.func) =
  let out_ref, s_ref =
    Baseline.Ig_coalesce.run ~variant:Baseline.Ig_coalesce.Briggs_star inst
  in
  let out_fused, s_fused = Baseline.Briggs_star.run inst in
  check Alcotest.string
    (name ^ ": byte-identical output")
    (Ir.Printer.func_to_string out_ref)
    (Ir.Printer.func_to_string out_fused);
  checki (name ^ ": rounds") s_ref.rounds s_fused.rounds;
  checki (name ^ ": coalesced") s_ref.coalesced s_fused.coalesced;
  checki (name ^ ": copies remaining") s_ref.copies_remaining
    s_fused.copies_remaining;
  check
    Alcotest.(list int)
    (name ^ ": graph nodes per round")
    s_ref.graph_nodes_per_round s_fused.graph_nodes_per_round;
  check
    Alcotest.(list int)
    (name ^ ": graph edges per round")
    s_ref.graph_edges_per_round s_fused.graph_edges_per_round;
  check
    Alcotest.(list int)
    (name ^ ": graph bytes per round")
    s_ref.graph_bytes_per_round s_fused.graph_bytes_per_round

let test_fused_identical_suite () =
  List.iter
    (fun (e : Workloads.Suite.entry) -> assert_fused_identical e.name (instantiate e))
    (Lazy.force kernels @ Workloads.Suite.adversarial ()
    @ Workloads.Suite.generated ~sizes:[ 40; 120 ] ~seeds:[ 1; 2 ] ())

let test_fused_identical_large () =
  List.iter
    (fun (e : Workloads.Suite.entry) -> assert_fused_identical e.name (instantiate e))
    (Workloads.Suite.large ())

let test_fused_correct () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let inst = instantiate e in
      let out = Baseline.Briggs_star.run_exn inst in
      checkb (e.name ^ ": valid") true (Ir.Validate.run out = []);
      assert_equiv ~args:e.args (e.name ^ ": semantics") e.func out)
    (Lazy.force kernels)

let test_fused_rejects_phis () =
  let ssa = Ssa.Construct.run_exn (diamond ()) in
  checkb "phi input rejected" true
    (try
       ignore (Baseline.Briggs_star.run ssa);
       false
     with Invalid_argument _ -> true)

let prop_fused_identical_random =
  QCheck.Test.make ~count:40
    ~name:"fused briggs* makes byte-identical decisions on random programs"
    QCheck.(pair (int_bound 10_000) (int_range 10 60))
    (fun (seed, size) ->
      let f = random_program seed size in
      let inst =
        Ssa.Destruct_naive.run_exn (Ir.Edge_split.run (Ssa.Construct.run_exn f))
      in
      let out_ref, s_ref =
        Baseline.Ig_coalesce.run ~variant:Baseline.Ig_coalesce.Briggs_star inst
      in
      let out_fused, s_fused = Baseline.Briggs_star.run inst in
      Ir.Printer.func_to_string out_ref = Ir.Printer.func_to_string out_fused
      && s_ref.rounds = s_fused.rounds
      && s_ref.coalesced = s_fused.coalesced
      && s_ref.graph_nodes_per_round = s_fused.graph_nodes_per_round
      && s_ref.graph_edges_per_round = s_fused.graph_edges_per_round)

let prop_fused_identical_adversarial =
  let shapes = Array.of_list Workloads.Generator.shapes in
  QCheck.Test.make ~count:24
    ~name:"fused briggs* identical on adversarial CFG families"
    QCheck.(pair (int_bound (Array.length shapes - 1)) (int_range 8 48))
    (fun (which, size) ->
      let f = Workloads.Generator.adversarial shapes.(which) ~size in
      let inst =
        Ssa.Destruct_naive.run_exn (Ir.Edge_split.run (Ssa.Construct.run_exn f))
      in
      let out_ref, s_ref =
        Baseline.Ig_coalesce.run ~variant:Baseline.Ig_coalesce.Briggs_star inst
      in
      let out_fused, s_fused = Baseline.Briggs_star.run inst in
      Ir.Printer.func_to_string out_ref = Ir.Printer.func_to_string out_fused
      && s_ref.coalesced = s_fused.coalesced
      && s_ref.rounds = s_fused.rounds)

(* Briggs vs Briggs* is already pinned on copy counts above; the full
   claim ("providing the exact same results", Section 4.1) is byte
   equality of the final code, over random and adversarial inputs. *)
let prop_variants_byte_identical =
  let shapes = Array.of_list Workloads.Generator.shapes in
  QCheck.Test.make ~count:30
    ~name:"briggs and briggs* produce byte-identical final code"
    QCheck.(triple (int_bound 10_000) (int_range 10 50) (int_bound 4))
    (fun (seed, size, pick) ->
      let f =
        if pick = 4 then
          Workloads.Generator.adversarial
            shapes.(seed mod Array.length shapes)
            ~size:(8 + (size mod 32))
        else random_program seed size
      in
      let inst =
        Ssa.Destruct_naive.run_exn (Ir.Edge_split.run (Ssa.Construct.run_exn f))
      in
      let out_b =
        Baseline.Ig_coalesce.run_exn ~variant:Baseline.Ig_coalesce.Briggs inst
      in
      let out_s =
        Baseline.Ig_coalesce.run_exn ~variant:Baseline.Ig_coalesce.Briggs_star
          inst
      in
      Ir.Printer.func_to_string out_b = Ir.Printer.func_to_string out_s)

let suite =
  [
    Alcotest.test_case "igraph: basic edges" `Quick test_igraph_straight;
    Alcotest.test_case "igraph: Chaitin copy rule" `Quick test_igraph_copy_rule;
    Alcotest.test_case "igraph: parameters interfere" `Quick
      test_igraph_params_interfere;
    Alcotest.test_case "igraph: restricted build" `Quick test_igraph_restricted;
    Alcotest.test_case "igraph: rejects phis" `Quick test_igraph_rejects_phis;
    Alcotest.test_case "igraph: merge keeps edges" `Quick test_merge;
    Alcotest.test_case "igraph: adjacency matches the matrix" `Quick
      test_adjacency_matches_matrix;
    Alcotest.test_case "igraph: adjacency after merge" `Quick
      test_adjacency_after_merge;
    Alcotest.test_case "briggs = briggs* on kernels" `Slow test_briggs_equals_star;
    Alcotest.test_case "briggs* correct on kernels" `Slow test_briggs_correct;
    QCheck_alcotest.to_alcotest prop_briggs_random;
    QCheck_alcotest.to_alcotest prop_briggs_variants_agree;
    Alcotest.test_case "fused briggs*: identical on kernels+adversarial+generated"
      `Slow test_fused_identical_suite;
    Alcotest.test_case "fused briggs*: identical on large routines" `Slow
      test_fused_identical_large;
    Alcotest.test_case "fused briggs*: correct on kernels" `Slow
      test_fused_correct;
    Alcotest.test_case "fused briggs*: rejects phis" `Quick
      test_fused_rejects_phis;
    QCheck_alcotest.to_alcotest prop_fused_identical_random;
    QCheck_alcotest.to_alcotest prop_fused_identical_adversarial;
    QCheck_alcotest.to_alcotest prop_variants_byte_identical;
  ]
