(* Tests for SSA construction (all pruning flavours, copy folding),
   SSA validation, and the Standard destruction baseline. *)

open Helpers

let kernels = lazy (Workloads.Suite.kernels ())

let test_construct_loop () =
  let f = counting_loop () in
  let ssa, stats = Ssa.Construct.run f in
  checkb "ssa valid" true (Ssa.Ssa_validate.run ssa = []);
  (* One φ for i at the loop header; the copy i := 0 folds away. *)
  checki "phis" 1 stats.phis_inserted;
  checki "folded the init copy" 1 stats.copies_folded;
  checki "no copies left" 0 (Ir.count_copies ssa);
  assert_equiv ~args:[ Ir.Int 5 ] "loop semantics" f ssa

let test_construct_diamond () =
  let f = diamond () in
  let ssa, stats = Ssa.Construct.run f in
  checkb "ssa valid" true (Ssa.Ssa_validate.run ssa = []);
  checki "one phi at the join" 1 stats.phis_inserted;
  assert_equiv ~args:[ Ir.Int 1 ] "then side" f ssa;
  assert_equiv ~args:[ Ir.Int 0 ] "else side" f ssa

let test_no_folding () =
  let f = diamond () in
  let ssa, stats = Ssa.Construct.run ~fold_copies:false f in
  checkb "ssa valid" true (Ssa.Ssa_validate.run ssa = []);
  checki "nothing folded" 0 stats.copies_folded;
  checki "copies preserved" (Ir.count_copies f) (Ir.count_copies ssa)

let phi_count f =
  let n = ref 0 in
  Ir.iter_phis f (fun _ _ -> incr n);
  !n

let test_pruning_hierarchy () =
  (* minimal places at least as many φs as semi-pruned, which places at
     least as many as pruned. *)
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let p = phi_count (Ssa.Construct.run_exn ~pruning:Ssa.Construct.Pruned e.func) in
      let s =
        phi_count (Ssa.Construct.run_exn ~pruning:Ssa.Construct.Semi_pruned e.func)
      in
      let m = phi_count (Ssa.Construct.run_exn ~pruning:Ssa.Construct.Minimal e.func) in
      checkb (e.name ^ ": pruned <= semi") true (p <= s);
      checkb (e.name ^ ": semi <= minimal") true (s <= m))
    (Lazy.force kernels)

let test_all_prunings_valid_and_equivalent () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      List.iter
        (fun pruning ->
          let ssa = Ssa.Construct.run_exn ~pruning e.func in
          checkb (e.name ^ ": valid") true (Ssa.Ssa_validate.run ssa = []);
          assert_equiv ~args:e.args (e.name ^ ": equivalent") e.func ssa)
        [ Ssa.Construct.Pruned; Ssa.Construct.Semi_pruned; Ssa.Construct.Minimal ])
    (Lazy.force kernels)

let test_semi_pruned_skips_locals () =
  (* t is block-local on both sides of the diamond: semi-pruned must not
     give it a φ, while minimal does. *)
  let f =
    Frontend.Lower.compile_one
      {|
      func f(p) {
        if (p > 0) {
          t = p + 1;
          x = t * 2;
        } else {
          t = p - 1;
          x = t * 3;
        }
        return x;
      }
      |}
  in
  let phi_names pruning =
    let ssa = Ssa.Construct.run_exn ~pruning f in
    let names = ref [] in
    Ir.iter_phis ssa (fun _ p -> names := Ir.reg_name ssa p.dst :: !names);
    List.sort compare !names
  in
  let semi = phi_names Ssa.Construct.Semi_pruned in
  let minimal = phi_names Ssa.Construct.Minimal in
  checkb "no phi for local t in semi-pruned" true
    (not (List.exists (fun n -> String.length n >= 1 && n.[0] = 't') semi));
  checkb "minimal has a phi for t" true
    (List.exists (fun n -> String.length n >= 1 && n.[0] = 't') minimal)

let test_version_naming () =
  let f = counting_loop () in
  let ssa = Ssa.Construct.run_exn f in
  let s = Ir.Printer.func_to_string ssa in
  (* The φ target and the incremented version carry dotted base names. *)
  checkb "i.0 present" true (contains s "i.0");
  checkb "i.1 present" true (contains s "i.1");
  checkb "params versioned" true (contains s "n.0")

let test_phi_placement_at_df () =
  (* φs land exactly on the iterated dominance frontier of the defs. *)
  let f = diamond () in
  let ssa = Ssa.Construct.run_exn ~fold_copies:false f in
  Array.iter
    (fun (b : Ir.block) ->
      if b.label = 3 then checki "join has the phi" 1 (List.length b.phis)
      else checki "no phi elsewhere" 0 (List.length b.phis))
    ssa.Ir.blocks

let test_ssa_validate_catches_double_def () =
  let b = Ir.Builder.create "double" in
  let x = Ir.Builder.fresh_reg b in
  let l = Ir.Builder.add_block b in
  Ir.Builder.push b l (Copy { dst = x; src = Const (Int 1) });
  Ir.Builder.push b l (Copy { dst = x; src = Const (Int 2) });
  Ir.Builder.terminate b l (Return (Some (Reg x)));
  let f = Ir.Builder.finish b in
  checkb "double definition rejected" true (Ssa.Ssa_validate.run f <> [])

let test_ssa_validate_catches_bad_dominance () =
  (* Use in the entry of a value defined in a later block. *)
  let b = Ir.Builder.create "nodom" in
  let p = Ir.Builder.add_param b in
  let x = Ir.Builder.fresh_reg b in
  let y = Ir.Builder.fresh_reg b in
  let entry = Ir.Builder.add_block b in
  let next = Ir.Builder.add_block b in
  Ir.Builder.push b entry (Copy { dst = y; src = Reg x });
  Ir.Builder.terminate b entry (Jump next);
  Ir.Builder.push b next (Copy { dst = x; src = Reg p });
  Ir.Builder.terminate b next (Return (Some (Reg y)));
  let f = Ir.Builder.finish b in
  checkb "dominance violation rejected" true (Ssa.Ssa_validate.run f <> [])

let test_destruct_naive () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let ssa = Ssa.Construct.run_exn e.func in
      let split = Ir.Edge_split.run ssa in
      let out, stats = Ssa.Destruct_naive.run split in
      checkb (e.name ^ ": valid") true (Ir.Validate.run out = []);
      checkb (e.name ^ ": no phis left") true (phi_count out = 0);
      checkb (e.name ^ ": inserted some copies") true (stats.copies_inserted >= 0);
      assert_equiv ~args:e.args (e.name ^ ": equivalent") e.func out)
    (Lazy.force kernels)

let test_destruct_requires_split () =
  (* A critical edge carrying a φ argument must be rejected. *)
  let b = Ir.Builder.create "needsplit" in
  let p = Ir.Builder.add_param b in
  let x = Ir.Builder.fresh_reg b in
  let entry = Ir.Builder.add_block b in
  let mid = Ir.Builder.add_block b in
  let join = Ir.Builder.add_block b in
  Ir.Builder.terminate b entry
    (Branch { cond = Reg p; if_true = mid; if_false = join });
  Ir.Builder.terminate b mid (Jump join);
  Ir.Builder.push_phi b join
    { dst = x; args = [ (entry, Const (Int 1)); (mid, Const (Int 2)) ] };
  Ir.Builder.terminate b join (Return (Some (Reg x)));
  let f = Ir.Builder.finish b in
  checkb "rejected" true
    (try
       ignore (Ssa.Destruct_naive.run f);
       false
     with Invalid_argument _ -> true)

let test_swap_through_standard () =
  (* The classic swap loop: a, b = b, a each iteration. The naive
     destructor must produce a temp (cycle) and correct code. *)
  let f =
    Frontend.Lower.compile_one
      {|
      func swaploop(n) {
        x = 1;
        y = 2;
        i = 0;
        while (i < n) {
          t = x;
          x = y;
          y = t;
          i = i + 1;
        }
        return x * 10 + y;
      }
      |}
  in
  let ssa = Ssa.Construct.run_exn f in
  let out = Ssa.Destruct_naive.run_exn (Ir.Edge_split.run ssa) in
  List.iter
    (fun n ->
      assert_equiv ~args:[ Ir.Int n ] (Printf.sprintf "swap n=%d" n) f out)
    [ 0; 1; 2; 5 ]

(* Property: SSA construction + naive destruction is semantics-preserving
   on random terminating programs. *)
let prop_roundtrip =
  QCheck.Test.make ~count:60 ~name:"ssa roundtrip on random programs"
    QCheck.(pair (int_bound 1000) (int_range 10 60))
    (fun (seed, size) ->
      let f = random_program seed size in
      let ssa = Ssa.Construct.run_exn f in
      if Ssa.Ssa_validate.run ssa <> [] then false
      else begin
        let out = Ssa.Destruct_naive.run_exn (Ir.Edge_split.run ssa) in
        Ir.Validate.run out = []
        && outcomes_equal (Interp.run ~args:run_args f) (Interp.run ~args:run_args out)
      end)

(* Differential: the stamp-based construction against the pre-stamp
   oracle (test/construct_ref.ml) — same printed function, hints, register
   count and stats under every pruning, with and without copy folding. *)
let prunings = Ssa.Construct.[ Pruned; Semi_pruned; Minimal ]

let construct_diff (f : Ir.func) =
  List.concat_map
    (fun pruning ->
      List.filter_map
        (fun fold_copies ->
          let g, st = Ssa.Construct.run ~pruning ~fold_copies f in
          let g', st' = Construct_ref.run ~pruning ~fold_copies f in
          let what =
            if Ir.Printer.func_to_string g <> Ir.Printer.func_to_string g'
            then Some "printed function"
            else if Support.Imap.bindings g.hints
                    <> Support.Imap.bindings g'.hints
            then Some "hints"
            else if g.nregs <> g'.nregs then Some "nregs"
            else if st <> st' then Some "stats"
            else None
          in
          Option.map
            (fun w ->
              Printf.sprintf "%s differs (%s, fold %b)" w
                (match pruning with
                | Pruned -> "pruned"
                | Semi_pruned -> "semi-pruned"
                | Minimal -> "minimal")
                fold_copies)
            what)
        [ true; false ])
    prunings

let check_construct_identical name f =
  match construct_diff f with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%s: %s" name d

let test_construct_matches_reference () =
  List.iter
    (fun (name, f) -> check_construct_identical name f)
    [ ("straight", straight_line ()); ("diamond", diamond ());
      ("loop", counting_loop ()); ("hostile", hostile_spill_func ()) ];
  List.iter
    (fun (e : Workloads.Suite.entry) -> check_construct_identical e.name e.func)
    (Lazy.force kernels @ Workloads.Suite.adversarial ()
    @ Workloads.Suite.large ());
  List.iter
    (fun shape ->
      List.iter
        (fun size ->
          check_construct_identical
            (Printf.sprintf "%s/%d" (Workloads.Generator.shape_name shape) size)
            (Workloads.Generator.adversarial shape ~size))
        [ 1; 3; 17 ])
    Workloads.Generator.shapes;
  let spec =
    { Workloads.Corpus.seed = 13; total = 24; mix = Workloads.Corpus.default_mix }
  in
  for i = 0 to spec.total - 1 do
    check_construct_identical
      (Printf.sprintf "corpus item %d" i)
      (Workloads.Corpus.item spec i)
  done

(* Random structured programs, and random strict CFGs with back edges and
   unreachable blocks. *)
let prop_construct_matches_reference =
  QCheck.Test.make ~count:80 ~name:"construct = reference construct on random programs"
    QCheck.(triple (int_bound 10_000) (int_range 2 60) bool)
    (fun (seed, size, cfg) ->
      let f =
        if cfg then random_cfg (make_rand seed) ~blocks:size ~regs:(1 + (size / 4))
        else random_program seed size
      in
      match construct_diff f with
      | [] -> true
      | d :: _ -> QCheck.Test.fail_report d)

let suite =
  [
    Alcotest.test_case "construct: loop" `Quick test_construct_loop;
    Alcotest.test_case "construct: diamond" `Quick test_construct_diamond;
    Alcotest.test_case "construct: folding off" `Quick test_no_folding;
    Alcotest.test_case "pruning hierarchy" `Slow test_pruning_hierarchy;
    Alcotest.test_case "all prunings valid + equivalent" `Slow
      test_all_prunings_valid_and_equivalent;
    Alcotest.test_case "semi-pruned skips locals" `Quick
      test_semi_pruned_skips_locals;
    Alcotest.test_case "version naming" `Quick test_version_naming;
    Alcotest.test_case "phi placement at the frontier" `Quick
      test_phi_placement_at_df;
    Alcotest.test_case "validator: double definition" `Quick
      test_ssa_validate_catches_double_def;
    Alcotest.test_case "validator: dominance" `Quick
      test_ssa_validate_catches_bad_dominance;
    Alcotest.test_case "standard destruction on kernels" `Slow test_destruct_naive;
    Alcotest.test_case "destruction requires split edges" `Quick
      test_destruct_requires_split;
    Alcotest.test_case "swap loop through standard" `Quick test_swap_through_standard;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "construct matches the reference construction" `Slow
      test_construct_matches_reference;
    QCheck_alcotest.to_alcotest prop_construct_matches_reference;
  ]
