(* Tests for the IR library: builder, structural/strictness validation, CFG
   derivation, critical-edge splitting, printing. *)

open Helpers

let test_builder_and_validate () =
  let f = straight_line () in
  check Alcotest.(list string) "valid" []
    (List.map (fun e -> Format.asprintf "%a" Ir.Validate.pp_error e) (Ir.Validate.run f));
  checki "blocks" 1 (Ir.num_blocks f);
  checki "nregs" 3 f.Ir.nregs;
  checki "copies" 0 (Ir.count_copies f)

let test_builder_unterminated () =
  let b = Ir.Builder.create "bad" in
  let _ = Ir.Builder.add_block b in
  Alcotest.check_raises "finish on unterminated block"
    (Failure "Builder: block 0 not terminated") (fun () ->
      ignore (Ir.Builder.finish b))

let test_builder_double_terminate () =
  let b = Ir.Builder.create "bad" in
  let l = Ir.Builder.add_block b in
  Ir.Builder.terminate b l (Return None);
  Alcotest.check_raises "double terminate"
    (Failure "Builder: block 0 already terminated") (fun () ->
      Ir.Builder.terminate b l (Return None))

let test_def_uses () =
  let i = Ir.Copy { dst = 3; src = Reg 5 } in
  check Alcotest.(option int) "copy def" (Some 3) (Ir.def i);
  check Alcotest.(list int) "copy uses" [ 5 ] (Ir.uses i);
  let s = Ir.Store { arr = "a"; idx = Reg 1; src = Reg 2 } in
  check Alcotest.(option int) "store def" None (Ir.def s);
  check Alcotest.(list int) "store uses" [ 1; 2 ] (Ir.uses s);
  let b = Ir.Binop { op = Add; dst = 0; l = Reg 1; r = Const (Int 2) } in
  check Alcotest.(list int) "binop uses" [ 1 ] (Ir.uses b);
  let renamed = Ir.map_instr_uses (fun r -> Ir.Reg (r + 10)) b in
  check Alcotest.(list int) "renamed uses" [ 11 ] (Ir.uses renamed);
  check Alcotest.(option int) "def untouched" (Some 0) (Ir.def renamed)

let test_strictness_violation () =
  (* x used in the join but only defined on one side of the diamond. *)
  let b = Ir.Builder.create "nonstrict" in
  let p = Ir.Builder.add_param ~name:"p" b in
  let x = Ir.Builder.fresh_reg ~name:"x" b in
  let entry = Ir.Builder.add_block b in
  let then_ = Ir.Builder.add_block b in
  let join = Ir.Builder.add_block b in
  Ir.Builder.terminate b entry
    (Branch { cond = Reg p; if_true = then_; if_false = join });
  Ir.Builder.push b then_ (Copy { dst = x; src = Const (Int 1) });
  Ir.Builder.terminate b then_ (Jump join);
  Ir.Builder.terminate b join (Return (Some (Reg x)));
  let f = Ir.Builder.finish b in
  checkb "structure ok" true (Ir.Validate.structure f = []);
  checkb "strictness caught" true (Ir.Validate.strictness f <> [])

let test_structure_errors () =
  (* Phi argument labels must match predecessors. *)
  let b = Ir.Builder.create "badphi" in
  let p = Ir.Builder.add_param b in
  let x = Ir.Builder.fresh_reg b in
  let entry = Ir.Builder.add_block b in
  let next = Ir.Builder.add_block b in
  Ir.Builder.terminate b entry (Jump next);
  Ir.Builder.push_phi b next { dst = x; args = [ (entry, Reg p); (entry, Reg p) ] };
  Ir.Builder.terminate b next (Return (Some (Reg x)));
  let f = Ir.Builder.finish b in
  checkb "duplicate phi labels rejected" true (Ir.Validate.structure f <> [])

let test_cfg_orders () =
  let f = counting_loop () in
  let cfg = Ir.Cfg.of_func f in
  checki "edges" 4 (Ir.Cfg.num_edges cfg);
  check Alcotest.(list int) "preds of header" [ 0; 2 ] (Ir.Cfg.preds_list cfg 1);
  let rpo = Array.to_list (Ir.Cfg.reverse_postorder cfg) in
  checki "rpo covers reachable blocks" 4 (List.length rpo);
  checkb "entry first in rpo" true (List.hd rpo = f.Ir.entry);
  (* Postorder: every block appears after its descendants in DFS. Entry is
     last. *)
  let po = Array.to_list (Ir.Cfg.postorder cfg) in
  checkb "entry last in postorder" true (List.nth po (List.length po - 1) = f.Ir.entry)

let test_cfg_unreachable () =
  let b = Ir.Builder.create "unreach" in
  let entry = Ir.Builder.add_block b in
  let dead = Ir.Builder.add_block b in
  Ir.Builder.terminate b entry (Return None);
  Ir.Builder.terminate b dead (Jump entry);
  let f = Ir.Builder.finish b in
  let cfg = Ir.Cfg.of_func f in
  checkb "dead not reachable" false (Ir.Cfg.reachable cfg dead);
  (* The dead block's edge must not pollute preds of entry. *)
  check Alcotest.(list int) "entry preds empty" [] (Ir.Cfg.preds_list cfg entry)

let test_edge_split () =
  (* diamond's edges out of the entry branch into single-pred blocks: not
     critical. The loop's back edge is not critical either (header has two
     preds but body has one succ). *)
  checki "diamond has no critical edges" 0 (Ir.Edge_split.count_critical (diamond ()));
  checki "loop has no critical edges" 0
    (Ir.Edge_split.count_critical (counting_loop ()));
  (* Branch directly into a join from a branching block: critical. *)
  let b = Ir.Builder.create "crit" in
  let p = Ir.Builder.add_param b in
  let entry = Ir.Builder.add_block b in
  let mid = Ir.Builder.add_block b in
  let join = Ir.Builder.add_block b in
  Ir.Builder.terminate b entry
    (Branch { cond = Reg p; if_true = mid; if_false = join });
  Ir.Builder.terminate b mid (Jump join);
  Ir.Builder.terminate b join (Return (Some (Reg p)));
  let f = Ir.Builder.finish b in
  checki "one critical edge" 1 (Ir.Edge_split.count_critical f);
  let g = Ir.Edge_split.run f in
  checki "no critical edges after split" 0 (Ir.Edge_split.count_critical g);
  checki "one block added" (Ir.num_blocks f + 1) (Ir.num_blocks g);
  checkb "still valid" true (Ir.Validate.run g = []);
  assert_equiv ~args:[ Ir.Int 1 ] "split t" f g;
  assert_equiv ~args:[ Ir.Int 0 ] "split f" f g;
  (* Idempotent. *)
  checki "idempotent" (Ir.num_blocks g) (Ir.num_blocks (Ir.Edge_split.run g))

let test_edge_split_retargets_phis () =
  let b = Ir.Builder.create "critphi" in
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
  let g = Ir.Edge_split.run f in
  checkb "valid after split" true (Ir.Validate.structure g = []);
  (* The φ argument that came along the critical edge must now be keyed by
     the fresh middle block. *)
  let join_blk = g.Ir.blocks.(join) in
  let phi = List.hd join_blk.Ir.phis in
  checkb "no arg keyed by entry anymore" true
    (not (List.mem_assoc entry phi.Ir.args));
  assert_equiv ~args:[ Ir.Int 0 ] "phi value preserved" f g

let test_printer () =
  let f = counting_loop () in
  let s = Ir.Printer.func_to_string f in
  checkb "mentions function name" true (contains s "func loop");
  checkb "uses register hints" true (contains s "i := add i, 1");
  checkb "prints branches" true (contains s "br c, b2, b3")

let test_parse_roundtrip_hand () =
  let src =
    {|
func swapish(p) {  # entry b0
b0:
  a := add p, 1
  b := fmul p, 2.5
  m[a] := b
  br p, b1, b2
b1:
  x := phi [b0: a] [b1: x]
  y := neg x
  jump b1
b2:
  t := m[0]
  ret t
}
|}
  in
  let f = Ir.Parse.func_of_string src in
  checkb "structure valid" true (Ir.Validate.structure f = []);
  checki "blocks" 3 (Ir.num_blocks f);
  checki "entry" 0 f.Ir.entry;
  (* print → parse → print is stable *)
  let printed = Ir.Printer.func_to_string f in
  let reparsed = Ir.Parse.func_of_string printed in
  check Alcotest.string "fixed point" printed (Ir.Printer.func_to_string reparsed)

let test_parse_errors () =
  let fails s =
    try
      ignore (Ir.Parse.func_of_string s);
      false
    with Ir.Parse.Error _ -> true
  in
  checkb "reserved register name" true
    (fails "func f() {\nb0:\n  add := 1\n  ret\n}");
  checkb "missing terminator" true (fails "func f() {\nb0:\n  x := 1\n}");
  checkb "bad phi" true (fails "func f() {\nb0:\n  x := phi [b0 1]\n  ret\n}");
  checkb "no blocks" true (fails "func f() {\n}");
  checkb "phi after instr" true
    (fails "func f() {\nb0:\n  x := 1\n  y := phi [b0: x]\n  ret\n}")

(* Property: printer output always re-parses to a function that prints
   identically, across the whole SSA pipeline. *)
let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:60 ~name:"print/parse round-trip"
    QCheck.(pair (int_bound 10_000) (int_range 10 50))
    (fun (seed, size) ->
      let f = random_program seed size in
      let stages =
        [ f; Ssa.Construct.run_exn f;
          Core.Coalesce.run_exn (Ssa.Construct.run_exn f) ]
      in
      List.for_all
        (fun g ->
          let printed = Ir.Printer.func_to_string g in
          let reparsed = Ir.Parse.func_of_string printed in
          Ir.Printer.func_to_string reparsed = printed)
        stages)

(* Distinct registers print distinctly: the source variable "r3" beside
   the hintless temporary register 3 used to print both as "r3" (and as
   "r3.0" after construction), so the printed form — the cache key —
   named a different program. *)
let test_print_names_injective () =
  let f =
    Frontend.Lower.compile_one
      "func f(a) { r3 = a - 1; x = (a * 2) - r3; return x; }"
  in
  checkb "temporary renamed" true
    (contains (Ir.Printer.func_to_string f) "r3$1 := mul a, 2");
  let ssa = Ssa.Construct.run_exn f in
  List.iter
    (fun (stage, g) ->
      let printed = Ir.Printer.func_to_string g in
      let reparsed = Ir.Parse.func_of_string printed in
      check Alcotest.string (stage ^ ": fixed point") printed
        (Ir.Printer.func_to_string reparsed);
      checki (stage ^ ": registers") 4 reparsed.nregs;
      match Check.equiv ~reference:g reparsed with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "%s: reparsed function is not equivalent" stage)
    [ ("input", f); ("ssa", ssa); ("coalesced", Core.Coalesce.run_exn ssa) ];
  (* Source variables named like a label or a mnemonic, which the parser
     refuses as register names. *)
  let k =
    Frontend.Lower.compile_one
      "func g(a) { b1 = a + 1; add = b1 * 2; return add; }"
  in
  let printed = Ir.Printer.func_to_string k in
  checkb "label-like and mnemonic names renamed" true
    (contains printed "b1$1 := add a, 1" && contains printed "ret add$1");
  (match Check.equiv ~reference:k (Ir.Parse.func_of_string printed) with
  | Ok () -> ()
  | Error _ -> Alcotest.failf "label-like names: not equivalent");
  (* Same-hint registers, and a suffix that is already taken. *)
  let b = Ir.Builder.create "g" in
  let x0 = Ir.Builder.fresh_reg ~name:"x" b in
  let x1 = Ir.Builder.fresh_reg ~name:"x$1" b in
  let x2 = Ir.Builder.fresh_reg ~name:"x" b in
  let l = Ir.Builder.add_block b in
  Ir.Builder.push b l (Copy { dst = x0; src = Const (Int 1) });
  Ir.Builder.push b l (Copy { dst = x1; src = Const (Int 2) });
  Ir.Builder.push b l (Copy { dst = x2; src = Reg x0 });
  Ir.Builder.terminate b l (Return (Some (Reg x1)));
  let g = Ir.Builder.finish b in
  check
    Alcotest.(array string)
    "names" [| "x"; "x$1"; "x$2" |] (Ir.Printer.reg_names g)

let test_dot_export () =
  let f = counting_loop () in
  let d = Ir.Dot.cfg f in
  checkb "digraph" true (contains d "digraph \"loop\"");
  checkb "edge b1->b2" true (contains d "b1 -> b2;");
  checkb "instructions listed" true (contains d "i := add i, 1");
  let d2 = Ir.Dot.cfg ~instructions:false f in
  checkb "compact mode" false (contains d2 "add");
  let t = Ir.Dot.dominator_tree f in
  checkb "tree edge entry->header" true (contains t "b0 -> b1;");
  checkb "back edge dashed" true (contains t "b2 -> b1 [style=dashed")

let suite =
  [
    Alcotest.test_case "builder + validate" `Quick test_builder_and_validate;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "parse: hand-written source" `Quick test_parse_roundtrip_hand;
    Alcotest.test_case "parse: error cases" `Quick test_parse_errors;
    Alcotest.test_case "printed register names are distinct" `Quick
      test_print_names_injective;
    QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
    Alcotest.test_case "builder rejects unterminated" `Quick test_builder_unterminated;
    Alcotest.test_case "builder rejects double terminate" `Quick
      test_builder_double_terminate;
    Alcotest.test_case "def/uses/map helpers" `Quick test_def_uses;
    Alcotest.test_case "strictness violation detected" `Quick
      test_strictness_violation;
    Alcotest.test_case "phi structure errors detected" `Quick test_structure_errors;
    Alcotest.test_case "cfg orders" `Quick test_cfg_orders;
    Alcotest.test_case "cfg ignores unreachable blocks" `Quick test_cfg_unreachable;
    Alcotest.test_case "critical edge splitting" `Quick test_edge_split;
    Alcotest.test_case "edge split retargets phis" `Quick
      test_edge_split_retargets_phis;
    Alcotest.test_case "printer" `Quick test_printer;
  ]
