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

(* ------------------------------------------------------------------ *)
(* Parser differential: Ir.Parse against the list-based oracle          *)
(* (test/parse_ref.ml)                                                  *)
(* ------------------------------------------------------------------ *)

type parsed = Parsed of Ir.func list | Refused of string * int | Raised of string

let parse_with parse is_error s =
  match parse s with
  | fs -> Parsed fs
  | exception e -> (
    match is_error e with
    | Some (msg, line) -> Refused (msg, line)
    | None -> Raised (Printexc.to_string e))

let parse_new =
  parse_with Ir.Parse.funcs_of_string (function
    | Ir.Parse.Error (m, l) -> Some (m, l)
    | _ -> None)

let parse_ref =
  parse_with Parse_ref.funcs_of_string (function
    | Parse_ref.Error (m, l) -> Some (m, l)
    | _ -> None)

(* Refusals the oracle has no counterpart for: a block label beyond its
   function's length, which the oracle turns into an array that large. *)
let is_label_limit msg =
  String.starts_with ~prefix:"block label b" msg && contains msg "is too large"

(* [None] when the parsers agree on [s]: the same functions (compared
   structurally, so register ids and hints too), or the same message and
   line wherever the oracle raises [Error]. Where the oracle raises
   anything else, [Ir.Parse] must refuse; it may only ever raise
   [Ir.Parse.Error]. *)
let parse_disagreement s =
  match (parse_ref s, parse_new s) with
  | _, Raised e -> Some ("Ir.Parse raised " ^ e)
  | Parsed a, Parsed b ->
    if compare a b = 0 then None else Some "different functions"
  | Refused (m, l), Refused (m', l') ->
    if m = m' && l = l' then None
    else Some (Printf.sprintf "refused %S at line %d, oracle %S at line %d" m' l' m l)
  | Refused (m, l), Parsed _ ->
    Some (Printf.sprintf "accepted; oracle refused %S at line %d" m l)
  | Parsed _, Refused (m, _) ->
    if is_label_limit m then None
    else Some (Printf.sprintf "refused %S; oracle accepted" m)
  | Raised e, Parsed _ -> Some ("accepted; oracle raised " ^ e)
  | Raised _, Refused _ -> None

let check_same_parse name s =
  match parse_disagreement s with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s\n%s" name d s

(* Every stage's printed form of [f]: the input, SSA (φs) and coalesced. *)
let printed_stages (f : Ir.func) =
  let ssa = Ssa.Construct.run_exn f in
  List.map Ir.Printer.func_to_string [ f; ssa; Core.Coalesce.run_exn ssa ]

(* The benchmark's corpus input: sixteen parts of 125 functions, thirteen
   on fixed seeds and three on the run's seed (perfbench/wl_corpus.ml). *)
let bench_corpus seed =
  List.concat
    (List.init 16 (fun j ->
         let seed = if j < 13 then 0x5eed_0000 + j else (seed * 3) + j - 13 in
         let spec =
           { Workloads.Corpus.seed; total = 125; mix = Workloads.Corpus.default_mix }
         in
         List.init spec.total (Workloads.Corpus.item spec)))

let test_parse_matches_reference () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      List.iter (check_same_parse e.name) (printed_stages e.func))
    (Workloads.Suite.kernels () @ Workloads.Suite.adversarial ());
  (* The large suite as printed input only: the oracle is quadratic in a
     function's registers, and the SSA forms (up to 220 kB) cost it
     seconds each. *)
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      check_same_parse e.name (Ir.Printer.func_to_string e.func))
    (Workloads.Suite.large ());
  List.iter
    (fun shape ->
      List.iter
        (fun size ->
          let name =
            Printf.sprintf "%s/%d" (Workloads.Generator.shape_name shape) size
          in
          List.iter (check_same_parse name)
            (printed_stages (Workloads.Generator.adversarial shape ~size)))
        [ 1; 3; 17 ])
    Workloads.Generator.shapes;
  List.iteri
    (fun i f ->
      check_same_parse (Printf.sprintf "corpus item %d" i)
        (Ir.Printer.func_to_string f))
    (bench_corpus 21);
  (* Several functions in one input. *)
  check_same_parse "kernels in one input"
    (String.concat "\n"
       (List.map
          (fun (e : Workloads.Suite.entry) -> Ir.Printer.func_to_string e.func)
          (Workloads.Suite.kernels ())));
  (* Hand-written: label gaps, a repeated label (the first block wins, the
     second still numbers its registers), no entry comment, an entry
     comment naming a later block, comments, blank lines and CRLF ends,
     literals in every spelling the oracle reads, operands named like
     punctuation, and every instruction form. *)
  List.iter
    (fun (name, s) -> check_same_parse name s)
    [
      ("gaps", "func f(a) {\nb0:\n  br a, b3, b7\nb3:\n  ret a\nb7:\n  ret 1\n}");
      ( "duplicate label",
        "func f(a) {  # entry b1\nb1:\n  x := add a, 1\n  ret x\nb1:\n  y := mul a, 2\n  ret y\n}" );
      ("no entry comment", "func f() {\nb2:\n  jump b0\nb0:\n  ret\n}");
      ( "entry comment",
        "\n# leading comment\nfunc f(p, q) {   #   entry b1  \r\nb0:\r\n  ret p\r\n\nb1:  # here\n  jump b0\n}\n# trailing\n" );
      ("odd entry comment", "func f() {  # entry  b1\nb0:\n  ret\nb1:\n  ret\n}");
      ( "literals",
        "func f(a) {\nb0:\n  x := add 0x1f, 1_000\n  y := fmul -2.5e-3, 1e+3\n  z := sub -7, x\n  w := neg -0.5\n  ret z\n}" );
      ( "every form",
        "func g(a b, c) {\nb0:\n  x := phi\n  y := phi [b0: 1] [b1: a]\n  m[a] := c\n  v := m[b]\n  u := not v\n  t := i2f u\n  br t, b1, b0\nb1:\n  ret\n}" );
      ("punctuation names", "func f(,) {\nb0:\n  ret :=\n}");
      ("second function", "func f() {\nb0:\n  ret\n}\nfunc g(x) {\nb5:\n  ret x\n}\n");
    ]

(* Hand-written inputs both parsers refuse, each at its first fault in
   the oracle's order: the same message and line. *)
let test_parse_errors () =
  List.iter
    (fun s ->
      match parse_ref s with
      | Refused _ -> check_same_parse "refused input" s
      | _ -> Alcotest.failf "the oracle does not refuse:\n%s" s)
    [
      "func f() {\nb0:\n  add := 1\n  ret\n}";
      "func f() {\nb0:\n  x := 1\n}";
      "func f() {\nb0:\n  x := phi [b0 1]\n  ret\n}";
      "func f() {\n}";
      "func f() {\nb0:\n  x := 1\n  y := phi [b0: x]\n  ret\n}";
      "func f(a) {\nb0:\n  x := add add, b1\n  ret x\n}";
      "func f(a) {\nb0:\n  x := phi [q: add]\n  ret x\n}";
      "func f(a) {\nb0:\n  br add, b1, q\n}";
      "func f(a) {\nb0:\n  m[b2] := sub\n  ret\n}";
      "func f(a) {\nb0:\n  x := 1abc\n  ret x\n}";
      "func f(a) {\nb0:\n  x := a ? 1\n  ret x\n}";
      "func f(a) {\nb0:\n  ret a\n}\n}";
      "func f(a) {\nb0:\n  ret a\n";
      "func f(a) {\nb0:\n  x := a\n";
      "func f(a) {\nx:\n  ret a\n}";
      "func f(a) {\nb0 b1\n  ret a\n}";
      "func f(a) { x\nb0:\n  ret a\n}";
      "func f(a\nb0:\n  ret a\n}";
      "fun f(a) {\nb0:\n  ret a\n}";
      "func f(a) {\nb0:\n  ret a\n}\nfunc g(a) {\nb0:\n  jump\n}";
      "func f(a) {\nb0:\n  ret a b\n}";
      "func f(a) {\nb0:\n  x := mul a, b, c\n  ret x\n}";
      "func f(a) {\nb0:\n  ret a\n}\n\xc3\xa9";
    ]

(* Labels and literals too large for an [int], and labels too large for
   their function, are refusals, not crashes or huge allocations; a label
   refusal waits behind any error the oracle would report after it. *)
let test_parse_hostile_labels () =
  let refused s =
    match parse_new s with
    | Refused (m, l) -> Some (m, l)
    | Parsed _ -> None
    | Raised e -> Alcotest.failf "raised %s" e
  in
  let huge = "99999999999999999999" in
  List.iter
    (fun (name, s) ->
      checkb name true (refused s <> None))
    [
      ("block label", "func f(a) {\nb0:\n  ret a\nb" ^ huge ^ ":\n  ret a\n}");
      ("jump target", "func f(a) {\nb0:\n  jump b" ^ huge ^ "\n}");
      ("phi label", "func f(a) {\nb0:\n  x := phi [b" ^ huge ^ ": a]\n  ret x\n}");
      ("entry comment", "func f(a) {  # entry b" ^ huge ^ "\nb0:\n  ret a\n}");
      ("label beyond the input", "func f() {\nb300000000:\n  ret\n}\n");
    ];
  check
    Alcotest.(option (pair string int))
    "limit refusal names the label and its line"
    (Some ("block label b40 is too large for a 33-byte function", 4))
    (refused "func f() {\nb0:\n  ret\nb40:\n  ret\n}");
  (* The printed form always passes: every block takes two lines. *)
  checkb "a printed function passes" true
    (refused "func f() {\nb0:\n  ret\nb1:\n  ret\nb2:\n  ret\n}" = None);
  (* An overflowing literal reads as a float, as it always has. *)
  (match Ir.Parse.func_of_string ("func f() {\nb0:\n  ret " ^ huge ^ "\n}") with
  | { blocks = [| { term = Return (Some (Const (Float _))); _ } |]; _ } -> ()
  | _ -> Alcotest.fail "overflowing literal");
  (* Behind a later syntax error, and behind the one-function check. *)
  let big_then_bad = "func f() {\nb99:\n  ret\n}\nfunc g() {\nb0:\n  jump\n}" in
  check_same_parse "later error wins" big_then_bad;
  checkb "func_of_string counts first" true
    (match
       Ir.Parse.func_of_string "func f() {\nb99:\n  ret\n}\nfunc g() {\nb0:\n  ret\n}"
     with
    | _ -> false
    | exception Ir.Parse.Error (m, 0) -> contains m "expected one function"
    | exception Ir.Parse.Error _ -> false)

(* Byte mutations of printed functions (insert, delete, replace, truncate)
   must leave [Ir.Parse] raising nothing but [Error], with the oracle's
   message and line wherever the oracle refuses. Mutants with a label of
   six or more digits are skipped: the oracle allocates an array that
   large. *)
let has_big_label s =
  let n = String.length s in
  let rec from i run =
    if i = n then false
    else
      let c = s.[i] in
      if c >= '0' && c <= '9' then run >= 0 && (run >= 5 || from (i + 1) (run + 1))
      else from (i + 1) (if c = 'b' then 0 else -1)
  in
  from 0 (-1)

let mutation_bytes = "b0123456789:=[],(){}#\n -+.e$xphi\t\r\xff"

let mutate rand s =
  let n = String.length s in
  let pos () = Random.State.int rand (n + 1) in
  let byte () =
    String.make 1 mutation_bytes.[Random.State.int rand (String.length mutation_bytes)]
  in
  match Random.State.int rand 4 with
  | 0 ->
    let i = pos () in
    String.sub s 0 i ^ byte () ^ String.sub s i (n - i)
  | 1 when n > 0 ->
    let i = Random.State.int rand n in
    String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | 2 when n > 0 ->
    let i = Random.State.int rand n in
    String.sub s 0 i ^ byte () ^ String.sub s (i + 1) (n - i - 1)
  | _ -> String.sub s 0 (pos ())

let test_parse_mutations () =
  let rand = Random.State.make [| 15 |] in
  let bases =
    List.concat_map
      (fun (e : Workloads.Suite.entry) -> printed_stages e.func)
      (Workloads.Suite.kernels ())
    @ List.map Ir.Printer.func_to_string
        (List.init 8
           (Workloads.Corpus.item
              { Workloads.Corpus.seed = 15; total = 8; mix = Workloads.Corpus.default_mix }))
  in
  let tried = ref 0 in
  List.iter
    (fun base ->
      for _ = 1 to 60 do
        let s = ref base in
        for _ = 0 to Random.State.int rand 3 do
          s := mutate rand !s
        done;
        if not (has_big_label !s) then begin
          incr tried;
          check_same_parse "mutant" !s
        end
      done)
    bases;
  checkb (Printf.sprintf "mutants tried (%d)" !tried) true (!tried > 1000)

let prop_parse_matches_reference =
  QCheck.Test.make ~count:60 ~name:"parse = reference parse on random programs"
    QCheck.(pair (int_bound 10_000) (int_range 2 60))
    (fun (seed, size) ->
      List.for_all
        (fun s ->
          match parse_disagreement s with
          | None -> true
          | Some d -> QCheck.Test.fail_report d)
        (printed_stages (random_program seed size)))

let suite =
  [
    Alcotest.test_case "builder + validate" `Quick test_builder_and_validate;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "parse: hand-written source" `Quick test_parse_roundtrip_hand;
    Alcotest.test_case "parse: error cases" `Quick test_parse_errors;
    Alcotest.test_case "printed register names are distinct" `Quick
      test_print_names_injective;
    QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
    Alcotest.test_case "parse matches the reference parser" `Slow
      test_parse_matches_reference;
    Alcotest.test_case "parse: hostile labels are refusals" `Quick
      test_parse_hostile_labels;
    Alcotest.test_case "parse: byte mutations" `Slow test_parse_mutations;
    QCheck_alcotest.to_alcotest prop_parse_matches_reference;
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
