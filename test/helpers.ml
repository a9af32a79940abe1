(* Shared utilities for the test suites: small hand-built functions, random
   CFG/program generation, and independent reference implementations used as
   oracles for the analyses. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(* ------------------------------------------------------------------ *)
(* Hand-built functions                                               *)
(* ------------------------------------------------------------------ *)

(* A straight-line function: x := a + 1; y := x * 2; ret y. *)
let straight_line () =
  let b = Ir.Builder.create "straight" in
  let a = Ir.Builder.add_param ~name:"a" b in
  let l = Ir.Builder.add_block b in
  let x = Ir.Builder.fresh_reg ~name:"x" b in
  let y = Ir.Builder.fresh_reg ~name:"y" b in
  Ir.Builder.push b l (Binop { op = Add; dst = x; l = Reg a; r = Const (Int 1) });
  Ir.Builder.push b l (Binop { op = Mul; dst = y; l = Reg x; r = Const (Int 2) });
  Ir.Builder.terminate b l (Return (Some (Reg y)));
  Ir.Builder.finish b

(* A diamond: entry branches on the parameter, both sides assign x, join
   returns x (non-SSA: x is one register). *)
let diamond () =
  let b = Ir.Builder.create "diamond" in
  let p = Ir.Builder.add_param ~name:"p" b in
  let x = Ir.Builder.fresh_reg ~name:"x" b in
  let entry = Ir.Builder.add_block b in
  let then_ = Ir.Builder.add_block b in
  let else_ = Ir.Builder.add_block b in
  let join = Ir.Builder.add_block b in
  Ir.Builder.terminate b entry
    (Branch { cond = Reg p; if_true = then_; if_false = else_ });
  Ir.Builder.push b then_ (Copy { dst = x; src = Const (Int 1) });
  Ir.Builder.terminate b then_ (Jump join);
  Ir.Builder.push b else_ (Copy { dst = x; src = Const (Int 2) });
  Ir.Builder.terminate b else_ (Jump join);
  Ir.Builder.terminate b join (Return (Some (Reg x)));
  Ir.Builder.finish b

(* A function whose own data lives in arrays named "$spill" and "$spill.1",
   the names the register allocator would otherwise reserve for its spill
   slab. A parameter and six simultaneously-live loads form a 7-clique, so
   k = 3 must spill. test/fixtures/hostile_spill.ir is this function,
   printed. *)
let hostile_spill_func () =
  let b = Ir.Builder.create "hostile" in
  let p = Ir.Builder.add_param ~name:"a" b in
  let entry = Ir.Builder.add_block b in
  let push i = Ir.Builder.push b entry i in
  push (Ir.Store { arr = "$spill"; idx = Ir.Const (Ir.Int 0); src = Ir.Reg p });
  push
    (Ir.Store
       { arr = "$spill.1"; idx = Ir.Const (Ir.Int 0); src = Ir.Const (Ir.Int 42) });
  let loads =
    List.init 6 (fun i ->
        let t = Ir.Builder.fresh_reg b in
        push (Ir.Load { dst = t; arr = "$spill"; idx = Ir.Const (Ir.Int i) });
        t)
  in
  let sum =
    List.fold_left
      (fun acc t ->
        let d = Ir.Builder.fresh_reg b in
        push (Ir.Binop { op = Ir.Add; dst = d; l = Ir.Reg acc; r = Ir.Reg t });
        d)
      p loads
  in
  (* Write the sum back into user memory so the final arrays are sensitive
     to any aliasing between user data and spill slots. *)
  push (Ir.Store { arr = "$spill"; idx = Ir.Const (Ir.Int 1); src = Ir.Reg sum });
  Ir.Builder.terminate b entry (Ir.Return (Some (Ir.Reg sum)));
  Ir.Builder.finish b

(* A while loop: i := 0; while (i < n) i := i + 1; ret i. *)
let counting_loop () =
  let b = Ir.Builder.create "loop" in
  let n = Ir.Builder.add_param ~name:"n" b in
  let i = Ir.Builder.fresh_reg ~name:"i" b in
  let c = Ir.Builder.fresh_reg ~name:"c" b in
  let entry = Ir.Builder.add_block b in
  let header = Ir.Builder.add_block b in
  let body = Ir.Builder.add_block b in
  let exit_ = Ir.Builder.add_block b in
  Ir.Builder.push b entry (Copy { dst = i; src = Const (Int 0) });
  Ir.Builder.terminate b entry (Jump header);
  Ir.Builder.push b header (Binop { op = Lt; dst = c; l = Reg i; r = Reg n });
  Ir.Builder.terminate b header
    (Branch { cond = Reg c; if_true = body; if_false = exit_ });
  Ir.Builder.push b body (Binop { op = Add; dst = i; l = Reg i; r = Const (Int 1) });
  Ir.Builder.terminate b body (Jump header);
  Ir.Builder.terminate b exit_ (Return (Some (Reg i)));
  Ir.Builder.finish b

(* The paper's Figure 3: the virtual swap. Two φ-candidate variables take
   opposite constant values on the two sides of a conditional. Built
   directly in SSA-with-folded-copies form (Figure 3b). *)
let virtual_swap_ssa () =
  let b = Ir.Builder.create "virtual_swap" in
  let p = Ir.Builder.add_param ~name:"p" b in
  let a1 = Ir.Builder.fresh_reg ~name:"a1" b in
  let b1 = Ir.Builder.fresh_reg ~name:"b1" b in
  let x2 = Ir.Builder.fresh_reg ~name:"x2" b in
  let y2 = Ir.Builder.fresh_reg ~name:"y2" b in
  let r = Ir.Builder.fresh_reg ~name:"r" b in
  let entry = Ir.Builder.add_block b in
  let left = Ir.Builder.add_block b in
  let right = Ir.Builder.add_block b in
  let join = Ir.Builder.add_block b in
  Ir.Builder.push b entry (Copy { dst = a1; src = Const (Int 1) });
  Ir.Builder.push b entry (Copy { dst = b1; src = Const (Int 2) });
  Ir.Builder.terminate b entry
    (Branch { cond = Reg p; if_true = left; if_false = right });
  Ir.Builder.terminate b left (Jump join);
  Ir.Builder.terminate b right (Jump join);
  (* x2 = φ(a1, b1); y2 = φ(b1, a1) — the copies were folded during SSA
     construction, leaving the swap latent in the φs. *)
  Ir.Builder.push_phi b join
    { dst = x2; args = [ (left, Reg a1); (right, Reg b1) ] };
  Ir.Builder.push_phi b join
    { dst = y2; args = [ (left, Reg b1); (right, Reg a1) ] };
  Ir.Builder.push b join (Binop { op = Div; dst = r; l = Reg x2; r = Reg y2 });
  Ir.Builder.terminate b join (Return (Some (Reg r)));
  Ir.Builder.finish b

(* ------------------------------------------------------------------ *)
(* Random CFG generator (pure IR level, for analysis oracles)          *)
(* ------------------------------------------------------------------ *)

(* Random strict function: a pool of registers, blocks with random bodies
   and branches. Strictness is guaranteed by defining every register in the
   entry block. Termination is NOT guaranteed (may loop), so these funcs
   are for static analyses only, not the interpreter. *)
let random_cfg rand ~blocks:nblocks ~regs:nregs =
  let b = Ir.Builder.create "random" in
  let regs = Array.init nregs (fun i -> Ir.Builder.fresh_reg ~name:(Printf.sprintf "v%d" i) b) in
  let labels = Array.init nblocks (fun _ -> Ir.Builder.add_block b) in
  (* Entry defines everything. *)
  Array.iter
    (fun r -> Ir.Builder.push b labels.(0) (Copy { dst = r; src = Const (Int 0) }))
    regs;
  let reg () = regs.(rand nregs) in
  Array.iteri
    (fun i l ->
      let n_instrs = rand 4 in
      for _ = 1 to n_instrs do
        match rand 3 with
        | 0 -> Ir.Builder.push b l (Copy { dst = reg (); src = Reg (reg ()) })
        | 1 ->
          Ir.Builder.push b l
            (Binop { op = Add; dst = reg (); l = Reg (reg ()); r = Reg (reg ()) })
        | _ ->
          Ir.Builder.push b l
            (Binop { op = Lt; dst = reg (); l = Reg (reg ()); r = Const (Int 3) })
      done;
      (* Terminator: mostly forward edges, some back edges, some returns.
         The entry block never returns so most blocks stay reachable. *)
      let target () = labels.(1 + rand (nblocks - 1)) in
      let t =
        if i = 0 then Ir.Jump labels.(if nblocks > 1 then 1 else 0)
        else
          match rand 5 with
          | 0 -> Ir.Return (Some (Reg (reg ())))
          | 1 | 2 -> Ir.Jump (target ())
          | _ ->
            Ir.Branch { cond = Reg (reg ()); if_true = target (); if_false = target () }
      in
      Ir.Builder.terminate b l t)
    labels;
  Ir.Builder.finish b

(* Deterministic PRNG for qcheck-independent generation. *)
let make_rand seed =
  let state = ref (seed * 2 + 1) in
  fun bound ->
    state := (!state * 1103515245) + 12345;
    abs (!state / 65536) mod bound

(* ------------------------------------------------------------------ *)
(* Reference implementations (oracles)                                 *)
(* ------------------------------------------------------------------ *)

(* Naive dominators: iterate Dom(b) = {b} ∪ ∩ Dom(preds) to fixpoint with
   list-based sets. O(n³)-ish but obviously correct. *)
let naive_dominators (f : Ir.func) =
  let cfg = Ir.Cfg.of_func f in
  let n = Ir.num_blocks f in
  let all = List.init n (fun i -> i) in
  let dom = Array.make n all in
  dom.(f.entry) <- [ f.entry ];
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      if b <> f.entry && Ir.Cfg.reachable cfg b then begin
        let preds = Ir.Cfg.preds_list cfg b in
        let inter =
          match preds with
          | [] -> all
          | p :: ps ->
            List.fold_left
              (fun acc q -> List.filter (fun x -> List.mem x dom.(q)) acc)
              dom.(p) ps
        in
        let next = List.sort_uniq compare (b :: inter) in
        if next <> dom.(b) then begin
          dom.(b) <- next;
          changed := true
        end
      end
    done
  done;
  fun a bb ->
    (* does a dominate bb? *)
    Ir.Cfg.reachable cfg bb && Ir.Cfg.reachable cfg a && List.mem a dom.(bb)

(* Naive liveness with list-sets, φ-aware in the same edge-based way. *)
let naive_liveness (f : Ir.func) =
  let cfg = Ir.Cfg.of_func f in
  let n = Ir.num_blocks f in
  let live_in = Array.make n [] in
  let live_out = Array.make n [] in
  let uses_b = Array.make n [] in
  let defs_b = Array.make n [] in
  Array.iter
    (fun (blk : Ir.block) ->
      let l = blk.label in
      let defs = ref [] in
      let uses = ref [] in
      List.iter (fun (p : Ir.phi) -> defs := p.dst :: !defs) blk.phis;
      List.iter
        (fun i ->
          List.iter
            (fun u -> if not (List.mem u !defs) then uses := u :: !uses)
            (Ir.uses i);
          Option.iter (fun d -> defs := d :: !defs) (Ir.def i))
        blk.body;
      List.iter
        (fun u -> if not (List.mem u !defs) then uses := u :: !uses)
        (Ir.term_uses blk.term);
      uses_b.(l) <- List.sort_uniq compare !uses;
      defs_b.(l) <- List.sort_uniq compare !defs)
    f.blocks;
  let phi_out = Array.make n [] in
  Array.iter
    (fun (blk : Ir.block) ->
      List.iter
        (fun (p : Ir.phi) ->
          List.iter
            (fun (pl, op) ->
              List.iter
                (fun r -> phi_out.(pl) <- r :: phi_out.(pl))
                (Ir.operand_uses op))
            p.args)
        blk.phis)
    f.blocks;
  let changed = ref true in
  while !changed do
    changed := false;
    for l = n - 1 downto 0 do
      let out =
        List.sort_uniq compare
          (phi_out.(l)
          @ List.concat_map (fun s -> live_in.(s)) (Ir.Cfg.succs_list cfg l))
      in
      let inb =
        List.sort_uniq compare
          (uses_b.(l) @ List.filter (fun r -> not (List.mem r defs_b.(l))) out)
      in
      if out <> live_out.(l) || inb <> live_in.(l) then begin
        live_out.(l) <- out;
        live_in.(l) <- inb;
        changed := true
      end
    done
  done;
  (live_in, live_out)

(* ------------------------------------------------------------------ *)
(* Interpreter-based equivalence                                       *)
(* ------------------------------------------------------------------ *)

let outcomes_equal = Interp.equivalent

let run_args = [ Ir.Int 7; Ir.Int 3 ]

let assert_equiv ?(args = run_args) name f g =
  let a = Interp.run ~args f in
  let b = Interp.run ~args g in
  checkb (name ^ ": same semantics") true (outcomes_equal a b)

(* Random but *terminating and fault-free* programs via the mini-language
   generator. *)
let random_program seed size =
  Workloads.Generator.generate_ir
    { Workloads.Generator.default with seed; size }
