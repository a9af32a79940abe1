(* Reference oracle for the stage validators: the straightforward,
   list-based formulation of [Ir.Validate] and [Ssa.Ssa_validate]. It
   re-runs [structure] as strictness's guard, builds a fresh CFG per
   check, formats a location string for every block and materialises
   every use list. The library's single-pass validators must return
   exactly the same [(where, what)] lists, in the same order
   (test_validate.ml). Test-only: nothing at runtime calls this. *)

open Support
module Cfg = Ir.Cfg
module Dominance = Analysis.Dominance

type error = Ir.Validate.error = {
  where : string;
  what : string;
}

let err where fmt = Format.kasprintf (fun what -> { where; what }) fmt

let structure (f : Ir.func) =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let n = Ir.num_blocks f in
  if n = 0 then add (err f.name "function has no blocks");
  let check_label where l =
    if l < 0 || l >= n then add (err where "label b%d out of range" l)
  in
  let check_reg where r =
    if r < 0 || r >= f.nregs then add (err where "register %d out of range" r)
  in
  if f.entry < 0 || f.entry >= n then
    add (err f.name "entry label b%d out of range" f.entry)
  else begin
    Array.iteri
      (fun l (b : Ir.block) ->
        let where = Printf.sprintf "%s/b%d" f.name l in
        if b.label <> l then
          add (err where "block label field is b%d, expected b%d" b.label l);
        List.iter (check_label where) (Ir.successors b.term);
        List.iter (check_reg where) (Ir.term_uses b.term);
        List.iter
          (fun i ->
            List.iter (check_reg where) (Ir.uses i);
            Option.iter (check_reg where) (Ir.def i))
          b.body;
        List.iter
          (fun (p : Ir.phi) ->
            check_reg where p.dst;
            List.iter
              (fun (pl, op) ->
                check_label where pl;
                List.iter (check_reg where) (Ir.operand_uses op))
              p.args)
          b.phis)
      f.blocks;
    if !errors = [] then begin
      let cfg = Cfg.of_func f in
      if Cfg.num_preds cfg f.entry > 0 then
        add (err f.name "entry block b%d has predecessors" f.entry);
      if f.blocks.(f.entry).phis <> [] then
        add (err f.name "entry block b%d has phi-nodes" f.entry);
      Array.iter
        (fun (b : Ir.block) ->
          if Cfg.reachable cfg b.label then begin
            let where = Printf.sprintf "%s/b%d" f.name b.label in
            let preds = Cfg.preds_list cfg b.label in
            List.iter
              (fun (p : Ir.phi) ->
                let arg_labels = List.map fst p.args in
                let sorted = List.sort_uniq compare arg_labels in
                if List.length sorted <> List.length arg_labels then
                  add (err where "phi for %s has duplicate argument labels"
                         (Ir.reg_name f p.dst));
                if sorted <> preds then
                  add (err where
                         "phi for %s has argument labels [%s], predecessors are [%s]"
                         (Ir.reg_name f p.dst)
                         (String.concat ";" (List.map string_of_int sorted))
                         (String.concat ";" (List.map string_of_int preds))))
              b.phis
          end)
        f.blocks
    end
  end;
  List.rev !errors

let strictness (f : Ir.func) =
  if structure f <> [] then [ err f.name "skipping strictness: structure invalid" ]
  else begin
    let errors = ref [] in
    let add e = errors := e :: !errors in
    let cfg = Cfg.of_func f in
    let n = Ir.num_blocks f in
    let full () =
      let s = Bitset.create f.nregs in
      for r = 0 to f.nregs - 1 do
        Bitset.add s r
      done;
      s
    in
    let out = Array.init n (fun _ -> full ()) in
    let gen = Array.init n (fun _ -> Bitset.create f.nregs) in
    Array.iter
      (fun (b : Ir.block) ->
        List.iter (fun (p : Ir.phi) -> Bitset.add gen.(b.label) p.dst) b.phis;
        List.iter
          (fun i -> Option.iter (Bitset.add gen.(b.label)) (Ir.def i))
          b.body)
      f.blocks;
    let entry_in = Bitset.create f.nregs in
    List.iter (Bitset.add entry_in) f.params;
    let in_of l =
      if l = f.entry then Bitset.copy entry_in
      else if Cfg.num_preds cfg l = 0 then Bitset.create f.nregs
      else begin
        let acc = Bitset.copy out.(Cfg.pred cfg l 0) in
        for i = 1 to Cfg.num_preds cfg l - 1 do
          Bitset.inter_into ~dst:acc out.(Cfg.pred cfg l i)
        done;
        acc
      end
    in
    let rpo = Cfg.reverse_postorder cfg in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun l ->
          let inb = in_of l in
          ignore (Bitset.union_into ~dst:inb gen.(l));
          if not (Bitset.equal inb out.(l)) then begin
            Bitset.blit ~src:inb ~dst:out.(l);
            changed := true
          end)
        rpo
    done;
    Array.iter
      (fun l ->
        let b = f.blocks.(l) in
        let where = Printf.sprintf "%s/b%d" f.name l in
        let live = in_of l in
        List.iter (fun (p : Ir.phi) -> Bitset.add live p.dst) b.phis;
        List.iter
          (fun i ->
            List.iter
              (fun r ->
                if not (Bitset.mem live r) then
                  add (err where "use of %s before definite assignment"
                         (Ir.reg_name f r)))
              (Ir.uses i);
            Option.iter (Bitset.add live) (Ir.def i))
          b.body;
        List.iter
          (fun r ->
            if not (Bitset.mem live r) then
              add (err where "terminator uses %s before definite assignment"
                     (Ir.reg_name f r)))
          (Ir.term_uses b.term);
        Cfg.iter_succs cfg l (fun s ->
            List.iter
              (fun (p : Ir.phi) ->
                List.iter
                  (fun (pl, op) ->
                    if pl = l then
                      List.iter
                        (fun r ->
                          if not (Bitset.mem live r) then
                            add (err where
                                   "phi argument %s (for %s in b%d) not definitely assigned"
                                   (Ir.reg_name f r) (Ir.reg_name f p.dst) s))
                        (Ir.operand_uses op))
                  p.args)
              f.blocks.(s).phis))
      rpo;
    List.rev !errors
  end

let run f = match structure f with [] -> strictness f | errs -> errs

let ssa_run (f : Ir.func) =
  match structure f with
  | _ :: _ as errs -> errs
  | [] ->
    let errors = ref [] in
    let add e = errors := e :: !errors in
    let cfg = Cfg.of_func f in
    let dom = Dominance.compute f cfg in
    let def_site = Array.make f.nregs None in
    let record where r site =
      match def_site.(r) with
      | Some _ ->
        add (err where "register %s has multiple definitions" (Ir.reg_name f r))
      | None -> def_site.(r) <- Some site
    in
    List.iter (fun p -> record f.name p (f.entry, -1)) f.params;
    Array.iter
      (fun (b : Ir.block) ->
        if Cfg.reachable cfg b.label then begin
          let where = Printf.sprintf "%s/b%d" f.name b.label in
          List.iter (fun (p : Ir.phi) -> record where p.dst (b.label, -1)) b.phis;
          List.iteri
            (fun i instr ->
              Option.iter (fun d -> record where d (b.label, i)) (Ir.def instr))
            b.body
        end)
      f.blocks;
    let check_use where r ~use_block ~use_index =
      match def_site.(r) with
      | None ->
        add (err where "use of %s, which has no definition" (Ir.reg_name f r))
      | Some (db, di) ->
        let dominated =
          if db = use_block then di < use_index
          else Dominance.strictly_dominates dom db use_block
        in
        if not dominated then
          add (err where "use of %s not dominated by its definition in b%d"
                 (Ir.reg_name f r) db)
    in
    Array.iter
      (fun (b : Ir.block) ->
        if Cfg.reachable cfg b.label then begin
          let where = Printf.sprintf "%s/b%d" f.name b.label in
          List.iteri
            (fun i instr ->
              List.iter
                (fun r -> check_use where r ~use_block:b.label ~use_index:i)
                (Ir.uses instr))
            b.body;
          let nbody = List.length b.body in
          List.iter
            (fun r -> check_use where r ~use_block:b.label ~use_index:nbody)
            (Ir.term_uses b.term);
          List.iter
            (fun (p : Ir.phi) ->
              List.iter
                (fun (pl, op) ->
                  List.iter
                    (fun r -> check_use where r ~use_block:pl ~use_index:max_int)
                    (Ir.operand_uses op))
                p.args)
            b.phis
        end)
      f.blocks;
    List.rev !errors
