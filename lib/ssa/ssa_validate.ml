module Cfg = Ir.Cfg
module Dominance = Analysis.Dominance

type error = Ir.Validate.error

let err where fmt =
  Format.kasprintf (fun what -> { Ir.Validate.where; what }) fmt

let run (f : Ir.func) : error list =
  match Ir.Validate.structure_cfg f with
  | Error errs -> errs
  | Ok cfg ->
    let errors = ref [] in
    let add e = errors := e :: !errors in
    let dom = Dominance.compute f cfg in
    (* [loc] is the block being walked, for error locations; -1 stands for
       the function itself (its parameters). Location strings are built
       only when an error is reported. *)
    let loc = ref (-1) in
    let where () =
      if !loc < 0 then f.name else Printf.sprintf "%s/b%d" f.name !loc
    in
    (* The unique definition of every register: block [def_block.(r)]
       (-1: none yet) at index [def_index.(r)], where -1 means φ/parameter
       (top of block). *)
    let def_block = Array.make f.nregs (-1) in
    let def_index = Array.make f.nregs 0 in
    let site_block = ref f.entry and site_index = ref (-1) in
    let record r =
      if def_block.(r) >= 0 then
        add (err (where ()) "register %s has multiple definitions"
               (Ir.reg_name f r))
      else begin
        def_block.(r) <- !site_block;
        def_index.(r) <- !site_index
      end
    in
    List.iter record f.params;
    let record_phi (p : Ir.phi) = record p.dst in
    let record_instr instr =
      Ir.iter_def record instr;
      incr site_index
    in
    Array.iter
      (fun (b : Ir.block) ->
        if Cfg.reachable cfg b.label then begin
          loc := b.label;
          site_block := b.label;
          site_index := -1;
          List.iter record_phi b.phis;
          site_index := 0;
          List.iter record_instr b.body
        end)
      f.blocks;
    (* A use in block [use_block] at [use_index] (max_int: the end of the
       block, where a φ argument flows out of its predecessor). *)
    let use_block = ref 0 and use_index = ref 0 in
    let check_use r =
      let db = def_block.(r) in
      if db < 0 then
        add (err (where ()) "use of %s, which has no definition" (Ir.reg_name f r))
      else begin
        let dominated =
          if db = !use_block then def_index.(r) < !use_index
          else Dominance.strictly_dominates dom db !use_block
        in
        if not dominated then
          add (err (where ()) "use of %s not dominated by its definition in b%d"
                 (Ir.reg_name f r) db)
      end
    in
    let check_instr instr =
      Ir.iter_uses check_use instr;
      incr use_index
    in
    let check_arg (pl, op) =
      use_block := pl;
      Ir.iter_operand_uses check_use op
    in
    let check_phi (p : Ir.phi) = List.iter check_arg p.args in
    Array.iter
      (fun (b : Ir.block) ->
        if Cfg.reachable cfg b.label then begin
          loc := b.label;
          use_block := b.label;
          use_index := 0;
          List.iter check_instr b.body;
          (* [use_index] is now the body length: the terminator's slot. *)
          Ir.iter_term_uses check_use b.term;
          use_index := max_int;
          List.iter check_phi b.phis
        end)
      f.blocks;
    List.rev !errors

let check_exn f =
  match run f with
  | [] -> ()
  | errs ->
    let msg =
      String.concat "\n"
        (List.map (fun e -> Format.asprintf "%a" Ir.Validate.pp_error e) errs)
    in
    failwith ("SSA validation failed:\n" ^ msg)
