open Support

type error = {
  where : string;
  what : string;
}

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.where e.what

let err where fmt = Format.kasprintf (fun what -> { where; what }) fmt

(* A block's location string, built only when an error is reported. *)
let at (f : Mir.func) l = Printf.sprintf "%s/b%d" f.name l

(* The wording of a φ's label errors. Runs only after the stamp test in
   [structure_cfg] has found a duplicate label or a mismatch with the
   predecessors, so the lists it builds are off the valid path. *)
let phi_label_errors add (f : Mir.func) cfg l (p : Mir.phi) =
  let where = at f l in
  let preds = Cfg.preds_list cfg l in
  let arg_labels = List.map fst p.args in
  let sorted = List.sort_uniq compare arg_labels in
  if List.length sorted <> List.length arg_labels then
    add (err where "phi for %s has duplicate argument labels" (Mir.reg_name f p.dst));
  if sorted <> preds then
    add (err where "phi for %s has argument labels [%s], predecessors are [%s]"
           (Mir.reg_name f p.dst)
           (String.concat ";" (List.map string_of_int sorted))
           (String.concat ";" (List.map string_of_int preds)))

(* Whether a φ of block [l] has distinct argument labels that are exactly
   [l]'s [npreds] predecessors: [pred_mark.(p) = l] marks those, and
   [arg_mark.(pl) = id] the labels this φ (stamp [id]) has already named. *)
let rec phi_labels_ok ~arg_mark ~pred_mark ~id l npreds distinct = function
  | [] -> distinct = npreds
  | (pl, _) :: rest ->
    arg_mark.(pl) <> id
    && pred_mark.(pl) = l
    && begin
      arg_mark.(pl) <- id;
      phi_labels_ok ~arg_mark ~pred_mark ~id l npreds (distinct + 1) rest
    end

let structure_cfg (f : Mir.func) =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let n = Mir.num_blocks f in
  if n = 0 then add (err f.name "function has no blocks");
  if f.entry < 0 || f.entry >= n then begin
    add (err f.name "entry label b%d out of range" f.entry);
    Error (List.rev !errors)
  end
  else begin
    (* Ranges: one walk over every block, [cur] naming the block in hand. *)
    let cur = ref 0 in
    let check_label l =
      if l < 0 || l >= n then add (err (at f !cur) "label b%d out of range" l)
    in
    let check_reg r =
      if r < 0 || r >= f.nregs then
        add (err (at f !cur) "register %d out of range" r)
    in
    let check_instr i =
      Mir.iter_uses check_reg i;
      Mir.iter_def check_reg i
    in
    let check_arg (pl, op) =
      check_label pl;
      Mir.iter_operand_uses check_reg op
    in
    let check_phi (p : Mir.phi) =
      check_reg p.dst;
      List.iter check_arg p.args
    in
    for l = 0 to n - 1 do
      cur := l;
      let b = f.blocks.(l) in
      if b.label <> l then
        add (err (at f l) "block label field is b%d, expected b%d" b.label l);
      (match b.term with
      | Jump s -> check_label s
      | Branch { if_true; if_false; _ } ->
        check_label if_true;
        check_label if_false
      | Return _ -> ());
      Mir.iter_term_uses check_reg b.term;
      List.iter check_instr b.body;
      List.iter check_phi b.phis
    done;
    if !errors <> [] then Error (List.rev !errors)
    else begin
      let cfg = Cfg.of_func f in
      if Cfg.num_preds cfg f.entry > 0 then
        add (err f.name "entry block b%d has predecessors" f.entry);
      if f.blocks.(f.entry).phis <> [] then
        add (err f.name "entry block b%d has phi-nodes" f.entry);
      (* φ labels against predecessors, by stamps: no list per φ. *)
      let pred_mark = Array.make n (-1) in
      let arg_mark = Array.make n (-1) in
      let stamp = ref 0 in
      for l = 0 to n - 1 do
        let b = f.blocks.(l) in
        if b.phis <> [] && Cfg.reachable cfg l then begin
          let npreds = Cfg.num_preds cfg l in
          for i = 0 to npreds - 1 do
            pred_mark.(Cfg.pred cfg l i) <- l
          done;
          List.iter
            (fun (p : Mir.phi) ->
              incr stamp;
              if not
                   (phi_labels_ok ~arg_mark ~pred_mark ~id:!stamp l npreds 0
                      p.args)
              then phi_label_errors add f cfg l p)
            b.phis
        end
      done;
      if !errors = [] then Ok cfg else Error (List.rev !errors)
    end
  end

let structure f =
  match structure_cfg f with Ok _ -> [] | Error errs -> errs

(* Definite assignment: forward must-analysis. IN(b) = ∩ OUT(p) over
   predecessors; a φ defines its target at block entry; a φ argument is a use
   at the end of the corresponding predecessor. [cfg] is the structurally
   valid function's CFG, from [structure_cfg]. *)
let strictness_on (f : Mir.func) cfg =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let n = Mir.num_blocks f in
  let nregs = f.nregs in
  let out =
    Array.init n (fun _ ->
        let s = Bitset.create nregs in
        Bitset.fill s;
        s)
  in
  let gen = Array.init n (fun _ -> Bitset.create nregs) in
  let cur_gen = ref gen.(0) in
  let add_gen r = Bitset.add !cur_gen r in
  let gen_phi (p : Mir.phi) = add_gen p.dst in
  let gen_instr i = Mir.iter_def add_gen i in
  for l = 0 to n - 1 do
    cur_gen := gen.(l);
    List.iter gen_phi f.blocks.(l).phis;
    List.iter gen_instr f.blocks.(l).body
  done;
  let entry_in = Bitset.create nregs in
  List.iter (Bitset.add entry_in) f.params;
  (* One [in] set, overwritten with IN(l) for each block in turn. *)
  let inb = Bitset.create nregs in
  let load_in l =
    if l = f.entry then Bitset.blit ~src:entry_in ~dst:inb
    else begin
      let np = Cfg.num_preds cfg l in
      if np = 0 then Bitset.clear inb
      else begin
        Bitset.blit ~src:out.(Cfg.pred cfg l 0) ~dst:inb;
        for i = 1 to np - 1 do
          Bitset.inter_into ~dst:inb out.(Cfg.pred cfg l i)
        done
      end
    end
  in
  let rpo = Cfg.reverse_postorder cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun l ->
        load_in l;
        ignore (Bitset.union_into ~dst:inb gen.(l));
        if not (Bitset.equal inb out.(l)) then begin
          Bitset.blit ~src:inb ~dst:out.(l);
          changed := true
        end)
      rpo
  done;
  (* Re-walk each block tracking point-wise definedness in [inb]. [cur] is
     the block in hand; [succ] and [phi_dst] name the successor φ whose
     arguments are being checked. *)
  let cur = ref 0 and succ = ref 0 and phi_dst = ref 0 in
  let use r =
    if not (Bitset.mem inb r) then
      add (err (at f !cur) "use of %s before definite assignment"
             (Mir.reg_name f r))
  in
  let define r = Bitset.add inb r in
  let walk_instr i =
    Mir.iter_uses use i;
    Mir.iter_def define i
  in
  let term_use r =
    if not (Bitset.mem inb r) then
      add (err (at f !cur) "terminator uses %s before definite assignment"
             (Mir.reg_name f r))
  in
  let arg_use r =
    if not (Bitset.mem inb r) then
      add (err (at f !cur) "phi argument %s (for %s in b%d) not definitely assigned"
             (Mir.reg_name f r) (Mir.reg_name f !phi_dst) !succ)
  in
  let succ_arg (pl, op) = if pl = !cur then Mir.iter_operand_uses arg_use op in
  let succ_phi (p : Mir.phi) =
    phi_dst := p.dst;
    List.iter succ_arg p.args
  in
  let define_phi (p : Mir.phi) = define p.dst in
  Array.iter
    (fun l ->
      let b = f.blocks.(l) in
      cur := l;
      load_in l;
      List.iter define_phi b.phis;
      List.iter walk_instr b.body;
      Mir.iter_term_uses term_use b.term;
      (* φ arguments of successors are uses at the end of this block. *)
      for i = 0 to Cfg.num_succs cfg l - 1 do
        succ := Cfg.succ cfg l i;
        List.iter succ_phi f.blocks.(!succ).phis
      done)
    rpo;
  List.rev !errors

let strictness f =
  match structure_cfg f with
  | Ok cfg -> strictness_on f cfg
  | Error _ -> [ err f.name "skipping strictness: structure invalid" ]

let run f =
  match structure_cfg f with Ok cfg -> strictness_on f cfg | Error errs -> errs

let check_exn f =
  match run f with
  | [] -> ()
  | errs ->
    let msg =
      String.concat "\n"
        (List.map (fun e -> Format.asprintf "%a" pp_error e) errs)
    in
    failwith ("IR validation failed:\n" ^ msg)
