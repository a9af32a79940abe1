let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\l"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let block_label ~instructions names (b : Mir.block) =
  if not instructions then Printf.sprintf "b%d" b.label
  else begin
    let buf = Buffer.create 128 in
    Buffer.add_string buf (Printf.sprintf "b%d:\n" b.label);
    let line add x =
      add names buf x;
      Buffer.add_char buf '\n'
    in
    List.iter (line Printer.add_phi) b.phis;
    List.iter (line Printer.add_instr) b.body;
    line Printer.add_terminator b.term;
    Buffer.contents buf
  end

let cfg ?(instructions = true) (f : Mir.func) =
  let names = Printer.reg_names f in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "digraph \"%s\" {\n  node [shape=box, fontname=monospace];\n"
       (escape f.name));
  Array.iter
    (fun (b : Mir.block) ->
      Buffer.add_string buf
        (Printf.sprintf "  b%d [label=\"%s\"%s];\n" b.label
           (escape (block_label ~instructions names b))
           (if b.label = f.entry then ", penwidth=2" else ""));
      List.iter
        (fun s -> Buffer.add_string buf (Printf.sprintf "  b%d -> b%d;\n" b.label s))
        (List.sort_uniq compare (Mir.successors b.term)))
    f.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let dominator_tree (f : Mir.func) =
  let cfg_t = Cfg.of_func f in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "digraph \"%s-domtree\" {\n  node [shape=circle, fontname=monospace];\n"
       (escape f.name));
  (* Immediate-dominator edges, computed here with the naive definition to
     keep this module independent of lib/analysis (dominance lives there;
     this is a visualisation aid). *)
  let n = Mir.num_blocks f in
  let all = List.init n (fun i -> i) in
  let dom = Array.make n all in
  dom.(f.entry) <- [ f.entry ];
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> f.entry && Cfg.reachable cfg_t b then begin
          let inter =
            match Cfg.preds_list cfg_t b with
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
        end)
      all
  done;
  List.iter
    (fun b ->
      if Cfg.reachable cfg_t b then begin
        Buffer.add_string buf (Printf.sprintf "  b%d;\n" b);
        if b <> f.entry then begin
          (* idom = the strict dominator dominated by all other strict
             dominators. *)
          let strict = List.filter (fun d -> d <> b) dom.(b) in
          let idom =
            List.find_opt
              (fun d -> List.for_all (fun d' -> List.mem d' dom.(d)) strict)
              strict
          in
          Option.iter
            (fun d -> Buffer.add_string buf (Printf.sprintf "  b%d -> b%d;\n" d b))
            idom
        end;
        List.iter
          (fun s ->
            Buffer.add_string buf
              (Printf.sprintf "  b%d -> b%d [style=dashed, color=gray];\n" b s))
          (Cfg.succs_list cfg_t b)
      end)
    all;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
