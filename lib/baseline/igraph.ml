open Support
module Cfg = Ir.Cfg
module Liveness = Analysis.Liveness

type t = {
  matrix : Bit_matrix.t;
  index : int array option;  (* reg -> compact index; None = identity (full) *)
  nodes : int;
  mutable edges : int;
  mapping_bytes : int;
}

let idx t r =
  match t.index with
  | None -> r
  | Some map ->
    let i = map.(r) in
    if i < 0 then
      invalid_arg "Igraph: register is not a member of the restricted graph";
    i

let add_edge t a b =
  if a <> b then begin
    let ia = idx t a and ib = idx t b in
    if not (Bit_matrix.get t.matrix ia ib) then begin
      Bit_matrix.set t.matrix ia ib;
      t.edges <- t.edges + 1
    end
  end

(* Chaitin's backward walk: at each definition, the target interferes with
   everything currently live, except that a copy's source is taken out of
   the live set first so the copy itself never creates the edge that would
   forbid coalescing it. *)
let scan ?(find = Fun.id) (f : Ir.func) cfg live ~member ~record =
  (* With [find], the walk behaves exactly as it would on the function
     rewritten through [find]: every register read from the code is mapped
     first ([live] must then be the renamed liveness, whose sets already
     hold representative names). *)
  (* Parameters are parallel definitions at the entry: each interferes with
     whatever is live into the entry and with its sibling parameters. *)
  let entry_in = Liveness.live_in live (Cfg.entry cfg) in
  List.iter
    (fun p ->
      let p = find p in
      if member p then begin
        Bitset.iter (fun l -> if member l then record p l) entry_in;
        List.iter
          (fun q ->
            let q = find q in
            if q <> p && member q then record p q)
          f.params
      end)
    f.params;
  Array.iter
    (fun (b : Ir.block) ->
      if Cfg.reachable cfg b.label then begin
        if b.phis <> [] then
          invalid_arg "Igraph: function still contains phi-nodes";
        let set = Bitset.copy (Liveness.live_out live b.label) in
        List.iter (fun r -> Bitset.add set (find r)) (Ir.term_uses b.term);
        List.iter
          (fun instr ->
            (match Ir.def instr with
            | Some d ->
              let d = find d in
              (match instr with
              | Ir.Copy { src = Ir.Reg s; _ } -> Bitset.remove set (find s)
              | _ -> ());
              if member d then
                Bitset.iter (fun l -> if member l then record d l) set;
              Bitset.remove set d
            | None -> ());
            List.iter (fun r -> Bitset.add set (find r)) (Ir.uses instr))
          (List.rev b.body)
      end)
    f.blocks

let build_full (f : Ir.func) cfg live =
  let t =
    {
      matrix = Bit_matrix.create f.nregs;
      index = None;
      nodes = f.nregs;
      edges = 0;
      mapping_bytes = 0;
    }
  in
  scan f cfg live ~member:(fun _ -> true) ~record:(fun a b -> add_edge t a b);
  t

let build_restricted_gen ?find (f : Ir.func) cfg live ~members =
  let map = Array.make f.nregs (-1) in
  let n = ref 0 in
  List.iter
    (fun r ->
      if map.(r) < 0 then begin
        map.(r) <- !n;
        incr n
      end)
    members;
  let t =
    {
      matrix = Bit_matrix.create !n;
      index = Some map;
      nodes = !n;
      edges = 0;
      (* One word per register for the mapping array, as the paper
         describes. *)
      mapping_bytes = 4 * f.nregs;
    }
  in
  scan ?find f cfg live
    ~member:(fun r -> map.(r) >= 0)
    ~record:(fun a b -> add_edge t a b);
  t

let build_restricted f cfg live ~members =
  build_restricted_gen f cfg live ~members

let build_restricted_renamed f cfg live ~find ~members =
  build_restricted_gen ~find f cfg live ~members

let interferes t a b = a <> b && Bit_matrix.get t.matrix (idx t a) (idx t b)

(* The matrix yields its pairs (i, j), i > j, in triangular order, so row
   u first receives its own row's j < u ascending, then the i > u of later
   rows ascending: every row comes out sorted. One array per row rather
   than one flat array: rows are short, so they are allocated on the minor
   heap and die there, where a flat array of 2 × edges words would be a
   fresh major-heap block every allocator round. *)
let adjacency t =
  let fill = Array.make t.nodes 0 in
  Bit_matrix.iter_pairs t.matrix (fun i j ->
      fill.(i) <- fill.(i) + 1;
      fill.(j) <- fill.(j) + 1);
  let rows = Array.map (fun d -> Array.make d 0) fill in
  Array.fill fill 0 t.nodes 0;
  let add u v =
    rows.(u).(fill.(u)) <- v;
    fill.(u) <- fill.(u) + 1
  in
  Bit_matrix.iter_pairs t.matrix (fun i j ->
      add i j;
      add j i);
  rows

let merge t ~into b =
  let ia = idx t into and ib = idx t b in
  if ia <> ib then
    for x = 0 to t.nodes - 1 do
      if x <> ia && Bit_matrix.get t.matrix ib x && not (Bit_matrix.get t.matrix ia x)
      then begin
        Bit_matrix.set t.matrix ia x;
        t.edges <- t.edges + 1
      end
    done

let num_nodes t = t.nodes
let num_edges t = t.edges
let matrix_bytes t = Bit_matrix.memory_bytes t.matrix
let memory_bytes t = matrix_bytes t + t.mapping_bytes
