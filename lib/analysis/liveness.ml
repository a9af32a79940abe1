open Support
module Cfg = Ir.Cfg

type t = {
  live_in : Bitset.t array;
  live_out : Bitset.t array;
}

(* Backward worklist solver. The sets only ever grow (the framework starts
   from bottom and every transfer is monotone), so both equations can be
   accumulated in place with [union_into] — no per-block copies and no
   equality scans per sweep:

     live_out(l) ⊇ phi_out(l) ∪ ⋃ live_in(succ)   (phi_out seeds live_out)
     live_in(l)  ⊇ gen(l) ∪ (live_out(l) \ kill(l))

   Blocks are seeded in postorder (successors first, the natural order for
   a backward problem); a block re-enters the worklist only when the
   live-in of one of its successors actually grew. *)
let compute_renamed_into ~scratch ?obs ~find (f : Ir.func) cfg =
  let n = Ir.num_blocks f in
  let nr = f.nregs in
  let bs () = Scratch.acquire_bitset scratch nr in
  let live_in = Array.init n (fun _ -> bs ()) in
  let live_out = Array.init n (fun _ -> bs ()) in
  (* Upward-exposed uses and kills per block, with every register mapped
     through [find] — this computes the liveness of the renamed program
     without materializing it. φ arguments are charged to the predecessor
     below, not here; φ targets are kills at the block top. *)
  let gen = Array.init n (fun _ -> bs ()) in
  let kill = Array.init n (fun _ -> bs ()) in
  Array.iter
    (fun (b : Ir.block) ->
      let l = b.label in
      let gen = gen.(l) and kill = kill.(l) in
      let use r =
        let r = find r in
        if not (Bitset.mem kill r) then Bitset.add gen r
      in
      let def d = Bitset.add kill (find d) in
      List.iter (fun (p : Ir.phi) -> def p.dst) b.phis;
      List.iter
        (fun i ->
          Ir.iter_uses use i;
          Ir.iter_def def i)
        b.body;
      Ir.iter_term_uses use b.term)
    f.blocks;
  (* φ argument registers are uses at the end of the predecessor they flow
     out of: seed them straight into the predecessor's live-out. *)
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (p : Ir.phi) ->
          List.iter
            (fun (pl, op) ->
              Ir.iter_operand_uses
                (fun r -> Bitset.add live_out.(pl) (find r))
                op)
            p.args)
        b.phis)
    f.blocks;
  let po = Cfg.postorder cfg in
  (* Ring-buffer worklist; [on_list] dedups, so it holds ≤ n entries. *)
  let queue = Scratch.acquire_int_array scratch (n + 1) 0 in
  let on_list = Scratch.acquire_int_array scratch n 0 in
  let head = ref 0 and tail = ref 0 in
  let push l =
    if on_list.(l) = 0 then begin
      on_list.(l) <- 1;
      queue.(!tail) <- l;
      tail := (!tail + 1) mod (n + 1)
    end
  in
  Array.iter push po;
  let tmp = bs () in
  let pops = ref 0 in
  while !head <> !tail do
    let l = queue.(!head) in
    head := (!head + 1) mod (n + 1);
    on_list.(l) <- 0;
    incr pops;
    Cfg.iter_succs cfg l (fun s ->
        ignore (Bitset.union_into ~dst:live_out.(l) live_in.(s)));
    Bitset.blit ~src:live_out.(l) ~dst:tmp;
    Bitset.diff_into ~dst:tmp kill.(l);
    ignore (Bitset.union_into ~dst:tmp gen.(l));
    if Bitset.union_into ~dst:live_in.(l) tmp then
      Cfg.iter_preds cfg l push
  done;
  Scratch.release_bitset scratch tmp;
  Array.iter (Scratch.release_bitset scratch) gen;
  Array.iter (Scratch.release_bitset scratch) kill;
  Scratch.release_int_array scratch queue;
  Scratch.release_int_array scratch on_list;
  Option.iter (fun o -> Obs.add o Obs.Liveness_worklist_pops !pops) obs;
  { live_in; live_out }

let compute_into ~scratch ?obs f cfg =
  compute_renamed_into ~scratch ?obs ~find:Fun.id f cfg

let compute ?obs f cfg = compute_into ~scratch:(Scratch.create ()) ?obs f cfg

let compute_renamed ?obs ~find f cfg =
  compute_renamed_into ~scratch:(Scratch.create ()) ?obs ~find f cfg

let release scratch t =
  Array.iter (Scratch.release_bitset scratch) t.live_in;
  Array.iter (Scratch.release_bitset scratch) t.live_out

let live_in t l = t.live_in.(l)
let live_out t l = t.live_out.(l)
let live_in_mem t l r = Bitset.mem t.live_in.(l) r
let live_out_mem t l r = Bitset.mem t.live_out.(l) r

let memory_bytes t =
  Array.fold_left (fun acc s -> acc + Bitset.memory_bytes s) 0 t.live_in
  + Array.fold_left (fun acc s -> acc + Bitset.memory_bytes s) 0 t.live_out

let interfere_at_bounds t v1 b1 v2 b2 =
  ignore b1;
  ignore b2;
  Bitset.mem t.live_in.(b2) v1 || Bitset.mem t.live_in.(b1) v2
