(* Reference oracle for the allocator's simplify/select: the loop
   [Regalloc.try_color] had before worklists and adjacency rows. Every
   degree and neighbour set is a full O(n) scan of the interference
   matrix, and simplify restarts its 0..n-1 scan after every removal, so a
   round costs O(n²). [Regalloc.try_color] must return exactly the same
   colorings and spill lists (test_regalloc.ml). Test-only: nothing at
   runtime calls this. *)

module Igraph = Baseline.Igraph

let neighbors graph n r =
  List.filter (Igraph.interferes graph r) (List.init n Fun.id)

(* Cheapest not-yet-removed node by the chosen metric, spill temporaries
   only when nothing else remains; ties go to the lowest index. *)
let spill_candidate ~(options : Regalloc.options) ~is_temp ~removed ~degree
    costs n =
  let best = ref (-1) in
  let best_m = ref infinity in
  let consider ~temps_only =
    for r = 0 to n - 1 do
      if (not removed.(r)) && is_temp r = temps_only then begin
        let m =
          match options.spill_metric with
          | Regalloc.Plain_cost -> costs.(r)
          | Cost_over_degree -> costs.(r) /. float_of_int (max 1 degree.(r))
        in
        if !best < 0 || m < !best_m then begin
          best_m := m;
          best := r
        end
      end
    done
  in
  consider ~temps_only:false;
  if !best < 0 then consider ~temps_only:true;
  !best

let select ~k graph n stack =
  let colors = Array.make n (-1) in
  let spills = ref [] in
  List.iter
    (fun r ->
      let used = Array.make k false in
      List.iter
        (fun x -> if colors.(x) >= 0 then used.(colors.(x)) <- true)
        (neighbors graph n r);
      let rec first c =
        if c >= k then None else if used.(c) then first (c + 1) else Some c
      in
      match first 0 with
      | Some c -> colors.(r) <- c
      | None -> spills := r :: !spills)
    stack;
  if !spills = [] then Ok colors else Error !spills

let try_color ~(options : Regalloc.options) ~is_temp (f : Ir.func) graph costs
    =
  let n = f.nregs in
  let k = options.registers in
  let degree = Array.init n (fun r -> List.length (neighbors graph n r)) in
  let removed = Array.make n false in
  let stack = ref [] in
  let remaining = ref n in
  let remove r =
    removed.(r) <- true;
    stack := r :: !stack;
    decr remaining;
    List.iter
      (fun x -> if not removed.(x) then degree.(x) <- degree.(x) - 1)
      (neighbors graph n r)
  in
  while !remaining > 0 do
    let found = ref false in
    for r = 0 to n - 1 do
      if (not removed.(r)) && degree.(r) < k && not !found then begin
        found := true;
        remove r
      end
    done;
    if not !found then
      remove (spill_candidate ~options ~is_temp ~removed ~degree costs n)
  done;
  select ~k graph n !stack
