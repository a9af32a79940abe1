(* Reference oracle for SSA construction: [Ssa.Construct.run] as it was
   before φ placement used iteration stamps. Definition sites are [Iset]s,
   every variable with a definition allocates two fresh block-indexed
   [bool] arrays for its worklist (O(variables × blocks) per call), and
   renaming formats every name with [Printf]. The library's construction
   must return exactly the same function, hints, register count and stats
   under every pruning (test_ssa.ml). Test-only: nothing at runtime calls
   this. *)

open Support
module Cfg = Ir.Cfg
module Dominance = Analysis.Dominance
module Liveness = Analysis.Liveness

type pruning = Ssa.Construct.pruning = Minimal | Semi_pruned | Pruned

type stats = Ssa.Construct.stats = {
  phis_inserted : int;
  copies_folded : int;
}

(* A φ being assembled during renaming: the target SSA name plus the
   argument for each incoming edge, filled in as predecessors are visited. *)
type proto_phi = {
  var : Ir.reg; (* original variable *)
  mutable ssa_dst : Ir.reg;
  mutable filled : (Ir.label * Ir.operand) list;
}

let run ?(pruning = Pruned) ?(fold_copies = true) ?obs (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let dom = Dominance.compute f cfg in
  let n = Ir.num_blocks f in
  (* Definition sites per original variable. Parameters count as definitions
     in the entry block. *)
  let def_blocks = Array.make f.nregs Iset.empty in
  List.iter
    (fun p -> def_blocks.(p) <- Iset.add f.entry def_blocks.(p))
    f.params;
  Array.iter
    (fun (b : Ir.block) ->
      if Cfg.reachable cfg b.label then
        List.iter
          (fun i ->
            Option.iter
              (fun d -> def_blocks.(d) <- Iset.add b.label def_blocks.(d))
              (Ir.def i))
          b.body)
    f.blocks;
  (* Pruning predicate: does variable v need a φ at block l? *)
  let needs_phi =
    match pruning with
    | Minimal -> fun _v _l -> true
    | Semi_pruned ->
      (* Non-local names: upward-exposed in some block. [killed.(u) = l]
         stamps u as defined earlier in block l — a dense stand-in for a
         per-block kill table. *)
      let nonlocal = Array.make f.nregs false in
      let killed = Array.make f.nregs (-1) in
      Array.iter
        (fun (b : Ir.block) ->
          let l = b.label in
          List.iter
            (fun i ->
              List.iter
                (fun u -> if killed.(u) <> l then nonlocal.(u) <- true)
                (Ir.uses i);
              Option.iter (fun d -> killed.(d) <- l) (Ir.def i))
            b.body;
          List.iter
            (fun u -> if killed.(u) <> l then nonlocal.(u) <- true)
            (Ir.term_uses b.term))
        f.blocks;
      fun v _l -> nonlocal.(v)
    | Pruned ->
      let live = Liveness.compute ?obs f cfg in
      fun v l -> Liveness.live_in_mem live l v
  in
  (* Iterated dominance frontier: standard worklist per variable. The
     pending φs live in a label-indexed array — labels are dense ids. *)
  let phi_at : proto_phi list ref array = Array.init n (fun _ -> ref []) in
  let phis_of l = phi_at.(l) in
  let phis_inserted = ref 0 in
  for v = 0 to f.nregs - 1 do
    if not (Iset.is_empty def_blocks.(v)) then begin
      let has_phi = Array.make n false in
      let in_work = Array.make n false in
      let work = ref [] in
      Iset.iter
        (fun l ->
          if Cfg.reachable cfg l then begin
            in_work.(l) <- true;
            work := l :: !work
          end)
        def_blocks.(v);
      while !work <> [] do
        match !work with
        | [] -> ()
        | l :: rest ->
          work := rest;
          List.iter
            (fun d ->
              if (not has_phi.(d)) && needs_phi v d then begin
                has_phi.(d) <- true;
                incr phis_inserted;
                let r = phis_of d in
                r := { var = v; ssa_dst = -1; filled = [] } :: !r;
                if not in_work.(d) then begin
                  in_work.(d) <- true;
                  work := d :: !work
                end
              end)
            (Dominance.frontier dom l)
      done
    end
  done;
  (* Renaming: dominator-tree walk with a stack of current operands per
     original variable. Copy folding pushes the source operand instead of
     minting a new name. *)
  let next = ref 0 in
  let hints = ref Imap.empty in
  let version = Array.make f.nregs 0 in
  let fresh_name v =
    let r = !next in
    incr next;
    let base =
      match Imap.find_opt v f.hints with
      | Some s -> s
      | None -> Printf.sprintf "r%d" v
    in
    hints := Imap.add r (Printf.sprintf "%s.%d" base version.(v)) !hints;
    version.(v) <- version.(v) + 1;
    r
  in
  let stacks : Ir.operand list array = Array.make f.nregs [] in
  let current v =
    match stacks.(v) with
    | top :: _ -> top
    | [] ->
      (* Only reachable for dead φ arguments of non-pruned forms on paths
         where the variable is not defined; the φ result is dead there, so
         any placeholder is safe. *)
      Ir.Const (Ir.Int 0)
  in
  let copies_folded = ref 0 in
  (* New parameters first, so their SSA names are stable. *)
  let new_params =
    List.map
      (fun p ->
        let sn = fresh_name p in
        stacks.(p) <- [ Ir.Reg sn ] ;
        sn)
      f.params
  in
  let new_body = Array.make n [] in
  let new_term = Array.make n (Ir.Return None) in
  let rec rename (l : Ir.label) =
    let b = f.blocks.(l) in
    let pushed = ref [] in
    let push v op =
      stacks.(v) <- op :: stacks.(v);
      pushed := v :: !pushed
    in
    List.iter
      (fun (pp : proto_phi) ->
        let sn = fresh_name pp.var in
        pp.ssa_dst <- sn;
        push pp.var (Ir.Reg sn))
      !(phis_of l);
    let body =
      List.filter_map
        (fun i ->
          let i = Ir.map_instr_uses (fun r -> current r) i in
          match i with
          | Ir.Copy { dst; src } when fold_copies ->
            incr copies_folded;
            push dst src;
            None
          | _ -> (
            match Ir.def i with
            | None -> Some i
            | Some d ->
              let sn = fresh_name d in
              push d (Ir.Reg sn);
              Some (Ir.map_instr_def (fun _ -> sn) i)))
        b.body
    in
    new_body.(l) <- body;
    new_term.(l) <- Ir.map_term_uses (fun r -> current r) b.term;
    (* Fill φ arguments of CFG successors for the edge from this block. *)
    Cfg.iter_succs cfg l (fun s ->
        List.iter
          (fun (pp : proto_phi) -> pp.filled <- (l, current pp.var) :: pp.filled)
          !(phis_of s));
    List.iter rename (Dominance.children dom l);
    List.iter
      (fun v ->
        match stacks.(v) with
        | _ :: rest -> stacks.(v) <- rest
        | [] -> assert false)
      !pushed
  in
  rename f.entry;
  Option.iter
    (fun o ->
      Obs.add o Obs.Phis_inserted !phis_inserted;
      Obs.add o Obs.Copies_folded !copies_folded)
    obs;
  let blocks =
    Array.init n (fun l ->
        let b = f.blocks.(l) in
        if not (Cfg.reachable cfg l) then
          (* Unreachable blocks are dropped to a trivial return; they carry
             stale register names otherwise. *)
          { b with phis = []; body = []; term = Ir.Return None }
        else begin
          let phis =
            List.rev_map
              (fun (pp : proto_phi) ->
                {
                  Ir.dst = pp.ssa_dst;
                  args = List.sort compare pp.filled;
                })
              !(phis_of l)
          in
          { b with phis; body = new_body.(l); term = new_term.(l) }
        end)
  in
  ( {
      f with
      params = new_params;
      blocks;
      nregs = !next;
      hints = !hints;
    },
    { phis_inserted = !phis_inserted; copies_folded = !copies_folded } )

let run_exn ?pruning ?fold_copies ?obs f = fst (run ?pruning ?fold_copies ?obs f)
