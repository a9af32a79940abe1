(** SSA construction (Cytron et al.) with the engineering choices the paper
    assumes.

    φ-placement flavours:
    - {b Minimal}: φ at every iterated-dominance-frontier block of each
      variable's definition sites.
    - {b Semi_pruned}: only for variables that are upward-exposed in some
      block (Briggs et al.'s "non-local names").
    - {b Pruned}: only where the variable is live-in — what the paper builds
      ("we build pruned SSA to make the reasoning simpler").

    [fold_copies] enables copy folding during renaming: a [Copy] whose
    source is available is deleted and its destination's uses rewritten to
    the source operand, so the only copies that survive to the φ-congruence
    world are the ones φ-instantiation will have to reinsert — exactly the
    setup of the paper's optimistic algorithm. *)

type pruning = Minimal | Semi_pruned | Pruned

type stats = {
  phis_inserted : int;
  copies_folded : int;
}

val run :
  ?pruning:pruning -> ?fold_copies:bool -> ?obs:Obs.t -> Ir.func ->
  Ir.func * stats
(** Convert a strict function to SSA form. Default [pruning] is [Pruned],
    default [fold_copies] is [true]. The input must pass
    {!Ir.Validate.run}. [obs] charges [Obs.Phis_inserted] and
    [Obs.Copies_folded] (and the pruning liveness pass, when run).

    Cost, for N blocks, V variables and I instructions: dominators, one
    def walk and one renaming walk, plus φ placement in
    O(N + V + Σ|DF| visits) — the worklist arrays are allocated once per
    call and stamped with the current variable, never cleared. [Pruned]
    adds a liveness solve over V-bit sets (O(V/64) per set operation);
    [Semi_pruned] one use walk. The hints of the result name each SSA
    register [<base>.<k>], where [<base>] is the variable's hint or
    [r<v>]. *)

val run_exn :
  ?pruning:pruning -> ?fold_copies:bool -> ?obs:Obs.t -> Ir.func -> Ir.func
(** {!run} without the statistics. *)
