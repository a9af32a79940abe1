(** Chaitin-style interference graphs over φ-free code.

    Names are nodes; an edge means the two names are simultaneously live
    somewhere (with Chaitin's refinement that a copy [d := s] does not by
    itself make [d] and [s] interfere). The graph is stored as the
    classic triangular bit matrix and nothing else, so {!memory_bytes}
    reports exactly the quantity the paper's Table 1 compares: n²∕2 bits
    over the chosen name universe. {!interferes} is O(1); {!merge} is
    O(nodes).

    No adjacency lists are kept beside the matrix. A client that walks
    neighbourhoods (the register allocator's simplify/select) derives
    them once, from the finished graph, with {!adjacency}; the coalescers
    only test single pairs and never build them.

    The {b full} build uses every register of the function — what Briggs'
    original allocator does. The {b restricted} build (the paper's Briggs*
    improvement, Section 4.1) takes only the names involved in copies and
    keeps a reg→compact-index mapping array, shrinking the matrix
    quadratically while answering the only queries the coalescer makes. *)

type t

val build_full : Ir.func -> Ir.Cfg.t -> Analysis.Liveness.t -> t
(** Graph over all registers. The function must have no φ-nodes. *)

val build_restricted :
  Ir.func -> Ir.Cfg.t -> Analysis.Liveness.t -> members:Ir.reg list -> t
(** Graph restricted to [members]; edges between non-members are not
    recorded. *)

val build_restricted_renamed :
  Ir.func ->
  Ir.Cfg.t ->
  Analysis.Liveness.t ->
  find:(Ir.reg -> Ir.reg) ->
  members:Ir.reg list ->
  t
(** {!build_restricted} of the program obtained by mapping every register
    of [f] through [find], without materializing that program: [live] must
    be the renamed liveness ({!Analysis.Liveness.compute_renamed} with the
    same [find]) and [members] must already be representative names. Builds
    the exact graph [build_restricted] would build on the rewritten
    function — the engine of the fused Briggs* coalescer, which skips the
    per-round whole-function rewrite. *)

val interferes : t -> Ir.reg -> Ir.reg -> bool
(** For the restricted build both registers must be members. *)

val merge : t -> into:Ir.reg -> Ir.reg -> unit
(** [merge t ~into:a b] adds all of [b]'s edges to [a] — Chaitin's in-place
    row-OR when two live ranges are coalesced, keeping the (conservative)
    graph usable for the rest of the pass. O(nodes). *)

val num_nodes : t -> int
val num_edges : t -> int
(** Total number of undirected interference edges. *)

val adjacency : t -> int array array
(** Adjacency lists derived from the current matrix: row [u] lists the
    nodes interfering with [u], ascending and duplicate-free, so its
    length is [u]'s degree and the rows hold [2 × num_edges] entries.
    Node ids are register ids for the full build and compact indices for
    the restricted ones. Built by one forward pass over the matrix bytes
    (all-zero words skipped) counting row widths and one filling them:
    O(nodes²∕128 + edges). A snapshot: later {!merge}s do not show in
    it. *)

val memory_bytes : t -> int
(** Bit-matrix bytes plus (for the restricted build) the mapping array.
    Adjacency from {!adjacency} is not counted: this stays the paper's
    Table 1 quantity. *)

val matrix_bytes : t -> int
(** Bit-matrix bytes only; again without any {!adjacency}. *)
