(** The intermediate representation.

    A function is a control-flow graph of basic blocks over an unbounded set
    of virtual registers. Copies are first-class instructions — they are the
    object of study of the whole library — and φ-nodes are kept separate from
    ordinary instructions so that every pass can treat the φ-prefix of a
    block specially, as the paper's algorithms require.

    Values are dynamically tagged integers or floats; arrays live in a
    side memory addressed by name, so registers only ever hold scalars and
    liveness/interference reasoning stays purely register-based. *)

type reg = int
(** A virtual register (after SSA construction: an SSA name). *)

type label = int
(** A basic-block identifier; blocks of a function are densely numbered. *)

type value = Int of int | Float of float

type operand = Reg of reg | Const of value

type binop =
  | Add | Sub | Mul | Div | Mod
  | Flt_add | Flt_sub | Flt_mul | Flt_div
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type unop = Neg | Not | Int_to_float | Float_to_int

type instr =
  | Copy of { dst : reg; src : operand }
  | Unop of { op : unop; dst : reg; src : operand }
  | Binop of { op : binop; dst : reg; l : operand; r : operand }
  | Load of { dst : reg; arr : string; idx : operand }
  | Store of { arr : string; idx : operand; src : operand }

type phi = {
  dst : reg;
  args : (label * operand) list;
      (** One argument per predecessor, keyed by the predecessor's label.
          The value flows along the incoming edge, as in the paper's
          [From(a_i)] notation. *)
}

type terminator =
  | Jump of label
  | Branch of { cond : operand; if_true : label; if_false : label }
  | Return of operand option

type block = {
  label : label;
  phis : phi list;
  body : instr list;
  term : terminator;
}

type func = {
  name : string;
  params : reg list;  (** Defined on entry, in order. *)
  entry : label;
  blocks : block array;  (** [blocks.(l).label = l] for every [l]. *)
  nregs : int;  (** Registers are [0 .. nregs-1]. *)
  hints : string Support.Imap.t;
      (** Optional base names for pretty-printing registers. *)
}

(** {1 Instruction and terminator helpers} *)

val def : instr -> reg option
(** The register defined by an instruction, if any. *)

val iter_def : (reg -> unit) -> instr -> unit
(** Apply to the register {!def} returns, if any; allocation-free. *)

val uses : instr -> reg list
(** Registers read by an instruction (duplicates possible). *)

val operand_uses : operand -> reg list

val iter_uses : (reg -> unit) -> instr -> unit
(** Apply to each register {!uses} lists, in the same order; allocation-free. *)

val iter_operand_uses : (reg -> unit) -> operand -> unit
(** Apply to the register {!operand_uses} lists, if any; allocation-free. *)

val map_instr_uses : (reg -> operand) -> instr -> instr
(** Substitute every register {e use}; definitions are untouched. Useful for
    copy folding, where a use may be replaced by a constant. *)

val map_instr_def : (reg -> reg) -> instr -> instr

val term_uses : terminator -> reg list
(** Registers read by the terminator (branch condition, return value). *)

val iter_term_uses : (reg -> unit) -> terminator -> unit
(** Apply to each register {!term_uses} lists, in the same order;
    allocation-free. *)

val map_term_uses : (reg -> operand) -> terminator -> terminator
(** Substitute the terminator's register uses, as {!map_instr_uses}. *)

val successors : terminator -> label list
(** Successor labels in branch order, without duplicates removed. *)

val map_successors : (label -> label) -> terminator -> terminator

(** {1 Function-level helpers} *)

val block : func -> label -> block
val num_blocks : func -> int
(** Total blocks, reachable or not; labels are [0 .. num_blocks - 1]. *)

val iter_instrs : func -> (label -> instr -> unit) -> unit
(** All non-φ instructions, in block order then program order. *)

val iter_phis : func -> (label -> phi -> unit) -> unit

val defs_of_block : block -> reg list
(** Registers defined in the block, φ definitions first. *)

val count_copies : func -> int
(** Static number of [Copy] instructions — the Table 5 metric. *)

val count_instrs : func -> int
(** All instructions including φ-nodes and terminators. *)

val count_phi_args : func -> int
(** Total number of φ arguments — the [n] of the paper's O(n·α(n)) bound. *)

val reg_name : func -> reg -> string
(** Pretty name for a register: its hint if any, else ["r<n>"]. *)

val estimated_bytes : func -> int
(** Rough heap footprint of the function representation itself (blocks,
    instructions, phi arguments, register metadata). Used by the memory
    experiments, which - like the paper's - compare whole working sets, not
    just the analysis structures. *)

val with_blocks : func -> block array -> func
val map_blocks : (block -> block) -> func -> func
(** A copy of the function with every block rewritten by [f]. *)
