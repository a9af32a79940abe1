(** Textual rendering of the IR, for debugging, tests and examples. *)

val pp_value : Format.formatter -> Mir.value -> unit
(** A constant, as it appears in instruction operands. *)

val reg_names : Mir.func -> string array
(** The printed name of every register that occurs in the function,
    indexed by register (unused slots are [""]). A register prints as its
    hint, or as [r<N>] without one, except that distinct registers always
    get distinct names: where two would share one, the higher-numbered
    register becomes [<name>$<k>] with the least free [k ≥ 1], which
    {!Parse} reads back as a separate register. A name
    {!Parse.is_register_name} refuses (a mnemonic such as [add], or a
    label such as [b1]) is renamed the same way. Functions without such a
    clash print exactly as [Mir.reg_name] spells each register. *)

val add_instr : string array -> Buffer.t -> Mir.instr -> unit
(** Append one body instruction, without a newline, its registers named by
    a {!reg_names} table. *)

val add_phi : string array -> Buffer.t -> Mir.phi -> unit
(** Append a φ as [x := phi [b1: a] [b2: b]]. *)

val add_terminator : string array -> Buffer.t -> Mir.terminator -> unit
(** Append a block terminator (jump, branch, or return). *)

val func_to_string : Mir.func -> string
(** A whole function in the concrete syntax {!Parse} reads back, its
    registers named by {!reg_names}: a header line, then each block's
    label, with its φs, body and terminator one per line indented by two
    spaces. This is the canonical printed form: stable under print-parse
    round-trips (a test_ir property) and injective on registers, and
    therefore what the compile cache hashes as the content of a
    function. *)
