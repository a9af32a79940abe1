(** Parser for the textual IR syntax produced by {!Printer}.

    Round-tripping ([Parse.func_of_string (Printer.func_to_string f)]) yields
    a function that prints identically, which the test suite checks as a
    property. The syntax also makes hand-written test cases and CLI input
    pleasant:

    {v
    func swap(p) {  # entry b0
    b0:
      a := add p, 1
      br p, b1, b2
    b1:
      x := phi [b0: a] [b1: x]
      jump b1
    b2:
      ret a
    }
    v}

    Registers are named; each distinct name becomes a register (and its
    pretty-printing hint). Register names that collide with instruction
    mnemonics ([add], [phi], [jump], …) are rejected. *)

exception Error of string * int
(** Message and line number. *)

val func_of_string : string -> Mir.func
(** Parse exactly one function. *)

val is_register_name : string -> bool
(** [false] for the names a register may not have: a mnemonic, or a
    block label ([b] and digits). {!Printer} renames registers whose hint
    is one of these. *)

val funcs_of_string : string -> Mir.func list
