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
    pretty-printing hint), numbered in order of first occurrence, and
    within one line from the last operand to the destination. Register
    names that collide with instruction mnemonics ([add], [phi], [jump],
    …) are rejected.

    Block labels index the function's block array, so they are limited: a
    block's label must be smaller than the length in bytes of its
    function's text, from [func] to the closing [}]. The block array then
    never has more entries than the function has bytes. Every printed
    function passes, since each block prints on at least two lines. A
    label too large for an [int] is an {!Error} too. An integer literal
    too large for an [int] is not: it reads as a float, as
    [float_of_string] reads it.

    Cost: one pass over the text, O(text + registers + max label), that is
    linear in the input. Tokens are compared in place and registers found
    in a hash table keyed on their bytes, so a register name, a literal
    and the function name are the only strings built. *)

exception Error of string * int
(** Message and line number. Parsing raises nothing else. *)

val func_of_string : string -> Mir.func
(** Parse exactly one function. *)

val is_register_name : string -> bool
(** [false] for the names a register may not have: a mnemonic, or a
    block label ([b] and digits). {!Printer} renames registers whose hint
    is one of these. *)

val funcs_of_string : string -> Mir.func list
(** Every function of the input, in order. A label over its function's
    limit is reported only after the rest of the input has parsed, so any
    other error is reported where a parser without the limit reports it. *)
