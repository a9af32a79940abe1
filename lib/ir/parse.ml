exception Error of string * int

let fail line fmt = Format.kasprintf (fun m -> raise (Error (m, line))) fmt

(* One pass over the input string. A cursor walks it a line at a time
   (the printer emits one construct per line); a line's tokens are
   start/end offsets into the input, kept in a reused buffer and compared
   with literals in place. Only a register name's first occurrence, a
   literal operand, an array name and the function name become strings.
   The helpers on the hot path are top-level functions, not local
   closures, which would be allocated at every call. *)

type t = {
  src : string;
  len : int;
  mutable pos : int;  (* start of the next unread line; [len + 1] at the end *)
  mutable line : int;  (* number of the current line, from 1 *)
  mutable code_start : int;  (* the current line's code, trimmed: the *)
  mutable code_end : int;  (*  text before its first '#' *)
  mutable hash : int;  (* that '#', or [line_end] *)
  mutable line_end : int;  (* the '\n' ending the current line, or [len] *)
  mutable ntok : int;
  mutable tok_s : int array;
  mutable tok_e : int array;
  (* The registers of the current function: open addressing on the name's
     bytes, a slot holding a register whose name is in [names]. A slot is
     in use when its stamp is the current function's. *)
  mutable fn : int;
  mutable slot_stamp : int array;
  mutable slot_reg : int array;
  mutable nregs : int;
  mutable names : string array;  (* by register *)
  (* The current block's φs and instructions, and the function's blocks in
     source order with the lines of their labels. *)
  mutable nphi : int;
  mutable phis : Mir.phi array;
  mutable nins : int;
  mutable ins : Mir.instr array;
  mutable nblk : int;
  mutable blk : Mir.block array;
  mutable blk_line : int array;
  (* A block label too large for its function, reported once the whole
     input has parsed (see [parse_func]). *)
  mutable too_large : (string * int) option;
}

let absent = { Mir.label = -1; phis = []; body = []; term = Mir.Return None }
let no_phi = { Mir.dst = -1; args = [] }
let no_instr = Mir.Copy { dst = -1; src = Mir.Const (Mir.Int 0) }

(* What [parse_code_line] returns for a line that is not a terminator. *)
let no_term = Mir.Jump (-1)

let create src =
  let len = String.length src in
  (* Sized from the text: a printed function has about one register per
     35 bytes, so the register table, grown when half full, seldom grows. *)
  let slots =
    let rec pow2 c = if c >= len / 16 then c else pow2 (2 * c) in
    pow2 16
  in
  {
    src;
    len;
    pos = 0;
    line = 0;
    code_start = 0;
    code_end = 0;
    hash = 0;
    line_end = 0;
    ntok = 0;
    tok_s = Array.make 16 0;
    tok_e = Array.make 16 0;
    fn = 0;
    slot_stamp = Array.make slots (-1);
    slot_reg = Array.make slots 0;
    nregs = 0;
    names = Array.make (slots / 2) "";
    nphi = 0;
    phis = Array.make 16 no_phi;
    nins = 0;
    ins = Array.make 64 no_instr;
    nblk = 0;
    blk = Array.make 16 absent;
    blk_line = Array.make 16 0;
    too_large = None;
  }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The list of [a.(0 .. n-1)], in order. *)
let list_of a n =
  let rec go acc i = if i < 0 then acc else go (a.(i) :: acc) (i - 1) in
  go [] (n - 1)

(* ------------------------------------------------------------------ *)
(* Lines and tokens                                                    *)
(* ------------------------------------------------------------------ *)

(* [String.trim]'s blanks; '\n' ends the line. *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

(* Advance to the next line that has code on it; [false] at the end of
   the input. Lines are numbered as [String.split_on_char '\n'] counts. *)
let rec next_line t =
  if t.pos > t.len then false
  else begin
    let s = t.src in
    let start = t.pos in
    let j = ref start in
    while !j < t.len && s.[!j] <> '\n' && s.[!j] <> '#' do
      incr j
    done;
    let hash = !j in
    while !j < t.len && s.[!j] <> '\n' do
      incr j
    done;
    t.line <- t.line + 1;
    t.pos <- !j + 1;
    t.hash <- hash;
    t.line_end <- !j;
    let a = ref start and b = ref hash in
    while !a < !b && is_blank s.[!a] do
      incr a
    done;
    while !b > !a && is_blank s.[!b - 1] do
      decr b
    done;
    if !a = !b then next_line t
    else begin
      t.code_start <- !a;
      t.code_end <- !b;
      true
    end
  end

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '$'

let push_tok t a b =
  if t.ntok = Array.length t.tok_s then begin
    t.tok_s <- grow t.tok_s 0;
    t.tok_e <- grow t.tok_e 0
  end;
  t.tok_s.(t.ntok) <- a;
  t.tok_e.(t.ntok) <- b;
  t.ntok <- t.ntok + 1

(* Tokens of the current line: names, numbers, ":=" and punctuation. A
   number runs on through name characters and '+', and through '-' only
   after an exponent's 'e'. *)
let tokenize t =
  let s = t.src and n = t.code_end in
  t.ntok <- 0;
  let i = ref t.code_start in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else begin
      let j = ref (!i + 1) in
      if c = ':' && !j < n && s.[!j] = '=' then incr j
      else if c = ':' || c = ',' || c = '[' || c = ']' || c = '(' || c = ')'
              || c = '{' || c = '}' then ()
      else if (c >= '0' && c <= '9') || c = '-' then
        while
          !j < n
          && (is_name_char s.[!j] || s.[!j] = '+'
             || (s.[!j] = '-' && (s.[!j - 1] = 'e' || s.[!j - 1] = 'E')))
        do
          incr j
        done
      else if is_name_char c then
        while !j < n && is_name_char s.[!j] do
          incr j
        done
      else fail t.line "unexpected character %C" c;
      push_tok t !i !j;
      i := !j
    end
  done

let rec same_from s a n w i = i = n || (s.[a + i] = w.[i] && same_from s a n w (i + 1))

(* [s.[a .. a+n-1]] is [w]. *)
let same s a n w = String.length w = n && same_from s a n w 0

let tok_is t k w = same t.src t.tok_s.(k) (t.tok_e.(k) - t.tok_s.(k)) w
let tok_char t k c = t.tok_e.(k) - t.tok_s.(k) = 1 && t.src.[t.tok_s.(k)] = c
let tok_string t k = String.sub t.src t.tok_s.(k) (t.tok_e.(k) - t.tok_s.(k))

(* ------------------------------------------------------------------ *)
(* Words                                                               *)
(* ------------------------------------------------------------------ *)

let binops =
  [
    ("add", Mir.Add); ("sub", Mir.Sub); ("mul", Mir.Mul); ("div", Mir.Div);
    ("mod", Mir.Mod); ("fadd", Mir.Flt_add); ("fsub", Mir.Flt_sub);
    ("fmul", Mir.Flt_mul); ("fdiv", Mir.Flt_div); ("lt", Mir.Lt);
    ("le", Mir.Le); ("gt", Mir.Gt); ("ge", Mir.Ge); ("eq", Mir.Eq);
    ("ne", Mir.Ne); ("and", Mir.And); ("or", Mir.Or);
  ]

let unops =
  [ ("neg", Mir.Neg); ("not", Mir.Not); ("i2f", Mir.Int_to_float);
    ("f2i", Mir.Float_to_int) ]

(* Word tables indexed by first byte, so a token is compared in place with
   the few words that share its first letter. The options are built once,
   so a lookup allocates nothing. *)
let table words =
  let tbl = Array.make 256 [] in
  List.iter
    (fun (w, v) ->
      let c = Char.code w.[0] in
      tbl.(c) <- tbl.(c) @ [ (w, Some v) ])
    words;
  tbl

let rec lookup_in s a n = function
  | [] -> None
  | (w, v) :: rest -> if same s a n w then v else lookup_in s a n rest

let lookup tbl t k =
  let a = t.tok_s.(k) in
  lookup_in t.src a (t.tok_e.(k) - a) tbl.(Char.code t.src.[a])

let binop_table = table binops
let unop_table = table unops

let reserved_table =
  table
    (List.map (fun w -> (w, ())) [ "phi"; "jump"; "br"; "ret"; "func" ]
    @ List.map (fun (w, _) -> (w, ())) binops
    @ List.map (fun (w, _) -> (w, ())) unops)

let is_reserved s a n =
  lookup_in s a n reserved_table.(Char.code s.[a]) <> None

let rec digits s a n i =
  i = n || (s.[a + i] >= '0' && s.[a + i] <= '9' && digits s a n (i + 1))

(* [b] and one or more digits. *)
let is_label s a n = n >= 2 && s.[a] = 'b' && digits s a n 1

let is_register_name w =
  let n = String.length w in
  n = 0 || not (is_reserved w 0 n || is_label w 0 n)

(* The number of the label [s.[a .. a+n-1]], digit by digit: one beyond
   [max_int] is an error, not a wrapped number. *)
let rec label_value s a n ~line acc i =
  if i = n then acc
  else
    let d = Char.code s.[a + i] - Char.code '0' in
    if acc > (max_int - d) / 10 then
      fail line "block label %s is too large" (String.sub s a n)
    else label_value s a n ~line ((10 * acc) + d) (i + 1)

let label_of t k =
  let s = t.src and a = t.tok_s.(k) in
  let n = t.tok_e.(k) - a in
  if not (is_label s a n) then
    fail t.line "expected a block label, found %S" (tok_string t k);
  label_value s a n ~line:t.line 0 1

(* ------------------------------------------------------------------ *)
(* Registers                                                           *)
(* ------------------------------------------------------------------ *)

let hash s a n =
  let h = ref 0 in
  for i = a to a + n - 1 do
    h := (!h * 31) + Char.code s.[i]
  done;
  !h land max_int

let rec probe t s a n mask i =
  if t.slot_stamp.(i) <> t.fn || same s a n t.names.(t.slot_reg.(i)) then i
  else probe t s a n mask ((i + 1) land mask)

(* Slot of [s.[a .. a+n-1]]: its own, or the free one it would take. *)
let find_slot t s a n =
  let mask = Array.length t.slot_reg - 1 in
  probe t s a n mask (hash s a n land mask)

let rehash t =
  let cap = 2 * Array.length t.slot_reg in
  t.slot_stamp <- Array.make cap (-1);
  t.slot_reg <- Array.make cap 0;
  for r = 0 to t.nregs - 1 do
    let w = t.names.(r) in
    let i = find_slot t w 0 (String.length w) in
    t.slot_stamp.(i) <- t.fn;
    t.slot_reg.(i) <- r
  done

(* The register token [k] names: registers are numbered in order of first
   occurrence, and a name becomes a string (and the register's hint) only
   then. *)
let reg_of t k =
  let s = t.src and a = t.tok_s.(k) in
  let n = t.tok_e.(k) - a in
  if is_reserved s a n then
    fail t.line "register name %S collides with a mnemonic" (tok_string t k);
  if is_label s a n then
    fail t.line "register name %S looks like a label" (tok_string t k);
  let i = find_slot t s a n in
  if t.slot_stamp.(i) = t.fn then t.slot_reg.(i)
  else begin
    let r = t.nregs in
    t.slot_stamp.(i) <- t.fn;
    t.slot_reg.(i) <- r;
    if r = Array.length t.names then t.names <- grow t.names "";
    t.names.(r) <- String.sub s a n;
    t.nregs <- r + 1;
    if 2 * t.nregs > Array.length t.slot_reg then rehash t;
    r
  end

(* A literal keeps the meaning [int_of_string_opt] and then
   [float_of_string_opt] give it: [0x1f], [1_000], [1e-3]. *)
let operand_of t k =
  let c = t.src.[t.tok_s.(k)] in
  if c = '-' || (c >= '0' && c <= '9') then begin
    let w = tok_string t k in
    match int_of_string_opt w with
    | Some i -> Mir.Const (Mir.Int i)
    | None -> (
      match float_of_string_opt w with
      | Some x -> Mir.Const (Mir.Float x)
      | None -> fail t.line "bad literal %S" w)
  end
  else Mir.Reg (reg_of t k)

(* ------------------------------------------------------------------ *)
(* Lines of a block                                                    *)
(* ------------------------------------------------------------------ *)

let push_phi t p =
  if t.nphi = Array.length t.phis then t.phis <- grow t.phis no_phi;
  t.phis.(t.nphi) <- p;
  t.nphi <- t.nphi + 1

let push_instr t i =
  if t.nins = Array.length t.ins then t.ins <- grow t.ins no_instr;
  t.ins.(t.nins) <- i;
  t.nins <- t.nins + 1;
  no_term

(* φ arguments "[bN: v]" from token [k] to the end of the line. *)
let rec phi_args t acc k =
  if k = t.ntok then List.rev acc
  else if
    t.ntok - k >= 5 && tok_char t k '[' && tok_char t (k + 2) ':'
    && tok_char t (k + 4) ']'
  then begin
    let v = operand_of t (k + 3) in
    let l = label_of t (k + 1) in
    phi_args t ((l, v) :: acc) (k + 5)
  end
  else fail t.line "malformed phi argument list"

(* The tokens of one body line: a φ or an instruction is added to the
   current block and gives [no_term]; a terminator is returned. The forms
   are tried in a fixed order, and within a line the operands are read
   right to left, the order register numbers (and, on a bad line, the
   reported error) follow. *)
let parse_code_line t =
  let n = t.ntok in
  if n = 2 && tok_is t 0 "jump" then Mir.Jump (label_of t 1)
  else if n = 6 && tok_is t 0 "br" && tok_char t 2 ',' && tok_char t 4 ','
  then begin
    let if_false = label_of t 5 in
    let if_true = label_of t 3 in
    let cond = operand_of t 1 in
    Mir.Branch { cond; if_true; if_false }
  end
  else if n = 1 && tok_is t 0 "ret" then Mir.Return None
  else if n = 2 && tok_is t 0 "ret" then Mir.Return (Some (operand_of t 1))
  else if n >= 2 && tok_is t 1 ":=" then
    if n >= 3 && tok_is t 2 "phi" then begin
      let dst = reg_of t 0 in
      let args = phi_args t [] 3 in
      if t.nins > 0 then fail t.line "phi after ordinary instructions";
      push_phi t { Mir.dst; args };
      no_term
    end
    else
      match if n = 6 && tok_char t 4 ',' then lookup binop_table t 2 else None with
      | Some op ->
        let r = operand_of t 5 in
        let l = operand_of t 3 in
        let dst = reg_of t 0 in
        push_instr t (Mir.Binop { op; dst; l; r })
      | None -> (
        match if n = 4 then lookup unop_table t 2 else None with
        | Some op ->
          let src = operand_of t 3 in
          let dst = reg_of t 0 in
          push_instr t (Mir.Unop { op; dst; src })
        | None ->
          if n = 6 && tok_char t 3 '[' && tok_char t 5 ']' then begin
            let idx = operand_of t 4 in
            let arr = tok_string t 2 in
            let dst = reg_of t 0 in
            push_instr t (Mir.Load { dst; arr; idx })
          end
          else if n = 3 then begin
            let src = operand_of t 2 in
            let dst = reg_of t 0 in
            push_instr t (Mir.Copy { dst; src })
          end
          else fail t.line "malformed instruction")
  else if n = 6 && tok_char t 1 '[' && tok_char t 3 ']' && tok_is t 4 ":="
  then begin
    let src = operand_of t 5 in
    let idx = operand_of t 2 in
    push_instr t (Mir.Store { arr = tok_string t 0; idx; src })
  end
  else fail t.line "unexpected token %S" (tok_string t 0)

(* ------------------------------------------------------------------ *)
(* Functions                                                           *)
(* ------------------------------------------------------------------ *)

(* The header's parameters from token [k]: names, optionally separated by
   commas, up to the closing ") {". *)
let rec params t ~line acc k =
  let rest = t.ntok - k in
  if rest >= 2 && tok_char t k ')' && tok_char t (k + 1) '{' then
    if rest = 2 then List.rev acc else fail line "garbage after '{'"
  else if rest >= 2 && tok_char t (k + 1) ',' then
    params t ~line (reg_of t k :: acc) (k + 2)
  else if rest >= 1 && not (tok_char t k ')') then
    params t ~line (reg_of t k :: acc) (k + 1)
  else fail line "malformed parameter list"

(* The body of block [label] up to its terminator, added to the blocks. *)
let rec parse_body t ~label ~label_line =
  if not (next_line t) then fail label_line "unterminated block b%d" label;
  tokenize t;
  let term = parse_code_line t in
  if term == no_term then parse_body t ~label ~label_line
  else begin
    let b =
      {
        Mir.label;
        phis = list_of t.phis t.nphi;
        body = list_of t.ins t.nins;
        term;
      }
    in
    t.nphi <- 0;
    t.nins <- 0;
    if t.nblk = Array.length t.blk then begin
      t.blk <- grow t.blk absent;
      t.blk_line <- grow t.blk_line 0
    end;
    t.blk.(t.nblk) <- b;
    t.blk_line.(t.nblk) <- label_line;
    t.nblk <- t.nblk + 1
  end

(* Blocks up to a line that is just "}". *)
let rec parse_blocks t =
  if not (next_line t) then fail 0 "missing closing '}'"
  else if not (t.code_end - t.code_start = 1 && t.src.[t.code_start] = '}')
  then begin
    tokenize t;
    if not (t.ntok = 2 && tok_char t 1 ':') then
      fail t.line "expected a block label";
    let label_line = t.line in
    parse_body t ~label:(label_of t 0) ~label_line;
    parse_blocks t
  end

(* The label of the header comment "entry bN", if that is all it says. *)
let entry_override s ~line ~hash ~line_end =
  let a = ref (hash + 1) and b = ref line_end in
  while !a < !b && is_blank s.[!a] do
    incr a
  done;
  while !b > !a && is_blank s.[!b - 1] do
    decr b
  done;
  let n = !b - !a - 6 in
  if n >= 2 && same s !a 6 "entry " && is_label s (!a + 6) n then
    Some (label_value s (!a + 6) n ~line 0 1)
  else None

(* The current line is a function's header. A block label must be smaller
   than the function's text is long in bytes, from "func" to the closing
   "}", which bounds its block array by the input. A label over that limit
   is reported only after the whole input has parsed, so that an error
   found after it keeps the place it has always had; the function is then
   left out ([None]). *)
let parse_func t =
  t.fn <- t.fn + 1;
  t.nregs <- 0;
  t.nblk <- 0;
  let header = t.line and func_start = t.code_start in
  let hash = t.hash and header_end = t.line_end in
  tokenize t;
  if not (t.ntok >= 3 && tok_is t 0 "func" && tok_char t 2 '(') then
    fail header "expected 'func NAME(...) {'";
  let name = tok_string t 1 in
  let params = params t ~line:header [] 3 in
  parse_blocks t;
  if t.nblk = 0 then fail header "function %s has no blocks" name;
  let entry =
    match entry_override t.src ~line:header ~hash ~line_end:header_end with
    | Some e -> e
    | None -> t.blk.(0).label
  in
  let span = t.line_end - func_start in
  let over = ref (-1) and max_label = ref 0 in
  for i = t.nblk - 1 downto 0 do
    let l = t.blk.(i).label in
    if l >= span then over := i;
    if l > !max_label then max_label := l
  done;
  if !over >= 0 then begin
    if t.too_large = None then
      t.too_large <-
        Some
          ( Printf.sprintf "block label b%d is too large for a %d-byte function"
              t.blk.(!over).label span,
            t.blk_line.(!over) );
    None
  end
  else begin
    (* The first block with a label wins; a label no block has gets an
       empty returning block. *)
    let blocks = Array.make (!max_label + 1) absent in
    for i = t.nblk - 1 downto 0 do
      blocks.(t.blk.(i).label) <- t.blk.(i)
    done;
    for l = 0 to !max_label do
      if blocks.(l) == absent then
        blocks.(l) <- { Mir.label = l; phis = []; body = []; term = Mir.Return None }
    done;
    (* Every register's name is its hint, added from the last register
       down: the order fixes the map's shape, which structural equality
       on functions sees. *)
    let hints = ref Support.Imap.empty in
    for r = t.nregs - 1 downto 0 do
      hints := Support.Imap.add r t.names.(r) !hints
    done;
    Some { Mir.name; params; entry; blocks; nregs = t.nregs; hints = !hints }
  end

(* The input's functions in order, and how many there are counting those
   left out for a label over the limit. *)
let parse s =
  let t = create s in
  let rec loop acc count =
    if next_line t then
      match parse_func t with
      | Some f -> loop (f :: acc) (count + 1)
      | None -> loop acc (count + 1)
    else (t, List.rev acc, count)
  in
  loop [] 0

let check_labels t =
  match t.too_large with Some (m, l) -> raise (Error (m, l)) | None -> ()

let funcs_of_string s =
  let t, fs, _ = parse s in
  check_labels t;
  fs

let func_of_string s =
  let t, fs, count = parse s in
  if count <> 1 then
    raise (Error (Printf.sprintf "expected one function, got %d" count, 0));
  check_labels t;
  List.hd fs
