exception Error of string * int

let fail line fmt = Format.kasprintf (fun m -> raise (Error (m, line))) fmt

(* ------------------------------------------------------------------ *)
(* Line-based scanning: the printer emits one construct per line.      *)
(* ------------------------------------------------------------------ *)

type line = {
  num : int;
  text : string;
  comment : string;  (* text after '#', trimmed; the printer uses it for
                        the entry label *)
}

let split_comment s =
  match String.index_opt s '#' with
  | Some i ->
    ( String.sub s 0 i,
      String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
  | None -> (s, "")

let lines_of_string s =
  String.split_on_char '\n' s
  |> List.mapi (fun i text -> (i + 1, text))
  |> List.filter_map (fun (num, raw) ->
         let code, comment = split_comment raw in
         let text = String.trim code in
         if text = "" then None else Some { num; text; comment })

(* Tokens within a line: names, numbers, punctuation. *)
let tokenize_line l =
  let s = l.text in
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let is_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '$'
  in
  let is_num_start c = (c >= '0' && c <= '9') || c = '-' in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = ':' && !i + 1 < n && s.[!i + 1] = '=' then begin
      toks := ":=" :: !toks;
      i := !i + 2
    end
    else if c = ':' || c = ',' || c = '[' || c = ']' || c = '(' || c = ')'
            || c = '{' || c = '}' then begin
      toks := String.make 1 c :: !toks;
      incr i
    end
    else if is_num_start c then begin
      let j = ref (!i + 1) in
      while
        !j < n
        && (is_name_char s.[!j] || s.[!j] = '+' || s.[!j] = '-')
        && (s.[!j] <> '-' || (s.[!j - 1] = 'e' || s.[!j - 1] = 'E'))
      do
        incr j
      done;
      toks := String.sub s !i (!j - !i) :: !toks;
      i := !j
    end
    else if is_name_char c then begin
      let j = ref !i in
      while !j < n && is_name_char s.[!j] do
        incr j
      done;
      toks := String.sub s !i (!j - !i) :: !toks;
      i := !j
    end
    else fail l.num "unexpected character %C" c
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parsing proper                                                      *)
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

let reserved =
  [ "phi"; "jump"; "br"; "ret"; "func" ]
  @ List.map fst binops @ List.map fst unops

let is_label_tok t =
  String.length t >= 2
  && t.[0] = 'b'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub t 1 (String.length t - 1))

let label_of line t =
  if is_label_tok t then int_of_string (String.sub t 1 (String.length t - 1))
  else fail line "expected a block label, found %S" t

let is_number t =
  String.length t > 0
  && (t.[0] = '-' || (t.[0] >= '0' && t.[0] <= '9'))

type state = {
  mutable regs : (string * Mir.reg) list;
  mutable next_reg : int;
}

let value_of line t =
  match int_of_string_opt t with
  | Some i -> Mir.Int i
  | None -> (
    match float_of_string_opt t with
    | Some x -> Mir.Float x
    | None -> fail line "bad literal %S" t)

let reserved_set =
  let t = Hashtbl.create 32 in
  List.iter (fun m -> Hashtbl.replace t m ()) reserved;
  t

let is_register_name t = not (Hashtbl.mem reserved_set t || is_label_tok t)

let reg_of st line t =
  if Hashtbl.mem reserved_set t then
    fail line "register name %S collides with a mnemonic" t;
  if is_label_tok t then fail line "register name %S looks like a label" t;
  match List.assoc_opt t st.regs with
  | Some r -> r
  | None ->
    let r = st.next_reg in
    st.next_reg <- r + 1;
    st.regs <- (t, r) :: st.regs;
    r

let operand_of st line t =
  if is_number t then Mir.Const (value_of line t) else Mir.Reg (reg_of st line t)

(* Parse one body line that has already been split into tokens. Returns
   `Phi, `Instr or `Term. *)
let parse_code_line st (l : line) toks =
  let line = l.num in
  match toks with
  | [ "jump"; lbl ] -> `Term (Mir.Jump (label_of line lbl))
  | [ "br"; c; ","; t; ","; e ] ->
    `Term
      (Mir.Branch
         {
           cond = operand_of st line c;
           if_true = label_of line t;
           if_false = label_of line e;
         })
  | [ "ret" ] -> `Term (Mir.Return None)
  | [ "ret"; v ] -> `Term (Mir.Return (Some (operand_of st line v)))
  | dst :: ":=" :: rest -> (
    match rest with
    | "phi" :: args ->
      let d = reg_of st line dst in
      let rec parse_args acc = function
        | [] -> List.rev acc
        | "[" :: lbl :: ":" :: v :: "]" :: rest ->
          parse_args ((label_of line lbl, operand_of st line v) :: acc) rest
        | _ -> fail line "malformed phi argument list"
      in
      `Phi { Mir.dst = d; args = parse_args [] args }
    | [ op; a; ","; b ] when List.mem_assoc op binops ->
      `Instr
        (Mir.Binop
           {
             op = List.assoc op binops;
             dst = reg_of st line dst;
             l = operand_of st line a;
             r = operand_of st line b;
           })
    | [ op; a ] when List.mem_assoc op unops ->
      `Instr
        (Mir.Unop
           {
             op = List.assoc op unops;
             dst = reg_of st line dst;
             src = operand_of st line a;
           })
    | [ arr; "["; idx; "]" ] ->
      `Instr
        (Mir.Load
           { dst = reg_of st line dst; arr; idx = operand_of st line idx })
    | [ v ] -> `Instr (Mir.Copy { dst = reg_of st line dst; src = operand_of st line v })
    | _ -> fail line "malformed instruction")
  | arr :: "[" :: idx :: "]" :: ":=" :: [ v ] ->
    `Instr
      (Mir.Store
         { arr; idx = operand_of st line idx; src = operand_of st line v })
  | t :: _ -> fail line "unexpected token %S" t
  | [] -> fail line "empty line"

let parse_func (ls : line list) : Mir.func * line list =
  let st = { regs = []; next_reg = 0 } in
  (* Header: func NAME ( params ) {   — the printer also writes the entry in
     a comment, which strip_comment removed; entry defaults to the first
     block. *)
  let header, rest =
    match ls with
    | h :: rest -> (h, rest)
    | [] -> fail 0 "expected a function"
  in
  let name, params =
    match tokenize_line header with
    | "func" :: name :: "(" :: rest ->
      let rec params acc = function
        | ")" :: "{" :: [] -> List.rev acc
        | ")" :: "{" :: _ -> fail header.num "garbage after '{'"
        | p :: "," :: rest -> params (reg_of st header.num p :: acc) rest
        | p :: rest when p <> ")" -> params (reg_of st header.num p :: acc) rest
        | _ -> fail header.num "malformed parameter list"
      in
      (name, params [] rest)
    | _ -> fail header.num "expected 'func NAME(...) {'"
  in
  (* Blocks until the closing brace. *)
  let blocks : (int * Mir.phi list * Mir.instr list * Mir.terminator) list ref =
    ref []
  in
  let rec parse_blocks ls =
    match ls with
    | { text = "}"; _ } :: rest -> rest
    | l :: rest -> (
      match tokenize_line l with
      | [ lbl; ":" ] ->
        let label = label_of l.num lbl in
        let phis = ref [] in
        let instrs = ref [] in
        let rec body ls =
          match ls with
          | [] -> fail l.num "unterminated block b%d" label
          | b :: rest2 -> (
            match parse_code_line st b (tokenize_line b) with
            | `Phi p ->
              if !instrs <> [] then
                fail b.num "phi after ordinary instructions";
              phis := p :: !phis;
              body rest2
            | `Instr i ->
              instrs := i :: !instrs;
              body rest2
            | `Term t -> (t, rest2))
        in
        let term, rest2 = body rest in
        blocks := (label, List.rev !phis, List.rev !instrs, term) :: !blocks;
        parse_blocks rest2
      | _ -> fail l.num "expected a block label")
    | [] -> fail 0 "missing closing '}'"
  in
  let rest = parse_blocks rest in
  let blocks = List.rev !blocks in
  (match blocks with
  | [] -> fail header.num "function %s has no blocks" name
  | _ -> ());
  (* The printer records the entry in a header comment ("entry bN"); default
     to the first block otherwise. *)
  let entry_override =
    match String.split_on_char ' ' header.comment with
    | [ "entry"; lbl ] when is_label_tok lbl ->
      Some (int_of_string (String.sub lbl 1 (String.length lbl - 1)))
    | _ -> None
  in
  let max_label = List.fold_left (fun m (l, _, _, _) -> max m l) 0 blocks in
  let arr =
    Array.init (max_label + 1) (fun l ->
        match List.find_opt (fun (l', _, _, _) -> l' = l) blocks with
        | Some (_, phis, body, term) -> { Mir.label = l; phis; body; term }
        | None -> { Mir.label = l; phis = []; body = []; term = Mir.Return None })
  in
  let entry =
    match entry_override with
    | Some e -> e
    | None -> (
      match blocks with
      | (l, _, _, _) :: _ -> l
      | [] -> assert false)
  in
  let hints =
    List.fold_left
      (fun acc (name, r) -> Support.Imap.add r name acc)
      Support.Imap.empty st.regs
  in
  ( {
      Mir.name;
      params;
      entry;
      blocks = arr;
      nregs = st.next_reg;
      hints;
    },
    rest )

let funcs_of_string s =
  let rec loop ls acc =
    match ls with
    | [] -> List.rev acc
    | _ ->
      let f, rest = parse_func ls in
      loop rest (f :: acc)
  in
  loop (lines_of_string s) []

let func_of_string s =
  match funcs_of_string s with
  | [ f ] -> f
  | fs -> raise (Error (Printf.sprintf "expected one function, got %d" (List.length fs), 0))
