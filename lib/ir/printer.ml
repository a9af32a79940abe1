(* Every register occurrence: parameters, φ targets and arguments, and the
   registers of each instruction and terminator. *)
let iter_regs (f : Mir.func) g =
  let operand = Mir.iter_operand_uses g in
  List.iter g f.params;
  Array.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (p : Mir.phi) ->
          g p.dst;
          List.iter (fun (_, op) -> operand op) p.args)
        b.phis;
      List.iter
        (fun i ->
          Mir.iter_def g i;
          Mir.iter_uses g i)
        b.body;
      Mir.iter_term_uses g b.term)
    f.blocks

(* A register prints as its hint, or as "r<N>" without one. Those names
   can collide — a hintless register 3 and a source variable named "r3" —
   and the printed form is what the compile cache hashes, so the table
   makes them distinct: the registers that occur claim their names in
   register order. A register whose name is already claimed, or is one
   [Parse] refuses for a register (a mnemonic or a block label), loses;
   losers, in register order, become "<name>$k" with the least k ≥ 1 that
   leaves the name unclaimed. [Parse] reads "$" as a name character, so
   the renamed register reads back as its own. *)
let reg_names (f : Mir.func) =
  let size = ref f.nregs in
  iter_regs f (fun r -> if r >= !size then size := r + 1);
  let names = Array.make !size "" in
  iter_regs f (fun r -> if names.(r) = "" then names.(r) <- Mir.reg_name f r);
  let claimed = Hashtbl.create !size in
  let losers = ref [] in
  Array.iteri
    (fun r name ->
      if name <> "" then
        if Parse.is_register_name name && not (Hashtbl.mem claimed name) then
          Hashtbl.add claimed name ()
        else losers := r :: !losers)
    names;
  (* [next] holds, per name, the least suffix not yet tried, so n losers
     of one name cost O(n) probes, not O(n²). *)
  let next = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let name = names.(r) in
      let rec fresh k =
        let s = name ^ "$" ^ string_of_int k in
        if Hashtbl.mem claimed s then fresh (k + 1)
        else begin
          Hashtbl.replace next name (k + 1);
          s
        end
      in
      let s = fresh (Option.value (Hashtbl.find_opt next name) ~default:1) in
      Hashtbl.add claimed s ();
      names.(r) <- s)
    (List.rev !losers);
  names

(* Printing appends to one buffer per function; no line is ever broken. *)

let add_value buf = function
  | Mir.Int i -> Buffer.add_string buf (string_of_int i)
  | Mir.Float x -> Buffer.add_string buf (Printf.sprintf "%g" x)

let pp_value ppf = function
  | Mir.Int i -> Format.fprintf ppf "%d" i
  | Mir.Float x -> Format.fprintf ppf "%g" x

let add_operand names buf = function
  | Mir.Reg r -> Buffer.add_string buf names.(r)
  | Mir.Const v -> add_value buf v

let binop_name = function
  | Mir.Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | Flt_add -> "fadd" | Flt_sub -> "fsub" | Flt_mul -> "fmul" | Flt_div -> "fdiv"
  | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge" | Eq -> "eq" | Ne -> "ne"
  | And -> "and" | Or -> "or"

let unop_name = function
  | Mir.Neg -> "neg" | Not -> "not"
  | Int_to_float -> "i2f" | Float_to_int -> "f2i"

let add_instr names buf i =
  let str = Buffer.add_string buf and op = add_operand names buf in
  let assign dst =
    str names.(dst);
    str " := "
  in
  match i with
  | Mir.Copy { dst; src } ->
    assign dst;
    op src
  | Unop { op = o; dst; src } ->
    assign dst;
    str (unop_name o);
    str " ";
    op src
  | Binop { op = o; dst; l; r } ->
    assign dst;
    str (binop_name o);
    str " ";
    op l;
    str ", ";
    op r
  | Load { dst; arr; idx } ->
    assign dst;
    str arr;
    str "[";
    op idx;
    str "]"
  | Store { arr; idx; src } ->
    str arr;
    str "[";
    op idx;
    str "] := ";
    op src

let add_label buf l =
  Buffer.add_char buf 'b';
  Buffer.add_string buf (string_of_int l)

let add_phi names buf (p : Mir.phi) =
  Buffer.add_string buf names.(p.dst);
  Buffer.add_string buf " := phi";
  List.iter
    (fun (l, op) ->
      Buffer.add_string buf " [";
      add_label buf l;
      Buffer.add_string buf ": ";
      add_operand names buf op;
      Buffer.add_string buf "]")
    p.args

let add_terminator names buf = function
  | Mir.Jump l ->
    Buffer.add_string buf "jump ";
    add_label buf l
  | Branch { cond; if_true; if_false } ->
    Buffer.add_string buf "br ";
    add_operand names buf cond;
    Buffer.add_string buf ", ";
    add_label buf if_true;
    Buffer.add_string buf ", ";
    add_label buf if_false
  | Return (Some op) ->
    Buffer.add_string buf "ret ";
    add_operand names buf op
  | Return None -> Buffer.add_string buf "ret"

let func_to_string (f : Mir.func) =
  let names = reg_names f in
  let buf = Buffer.create 4096 in
  let line add x =
    Buffer.add_string buf "\n  ";
    add names buf x
  in
  Buffer.add_string buf "func ";
  Buffer.add_string buf f.name;
  Buffer.add_char buf '(';
  List.iteri
    (fun k p ->
      if k > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf names.(p))
    f.params;
  Buffer.add_string buf ") {  # entry ";
  add_label buf f.entry;
  Array.iter
    (fun (b : Mir.block) ->
      Buffer.add_char buf '\n';
      add_label buf b.label;
      Buffer.add_char buf ':';
      List.iter (line add_phi) b.phis;
      List.iter (line add_instr) b.body;
      line add_terminator b.term)
    f.blocks;
  Buffer.add_string buf "\n}";
  Buffer.contents buf
