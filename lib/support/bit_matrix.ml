type t = {
  bits : Bytes.t;
  size : int;
}

(* Pair (i, j) with i > j is stored at triangular index i*(i-1)/2 + j. *)

let create n =
  if n < 0 then invalid_arg "Bit_matrix.create";
  let nbits = n * (n - 1) / 2 in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; size = n }

let size t = t.size

let index t i j =
  if i < 0 || i >= t.size || j < 0 || j >= t.size then
    invalid_arg "Bit_matrix: index out of range";
  let i, j = if i > j then i, j else j, i in
  (i * (i - 1) / 2) + j

let set t i j =
  if i <> j then begin
    let k = index t i j in
    let b = k lsr 3 in
    Bytes.unsafe_set t.bits b
      (Char.chr (Char.code (Bytes.unsafe_get t.bits b) lor (1 lsl (k land 7))))
  end

let get t i j =
  if i = j then false
  else begin
    let k = index t i j in
    Char.code (Bytes.unsafe_get t.bits (k lsr 3)) land (1 lsl (k land 7)) <> 0
  end

let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let count t =
  let popcount_byte c =
    let rec loop c acc = if c = 0 then acc else loop (c lsr 1) (acc + (c land 1)) in
    loop (Char.code c) 0
  in
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte c) t.bits;
  !n

(* De Bruijn table: a 32-bit power of two [p] is bit number
   [debruijn.[((p * 0x077CB531) land 0xFFFF_FFFF) lsr 27]]. *)
let debruijn =
  let s = Bytes.create 32 in
  for b = 0 to 31 do
    Bytes.set s ((((1 lsl b) * 0x077CB531) land 0xFFFF_FFFF) lsr 27) (Char.chr b)
  done;
  Bytes.to_string s

let iter_pairs t f =
  let bits = t.bits in
  (* Row [i] holds the triangular indices [rs, rs + i). Set bits arrive in
     increasing index order, so the row cursor only ever moves forward. *)
  let i = ref 1 and rs = ref 0 in
  (* The set bits of [x] < 2³², whose bit 0 is triangular index [base],
     lowest first. *)
  let visit base x =
    let x = ref x in
    while !x <> 0 do
      let low = !x land - !x in
      x := !x lxor low;
      let k =
        base
        + Char.code
            (String.unsafe_get debruijn
               (((low * 0x077CB531) land 0xFFFF_FFFF) lsr 27))
      in
      while k >= !rs + !i do
        rs := !rs + !i;
        incr i
      done;
      f !i (k - !rs)
    done
  in
  let words = Bytes.length bits / 8 in
  for w = 0 to words - 1 do
    let v = Bytes.get_int64_le bits (8 * w) in
    if not (Int64.equal v 0L) then begin
      visit (64 * w) (Int64.to_int v land 0xFFFF_FFFF);
      visit ((64 * w) + 32) (Int64.to_int (Int64.shift_right_logical v 32))
    end
  done;
  for b = 8 * words to Bytes.length bits - 1 do
    visit (8 * b) (Char.code (Bytes.unsafe_get bits b))
  done

let memory_bytes t = Bytes.length t.bits

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.size - 1 do
    for j = 0 to i - 1 do
      if get t i j then Format.fprintf ppf "(%d,%d)@ " i j
    done
  done;
  Format.fprintf ppf "@]"
