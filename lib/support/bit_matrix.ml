(* A triangular bit vector: pair (i, j) with i > j is bit
   i*(i-1)/2 + j of a [Bitset] of n*(n-1)/2 bits. *)
type t = {
  bits : Bitset.t;
  size : int;
}

let create n =
  if n < 0 then invalid_arg "Bit_matrix.create";
  { bits = Bitset.create (n * (n - 1) / 2); size = n }

let size t = t.size

let index t i j =
  if i < 0 || i >= t.size || j < 0 || j >= t.size then
    invalid_arg "Bit_matrix: index out of range";
  let i, j = if i > j then i, j else j, i in
  (i * (i - 1) / 2) + j

let set t i j = if i <> j then Bitset.add t.bits (index t i j)
let get t i j = i <> j && Bitset.mem t.bits (index t i j)
let clear t = Bitset.clear t.bits
let count t = Bitset.cardinal t.bits

let iter_pairs t f =
  (* Row [i] holds the triangular indices [rs, rs + i). Set bits arrive in
     increasing index order, so the row cursor only ever moves forward. *)
  let i = ref 1 and rs = ref 0 in
  Bitset.iter
    (fun k ->
      while k >= !rs + !i do
        rs := !rs + !i;
        incr i
      done;
      f !i (k - !rs))
    t.bits

let memory_bytes t = Bitset.memory_bytes t.bits

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.size - 1 do
    for j = 0 to i - 1 do
      if get t i j then Format.fprintf ppf "(%d,%d)@ " i j
    done
  done;
  Format.fprintf ppf "@]"
