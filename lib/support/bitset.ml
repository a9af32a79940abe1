type t = {
  bits : Bytes.t;
  capacity : int;
}

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { bits = Bytes.make ((n + 7) / 8) '\000'; capacity = n }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.bits b
    (Char.chr (Char.code (Bytes.unsafe_get t.bits b) lor (1 lsl (i land 7))))

let remove t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.bits b
    (Char.chr
       (Char.code (Bytes.unsafe_get t.bits b) land lnot (1 lsl (i land 7)) land 0xff))

let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

(* Whole bytes get 0xff; the last byte keeps its bits past [capacity] clear,
   so the result is byte-equal to a set built by [add]ing every element. *)
let fill t =
  let full = t.capacity lsr 3 in
  Bytes.fill t.bits 0 full '\255';
  let rest = t.capacity land 7 in
  if rest <> 0 then Bytes.unsafe_set t.bits full (Char.unsafe_chr ((1 lsl rest) - 1))

let copy t = { t with bits = Bytes.copy t.bits }

(* Whole-set operations walk the [(capacity+7)/8] bytes of storage as
   native 64-bit words, then finish the trailing bytes (fewer than 8) one
   at a time. The word accessors skip the bounds check: every offset used
   is a multiple of 8 below [8 * words]. Word values are only combined
   with [Int64] operations and compared at type [int64], so the compiler
   keeps them unboxed and the loops allocate nothing. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Whole words in [bits]; the tail starts at byte [words bits lsl 3]. *)
let words bits = Bytes.length bits lsr 3

let popcount_byte =
  let tbl = Array.make 256 0 in
  for i = 1 to 255 do
    tbl.(i) <- tbl.(i lsr 1) + (i land 1)
  done;
  fun c -> tbl.(Char.code c)

let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) land 0xffffffff) lsr 24

let cardinal t =
  let bits = t.bits in
  let n = ref 0 in
  for w = 0 to words bits - 1 do
    let x = get64 bits (w lsl 3) in
    n :=
      !n
      + popcount32 (Int64.to_int x land 0xffffffff)
      + popcount32 (Int64.to_int (Int64.shift_right_logical x 32))
  done;
  for b = words bits lsl 3 to Bytes.length bits - 1 do
    n := !n + popcount_byte (Bytes.unsafe_get bits b)
  done;
  !n

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let equal a b =
  same_capacity a b;
  Bytes.equal a.bits b.bits

let union_into ~dst src =
  same_capacity dst src;
  let d = dst.bits and s = src.bits in
  let changed = ref false in
  for w = 0 to words d - 1 do
    let o = w lsl 3 in
    let x = get64 d o in
    let x' = Int64.logor x (get64 s o) in
    if x' <> x then begin
      changed := true;
      set64 d o x'
    end
  done;
  for b = words d lsl 3 to Bytes.length d - 1 do
    let x = Char.code (Bytes.unsafe_get d b) in
    let x' = x lor Char.code (Bytes.unsafe_get s b) in
    if x' <> x then begin
      changed := true;
      Bytes.unsafe_set d b (Char.unsafe_chr x')
    end
  done;
  !changed

let diff_into ~dst src =
  same_capacity dst src;
  let d = dst.bits and s = src.bits in
  for w = 0 to words d - 1 do
    let o = w lsl 3 in
    set64 d o (Int64.logand (get64 d o) (Int64.lognot (get64 s o)))
  done;
  for b = words d lsl 3 to Bytes.length d - 1 do
    let x = Char.code (Bytes.unsafe_get d b) in
    let y = Char.code (Bytes.unsafe_get s b) in
    Bytes.unsafe_set d b (Char.unsafe_chr (x land lnot y land 0xff))
  done

let inter_into ~dst src =
  same_capacity dst src;
  let d = dst.bits and s = src.bits in
  for w = 0 to words d - 1 do
    let o = w lsl 3 in
    set64 d o (Int64.logand (get64 d o) (get64 s o))
  done;
  for b = words d lsl 3 to Bytes.length d - 1 do
    let x = Char.code (Bytes.unsafe_get d b) in
    let y = Char.code (Bytes.unsafe_get s b) in
    Bytes.unsafe_set d b (Char.unsafe_chr (x land y))
  done

let blit ~src ~dst =
  same_capacity dst src;
  Bytes.blit src.bits 0 dst.bits 0 (Bytes.length src.bits)

(* De Bruijn table: a 32-bit power of two [p] is bit number
   [debruijn.[((p * 0x077CB531) land 0xFFFF_FFFF) lsr 27]]. *)
let debruijn =
  let s = Bytes.create 32 in
  for b = 0 to 31 do
    Bytes.set s ((((1 lsl b) * 0x077CB531) land 0xFFFF_FFFF) lsr 27) (Char.chr b)
  done;
  Bytes.to_string s

(* [f] on each set bit of [x] < 2³², lowest first, as [base + bit]. *)
let iter_bits f base x =
  let x = ref x in
  while !x <> 0 do
    let low = !x land - !x in
    x := !x lxor low;
    f
      (base
      + Char.code
          (String.unsafe_get debruijn
             (((low * 0x077CB531) land 0xFFFF_FFFF) lsr 27)))
  done

(* Element order is little-endian: byte [b] holds elements [8b .. 8b+7],
   so a word is read with [get_int64_le] here, whatever the host order. *)
let iter f t =
  let bits = t.bits in
  for w = 0 to words bits - 1 do
    let x = Bytes.get_int64_le bits (w lsl 3) in
    if x <> 0L then begin
      iter_bits f (w lsl 6) (Int64.to_int x land 0xffffffff);
      iter_bits f ((w lsl 6) + 32) (Int64.to_int (Int64.shift_right_logical x 32))
    end
  done;
  for b = words bits lsl 3 to Bytes.length bits - 1 do
    iter_bits f (b lsl 3) (Char.code (Bytes.unsafe_get bits b))
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let rec zero_words bits w nw =
  w >= nw || (get64 bits (w lsl 3) = 0L && zero_words bits (w + 1) nw)

let rec zero_bytes bits b =
  b >= Bytes.length bits
  || (Bytes.unsafe_get bits b = '\000' && zero_bytes bits (b + 1))

let is_empty t =
  let bits = t.bits in
  let nw = words bits in
  zero_words bits 0 nw && zero_bytes bits (nw lsl 3)

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

let memory_bytes t = Bytes.length t.bits

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (elements t)
