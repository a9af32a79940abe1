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

let popcount_byte =
  let tbl = Array.make 256 0 in
  for i = 1 to 255 do
    tbl.(i) <- tbl.(i lsr 1) + (i land 1)
  done;
  fun c -> tbl.(Char.code c)

let cardinal t =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte c) t.bits;
  !n

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let equal a b =
  same_capacity a b;
  Bytes.equal a.bits b.bits

let union_into ~dst src =
  same_capacity dst src;
  let changed = ref false in
  for b = 0 to Bytes.length dst.bits - 1 do
    let d = Char.code (Bytes.unsafe_get dst.bits b) in
    let s = Char.code (Bytes.unsafe_get src.bits b) in
    let d' = d lor s in
    if d' <> d then begin
      changed := true;
      Bytes.unsafe_set dst.bits b (Char.unsafe_chr d')
    end
  done;
  !changed

let diff_into ~dst src =
  same_capacity dst src;
  for b = 0 to Bytes.length dst.bits - 1 do
    let d = Char.code (Bytes.unsafe_get dst.bits b) in
    let s = Char.code (Bytes.unsafe_get src.bits b) in
    Bytes.unsafe_set dst.bits b (Char.unsafe_chr (d land lnot s land 0xff))
  done

let inter_into ~dst src =
  same_capacity dst src;
  for b = 0 to Bytes.length dst.bits - 1 do
    let d = Char.code (Bytes.unsafe_get dst.bits b) in
    let s = Char.code (Bytes.unsafe_get src.bits b) in
    Bytes.unsafe_set dst.bits b (Char.unsafe_chr (d land s))
  done

let blit ~src ~dst =
  same_capacity dst src;
  Bytes.blit src.bits 0 dst.bits 0 (Bytes.length src.bits)

let iter f t =
  for b = 0 to Bytes.length t.bits - 1 do
    let c = Char.code (Bytes.unsafe_get t.bits b) in
    if c <> 0 then
      for k = 0 to 7 do
        if c land (1 lsl k) <> 0 then f ((b lsl 3) lor k)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let is_empty t =
  let exception Found in
  try
    Bytes.iter (fun c -> if c <> '\000' then raise Found) t.bits;
    true
  with Found -> false

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
