(* Unit and property tests for lib/support. *)

open Helpers

let test_uf_basic () =
  let uf = Support.Union_find.create 10 in
  checki "fresh singletons" 10 (Support.Union_find.count_sets uf);
  checkb "not same initially" false (Support.Union_find.same uf 0 1);
  ignore (Support.Union_find.union uf 0 1);
  checkb "same after union" true (Support.Union_find.same uf 0 1);
  ignore (Support.Union_find.union uf 1 2);
  checkb "transitive" true (Support.Union_find.same uf 0 2);
  checki "sets merged" 8 (Support.Union_find.count_sets uf);
  let r = Support.Union_find.union uf 0 0 in
  checki "self union is stable" (Support.Union_find.find uf 0) r

let test_uf_groups () =
  let uf = Support.Union_find.create 6 in
  ignore (Support.Union_find.union uf 0 3);
  ignore (Support.Union_find.union uf 3 5);
  ignore (Support.Union_find.union uf 1 2);
  let groups = Support.Union_find.groups uf in
  checki "two groups" 2 (List.length groups);
  let members = List.map snd groups |> List.concat |> List.sort compare in
  check Alcotest.(list int) "members" [ 0; 1; 2; 3; 5 ] members;
  List.iter
    (fun (_, ms) ->
      check Alcotest.(list int) "sorted members" (List.sort compare ms) ms)
    groups

let test_uf_grow () =
  let uf = Support.Union_find.create 3 in
  ignore (Support.Union_find.union uf 0 2);
  let uf = Support.Union_find.grow uf 6 in
  checkb "old sets preserved" true (Support.Union_find.same uf 0 2);
  checkb "new elements are singletons" false (Support.Union_find.same uf 3 4);
  checki "length" 6 (Support.Union_find.length uf)

(* Property: union-find agrees with a naive equivalence closure. *)
let prop_uf_matches_naive =
  QCheck.Test.make ~count:200 ~name:"union-find matches naive closure"
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Support.Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Support.Union_find.union uf a b)) pairs;
      (* naive: repeated relabeling *)
      let label = Array.init 20 (fun i -> i) in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (a, b) ->
            let m = min label.(a) label.(b) in
            if label.(a) <> m || label.(b) <> m then begin
              let la = label.(a) and lb = label.(b) in
              Array.iteri
                (fun i l -> if l = la || l = lb then label.(i) <- m)
                label;
              changed := true
            end)
          pairs
      done;
      List.for_all
        (fun i ->
          List.for_all
            (fun j -> Support.Union_find.same uf i j = (label.(i) = label.(j)))
            (List.init 20 Fun.id))
        (List.init 20 Fun.id))

let test_bitset_basic () =
  let s = Support.Bitset.create 70 in
  checkb "empty" true (Support.Bitset.is_empty s);
  Support.Bitset.add s 0;
  Support.Bitset.add s 69;
  Support.Bitset.add s 33;
  checkb "mem 0" true (Support.Bitset.mem s 0);
  checkb "mem 69" true (Support.Bitset.mem s 69);
  checkb "not mem 1" false (Support.Bitset.mem s 1);
  checki "cardinal" 3 (Support.Bitset.cardinal s);
  check Alcotest.(list int) "elements sorted" [ 0; 33; 69 ]
    (Support.Bitset.elements s);
  Support.Bitset.remove s 33;
  checki "cardinal after remove" 2 (Support.Bitset.cardinal s);
  Support.Bitset.clear s;
  checkb "cleared" true (Support.Bitset.is_empty s)

let test_bitset_ops () =
  let a = Support.Bitset.of_list 16 [ 1; 2; 3 ] in
  let b = Support.Bitset.of_list 16 [ 3; 4 ] in
  let u = Support.Bitset.copy a in
  let changed = Support.Bitset.union_into ~dst:u b in
  checkb "union changed" true changed;
  check Alcotest.(list int) "union" [ 1; 2; 3; 4 ] (Support.Bitset.elements u);
  checkb "union again unchanged" false (Support.Bitset.union_into ~dst:u b);
  let d = Support.Bitset.copy a in
  Support.Bitset.diff_into ~dst:d b;
  check Alcotest.(list int) "diff" [ 1; 2 ] (Support.Bitset.elements d);
  let i = Support.Bitset.copy a in
  Support.Bitset.inter_into ~dst:i b;
  check Alcotest.(list int) "inter" [ 3 ] (Support.Bitset.elements i);
  checkb "equal self" true (Support.Bitset.equal a a);
  checkb "not equal" false (Support.Bitset.equal a b)

(* [fill] leaves the bits past [capacity] in the last byte clear, so a
   filled set is indistinguishable from one built by [add]ing every
   element: [equal], [cardinal] and [elements] all agree, at every
   capacity around the byte boundaries (including 0). Filling a set that
   already holds elements gives the same full set. *)
let test_bitset_fill () =
  for n = 0 to 33 do
    let name what = Printf.sprintf "capacity %d: %s" n what in
    let filled = Support.Bitset.create n in
    if n > 0 then Support.Bitset.add filled (n / 2);
    Support.Bitset.fill filled;
    let added = Support.Bitset.of_list n (List.init n Fun.id) in
    checkb (name "equal to add-built") true (Support.Bitset.equal filled added);
    checki (name "cardinal") n (Support.Bitset.cardinal filled);
    check Alcotest.(list int) (name "elements") (List.init n Fun.id)
      (Support.Bitset.elements filled);
    checkb (name "is_empty only at 0") (n = 0) (Support.Bitset.is_empty filled)
  done

let test_bitset_bounds () =
  let s = Support.Bitset.create 8 in
  Alcotest.check_raises "out of range add" (Invalid_argument "Bitset: index out of range")
    (fun () -> Support.Bitset.add s 8);
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Support.Bitset.mem s (-1)))

(* Property: Bitset agrees with stdlib Set on a random op sequence. *)
let prop_bitset_matches_set =
  QCheck.Test.make ~count:200 ~name:"bitset matches Set on random ops"
    QCheck.(list (pair (int_bound 2) (int_bound 63)))
    (fun ops ->
      let s = Support.Bitset.create 64 in
      let m = ref Support.Iset.empty in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 ->
            Support.Bitset.add s x;
            m := Support.Iset.add x !m
          | 1 ->
            Support.Bitset.remove s x;
            m := Support.Iset.remove x !m
          | _ -> ())
        ops;
      Support.Bitset.elements s = Support.Iset.elements !m
      && Support.Bitset.cardinal s = Support.Iset.cardinal !m)

let test_bit_matrix () =
  let m = Support.Bit_matrix.create 10 in
  checkb "empty" false (Support.Bit_matrix.get m 3 7);
  Support.Bit_matrix.set m 3 7;
  checkb "set" true (Support.Bit_matrix.get m 3 7);
  checkb "symmetric" true (Support.Bit_matrix.get m 7 3);
  Support.Bit_matrix.set m 7 3;
  checki "count ignores duplicates" 1 (Support.Bit_matrix.count m);
  Support.Bit_matrix.set m 0 0;
  checkb "diagonal ignored" false (Support.Bit_matrix.get m 0 0);
  checki "memory is triangular" ((10 * 9 / 2 + 7) / 8)
    (Support.Bit_matrix.memory_bytes m);
  Support.Bit_matrix.clear m;
  checki "cleared" 0 (Support.Bit_matrix.count m)

(* Property: bit matrix equals a reference pair set. *)
let prop_bit_matrix =
  QCheck.Test.make ~count:200 ~name:"bit matrix matches pair set"
    QCheck.(list (pair (int_bound 14) (int_bound 14)))
    (fun pairs ->
      let m = Support.Bit_matrix.create 15 in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (a, b) ->
          Support.Bit_matrix.set m a b;
          if a <> b then Hashtbl.replace reference (min a b, max a b) ())
        pairs;
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Support.Bit_matrix.get m a b
              = Hashtbl.mem reference (min a b, max a b))
            (List.init 15 Fun.id))
        (List.init 15 Fun.id))

let test_vec () =
  let v = Support.Vec.create () in
  checki "empty" 0 (Support.Vec.length v);
  for i = 0 to 99 do
    Support.Vec.push v i
  done;
  checki "length" 100 (Support.Vec.length v);
  checki "get" 42 (Support.Vec.get v 42);
  Support.Vec.set v 42 (-1);
  checki "set" (-1) (Support.Vec.get v 42);
  checki "to_list length" 100 (List.length (Support.Vec.to_list v));
  Alcotest.check_raises "bounds" (Invalid_argument "Vec: index out of range")
    (fun () -> ignore (Support.Vec.get v 100))

let test_vec_recycle () =
  let v = Support.Vec.create () in
  for i = 0 to 9 do
    Support.Vec.push v i
  done;
  let cap = Support.Vec.capacity v in
  checkb "capacity covers length" true (cap >= 10);
  Support.Vec.clear v;
  checki "clear empties" 0 (Support.Vec.length v);
  checki "clear keeps store" cap (Support.Vec.capacity v);
  Support.Vec.push v 7;
  checki "push after clear restarts at 0" 7 (Support.Vec.get v 0);
  Support.Vec.ensure_capacity v ~dummy:0 100;
  checkb "ensure_capacity grows" true (Support.Vec.capacity v >= 100);
  checki "ensure_capacity keeps elements" 7 (Support.Vec.get v 0);
  checki "ensure_capacity keeps length" 1 (Support.Vec.length v);
  let before = Support.Vec.capacity v in
  Support.Vec.ensure_capacity v ~dummy:0 5;
  checki "ensure_capacity never shrinks" before (Support.Vec.capacity v)

let test_entity_id () =
  checkb "none is none" true (Support.Entity.Id.is_none Support.Entity.Id.none);
  checkb "0 is some" true (Support.Entity.Id.is_some 0);
  checkb "equal" true (Support.Entity.Id.equal 3 3);
  checkb "compare orders" true (Support.Entity.Id.compare 1 2 < 0);
  let str i = Format.asprintf "%a" Support.Entity.Id.pp i in
  check Alcotest.string "pp some" "4" (str 4);
  check Alcotest.string "pp none" "-" (str Support.Entity.Id.none)

let test_entity_map () =
  let m = Support.Entity.Secondary_map.create ~default:0 () in
  checki "fresh length" 0 (Support.Entity.Secondary_map.length m);
  checki "default beyond frontier" 0 (Support.Entity.Secondary_map.get m 40);
  Support.Entity.Secondary_map.set m 5 50;
  checki "set/get" 50 (Support.Entity.Secondary_map.get m 5);
  checki "frontier advanced" 6 (Support.Entity.Secondary_map.length m);
  checki "gap holds default" 0 (Support.Entity.Secondary_map.get m 3);
  Support.Entity.Secondary_map.update m 5 (fun x -> x + 1);
  checki "update" 51 (Support.Entity.Secondary_map.get m 5);
  Support.Entity.Secondary_map.set m 2 20;
  let seen = ref [] in
  Support.Entity.Secondary_map.iteri m (fun i x -> seen := (i, x) :: !seen);
  check
    Alcotest.(list (pair int int))
    "iteri covers frontier in id order"
    [ (0, 0); (1, 0); (2, 20); (3, 0); (4, 0); (5, 51) ]
    (List.rev !seen);
  Support.Entity.Secondary_map.clear m;
  checki "clear resets length" 0 (Support.Entity.Secondary_map.length m);
  checki "clear resets values" 0 (Support.Entity.Secondary_map.get m 5);
  Alcotest.check_raises "negative id rejected"
    (Invalid_argument "Secondary_map.set: negative id") (fun () ->
      Support.Entity.Secondary_map.set m (-1) 9)

let test_csr () =
  (* 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {2, 2} (duplicates kept). *)
  let edges = [ (0, 1); (0, 2); (1, 2); (3, 2); (3, 2) ] in
  let g =
    Support.Csr.build ~num_nodes:4 (fun emit ->
        List.iter (fun (src, dst) -> emit ~src ~dst) edges)
  in
  checki "num_nodes" 4 (Support.Csr.num_nodes g);
  checki "num_edges" 5 (Support.Csr.num_edges g);
  checki "degree 0" 2 (Support.Csr.degree g 0);
  checki "degree 2" 0 (Support.Csr.degree g 2);
  checki "get" 2 (Support.Csr.get g 0 1);
  check Alcotest.(list int) "row emission order" [ 2; 2 ]
    (Support.Csr.row_list g 3);
  checki "fold_row" 3 (Support.Csr.fold_row g 0 ( + ) 0);
  let seen = ref [] in
  Support.Csr.iter_row g 0 (fun v -> seen := v :: !seen);
  check Alcotest.(list int) "iter_row" [ 1; 2 ] (List.rev !seen);
  let t = Support.Csr.transpose g in
  check Alcotest.(list int) "transposed row sorted" [ 0; 1; 3; 3 ]
    (Support.Csr.row_list t 2);
  check Alcotest.(list int) "transposed row of 1" [ 0 ] (Support.Csr.row_list t 1);
  Alcotest.check_raises "get out of row"
    (Invalid_argument "Csr.get: index out of row") (fun () ->
      ignore (Support.Csr.get g 2 0))

(* Property: CSR build + transpose agree with a naive edge-set model. *)
let prop_csr_matches_model =
  QCheck.Test.make ~count:200 ~name:"csr matches edge-list model"
    QCheck.(list (pair (int_bound 9) (int_bound 9)))
    (fun edges ->
      let n = 10 in
      let g =
        Support.Csr.build ~num_nodes:n (fun emit ->
            List.iter (fun (src, dst) -> emit ~src ~dst) edges)
      in
      let t = Support.Csr.transpose g in
      let row_of u = List.sort compare (Support.Csr.row_list g u) in
      let model_row u =
        List.sort compare (List.filter_map
          (fun (s, d) -> if s = u then Some d else None) edges)
      in
      let trow_of v = List.sort compare (Support.Csr.row_list t v) in
      let model_trow v =
        List.sort compare (List.filter_map
          (fun (s, d) -> if d = v then Some s else None) edges)
      in
      Support.Csr.num_edges g = List.length edges
      && Support.Csr.num_edges t = List.length edges
      && List.for_all
           (fun u -> row_of u = model_row u && trow_of u = model_trow u)
           (List.init n Fun.id))

(* The word-wide whole-set operations against an [int list] model: two
   random sets of the given capacity and densities, every result compared
   with the model's elements and with a set built by [add]ing them —
   [equal] compares the backing bytes, so any stray bit past [capacity]
   shows up as a mismatch. *)
let bitset_matches_model n seed da db =
  let module B = Support.Bitset in
  let rng = Random.State.make [| seed |] in
  let pick density =
    List.filter (fun _ -> Random.State.int rng 100 < density) (List.init n Fun.id)
  in
  let ma = pick da and mb = pick db in
  let all = List.init n Fun.id in
  let a = B.of_list n ma and b = B.of_list n mb in
  let is model s = B.elements s = model && B.equal s (B.of_list n model) in
  let iterated s =
    let got = ref [] in
    B.iter (fun i -> got := i :: !got) s;
    List.rev !got
  in
  let union = List.sort_uniq compare (ma @ mb) in
  let diff = List.filter (fun x -> not (List.mem x mb)) ma in
  let inter = List.filter (fun x -> List.mem x mb) ma in
  let u = B.copy a in
  let changed = B.union_into ~dst:u b in
  let d = B.copy a in
  B.diff_into ~dst:d b;
  let i = B.copy a in
  B.inter_into ~dst:i b;
  let full = B.copy a in
  B.fill full;
  let complement = B.copy full in
  B.diff_into ~dst:complement a;
  let within = B.copy full in
  B.inter_into ~dst:within b;
  let full_again = B.copy a in
  let full_changed = B.union_into ~dst:full_again full in
  is union u
  && changed = (union <> ma)
  && (not (B.union_into ~dst:u b))
  && is diff d && is inter i
  && iterated a = ma
  && B.fold (fun x acc -> x :: acc) b [] = List.rev mb
  && B.is_empty a = (ma = [])
  && B.cardinal a = List.length ma
  && B.cardinal u = List.length union
  && B.equal a b = (ma = mb)
  && is all full && iterated full = all && B.cardinal full = n
  && is (List.filter (fun x -> not (List.mem x ma)) all) complement
  && is mb within
  && is all full_again
  && full_changed = (List.length ma <> n)
  && B.memory_bytes a = (n + 7) / 8

(* Capacities around the 64-bit word boundaries, where a set is all
   words, all tail bytes, or both. *)
let word_boundaries = [ 0; 1; 7; 8; 9; 63; 64; 65; 127; 128; 129 ]

let test_bitset_word_boundaries () =
  List.iter
    (fun n ->
      List.iter
        (fun (seed, da, db) ->
          if not (bitset_matches_model n seed da db) then
            Alcotest.failf "capacity %d, seed %d, densities %d/%d" n seed da db)
        [ (1, 0, 0); (2, 3, 50); (3, 50, 50); (4, 100, 10); (5, 97, 100) ])
    word_boundaries

let prop_bitset_word_paths =
  QCheck.Test.make ~count:300 ~name:"bitset word paths match an int-list model"
    QCheck.(quad (int_bound 200) (int_bound 10_000) (int_bound 100) (int_bound 100))
    (fun (n, seed, da, db) -> bitset_matches_model n seed da db)

(* [iter_pairs] yields exactly the pairs [get] reports, (i, j) with
   i > j, in triangular order — over sizes whose byte count leaves a
   partial last word, and with dense and sparse fills. *)
let prop_bit_matrix_iter_pairs =
  QCheck.Test.make ~count:200 ~name:"bit matrix iter_pairs = get scan"
    QCheck.(triple (int_bound 90) (int_bound 1000) (int_bound 100))
    (fun (n, seed, density) ->
      let m = Support.Bit_matrix.create n in
      let rng = Random.State.make [| seed |] in
      for i = 0 to n - 1 do
        for j = 0 to i - 1 do
          if Random.State.int rng 100 < density then Support.Bit_matrix.set m i j
        done
      done;
      let expected = ref [] in
      for i = 0 to n - 1 do
        for j = 0 to i - 1 do
          if Support.Bit_matrix.get m i j then expected := (i, j) :: !expected
        done
      done;
      let got = ref [] in
      Support.Bit_matrix.iter_pairs m (fun i j -> got := (i, j) :: !got);
      !got = !expected)

let suite =
  [
    Alcotest.test_case "union-find basics" `Quick test_uf_basic;
    Alcotest.test_case "union-find groups" `Quick test_uf_groups;
    Alcotest.test_case "union-find grow" `Quick test_uf_grow;
    QCheck_alcotest.to_alcotest prop_uf_matches_naive;
    QCheck_alcotest.to_alcotest prop_bit_matrix_iter_pairs;
    Alcotest.test_case "bitset basics" `Quick test_bitset_basic;
    Alcotest.test_case "bitset set operations" `Quick test_bitset_ops;
    Alcotest.test_case "bitset fill" `Quick test_bitset_fill;
    Alcotest.test_case "bitset bounds checking" `Quick test_bitset_bounds;
    QCheck_alcotest.to_alcotest prop_bitset_matches_set;
    Alcotest.test_case "bitset at word boundaries" `Quick
      test_bitset_word_boundaries;
    QCheck_alcotest.to_alcotest prop_bitset_word_paths;
    Alcotest.test_case "bit matrix" `Quick test_bit_matrix;
    QCheck_alcotest.to_alcotest prop_bit_matrix;
    Alcotest.test_case "vec" `Quick test_vec;
    Alcotest.test_case "vec recycling" `Quick test_vec_recycle;
    Alcotest.test_case "entity ids" `Quick test_entity_id;
    Alcotest.test_case "entity secondary map" `Quick test_entity_map;
    Alcotest.test_case "csr adjacency" `Quick test_csr;
    QCheck_alcotest.to_alcotest prop_csr_matches_model;
  ]
