(* Differential test of the stage validators: Ir.Validate's [structure],
   [strictness] and [run], and Ssa.Ssa_validate.run, must return exactly
   the (where, what) lists of the list-based reference (validate_ref.ml),
   in the same order, on valid functions and on deliberately broken ones. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let pipelines =
  List.map
    (fun s ->
      match Pass.Spec.parse s with Ok p -> p | Error msg -> failwith msg)
    [
      "construct:pruned,copy-prop,simplify,dce,coalesce,regalloc:4";
      "construct:minimal+nofold,standard";
      "construct:semi-pruned,briggs-star";
    ]

(* Valid sources: kernels and adversarial functions, corpus items and
   generated programs. Built on demand and not kept, so the test leaves
   no large live set behind for the memory-sensitive suites after it. *)
let num_corpus = 24
let num_generated = 6
let named () = Workloads.Suite.kernels () @ Workloads.Suite.adversarial ()
let num_sources () = List.length (named ()) + num_corpus + num_generated

let source i =
  let named = named () in
  let nn = List.length named in
  if i < nn then (List.nth named i).func
  else if i < nn + num_corpus then
    Workloads.Corpus.item
      { seed = 7; total = num_corpus; mix = Workloads.Corpus.default_mix }
      (i - nn)
  else random_program (100 + i - nn - num_corpus) 30

(* The source, then every Pass.run stage of it under [pipeline]. *)
let stages pipeline f =
  f :: List.map (fun (s : Pass.stage) -> s.func) (Pass.run pipeline f).stages

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

type mutation =
  | Delete_def
  | Dup_phi_label
  | Wrong_phi_label
  | Reg_out_of_range
  | Label_out_of_range
  | Entry_phi
  | Second_def
  | Use_across_join
  | Unreachable_phi

let mutations =
  [
    Delete_def; Dup_phi_label; Wrong_phi_label; Reg_out_of_range;
    Label_out_of_range; Entry_phi; Second_def; Use_across_join;
    Unreachable_phi;
  ]

let mutation_name = function
  | Delete_def -> "deleted def"
  | Dup_phi_label -> "duplicate phi label"
  | Wrong_phi_label -> "wrong phi label"
  | Reg_out_of_range -> "register out of range"
  | Label_out_of_range -> "label out of range"
  | Entry_phi -> "entry-block phi"
  | Second_def -> "second definition"
  | Use_across_join -> "use before definition across a join"
  | Unreachable_phi -> "phi in an unreachable block"

let pick k = function [] -> None | l -> Some (List.nth l (k mod List.length l))

let set_block (f : Ir.func) l b =
  let blocks = Array.copy f.blocks in
  blocks.(l) <- b;
  Ir.with_blocks f blocks

(* Every (label, index) whose element satisfies [p]. *)
let sites (f : Ir.func) get p =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun l b ->
            List.concat (List.mapi (fun i x -> if p x then [ (l, i) ] else []) (get b)))
          f.blocks))

let update_nth i g l = List.mapi (fun j x -> if j = i then g x else x) l
let phis (b : Ir.block) = b.phis
let body (b : Ir.block) = b.body

(* [mutate m k f] applies [m] at the site chosen by [k], or [None] when
   [f] has no such site. *)
let mutate m k (f : Ir.func) : Ir.func option =
  let n = Ir.num_blocks f in
  let on_phi g =
    Option.map
      (fun (l, i) ->
        let b = f.blocks.(l) in
        set_block f l { b with phis = update_nth i g b.phis })
      (pick k (sites f phis (fun (p : Ir.phi) -> p.args <> [])))
  in
  match m with
  | Delete_def ->
    Option.map
      (fun (l, i) ->
        let b = f.blocks.(l) in
        set_block f l { b with body = List.filteri (fun j _ -> j <> i) b.body })
      (pick k (sites f body (fun i -> Ir.def i <> None)))
  | Dup_phi_label ->
    on_phi (fun p -> { p with args = List.hd p.args :: p.args })
  | Wrong_phi_label ->
    on_phi (fun p ->
        match p.args with
        | (pl, op) :: rest -> { p with args = ((pl + 1 + k) mod n, op) :: rest }
        | [] -> p)
  | Reg_out_of_range ->
    (* Odd [k] picks a block with φs and also breaks their operands, with
       another register, so one block reports distinct errors from its
       body and its φs. *)
    let bad = if k mod 2 = 0 then f.nregs else -1 in
    let bad_arg (pl, op) =
      (pl, match op with Ir.Reg _ -> Ir.Reg (f.nregs + 1) | c -> c)
    in
    Option.map
      (fun (l, i) ->
        let b = f.blocks.(l) in
        set_block f l
          {
            b with
            body =
              update_nth i (Ir.map_instr_uses (fun _ -> Ir.Reg bad)) b.body;
            phis =
              (if k mod 2 = 0 then b.phis
               else
                 List.map
                   (fun (p : Ir.phi) -> { p with args = List.map bad_arg p.args })
                   b.phis);
          })
      (let uses = sites f body (fun i -> Ir.uses i <> []) in
       let with_phis =
         List.filter (fun (l, _) -> f.blocks.(l).phis <> []) uses
       in
       pick k (if k mod 2 = 1 && with_phis <> [] then with_phis else uses))
  | Label_out_of_range ->
    let bad = if k mod 2 = 0 then n else -1 in
    Option.map
      (fun l ->
        let b = f.blocks.(l) in
        set_block f l { b with term = Ir.map_successors (fun _ -> bad) b.term })
      (pick k
         (List.filter
            (fun l -> Ir.successors f.blocks.(l).term <> [])
            (List.init n Fun.id)))
  | Entry_phi ->
    let b = f.blocks.(f.entry) in
    let args = if k mod 2 = 0 then [] else [ (f.entry, Ir.Const (Int 0)) ] in
    Some
      {
        (set_block f f.entry { b with phis = { dst = f.nregs; args } :: b.phis })
        with
        nregs = f.nregs + 1;
      }
  | Second_def ->
    let defined =
      f.params
      @ List.concat_map
          (fun (b : Ir.block) ->
            List.map (fun (p : Ir.phi) -> p.dst) b.phis
            @ List.filter_map Ir.def b.body)
          (Array.to_list f.blocks)
    in
    Option.map
      (fun r ->
        let l = k mod n in
        let b = f.blocks.(l) in
        set_block f l
          { b with body = Ir.Copy { dst = r; src = Const (Int 1) } :: b.body })
      (pick k defined)
  | Use_across_join ->
    let cfg = Ir.Cfg.of_func f in
    Option.map
      (fun l ->
        let p = Ir.Cfg.pred cfg l (k mod Ir.Cfg.num_preds cfg l) in
        let d = f.nregs and u = f.nregs + 1 in
        let pb = f.blocks.(p) in
        let f =
          set_block f p
            { pb with body = pb.body @ [ Ir.Copy { dst = d; src = Const (Int 2) } ] }
        in
        let b = f.blocks.(l) in
        let f =
          set_block f l
            { b with body = Ir.Copy { dst = u; src = Reg d } :: b.body }
        in
        { f with nregs = f.nregs + 2 })
      (pick k
         (List.filter
            (fun l -> Ir.Cfg.num_preds cfg l >= 2)
            (List.init n Fun.id)))
  | Unreachable_phi ->
    let args =
      if k mod 2 = 0 then [ (0, Ir.Const (Int 0)); (0, Ir.Const (Int 0)) ]
      else [ (n + 5, Ir.Reg (f.nregs + 7)) ]
    in
    let extra = { Ir.label = n; phis = [ { dst = f.nregs; args } ]; body = []; term = Return None } in
    Some
      {
        (Ir.with_blocks f (Array.append f.blocks [| extra |])) with
        nregs = f.nregs + 1;
      }

(* ------------------------------------------------------------------ *)
(* The comparison                                                      *)
(* ------------------------------------------------------------------ *)

let checks =
  [
    ("structure", Ir.Validate.structure, Validate_ref.structure);
    ("strictness", Ir.Validate.strictness, Validate_ref.strictness);
    ("run", Ir.Validate.run, Validate_ref.run);
    ("Ssa_validate.run", Ssa.Ssa_validate.run, Validate_ref.ssa_run);
  ]

let outcome check f =
  match check f with
  | errs ->
    Ok (List.map (fun (e : Ir.Validate.error) -> (e.where, e.what)) errs)
  | exception e -> Error (Printexc.to_string e)

let show = function
  | Error e -> "raised " ^ e
  | Ok errs ->
    "[" ^ String.concat "; " (List.map (fun (w, m) -> w ^ ": " ^ m) errs) ^ "]"

(* The first check on which the two sides differ, if any. *)
let mismatch f =
  List.find_map
    (fun (name, fast, reference) ->
      let a = outcome fast f and b = outcome reference f in
      if a = b then None
      else Some (Printf.sprintf "%s: got %s, reference %s" name (show a) (show b)))
    checks

(* The check [f]'s stage passes: the SSA one for SSA stages, else [run]. *)
let stage_check f =
  if Ssa.Ssa_validate.run f = [] then Ssa.Ssa_validate.run else Ir.Validate.run

(* Every stage of every source, and every mutation of it at a site that
   varies with the source and stage: the two sides agree. Each stage
   passes its check, and each mutation breaks at least one function in a
   way its stage check reports, so real error lists are compared. *)
let test_every_stage () =
  let reported = Hashtbl.create 16 in
  for i = 0 to num_sources () - 1 do
    List.iter
      (fun p ->
        List.iteri
          (fun j (f : Ir.func) ->
            (match mismatch f with
            | Some msg -> Alcotest.failf "%s: %s" f.name msg
            | None -> ());
            let check = stage_check f in
            checkb (f.name ^ ": valid") true (check f = []);
            let k = i + j in
            List.iter
              (fun m ->
                match mutate m k f with
                | None -> ()
                | Some g -> (
                  if check g <> [] then Hashtbl.replace reported m ();
                  match mismatch g with
                  | None -> ()
                  | Some msg ->
                    Alcotest.failf "%s (%s, k=%d): %s" f.name
                      (mutation_name m) k msg))
              mutations)
          (stages p (source i)))
      pipelines
  done;
  List.iter
    (fun m ->
      checkb (mutation_name m ^ " is reported") true (Hashtbl.mem reported m))
    mutations

(* A random stage of a random source, then a random mutation of it (or
   none). *)
let prop_differential =
  QCheck.Test.make ~count:200 ~name:"validators match the reference oracle"
    QCheck.(
      quad (int_bound 1_000_000) (int_bound 1_000)
        (int_bound (List.length mutations))
        small_nat)
    (fun (i, j, m, k) ->
      let pipeline = List.nth pipelines (j mod List.length pipelines) in
      let fs = stages pipeline (source (i mod num_sources ())) in
      let f = List.nth fs (j / List.length pipelines mod List.length fs) in
      let g, label =
        match List.nth_opt mutations m with
        | None -> (Some f, "unmutated")
        | Some m -> (mutate m k f, mutation_name m)
      in
      match g with
      | None -> true
      | Some g -> (
        match mismatch g with
        | None -> true
        | Some msg ->
          QCheck.Test.fail_reportf "%s (%s, k=%d): %s" f.name label k msg))

let suite =
  [
    Alcotest.test_case "every stage, valid and mutated" `Quick test_every_stage;
    QCheck_alcotest.to_alcotest prop_differential;
  ]
