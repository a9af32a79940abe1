type ctx = {
  input : Ir.func;
  scratch : Support.Scratch.t option;
  obs : Obs.t option;
  check : bool;
  mutable reserved_arrays : string list;
}

type shape = Construct | Transform | Conversion | Finish

type t = {
  name : string;
  stage : string;
  span : string;
  key : string;
  shape : shape;
  run : ctx -> Ir.func -> Ir.func * string;
  check_audit : (ctx -> Ir.func -> unit) option;
  ignore_arrays : string list;
}

(* ------------------------------------------------------------------ *)
(* Built-in passes                                                     *)
(* ------------------------------------------------------------------ *)

let transform ~name run =
  {
    name;
    stage = name;
    span = name;
    key = name;
    shape = Transform;
    run = (fun _ f -> run f);
    check_audit = None;
    ignore_arrays = [];
  }

let construct ?(pruning = Ssa.Construct.Pruned) ?(fold_copies = true) () =
  {
    name = "construct";
    stage = "ssa";
    span = "construct";
    key =
      (let p =
         match pruning with
         | Ssa.Construct.Pruned -> "pruned"
         | Ssa.Construct.Semi_pruned -> "semi-pruned"
         | Ssa.Construct.Minimal -> "minimal"
       in
       "construct:" ^ p ^ if fold_copies then "" else "+nofold");
    shape = Construct;
    run =
      (fun ctx f ->
        let ssa, s = Ssa.Construct.run ~pruning ~fold_copies ?obs:ctx.obs f in
        ( ssa,
          Printf.sprintf "%d phis inserted, %d copies folded" s.phis_inserted
            s.copies_folded ));
    check_audit = None;
    ignore_arrays = [];
  }

let copy_prop =
  transform ~name:"copy-prop" (fun f ->
      let g, s = Ssa.Copy_prop.run f in
      ( g,
        Printf.sprintf "%d copies deleted (%d constants), %d phis collapsed"
          s.copies_deleted s.consts_propagated s.phis_collapsed ))

let simplify =
  transform ~name:"simplify" (fun f ->
      let g, s = Ssa.Simplify.run f in
      ( g,
        Printf.sprintf
          "%d folded, %d identities, %d copies propagated, %d phis collapsed"
          s.folded s.identities s.copies_propagated s.phis_collapsed ))

let dce =
  transform ~name:"dce" (fun f ->
      let g, s = Ssa.Dce.run f in
      ( g,
        Printf.sprintf "%d instructions and %d phis removed" s.removed_instrs
          s.removed_phis ))

let coalesce ?(options = Core.Coalesce.default_options) () =
  {
    name = "coalesce";
    stage = "coalesce";
    span = "convert";
    key =
      (let flags =
         (if options.use_filters then [] else [ "no-filters" ])
         @ if options.victim_heuristic then [] else [ "no-victim" ]
       in
       match flags with
       | [] -> "coalesce"
       | fs -> "coalesce:" ^ String.concat "+" fs);
    shape = Conversion;
    run =
      (fun ctx f ->
        let g, s = Core.Coalesce.run ~options ?scratch:ctx.scratch ?obs:ctx.obs f in
        ( g,
          Printf.sprintf
            "%d classes (%d members), %d copies inserted, %d filter refusals"
            s.classes s.class_members s.copies_inserted s.filter_refusals ));
    check_audit =
      Some (fun _ pre -> Check.interference_audit_exn ~options pre);
    ignore_arrays = [];
  }

let standard =
  {
    name = "standard";
    stage = "standard";
    span = "convert";
    key = "standard";
    shape = Conversion;
    run =
      (fun ctx f ->
        let split = fst (Ir.Edge_split.run_cfg ?obs:ctx.obs f) in
        let g, s = Ssa.Destruct_naive.run ?obs:ctx.obs split in
        ( g,
          Printf.sprintf "%d copies inserted (%d cycle temps)" s.copies_inserted
            s.temps_inserted ));
    check_audit = None;
    ignore_arrays = [];
  }

let sreedhar_i =
  {
    name = "sreedhar-i";
    stage = "sreedhar-i";
    span = "convert";
    key = "sreedhar-i";
    shape = Conversion;
    run =
      (fun ctx f ->
        let g, s = Baseline.Sreedhar.run f in
        Option.iter
          (fun o ->
            Obs.add o Obs.Copies_inserted s.copies_inserted;
            Obs.add o Obs.Sreedhar_names_introduced s.names_introduced)
          ctx.obs;
        ( g,
          Printf.sprintf "%d copies inserted, %d names introduced"
            s.copies_inserted s.names_introduced ));
    check_audit = None;
    ignore_arrays = [];
  }

let graph variant =
  let name, stage =
    match variant with
    | Baseline.Ig_coalesce.Briggs -> ("briggs", "briggs")
    | Baseline.Ig_coalesce.Briggs_star -> ("briggs-star", "briggs*")
  in
  {
    name;
    stage;
    span = "convert";
    key = name;
    shape = Conversion;
    run =
      (fun ctx f ->
        let split = fst (Ir.Edge_split.run_cfg ?obs:ctx.obs f) in
        let inst = Ssa.Destruct_naive.run_exn ?obs:ctx.obs split in
        let g, s = Baseline.Ig_coalesce.run ~variant inst in
        Option.iter
          (fun o ->
            Obs.add o Obs.Igraph_rounds s.rounds;
            Obs.add o Obs.Igraph_coalesced s.coalesced;
            Obs.add o Obs.Copies_eliminated s.coalesced)
          ctx.obs;
        ( g,
          Printf.sprintf "%d rounds, %d coalesced, %d copies remain" s.rounds
            s.coalesced s.copies_remaining ));
    check_audit = None;
    ignore_arrays = [];
  }

let graph_fused =
  {
    name = "briggs-star";
    stage = "briggs*-fused";
    span = "convert";
    key = "briggs-star:fused";
    shape = Conversion;
    run =
      (fun ctx f ->
        let split = fst (Ir.Edge_split.run_cfg ?obs:ctx.obs f) in
        let inst = Ssa.Destruct_naive.run_exn ?obs:ctx.obs split in
        let g, s = Baseline.Briggs_star.run inst in
        Option.iter
          (fun o ->
            Obs.add o Obs.Igraph_rounds s.rounds;
            Obs.add o Obs.Igraph_coalesced s.coalesced;
            Obs.add o Obs.Copies_eliminated s.coalesced)
          ctx.obs;
        ( g,
          Printf.sprintf "%d rounds, %d coalesced, %d copies remain (fused)"
            s.rounds s.coalesced s.copies_remaining ));
    check_audit = None;
    ignore_arrays = [];
  }

let regalloc ~registers =
  {
    name = "regalloc";
    stage = "regalloc";
    span = "regalloc";
    key = Printf.sprintf "regalloc:%d" registers;
    shape = Finish;
    run =
      (fun ctx f ->
        let r =
          Regalloc.run ~options:{ Regalloc.default_options with registers } f
        in
        (* The slab's name is only [Regalloc.spill_array] when the function
           does not already use that array itself. *)
        ctx.reserved_arrays <- r.spill_array :: ctx.reserved_arrays;
        ( r.func,
          Printf.sprintf "%d colors, %d spilled ranges (%d loads, %d stores)"
            r.stats.colors_used r.stats.spilled_ranges r.stats.spill_loads
            r.stats.spill_stores ));
    check_audit = None;
    ignore_arrays = [ Regalloc.spill_array ];
  }

(* ------------------------------------------------------------------ *)
(* Pipelines: shape checking                                           *)
(* ------------------------------------------------------------------ *)

module Pipeline = struct
  type nonrec t = t list

  let fingerprint passes =
    String.concat "," (List.map (fun p -> p.key) passes)

  let conversion_names = "standard|coalesce|briggs|briggs-star|sreedhar-i"

  let validate passes =
    match passes with
    | [] -> Error "empty pipeline: nothing to run"
    | first :: rest -> (
      if first.shape <> Construct then
        Error
          (Printf.sprintf
             "pipeline must begin with a construction pass (e.g. \
              'construct:pruned'), not '%s'"
             first.name)
      else
        (* After the head: transforms, then one conversion, then finishes. *)
        let rec body = function
          | [] ->
            Error
              (Printf.sprintf
                 "pipeline never leaves SSA: end it with a conversion route \
                  (%s)"
                 conversion_names)
          | p :: ps -> (
            match p.shape with
            | Transform -> body ps
            | Conversion -> tail ps
            | Construct ->
              Error
                (Printf.sprintf "'%s' can only appear first in a pipeline"
                   p.name)
            | Finish ->
              Error
                (Printf.sprintf
                   "'%s' runs on converted (phi-free) code: put it after a \
                    conversion route (%s)"
                   p.name conversion_names))
        and tail = function
          | [] -> Ok ()
          | p :: ps -> (
            match p.shape with
            | Finish -> tail ps
            | Construct | Transform | Conversion ->
              Error
                (Printf.sprintf
                   "'%s' cannot follow the conversion: only finishing passes \
                    (e.g. 'regalloc:8') may"
                   p.name))
        in
        body rest)
end

(* ------------------------------------------------------------------ *)
(* The runner: one middleware around every pass                        *)
(* ------------------------------------------------------------------ *)

type stage = {
  name : string;
  func : Ir.func;
  note : string;
}

type report = {
  input : Ir.func;
  output : Ir.func;
  stages : stage list;
}

let run ?(check = false) ?scratch ?obs passes input =
  (match Pipeline.validate passes with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Pass.run: " ^ msg));
  let span name f =
    match obs with Some o -> Obs.span o name f | None -> f ()
  in
  (* The stage checks are charged to their own span, so a report shows
     what they cost; with no recorder they are called directly. *)
  let validate check_exn g =
    match obs with
    | None -> check_exn g
    | Some o -> Obs.span o "validate" (fun () -> check_exn g)
  in
  validate Ir.Validate.check_exn input;
  let ctx = { input; scratch; obs; check; reserved_arrays = [] } in
  let stages = ref [] in
  let audits = ref [] in
  let run_pass cur p =
    let g, note = span p.span (fun () -> p.run ctx cur) in
    (* The producing pass declares its output contract; the middleware
       holds it to it before anything downstream consumes the result. *)
    (match p.shape with
    | Construct | Transform -> validate Ssa.Ssa_validate.check_exn g
    | Conversion | Finish -> validate Ir.Validate.check_exn g);
    stages := { name = p.stage; func = g; note } :: !stages;
    (if check then
       match p.check_audit with
       | Some audit -> audits := (fun () -> audit ctx cur) :: !audits
       | None -> ());
    g
  in
  let output = List.fold_left run_pass input passes in
  if check then
    span "check" (fun () ->
        List.iter (fun audit -> audit ()) (List.rev !audits);
        Check.equiv_exn ~ignore_arrays:ctx.reserved_arrays ~reference:input
          output);
  { input; output; stages = List.rev !stages }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

module Registry = struct
  type entry = {
    name : string;
    doc : string;
    arg : string option;
    build : string option -> (t, string) result;
  }

  let table : (string, entry) Hashtbl.t = Hashtbl.create 16

  let register e =
    if Hashtbl.mem table e.name then
      invalid_arg ("Pass.Registry.register: duplicate pass name " ^ e.name);
    Hashtbl.add table e.name e

  let find name = Hashtbl.find_opt table name

  let names () =
    Hashtbl.fold (fun k _ acc -> k :: acc) table []
    |> List.sort compare

  let all () =
    List.filter_map find (names ())

  (* Classic Levenshtein, small strings only. *)
  let edit_distance a b =
    let la = String.length a and lb = String.length b in
    let row = Array.init (lb + 1) Fun.id in
    for i = 1 to la do
      let prev_diag = ref row.(0) in
      row.(0) <- i;
      for j = 1 to lb do
        let up = row.(j) in
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        row.(j) <- min (min (up + 1) (row.(j - 1) + 1)) (!prev_diag + cost);
        prev_diag := up
      done
    done;
    row.(lb)

  let suggest name ~candidates =
    let scored =
      List.map (fun c -> (edit_distance name c, c)) candidates
      |> List.sort compare
    in
    match scored with
    | (d, c) :: _ when d <= max 2 (String.length name / 3) -> Some c
    | _ -> None
end

let no_arg name build = function
  | None -> Ok (build ())
  | Some a ->
    Error (Printf.sprintf "pass '%s' takes no argument (got ':%s')" name a)

(* "pruned+nofold" → options; parts may come in either order. *)
let parse_construct_arg = function
  | None -> Ok (construct ())
  | Some a ->
    let parts = String.split_on_char '+' a in
    let rec go pruning fold_copies = function
      | [] -> Ok (construct ?pruning ~fold_copies ())
      | "pruned" :: rest when pruning = None ->
        go (Some Ssa.Construct.Pruned) fold_copies rest
      | "semi-pruned" :: rest when pruning = None ->
        go (Some Ssa.Construct.Semi_pruned) fold_copies rest
      | "minimal" :: rest when pruning = None ->
        go (Some Ssa.Construct.Minimal) fold_copies rest
      | "nofold" :: rest when fold_copies ->
        go pruning false rest
      | part :: _ ->
        Error
          (Printf.sprintf
             "construct: bad argument '%s' in '%s' (want \
              pruned|semi-pruned|minimal, optionally +nofold)"
             part a)
    in
    go None true parts

let parse_coalesce_arg = function
  | None -> Ok (coalesce ())
  | Some a ->
    let parts = String.split_on_char '+' a in
    let rec go (options : Core.Coalesce.options) = function
      | [] -> Ok (coalesce ~options ())
      | "no-filters" :: rest -> go { options with use_filters = false } rest
      | "no-victim" :: rest -> go { options with victim_heuristic = false } rest
      | part :: _ ->
        Error
          (Printf.sprintf
             "coalesce: bad argument '%s' in '%s' (want no-filters and/or \
              no-victim, joined with +)"
             part a)
    in
    go Core.Coalesce.default_options parts

let parse_regalloc_arg = function
  | None -> Error "regalloc needs a register count, e.g. 'regalloc:8'"
  | Some a -> (
    match int_of_string_opt a with
    | Some k when k > 0 -> Ok (regalloc ~registers:k)
    | Some _ | None ->
      Error
        (Printf.sprintf "regalloc: '%s' is not a positive register count" a))

let () =
  List.iter Registry.register
    [
      {
        Registry.name = "construct";
        doc = "SSA construction (Cytron et al.)";
        arg = Some "pruned|semi-pruned|minimal[+nofold]";
        build = parse_construct_arg;
      };
      {
        name = "copy-prop";
        doc = "SSA copy/constant propagation via value-table rewriting";
        arg = None;
        build = no_arg "copy-prop" (fun () -> copy_prop);
      };
      {
        name = "simplify";
        doc = "constant folding, identities, copy propagation, phi collapse";
        arg = None;
        build = no_arg "simplify" (fun () -> simplify);
      };
      {
        name = "dce";
        doc = "dead-code elimination on SSA def-use chains";
        arg = None;
        build = no_arg "dce" (fun () -> dce);
      };
      {
        name = "coalesce";
        doc = "the paper's graph-free coalescing conversion";
        arg = Some "no-filters|no-victim[+...]";
        build = parse_coalesce_arg;
      };
      {
        name = "standard";
        doc = "naive phi instantiation, no coalescing";
        arg = None;
        build = no_arg "standard" (fun () -> standard);
      };
      {
        name = "briggs";
        doc = "naive instantiation + full interference-graph coalescing";
        arg = None;
        build = no_arg "briggs" (fun () -> graph Baseline.Ig_coalesce.Briggs);
      };
      {
        name = "briggs-star";
        doc = "naive instantiation + copy-restricted-graph coalescing";
        arg = Some "fused";
        build =
          (function
          | None -> Ok (graph Baseline.Ig_coalesce.Briggs_star)
          | Some "fused" -> Ok graph_fused
          | Some a ->
            Error
              (Printf.sprintf
                 "briggs-star: bad argument '%s' (the only argument is \
                  ':fused', the rewrite-free engineering variant)"
                 a));
      };
      {
        name = "sreedhar-i";
        doc = "Sreedhar et al. Method I instantiation";
        arg = None;
        build = no_arg "sreedhar-i" (fun () -> sreedhar_i);
      };
      {
        name = "regalloc";
        doc = "Chaitin/Briggs register allocation to K colors";
        arg = Some "K";
        build = parse_regalloc_arg;
      };
    ]

let ssa_pass ~name ?(doc = "custom SSA pass") run =
  let p = transform ~name run in
  Registry.register
    { Registry.name; doc; arg = None; build = no_arg name (fun () -> p) };
  p

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                        *)
(* ------------------------------------------------------------------ *)

module Spec = struct
  let grammar =
    "A pipeline spec is a comma-separated list of registered passes, each \
     'name' or 'name:arg' — a construction pass first, SSA transforms in \
     any order, exactly one conversion route, then finishing passes. \
     Example: construct:pruned,copy-prop,simplify,dce,coalesce,regalloc:8"

  let registered_listing () =
    Registry.all ()
    |> List.map (fun (e : Registry.entry) ->
           match e.arg with
           | None -> Printf.sprintf "  %-14s %s" e.name e.doc
           | Some a -> Printf.sprintf "  %-14s %s" (e.name ^ ":" ^ a) e.doc)
    |> String.concat "\n"

  let unknown_pass name =
    let hint =
      match Registry.suggest name ~candidates:(Registry.names ()) with
      | Some c -> Printf.sprintf " — did you mean '%s'?" c
      | None -> ""
    in
    Error
      (Printf.sprintf "unknown pass '%s'%s\nregistered passes:\n%s" name hint
         (registered_listing ()))

  let parse_item item =
    let name, arg =
      match String.index_opt item ':' with
      | None -> (item, None)
      | Some i ->
        ( String.sub item 0 i,
          Some (String.sub item (i + 1) (String.length item - i - 1)) )
    in
    match Registry.find name with
    | None -> unknown_pass name
    | Some e -> e.build arg

  let parse spec =
    let items =
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    if items = [] then Error "empty pipeline spec"
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
          match parse_item item with
          | Ok p -> go (p :: acc) rest
          | Error _ as e -> e)
      in
      match go [] items with
      | Error _ as e -> e
      | Ok passes -> (
        match Pipeline.validate passes with
        | Ok () -> Ok passes
        | Error msg -> Error ("bad pipeline: " ^ msg))

  let to_string passes = Pipeline.fingerprint passes
end
