(* The correctness gate and the code-quality counts, both outside every
   timed region: an output must pass [Ir.Validate] and [Check.equiv]
   against its input (ignoring the arrays the pipeline's passes declare
   private, i.e. the allocator's spill slab). *)

type quality = {
  static_copies : int;
  dynamic_copies : int;  (* Interp copies executed with the default args *)
  spill_ops : int;  (* spill loads plus spill stores *)
}

let zero = { static_copies = 0; dynamic_copies = 0; spill_ops = 0 }

let add a b =
  {
    static_copies = a.static_copies + b.static_copies;
    dynamic_copies = a.dynamic_copies + b.dynamic_copies;
    spill_ops = a.spill_ops + b.spill_ops;
  }

let ignore_arrays (pipeline : Pass.Pipeline.t) =
  List.concat_map (fun (p : Pass.t) -> p.ignore_arrays) pipeline

let is_spill arr =
  String.starts_with ~prefix:Regalloc.spill_array arr

let spill_ops f =
  let n = ref 0 in
  Ir.iter_instrs f (fun _ -> function
    | Ir.Load { arr; _ } | Ir.Store { arr; _ } when is_spill arr -> incr n
    | _ -> ());
  !n

(* Arguments for a function that carries none of its own: the first
   battery vector that is not all zeros or all ones. *)
let default_args (f : Ir.func) =
  List.nth (Check.battery ~vectors:3 (List.length f.params)) 2

let output ~pipeline ~args ~(input : Ir.func) (output : Ir.func) =
  match Ir.Validate.run output with
  | e :: _ ->
    Error
      (Format.asprintf "%s: invalid output: %a" input.name Ir.Validate.pp_error
         e)
  | [] -> (
    match
      Check.equiv ~ignore_arrays:(ignore_arrays pipeline) ~reference:input
        output
    with
    | Error m ->
      Error (Format.asprintf "%s: not equivalent: %a" input.name
               Check.pp_mismatch m)
    | Ok () ->
      let dynamic_copies =
        match Interp.run ~args output with
        | o -> o.stats.copies_executed
        | exception Interp.Error _ -> 0
      in
      Ok
        {
          static_copies = Ir.count_copies output;
          dynamic_copies;
          spill_ops = spill_ops output;
        })
