(* The traced run's span recorder.

   Every call the benchmark makes into a layer's public function is one
   span: name, start, end, the enclosing span and the function or request
   it belongs to, plus the words the calling domain allocated meanwhile.
   Spans stay in per-domain buffers until the run ends; self time (a
   span's duration minus what its child spans cover) is computed from
   them afterwards. Nothing here runs in an untraced run. *)

type span = {
  id : int;
  parent : int;  (* 0 at the top level *)
  item : int;  (* the function or request the span belongs to *)
  name : string;
  t0 : float;
  t1 : float;
  words : float;  (* allocated by this domain between t0 and t1 *)
}

let next_id = Atomic.make 1
let buffers : span list ref list ref = ref []
let buffers_lock = Mutex.create ()

let buffer =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      Mutex.lock buffers_lock;
      buffers := b :: !buffers;
      Mutex.unlock buffers_lock;
      b)

let open_spans = Domain.DLS.new_key (fun () -> ref [])

(* [~thread:true] is for systhreads that share a domain: such a span is
   always top-level and is filed under the lock, since the domain's
   open-span stack and buffer are not theirs alone. *)
let span ?(thread = false) ~item name f =
  let buf = Domain.DLS.get buffer and stack = Domain.DLS.get open_spans in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match !stack with p :: _ when not thread -> p | _ -> 0 in
  if not thread then stack := id :: !stack;
  let w0 = Common.domain_words () in
  let t0 = Unix.gettimeofday () in
  let close () =
    let t1 = Unix.gettimeofday () in
    let words = Common.domain_words () -. w0 in
    let s = { id; parent; item; name; t0; t1; words } in
    if thread then Mutex.protect buffers_lock (fun () -> buf := s :: !buf)
    else begin
      stack := List.tl !stack;
      buf := s :: !buf
    end
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let all_spans () =
  Mutex.lock buffers_lock;
  let l = List.concat_map (fun b -> !b) !buffers in
  Mutex.unlock buffers_lock;
  l

(* One span per line: id, parent, item, name, start, end, words. *)
let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\t%.0f\n" s.id s.parent
            s.item s.name s.t0 s.t1 s.words)
        (List.sort (fun a b -> compare a.id b.id) (all_spans ())))

type layer = { calls : int; self_s : float; self_words : float }

(* Self time and self words per span name. *)
let layers () =
  let spans = all_spans () in
  let child_s = Hashtbl.create 1024 and child_w = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent
            (v +. Option.value ~default:0. (Hashtbl.find_opt tbl s.parent))
        in
        add child_s (s.t1 -. s.t0);
        add child_w s.words
      end)
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let sub tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
      let self_s = s.t1 -. s.t0 -. sub child_s
      and self_words = s.words -. sub child_w in
      let l =
        Option.value
          ~default:{ calls = 0; self_s = 0.; self_words = 0. }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        {
          calls = l.calls + 1;
          self_s = l.self_s +. self_s;
          self_words = l.self_words +. self_words;
        })
    spans;
  fun name ->
    Option.value
      ~default:{ calls = 0; self_s = 0.; self_words = 0. }
      (Hashtbl.find_opt by_name name)
