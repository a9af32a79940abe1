(* Workload [serve], run by hand but not listed in BENCHMARK.json (see
   bench.ml); its traced session supplies the serve and cache layers of
   the corpus workload's traced run.

   An in-process Serve.Server on loopback with the
   default cache, driven by a closed-loop connection that keeps one tagged
   [inline] request outstanding. Three requests in four repeat a hot set
   smaller than the cache, one is a program the server has never seen (a
   template under a fresh name: a new cache key and a full compile), so
   the cache both hits and stores. Not half and half: then the median
   round trip would sit on the edge between hits and compiles and jump
   from one to the other between runs. This is the request line
   → reply line path: protocol, queue, cache and transport dominate, and
   regalloc and the graph coalescers are bypassed.

   One connection, not two: with two, runs fell into a fast and a slow
   mode (p99 between 1.4 and 8.9 ms over ten runs, throughput between
   1700 and 4000 replies/s); with one, the p99 stays near 1 ms. *)

open Common

let clients = 1

(* One compile domain: run.py pins a timed run to one processor, where a
   second compile domain could only take turns with the first. *)
let jobs = 1

let templates = 256
let hot_size = 64

(* Hot programs are drawn from Serve.Loadgen's corpus by the seed. *)
type programs = { all : string array; hot : int array }

let programs ~seed =
  let all = Array.of_list (Serve.Loadgen.corpus ~distinct:templates) in
  let perm = Array.init templates Fun.id in
  shuffle ~seed perm;
  { all; hot = Array.sub perm 0 hot_size }

(* A never-seen program: template [k mod templates] renamed, so it prints
   (and hashes) differently but compiles to the same code. *)
let cold_text p ~seed k =
  let t = p.all.(k mod templates) in
  let paren = String.index t '(' in
  Printf.sprintf "func c%d_%d%s" seed k
    (String.sub t paren (String.length t - paren))

type client = { ic : in_channel; oc : out_channel }

let connect port =
  let ic, oc =
    Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  { ic; oc }

let disconnect c =
  (try Unix.shutdown_connection c.ic with Unix.Unix_error _ -> ());
  close_in_noerr c.ic

let line ~tag text = Printf.sprintf "inline --tag %d %s" tag text

let exchange c l =
  output_string c.oc l;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

type env = {
  seed : int;
  progs : programs;
  cache : Cache.t;
  server : Serve.Server.t;
  conns : client array;
  mutable next_tag : int;
}

let setup ~seed () =
  let progs = programs ~seed in
  let cache = Cache.create () in
  let server =
    Serve.Server.start
      ~config:{ Serve.Server.default_config with jobs; cache = Some cache }
      (Serve.Server.Tcp ("", 0))
  in
  let conns = Array.init clients (fun _ -> connect (Serve.Server.port server)) in
  (* Warm the cache with the hot set, as a long-running server would be. *)
  Array.iteri
    (fun i h -> ignore (exchange conns.(0) (line ~tag:(-1 - i) progs.all.(h))))
    progs.hot;
  { seed; progs; cache; server; conns; next_tag = 0 }

let dispose env =
  Array.iter disconnect env.conns;
  Serve.Server.stop env.server

let pipeline = Serve.Protocol.pipeline None

(* The expected result of every template, verified once before any
   request is timed: Pass.run of the server's default pipeline, checked
   like every other output. *)
let references ?(span = fun f -> f ()) progs fs =
  Array.map
    (fun text ->
      let f = List.hd (Frontend.Lower.compile text) in
      let out = (Pass.run pipeline f).output in
      match
        span (fun () ->
            Verify.output ~pipeline ~args:(Verify.default_args f) ~input:f out)
      with
      | Ok q -> q
      | Error msg ->
        fail fs msg;
        Verify.zero)
    progs.all

let field body key =
  List.find_map
    (fun w ->
      match String.split_on_char '=' w with
      | [ k; v ] when k = key -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char ' ' body)

(* A reply is correct when it is the ok reply to this tag for one
   function with the reference's copy count; its cache-hit count is
   returned. *)
let check_reply (refs : Verify.quality array) ~tag ~template reply =
  let expected = refs.(template).static_copies in
  if not (String.starts_with ~prefix:(Printf.sprintf "ok tag=%d " tag) reply)
  then Error (Printf.sprintf "request %d: reply %S" tag reply)
  else
    match (field reply "funcs", field reply "copies", field reply "hits") with
    | Some 1, Some c, Some h when c = expected -> Ok h
    | _ ->
      Error
        (Printf.sprintf "request %d: reply %S, expected copies=%d" tag reply
           expected)

type request = { tag : int; template : int; hot : bool; rtt : float }

let text env ~hot ~template ~tag =
  if hot then env.progs.all.(template)
  else cold_text env.progs ~seed:env.seed tag

let request_line env r =
  line ~tag:r.tag (text env ~hot:r.hot ~template:r.template ~tag:r.tag)

(* What one drive saw: round trips of correct replies, their cache hits,
   requests sent and, when asked to keep them, the requests themselves. *)
type tally = {
  lat : samples;
  mutable hits : int;
  mutable sent : int;
  mutable kept : request list;
}

let tally () = { lat = samples (); hits = 0; sent = 0; kept = [] }

(* Each connection runs its own closed loop: send, wait for the reply,
   check it, send the next, until [stop] says so. Hot (three times in
   four) or cold is drawn from the connection's own seeded stream; cold
   names never repeat, but their templates do, so the steadied timing
   keys a request by template and hot or cold. *)
let drive ?(span = fun _ f -> f ()) ?(keep = false) ?paced env refs fs ~stop
    =
  let base = env.next_tag in
  let tallies = Array.init clients (fun _ -> tally ()) in
  let lock = Mutex.create () in
  let client c () =
    let t = tallies.(c) in
    let rng = Random.State.make [| env.seed; c; base |] in
    while not (stop t.sent) do
      let tag = base + (clients * t.sent) + c in
      let hot = Random.State.int rng 4 <> 0 in
      let template =
        if hot then env.progs.hot.(Random.State.int rng hot_size)
        else tag mod templates
      in
      let l = line ~tag (text env ~hot ~template ~tag) in
      let sent = now () in
      let reply = span tag (fun () -> exchange env.conns.(c) l) in
      let rtt = now () -. sent in
      (match check_reply refs ~tag ~template reply with
      | Ok h ->
        push t.lat rtt;
        let key = if hot then template else templates + template in
        Option.iter
          (fun p -> Calib.record p ~key ~finished:(sent +. rtt) rtt)
          paced;
        t.hits <- t.hits + h
      | Error msg -> Mutex.protect lock (fun () -> fail fs msg));
      if keep then t.kept <- { tag; template; hot; rtt } :: t.kept;
      t.sent <- t.sent + 1;
      Option.iter Calib.tick paced
    done
  in
  (* The connections live on a domain of their own: on the server's
     domain their threads would queue for its runtime lock behind the
     session threads and the compile work it also runs. *)
  Domain.join
    (Domain.spawn (fun () ->
         List.iter Thread.join
           (List.init clients (fun c -> Thread.create (client c) ()))));
  let all = tally () in
  Array.iter
    (fun t ->
      for i = 0 to t.lat.len - 1 do
        push all.lat (get t.lat i)
      done;
      all.hits <- all.hits + t.hits;
      all.sent <- all.sent + t.sent;
      all.kept <- all.kept @ List.rev t.kept;
      env.next_tag <- max env.next_tag (base + (clients * (t.sent + 1))))
    tallies;
  all

let hot_quality env refs =
  Array.fold_left (fun q h -> Verify.add q refs.(h)) Verify.zero env.progs.hot

let run ~seed ~seconds =
  let fs = failures () in
  let setup_s, env = Calib.timed_setup ~reps:25 ~dispose (setup ~seed) in
  let refs = references env.progs fs in
  let w0 = gc_words () in
  let paced = Calib.start () in
  let deadline = now () +. seconds in
  let t = drive env refs fs ~paced ~stop:(fun _ -> now () > deadline) in
  let words = gc_words () -. w0 in
  let timing, tail = Calib.stop paced in
  let cache = Cache.stats env.cache in
  dispose env;
  let q = hot_quality env refs in
  let ok = t.lat.len in
  let attempted = t.sent + Array.length refs in
  {
    attempted;
    failed = fs.count;
    metrics =
      setup_s @ timing
      @ [
          metric ~samples:ok "alloc_words_per_func" "words"
            (words /. float ok);
          metric ~samples:hot_size "static_copies" "count"
            (float q.static_copies);
          metric ~samples:hot_size "dynamic_copies" "count"
            (float q.dynamic_copies);
          metric ~samples:hot_size "spill_ops" "count" (float q.spill_ops);
          metric ~samples:attempted "fail_ratio" "ratio"
            (float fs.count /. float attempted);
        ];
    notes =
      [
        Printf.sprintf
          "serve: %d connections, jobs %d, %d ok replies, cache hit share \
           %.3f, cache hits=%d misses=%d evictions=%d, inputs %s"
          clients jobs ok
          (float t.hits /. float (max 1 ok))
          cache.hits cache.misses cache.evictions
          (Digest.to_hex
             (Digest.string
                (cold_text env.progs ~seed 0
                ^ String.concat ","
                    (Array.to_list
                       (Array.map (fun h -> env.progs.all.(h)) env.progs.hot)))));
        tail;
      ]
      @ fs.first;
  }

let traced_requests = 4000

(* The traced run: [traced_requests] untraced requests (the overhead
   baseline and the cache figures), as many again with every round trip
   in a span, then a replay of the traced lines through
   Serve.Protocol.respond on a fresh, equally warmed cache: lowering, key
   and compile calls in spans. The functions the replay compiled go
   through the layer-by-layer composition, which must print what Pass.run
   printed. *)
let traced ~seed =
  let fs = failures () in
  let env = setup ~seed () in
  let refs =
    references ~span:(Trace.span ~item:(-1) "check.verify") env.progs fs
  in
  let stop j = j >= traced_requests / clients in
  let gc0 = Gc.quick_stat () in
  let c0 = Cache.stats env.cache in
  let t0 = now () in
  let untraced = drive env refs fs ~stop in
  let wall_a = now () -. t0 in
  let gc = Layers.gc_delta gc0 in
  let c1 = Cache.stats env.cache in
  let t0 = now () in
  let requests =
    (drive env refs fs ~stop ~keep:true ~span:(fun item f ->
         Trace.span ~thread:true ~item "serve.rtt" f))
      .kept
  in
  let wall_b = now () -. t0 in
  dispose env;
  List.iter
    (fun r ->
      let program = text env ~hot:r.hot ~template:r.template ~tag:r.tag in
      Trace.span ~item:r.tag "frontend.lower" (fun () ->
          ignore (Serve.Protocol.parse_inline program)))
    requests;
  let cache = Cache.create () in
  let compiled = ref [] in
  let compile ~item pipeline funcs =
    ( List.map
        (fun f ->
          let key =
            Trace.span ~item "cache.key" (fun () ->
                Cache.key ~pipeline ~check:false f)
          in
          snd
            (Cache.compute_through cache key (fun () ->
                 let r =
                   Trace.span ~item "pass.run" (fun () -> Pass.run pipeline f)
                 in
                 compiled := (item, r) :: !compiled;
                 r)))
        funcs,
      "" )
  in
  let respond ~item l =
    match
      Serve.Protocol.respond ~compile:(compile ~item) ~stats:(fun () -> "") l
    with
    | Serve.Protocol.Reply s when String.starts_with ~prefix:"ok " s -> ()
    | _ -> fail fs ("replay failed: " ^ l)
  in
  (* Warm the replay cache as set-up warmed the server's, off the trace. *)
  Array.iter
    (fun h ->
      let f = List.hd (Serve.Protocol.parse_inline env.progs.all.(h)) in
      Cache.store cache
        (Cache.key ~pipeline ~check:false f)
        (Pass.run pipeline f))
    env.progs.hot;
  let respond_s = ref 0. in
  List.iter
    (fun r ->
      let t0 = now () in
      let l = request_line env r in
      Trace.span ~item:r.tag "serve.respond" (fun () -> respond ~item:r.tag l);
      respond_s := !respond_s +. (now () -. t0))
    requests;
  let counts = Compose.counts () in
  List.iter
    (fun (item, (r : Pass.report)) ->
      let out =
        Compose.run ~item ~scratch:(Support.Scratch.domain ()) counts pipeline
          r.input
      in
      if Ir.Printer.func_to_string out <> Ir.Printer.func_to_string r.output
      then fail fs (Printf.sprintf "request %d: composed output differs" item))
    !compiled;
  let n = List.length requests in
  let rtt = List.fold_left (fun a r -> a +. r.rtt) 0. requests in
  let hits = c1.hits - c0.hits and misses = c1.misses - c0.misses in
  let q = hot_quality env refs in
  let attempted = untraced.sent + n + Array.length refs in
  {
    attempted;
    failed = fs.count;
    metrics =
      Layers.metrics
        (Layers.of_spans ()
        @ Layers.of_counts counts ~calls:(List.length !compiled)
        @ gc
        @ [
            ( "cache.hit_ratio",
              float hits /. float (max 1 (hits + misses)),
              hits + misses );
            ("cache.misses", float misses, hits + misses);
            ( "cache.evictions",
              float (c1.evictions - c0.evictions),
              hits + misses );
            ( "cache.contention",
              float (c1.contention - c0.contention),
              hits + misses );
            ("serve.respond_s", !respond_s, n);
            ("serve.transport_s", rtt -. !respond_s, n);
            ("check.failures", float fs.count, attempted);
            ("interp.copies_executed", float q.dynamic_copies, hot_size);
            ("trace.overhead_s", wall_b -. wall_a, n);
          ]);
    notes =
      [
        Printf.sprintf
          "serve traced: %d + %d requests, untraced %.3f s, traced %.3f s, \
           replay compiled %d"
          untraced.sent n wall_a wall_b (List.length !compiled);
      ]
      @ fs.first;
  }
