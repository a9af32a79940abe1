(* Concurrent socket front end for the compile service.

   Anatomy (one arrow = one thread boundary):

     listener ──accept──► session reader ──admit──► bounded queue
                                 │(shed: busy)          │
                                 ▼                      ▼
                          per-conn FIFO ◄──resolve── engine-pool workers
                                 │
                          session writer ──reply──► client socket

   - The listener accepts connections until stopped; over [max_conns] it
     refuses with a busy line before the session is ever created.
   - Each connection runs two systhreads. The reader parses lines just
     enough for admission control (Protocol.classify): silent lines are
     dropped, quit/stats answered in place, work admitted to the global
     bounded queue unless the per-connection limit or the queue bound
     says shed — in which case the reply is an immediate
     "err status=busy" and nothing reaches the compile path. The writer
     drains the connection's FIFO in admission order, waiting for each
     ticket's resolution — so a client's replies always come back in
     request order no matter how the pool schedules the work.
   - The compute workers are the Engine pool's domains themselves
     (Pool.run_workers): each pops tickets from the shared queue and
     evaluates them with its domain's warm scratch arena. With a cache,
     every function compiles through Cache.compute_through, so identical
     concurrent requests from different clients collapse onto one
     compilation (dedup_collapsed).
   - stop () drains gracefully: stop accepting, EOF every reader,
     let writers flush every admitted reply, then close the queue and
     join the workers. No request that was answered "ok" is ever lost.

   Locking discipline (always in this order, never holding two at once
   except server.lock → conn.lock on registration):
     server.lock   — session table, stopping flag
     conn.lock     — FIFO, inflight count, ticket resolution
     queue lock    — internal to Bqueue
     cache shards  — internal to Cache; compilation never holds any of
                     the above. *)

type config = {
  jobs : int;
  queue_capacity : int;
  per_conn : int;
  max_conns : int;
  cache : Cache.t option;
}

let default_config =
  {
    jobs = 2;
    queue_capacity = 64;
    per_conn = 8;
    max_conns = 1024;
    cache = None;
  }

type listen = Tcp of string * int | Unix_path of string

type ticket = {
  line : string;
  tag : string option;
  bye : bool;
  mutable reply : string option;  (* guarded by the owning conn's lock *)
}

type conn = {
  id : int;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;  (* over a dup'd fd, so ic/oc close independently *)
  lock : Mutex.t;
  cond : Condition.t;  (* FIFO appended to, or a ticket resolved *)
  fifo : ticket Queue.t;
  mutable inflight : int;  (* admitted to the global queue, unresolved *)
  mutable reader_done : bool;
}

type session = { conn : conn; writer : Thread.t }

type t = {
  cfg : config;
  listen : listen;
  listen_fd : Unix.file_descr;
  bound : Unix.sockaddr;
  pool : Engine.Pool.t;
  queue : (conn * ticket) Bqueue.t;
  lock : Mutex.t;
  sessions : (int, session) Hashtbl.t;
  mutable next_id : int;
  mutable stopping : bool;
  wake_r : Unix.file_descr;  (* self-pipe: unblocks the listener's select *)
  wake_w : Unix.file_descr;
  mutable listener_thread : Thread.t option;
  mutable pool_thread : Thread.t option;
  accepted : Obs.Contention.counter;
  refused : Obs.Contention.counter;
  served : Obs.Contention.counter;
  shed : Obs.Contention.counter;
}

type counters = {
  accepted : int;
  refused : int;
  served : int;
  shed : int;
  live_conns : int;
  queued : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let counters (t : t) : counters =
  {
    accepted = Obs.Contention.count t.accepted;
    refused = Obs.Contention.count t.refused;
    served = Obs.Contention.count t.served;
    shed = Obs.Contention.count t.shed;
    live_conns = locked t (fun () -> Hashtbl.length t.sessions);
    queued = Bqueue.length t.queue;
  }

let cache_stats (t : t) =
  match t.cfg.cache with Some c -> Cache.stats c | None -> Cache.zero_stats

let stats_body t =
  let c = counters t in
  let s = cache_stats t in
  Printf.sprintf
    "stats served=%d shed=%d conns=%d queued=%d hits=%d misses=%d dedup=%d \
     contention=%d"
    c.served c.shed c.live_conns c.queued s.Cache.hits s.Cache.misses
    s.Cache.dedup_collapsed s.Cache.contention

(* ------------------------------------------------------------------ *)
(* Worker side: evaluation on the engine pool's domains                *)
(* ------------------------------------------------------------------ *)

(* Per-request compile: each function goes through the shared cache's
   read-through (one compilation per distinct key, concurrent duplicates
   collapse), with this domain's warm scratch arena. A collapsed wait
   counts as a hit in the reply note — the client got a result without a
   compilation of its own. *)
let server_compile t pipeline funcs =
  let scratch = Support.Scratch.domain () in
  let hits = ref 0 and misses = ref 0 in
  let reports =
    List.map
      (fun f ->
        match t.cfg.cache with
        | None ->
          incr misses;
          Driver.Pipeline.compile_passes ~scratch pipeline f
        | Some cache ->
          let key = Cache.key ~pipeline ~check:false f in
          let outcome, report =
            Cache.compute_through cache key (fun () ->
                Driver.Pipeline.compile_passes ~scratch pipeline f)
          in
          (match outcome with
          | `Hit | `Collapsed -> incr hits
          | `Miss -> incr misses);
          report)
      funcs
  in
  let copies =
    List.fold_left
      (fun acc (r : Driver.Pipeline.report) -> acc + Ir.count_copies r.output)
      0 reports
  in
  ( reports,
    Printf.sprintf "funcs=%d copies=%d hits=%d misses=%d"
      (List.length reports) copies !hits !misses )

let resolve (t : t) (conn : conn) ticket reply =
  Mutex.lock conn.lock;
  ticket.reply <- Some reply;
  conn.inflight <- conn.inflight - 1;
  Condition.broadcast conn.cond;
  Mutex.unlock conn.lock;
  Obs.Contention.hit t.served

let worker_loop (t : t) _slot =
  let compile = server_compile t in
  let stats () = stats_body t in
  let rec loop () =
    match Bqueue.pop t.queue with
    | None -> ()
    | Some (conn, ticket) ->
      let reply =
        match Protocol.respond ~compile ~stats ticket.line with
        | Protocol.Reply s -> s
        | Protocol.Bye s -> s
        | Protocol.No_reply ->
          (* classify admitted it as work, so this cannot happen; answer
             something rather than stall the writer. *)
          Protocol.ok_reply ~tag:ticket.tag ""
        | exception e ->
          Protocol.err_reply ~tag:ticket.tag "125"
            (Protocol.one_line ("internal error: " ^ Printexc.to_string e))
      in
      resolve t conn ticket reply;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Session side: reader (admission) and writer (ordered replies)       *)
(* ------------------------------------------------------------------ *)

let append_fifo (conn : conn) ticket =
  Mutex.lock conn.lock;
  Queue.add ticket conn.fifo;
  Condition.broadcast conn.cond;
  Mutex.unlock conn.lock

let enqueue_resolved conn ?tag ?(bye = false) reply =
  append_fifo conn { line = ""; tag; bye; reply = Some reply }

(* Admission control, in shed order: the per-connection in-flight limit
   first (one hog cannot monopolize the queue), then the global bounded
   queue. A shed request costs a FIFO node and a preformatted busy line —
   never a parse, a file read or a compilation. *)
let admit (t : t) (conn : conn) tag line =
  let ticket = { line; tag; bye = false; reply = None } in
  Mutex.lock conn.lock;
  Queue.add ticket conn.fifo;
  let under_limit = conn.inflight < t.cfg.per_conn in
  if under_limit then conn.inflight <- conn.inflight + 1;
  Condition.broadcast conn.cond;
  Mutex.unlock conn.lock;
  let admitted = under_limit && Bqueue.try_push t.queue (conn, ticket) in
  if not admitted then begin
    Mutex.lock conn.lock;
    if under_limit then conn.inflight <- conn.inflight - 1;
    ticket.reply <- Some (Protocol.busy_reply ?tag ());
    Condition.broadcast conn.cond;
    Mutex.unlock conn.lock;
    Obs.Contention.hit t.shed
  end

let reader (t : t) (conn : conn) () =
  let rec loop () =
    match input_line conn.ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line -> (
      match Protocol.classify line with
      | Protocol.Silent -> loop ()
      | Protocol.Quit -> enqueue_resolved conn ~bye:true "ok bye"
      | Protocol.Stats tag ->
        enqueue_resolved conn ?tag (Protocol.ok_reply ~tag (stats_body t));
        loop ()
      | Protocol.Work tag ->
        admit t conn tag line;
        loop ())
  in
  (try loop () with _ -> ());
  Mutex.lock conn.lock;
  conn.reader_done <- true;
  Condition.broadcast conn.cond;
  Mutex.unlock conn.lock

let writer (t : t) (conn : conn) reader_thread () =
  let rec loop () =
    Mutex.lock conn.lock;
    while Queue.is_empty conn.fifo && not conn.reader_done do
      Condition.wait conn.cond conn.lock
    done;
    if Queue.is_empty conn.fifo then Mutex.unlock conn.lock
    else begin
      let ticket = Queue.peek conn.fifo in
      while ticket.reply = None do
        Condition.wait conn.cond conn.lock
      done;
      ignore (Queue.take conn.fifo);
      let reply = Option.get ticket.reply in
      Mutex.unlock conn.lock;
      (* A half-closed peer makes the write fail; keep draining so every
         admitted ticket is still consumed and resolved. *)
      (try
         output_string conn.oc reply;
         output_char conn.oc '\n';
         flush conn.oc
       with Sys_error _ -> ());
      loop ()
    end
  in
  loop ();
  (try Thread.join reader_thread with _ -> ());
  (try close_out_noerr conn.oc with _ -> ());
  close_in_noerr conn.ic;
  locked t (fun () -> Hashtbl.remove t.sessions conn.id)

(* ------------------------------------------------------------------ *)
(* Listener                                                            *)
(* ------------------------------------------------------------------ *)

let start_session (t : t) fd =
  let id = locked t (fun () -> t.next_id <- t.next_id + 1; t.next_id) in
  let conn =
    {
      id;
      fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr (Unix.dup fd);
      lock = Mutex.create ();
      cond = Condition.create ();
      fifo = Queue.create ();
      inflight = 0;
      reader_done = false;
    }
  in
  let reader_thread = Thread.create (reader t conn) () in
  let writer_thread = Thread.create (writer t conn reader_thread) () in
  locked t (fun () ->
      Hashtbl.replace t.sessions id { conn; writer = writer_thread });
  Obs.Contention.hit t.accepted

let refuse_connection (t : t) fd =
  let line = Protocol.busy_reply () ^ "\n" in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Obs.Contention.hit t.refused;
  Obs.Contention.hit t.shed

let listener (t : t) () =
  let rec loop () =
    match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | readable, _, _ ->
      if List.mem t.wake_r readable then ()  (* stop () rang the bell *)
      else begin
        (match Unix.accept t.listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
          (* Replies are single short lines; with Nagle on, a pipelined
             client's next reply can wait out the peer's delayed ACK. *)
          (match t.listen with
          | Tcp _ -> (
            try Unix.setsockopt fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ())
          | Unix_path _ -> ());
          let full =
            locked t (fun () ->
                t.stopping
                || Hashtbl.length t.sessions >= t.cfg.max_conns)
          in
          if full then refuse_connection t fd else start_session t fd);
        loop ()
      end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(config = default_config) listen =
  let sockaddr, pf =
    match listen with
    | Tcp (host, port) ->
      let addr =
        if host = "" then Unix.inet_addr_loopback
        else Unix.inet_addr_of_string host
      in
      (Unix.ADDR_INET (addr, port), Unix.PF_INET)
    | Unix_path path ->
      if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
      (Unix.ADDR_UNIX path, Unix.PF_UNIX)
  in
  let listen_fd = Unix.socket pf Unix.SOCK_STREAM 0 in
  (match listen with
  | Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | Unix_path _ -> ());
  Unix.bind listen_fd sockaddr;
  Unix.listen listen_fd 128;
  let wake_r, wake_w = Unix.pipe () in
  let t =
    {
      cfg = { config with jobs = max 1 config.jobs };
      listen;
      listen_fd;
      bound = Unix.getsockname listen_fd;
      pool = Engine.Pool.create ~jobs:(max 1 config.jobs) ();
      queue = Bqueue.create ~capacity:config.queue_capacity;
      lock = Mutex.create ();
      sessions = Hashtbl.create 64;
      next_id = 0;
      stopping = false;
      wake_r;
      wake_w;
      listener_thread = None;
      pool_thread = None;
      accepted = Obs.Contention.make "serve_accepted";
      refused = Obs.Contention.make "serve_refused";
      served = Obs.Contention.make "serve_served";
      shed = Obs.Contention.make "serve_shed";
    }
  in
  t.pool_thread <-
    Some (Thread.create (fun () -> Engine.Pool.run_workers t.pool (worker_loop t)) ());
  t.listener_thread <- Some (Thread.create (listener t) ());
  t

let port t =
  match t.bound with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> invalid_arg "Server.port: unix-domain socket"

let address t =
  match t.bound with
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

let stop (t : t) =
  let already =
    locked t (fun () ->
        let s = t.stopping in
        t.stopping <- true;
        s)
  in
  if not already then begin
    (* 1. Stop accepting: ring the self-pipe, join the listener, close
       the listening socket. *)
    (try ignore (Unix.write_substring t.wake_w "x" 0 1)
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.listener_thread;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* 2. EOF every reader; writers drain their FIFOs (workers are still
       running, so pending tickets resolve), flush, close, unregister. *)
    let rec drain () =
      let snapshot =
        locked t (fun () ->
            Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [])
      in
      if snapshot <> [] then begin
        List.iter
          (fun s ->
            try Unix.shutdown s.conn.fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
          snapshot;
        List.iter (fun s -> Thread.join s.writer) snapshot;
        drain ()
      end
    in
    drain ();
    (* 3. No producers left: close the queue, the worker loops return,
       the engine pool shuts its domains down. *)
    Bqueue.close t.queue;
    Option.iter Thread.join t.pool_thread;
    Engine.Pool.shutdown t.pool;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    match t.listen with
    | Unix_path path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ()
  end
