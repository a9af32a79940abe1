(* The repository benchmark. One workload per process:

     bench.exe --workload corpus|paper-large|serve --seed N --seconds S
               --trace 0|1 [--dir D] [--trace-out FILE] [--git-sha SHA]
               [--source DIGEST] [--nproc N]

   Prints an environment stamp and every metric by name with its unit and
   sample count, then, as the last line, one JSON object: {"correct",
   "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
   end-to-end ones; with --trace 1 they are the per-layer ones of the
   traced run, whose spans go to --trace-out as tab-separated lines. Exits
   1 when any output failed its check. run.py builds this and supplies
   the stamp's source fields. *)

open Common

let usage =
  "bench.exe --workload corpus|paper-large|serve --seed N --seconds S \
   --trace 0|1 [--dir D] [--trace-out FILE] [--git-sha SHA] [--source \
   DIGEST] [--nproc N]"

(* The serve workload is not in BENCHMARK.json: its round trips are
   mostly system calls and wake-ups, which the host slows by a fifth to
   a third from run to run and which no in-process correction followed.
   The layers only it reaches are still measured: the corpus workload's
   traced run ends with serve's traced session and takes those layers'
   figures from it. *)
let serve_layers =
  [
    "frontend.lower_s";
    "cache.hit_ratio";
    "cache.misses";
    "cache.evictions";
    "cache.contention";
    "cache.key_s";
    "serve.respond_s";
    "serve.transport_s";
  ]

let with_serve_layers ~seed o =
  let s = Wl_serve.traced ~seed in
  let from_serve m =
    if List.mem m.name serve_layers then
      List.find (fun x -> x.name = m.name) s.metrics
    else m
  in
  {
    attempted = o.attempted + s.attempted;
    failed = o.failed + s.failed;
    metrics = List.map from_serve o.metrics;
    notes = o.notes @ s.notes;
  }

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.
  and trace = ref (-1) and dir = ref "." and git_sha = ref "none"
  and source = ref "none" and nproc = ref 0 and trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run");
      ("--dir", Arg.Set_string dir, "D directory for generated inputs");
      ("--trace-out", Arg.Set_string trace_out, "FILE where the spans go");
      ("--git-sha", Arg.Set_string git_sha, "SHA revision, for the stamp");
      ("--source", Arg.Set_string source, "DIGEST source digest, for the stamp");
      ("--nproc", Arg.Set_int nproc, "N processors online, for the stamp");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  let jobs, run =
    match !workload with
    | "corpus" ->
      ( 1,
        fun () ->
          if traced then
            with_serve_layers ~seed (Wl_corpus.traced ~dir:!dir ~seed)
          else Wl_corpus.run ~dir:!dir ~seed ~seconds )
    | "paper-large" ->
      ( 1,
        fun () ->
          if traced then Wl_paper.traced ~seed else Wl_paper.run ~seed ~seconds )
    | "serve" ->
      ( Wl_serve.jobs,
        fun () ->
          if traced then Wl_serve.traced ~seed
          else Wl_serve.run ~seed ~seconds )
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  let o = run () in
  if traced && !trace_out <> "" then Trace.write !trace_out;
  Printf.printf
    "stamp workload=%s seed=%d seconds=%g trace=%d jobs=%d git_sha=%s \
     source=%s nproc=%d recommended_domains=%d ocaml=%s\n"
    !workload seed seconds !trace jobs !git_sha !source !nproc
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  List.iter print_endline o.notes;
  List.iter
    (fun m ->
      Printf.printf "metric %s %s = %.6g %s (n=%d)\n" !workload m.name m.value
        m.unit_ m.samples)
    o.metrics;
  (* Printed above but kept out of the gated result: the raw timings
     (set-up included), which follow the shared host's drift (ten runs of
     one workload spread by up to a third; the gated timings are the
     steadied ones, see Calib), and spill_ops and fail_ratio, which read
     0 on some workloads (no allocator; no failures): a relative bound on
     a metric that can be 0 means nothing, and the result's
     attempted/failed fields carry the failures. *)
  let ungated =
    [
      "setup_s_raw";
      "funcs_per_s";
      "latency_ms_p50";
      "latency_ms_p99";
      "spill_ops";
      "fail_ratio";
    ]
  in
  let gated = List.filter (fun m -> not (List.mem m.name ungated)) o.metrics in
  print_endline
    (result_line ~correct:(o.failed = 0) ~attempted:o.attempted
       ~failed:o.failed gated);
  exit (if o.failed = 0 then 0 else 1)
