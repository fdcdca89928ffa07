(* Benchmark harness: regenerates every row of Table 1(a) and 1(b) and
   the Figure 1 / Section 6 lower-bound experiments.

     dune exec bench/main.exe              (proof-size + attack harness)
     dune exec bench/main.exe -- --timing  (Bechamel timings of the serving
                                           verify path and the provers)
     dune exec bench/main.exe -- --smoke   (tiny CI sweep, < 10 s)

   Flags: --jobs N  fan the per-node verifier loop over N domains
                    (0 = all recommended cores);
          --metrics  enable the observability counters and embed a
                    per-row metrics object (balls extracted, max ball
                    size, verifier calls, forgeries tried) in
                    BENCH_lcp.json;
          --obs-dir DIR  record structured spans and spool them to
                    DIR/trace-<lane>.json (Chrome trace-event JSON:
                    chrome://tracing, Perfetto), plus the run's
                    telemetry as a Prometheus text exposition in
                    DIR/metrics-<lane>.prom (per-row wall-time gauges
                    plus, with --metrics, the registry) — lets a CI
                    job push bench health into the same dashboards
                    that scrape `lcp serve`;
          --profile  sample span stacks at 97 Hz: a "profile" section
                    in BENCH_lcp.json, per-row GC deltas and, with
                    --obs-dir, DIR/profile-<lane>.json.

   All timing uses the monotonic Obs.Clock (the seed harness used
   Unix.gettimeofday, which NTP can skew mid-run). Sweep runs write a
   machine-readable BENCH_lcp.json (per-row wall time, largest
   parameter reached, fit, verdict) next to the table.

   The rows are the Registry entries that carry a Table 1 row; --smoke
   runs the ones that carry smoke sizes. For each upper-bound row we
   run the scheme's prover over a sweep of instance sizes, check that
   every proof is accepted by all nodes, record the maximum proof size
   in bits per node, and fit the measured series against the growth
   models {0, Θ(1), Θ(log), Θ(n), Θ(n²), Θ(n²/log n)}; the verdict
   column compares the fit against the paper's claim. For each lower-bound row we run the corresponding
   attack: undersized-but-complete schemes are fooled (an accepted
   no-instance is constructed), honest schemes resist (signatures stay
   distinct). *)

let st seed = Random.State.make [| seed |]
let of_g g = Instance.of_graph g

(* --- measurement ---------------------------------------------------- *)

exception Measure_failure of string

(* Set from the command line in [main]. *)
let jobs = ref 1
let collect_metrics = ref false

(* Prove and fully verify; return bits per node. *)
let measured scheme inst =
  match scheme.Scheme.prover inst with
  | None ->
      raise (Measure_failure (scheme.Scheme.name ^ ": prover refused a yes-instance"))
  | Some proof -> (
      let verdicts, _ =
        Simulator.run_verifier ~jobs:!jobs inst proof
          ~radius:scheme.Scheme.radius scheme.Scheme.verifier
      in
      match Simulator.rejecting verdicts with
      | [] -> Proof.size proof
      | vs ->
          raise
            (Measure_failure
               (Printf.sprintf "%s: own proof rejected at [%s]" scheme.Scheme.name
                  (String.concat "," (List.map string_of_int vs)))))

(* Prove only (for the O(n²) rows, where running the verifier at every
   node of every sweep point would dominate the harness). *)
let measured_prover_only scheme inst =
  match scheme.Scheme.prover inst with
  | Some proof -> Proof.size proof
  | None ->
      raise (Measure_failure (scheme.Scheme.name ^ ": prover refused a yes-instance"))

(* One row's yes-instance at size [n], measured the way the row says. *)
let measure_row (e : Registry.entry) (r : Registry.row) n =
  (if r.Registry.prover_only then measured_prover_only else measured)
    e.Registry.scheme (r.Registry.make n)

(* The entries that carry a Table 1 row, in registry (= table) order. *)
let rows =
  List.filter_map
    (fun (e : Registry.entry) -> Option.map (fun r -> (e, r)) e.Registry.row)
    Registry.all

let row name =
  match Registry.find name with
  | Some ({ Registry.row = Some r; _ } as e) -> (e, r)
  | _ -> failwith ("bench: no Table 1 row for " ^ name)

(* --- printing + JSON ------------------------------------------------- *)

type row_outcome =
  | Failed of string
  | Fitted of (int * int) list * Complexity.growth * bool (* series, fit, match *)

type row_result = {
  row : Registry.row;
  outcome : row_outcome;
  wall_s : float;
  metrics : string option;  (* pre-rendered JSON object, with --metrics *)
  profile : string option;  (* per-row GC deltas, with --profile *)
}

(* One row: monotonic wall time, an optional trace span, and — with
   --metrics — a per-row snapshot of the deterministic engine counters
   (the metrics registry is reset at row entry, so each row sees only
   its own work). *)
let eval_row ~sizes (e, (r : Registry.row)) =
  if !collect_metrics then Obs.Metrics.reset ();
  let measure () =
    match List.map (fun n -> (n, measure_row e r n)) sizes with
    | exception Measure_failure msg -> Failed msg
    | series ->
        let fit = Complexity.classify series in
        Fitted (series, fit, List.mem fit r.Registry.fits)
  in
  (* With the profiler on, bracket the row with the coordinating
     domain's GC counters — worker-domain allocations show up in the
     pool.task_alloc_bytes metric instead. *)
  let prof_on = !Obs.Profile.enabled in
  let gc0 = if prof_on then Some (Gc.quick_stat ()) else None in
  let alloc0 = if prof_on then Gc.allocated_bytes () else 0.0 in
  let t0 = Obs.Clock.now_ns () in
  let outcome =
    if Obs.Trace.on () then Obs.Trace.span ("bench.row:" ^ r.id) measure
    else measure ()
  in
  let wall_s = Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns t0) in
  let profile =
    match gc0 with
    | None -> None
    | Some g0 ->
        let g1 = Gc.quick_stat () in
        Some
          (Printf.sprintf
             "{\"alloc_bytes\":%.0f,\"minor_collections\":%d,\"major_collections\":%d}"
             (Gc.allocated_bytes () -. alloc0)
             (g1.Gc.minor_collections - g0.Gc.minor_collections)
             (g1.Gc.major_collections - g0.Gc.major_collections))
  in
  let metrics =
    if not !collect_metrics then None
    else begin
      let snap = Obs.Metrics.deterministic (Obs.Metrics.snapshot ()) in
      Some
        (Printf.sprintf
           "{\"balls_extracted\":%d,\"max_ball_size\":%d,\"verifier_calls\":%d,\"verifier_rejects\":%d,\"forgeries_tried\":%d,\"decode_errors\":%d,\"compiles\":%d}"
           (Obs.Metrics.count snap "simulator.balls_extracted")
           (Obs.Metrics.max_value snap "simulator.ball_size")
           (Obs.Metrics.count snap "simulator.verifier_calls")
           (Obs.Metrics.count snap "simulator.verifier_rejects")
           (Obs.Metrics.count snap "checker.samples"
           + Obs.Metrics.count snap "adversary.attempts")
           (Obs.Metrics.count snap "simulator.decode_errors")
           (Obs.Metrics.count snap "simulator.compiles"))
    end
  in
  { row = r; outcome; wall_s; metrics; profile }

(* One table line: every cell but the last padded to its column's
   display width (paper classes and fits hold multi-byte symbols). *)
let print_line cells =
  let widths = [| 7; 28; 10; 18; 32; 12; 8 |] in
  let last = List.length cells - 1 in
  Format.printf "%s@."
    (String.concat " "
       (List.mapi (fun i c -> if i = last then c else Cli.pad widths.(i) c) cells))

let print_header title =
  Format.printf "@.=== %s ===@." title;
  print_line
    [ "id"; "property/problem"; "family"; "paper"; "measured bits per node";
      "fit"; "verdict"; "wall" ];
  Format.printf "%s@." (String.make 126 '-')

let print_result { row = r; outcome; wall_s; metrics = _; profile = _ } =
  match outcome with
  | Failed msg ->
      print_line [ r.id; r.what; r.family; r.paper; "MEASUREMENT FAILED: " ^ msg ]
  | Fitted (series, fit, matches) ->
      let verdict = if matches then "MATCH" else "DIFFERS" in
      let series_str =
        String.concat " "
          (List.map (fun (n, b) -> Printf.sprintf "%s=%d:%d" r.param n b) series)
      in
      let series_str =
        if String.length series_str <= 32 then series_str
        else String.sub series_str 0 29 ^ "..."
      in
      print_line
        [ r.id; r.what; r.family; r.paper; series_str; Complexity.label fit;
          verdict; Printf.sprintf "%.3fs" wall_s ]

let json_of_result { row = r; outcome; wall_s; metrics; profile } =
  let common =
    Printf.sprintf
      "\"id\":\"%s\",\"what\":\"%s\",\"family\":\"%s\",\"paper\":\"%s\",\"param\":\"%s\",\"wall_s\":%.6f"
      (Obs.Json.escape r.id) (Obs.Json.escape r.what)
      (Obs.Json.escape r.family) (Obs.Json.escape r.paper)
      (Obs.Json.escape r.param) wall_s
  in
  let common =
    match metrics with
    | Some m -> Printf.sprintf "%s,\"metrics\":%s" common m
    | None -> common
  in
  let common =
    match profile with
    | Some pr -> Printf.sprintf "%s,\"profile\":%s" common pr
    | None -> common
  in
  match outcome with
  | Failed msg ->
      Printf.sprintf "    {%s,\"error\":\"%s\"}" common (Obs.Json.escape msg)
  | Fitted (series, fit, matches) ->
      let n_max = List.fold_left (fun acc (n, _) -> max acc n) 0 series in
      let series_str =
        String.concat ","
          (List.map (fun (n, b) -> Printf.sprintf "[%d,%d]" n b) series)
      in
      Printf.sprintf
        "    {%s,\"n_max\":%d,\"series\":[%s],\"fit\":\"%s\",\"verdict\":\"%s\"}"
        common n_max series_str
        (Obs.Json.escape (Complexity.label fit))
        (if matches then "MATCH" else "DIFFERS")

let write_json path ~smoke ~total_wall_s ?partition ?randomized ?profile
    results =
  let fresh =
    Printf.sprintf
      "{\n\
      \  \"bench\": \"lcp\",\n\
      \  \"jobs\": %d,\n\
      \  \"smoke\": %b,\n\
      \  \"metrics\": %b,\n\
      \  \"total_wall_s\": %.6f,\n\
       %s\
       %s\
       %s\
      \  \"rows\": [\n%s\n  ]\n\
       }\n"
      !jobs smoke !collect_metrics total_wall_s
      (match partition with
      | None -> ""
      | Some p -> Printf.sprintf "  \"partition\": %s,\n" p)
      (match randomized with
      | None -> ""
      | Some r -> Printf.sprintf "  \"randomized\": %s,\n" r)
      (match profile with
      | None -> ""
      | Some p -> Printf.sprintf "  \"profile\": %s,\n" p)
      (String.concat ",\n" (List.map json_of_result results))
  in
  (* A run that skips a section (say, --partition without --randomized)
     must not clobber the section a previous run wrote: merge the
     fresh document over the file's current top level, fresh keys
     winning. An unreadable or unparsable old file degrades to a
     plain overwrite. *)
  let out =
    match
      (try
         let ic = open_in_bin path in
         let n = in_channel_length ic in
         let s = really_input_string ic n in
         close_in ic;
         Obs.Json.parse s
       with Sys_error _ | End_of_file -> Error "unreadable")
    with
    | Error _ -> fresh
    | Ok old -> (
        match Obs.Json.parse fresh with
        | Error _ -> fresh
        | Ok fresh_doc ->
            Obs.Json.to_string (Obs.Json.merge_objects ~old ~fresh:fresh_doc)
            ^ "\n")
  in
  let oc = open_out path in
  output_string oc out;
  close_out oc;
  Format.printf "@.machine-readable results written to %s@." path

(* Prometheus text exposition of the same run — through the exact
   renderer the server's /metrics endpoint uses, so CI can validate
   both with one scraper. Per-row wall time and verdicts become
   labelled gauges; with --metrics the registry (including
   trace.dropped) rides along. *)
let exposition ~total_wall_s results e =
  Obs.Export.gauge e ~help:"total bench wall time" "bench.wall_seconds"
    total_wall_s;
  Obs.Export.counter e ~help:"rows attempted" "bench.rows"
    (List.length results);
  List.iter
    (fun { row = r; outcome; wall_s; metrics = _; profile = _ } ->
      let labels = [ ("id", r.id) ] in
      Obs.Export.gauge e ~help:"per-row wall time" ~labels
        "bench.row_wall_seconds" wall_s;
      let verdict =
        match outcome with
        | Failed _ -> 0.0
        | Fitted (_, _, matches) -> if matches then 1.0 else 0.0
      in
      Obs.Export.gauge e ~help:"1 = fit matches the paper's bound" ~labels
        "bench.row_verdict" verdict)
    results;
  if !collect_metrics then
    Obs.Export.metrics_snapshot e (Obs.Metrics.snapshot ());
  Obs.Profile.exposition e

(* --- partition bench (--partition) ----------------------------------- *)

(* The partition-parallel serving path behind the "partition" section
   of BENCH_lcp.json: one whole-graph Verify against a single `lcp
   serve` daemon versus a 4-shard Fanout.verify scattered directly
   over two daemons, on the same cycle instances. The daemons
   are real child processes, not in-process Server values: separate
   runtimes mirror deployment and keep one leg's GC from stalling the
   other's — in-process, every live worker domain joins every minor
   collection, which taxes whichever leg happens to share the runtime.
   Caches are off (--cache-size 0) so every request pays the full
   graph6 decode + compile; that cold path is what partitioning
   attacks: graph6 costs O(n²) to encode and decode, so four quarter
   shards cost ~O(n²/16) each and the sharded run wins even when the
   backends time-share a core, and wins again on compute when they do
   not. Verdict equality against the single-daemon reply is
   asserted per row, on an accepting instance and on a rejecting
   one. *)
let partition_bench () =
  Format.printf
    "@.=== partition bench (1 whole-graph daemon vs 2 sharded backends) ===@.";
  (* eulerian: radius 1, LCP(0) — the proof is empty, so the rows
     measure exactly what partitioning targets: the O(n²) graph6
     encode + decode of the instance itself. A cycle accepts; a cycle
     plus one chord has two odd-degree endpoints and must reject at
     them, in both paths, with identical node ids. *)
  let scheme =
    match Registry.find "eulerian" with
    | Some e -> e.Registry.scheme
    | None -> failwith "partition bench: eulerian not registered"
  in
  let cycle ?chord n =
    let g =
      List.fold_left
        (fun g i -> Graph.add_edge g i ((i + 1) mod n))
        (List.fold_left
           (fun g i -> Graph.add_node g i)
           Graph.empty
           (List.init n (fun i -> i)))
        (List.init n (fun i -> i))
    in
    match chord with None -> g | Some (u, v) -> Graph.add_edge g u v
  in
  let reps = 5 in
  (* best-of-reps, not mean: the client and both daemons time-share
     one box, so any rep can eat an unrelated scheduler or GC stall —
     the minimum is the reproducible cost of the path itself *)
  let wall f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Obs.Clock.now_ns () in
      f ();
      let s = Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns t0) in
      if s < !best then best := s
    done;
    !best
  in
  let proof = Proof.empty in
  (* the largest row is sized just under the 16 MiB frame cap:
     graph6 at n=13312 is ~14.8 MiB whole, ~3.7 MiB per half shard *)
  let sizes = [ 4096; 8192; 13312 ] in
  let graphs =
    List.map
      (fun n ->
        let g = cycle n in
        (n, g, Csr.of_graph g, cycle ~chord:(2, n / 2) n))
      sizes
  in
  (* child-process plumbing: the lcp binary lives next to this bench
     inside _build, so resolve it relative to the running executable
     rather than the cwd *)
  let lcp =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/lcp.exe"
  in
  if not (Sys.file_exists lcp) then
    failwith ("partition bench: lcp binary not found at " ^ lcp);
  let spawn args =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process lcp (Array.of_list (lcp :: args)) Unix.stdin null null
    in
    Unix.close null;
    pid
  in
  let wait_ready port =
    let deadline = Obs.Clock.now_ns () in
    let rec go () =
      match Client.connect ~port () with
      | Ok c -> Client.close c
      | Error _ ->
          if Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns deadline) > 10.0 then
            failwith
              (Printf.sprintf "partition bench: daemon on port %d never came up"
                 port)
          else (
            Thread.delay 0.05;
            go ())
    in
    go ()
  in
  let shutdown pid =
    Unix.kill pid Sys.sigint;
    ignore (Unix.waitpid [] pid)
  in
  let serve port =
    let pid =
      spawn
        [
          "serve"; "--port"; string_of_int port; "--jobs"; "1"; "--cache-size";
          "0";
        ]
    in
    wait_ready port;
    pid
  in
  let p_single = 7471 and p_b1 = 7472 and p_b2 = 7473 in
  (* phase 1: whole-graph requests against one daemon *)
  let call_whole port g =
    match Client.connect ~port () with
    | Error m -> failwith ("partition bench: " ^ m)
    | Ok c -> (
        let r =
          Client.call c
            (Wire.Verify { scheme = "eulerian"; graph6 = Graph6.encode g; proof })
        in
        Client.close c;
        match r with
        | Ok (Wire.Verified { accepted; rejecting }) -> (accepted, rejecting)
        | Ok _ -> failwith "partition bench: unexpected reply"
        | Error m -> failwith ("partition bench: " ^ m))
  in
  let whole_rows =
    let pid = serve p_single in
    Fun.protect ~finally:(fun () -> shutdown pid) @@ fun () ->
    List.map
      (fun (n, g, _, bad) ->
        let verdict = call_whole p_single g
        and bad_verdict = call_whole p_single bad in
        ( n,
          verdict,
          bad_verdict,
          wall (fun () -> ignore (call_whole p_single g)) ))
      graphs
  in
  (* phase 2: the same instances sharded 2-way, one shard per backend *)
  let call_sharded csr =
    match
      Fanout.verify ~port:p_b1
        ~endpoints:[ ("127.0.0.1", p_b1); ("127.0.0.1", p_b2) ]
        ~scheme:"eulerian" ~csr ~proof ~radius:scheme.Scheme.radius ~k:4 ()
    with
    | Ok v -> (v.Fanout.all_accept, v.Fanout.rejecting)
    | Error m -> failwith ("partition bench: fanout: " ^ m)
  in
  let counter text name =
    match Obs.Export.find_sample text ~name ~labels:[] with
    | Some v -> int_of_float v
    | None -> 0
  in
  let metrics port =
    match Client.connect ~port () with
    | Error m -> failwith ("partition bench: " ^ m)
    | Ok c -> (
        let r = Client.call c Wire.Metrics_text in
        Client.close c;
        match r with
        | Ok (Wire.Metrics_text_reply s) -> s
        | _ -> failwith "partition bench: metrics scrape failed")
  in
  let sharded_rows, shards1, rej1, shards2, rej2 =
    let b1 = serve p_b1 in
    let b2 = serve p_b2 in
    Fun.protect ~finally:(fun () -> List.iter shutdown [ b1; b2 ])
    @@ fun () ->
    let rows =
      List.map
        (fun (n, _, csr, bad) ->
          let verdict = call_sharded csr
          and bad_verdict = call_sharded (Csr.of_graph bad) in
          (n, verdict, bad_verdict, wall (fun () -> ignore (call_sharded csr))))
        graphs
    in
    let m1 = metrics p_b1 and m2 = metrics p_b2 in
    ( rows,
      counter m1 "lcp_partition_shards_total",
      counter m1 "lcp_partition_reject_total",
      counter m2 "lcp_partition_shards_total",
      counter m2 "lcp_partition_reject_total" )
  in
  let rows =
    List.map2
      (fun (n, wv, wb, single_s) (n', sv, sb, sharded_s) ->
        assert (n = n');
        let equal = wv = sv && wb = sb in
        let ratio = if single_s > 0.0 then sharded_s /. single_s else 0.0 in
        Format.printf
          "n=%-5d whole %8.2f ms   4-shard %8.2f ms   ratio %.2fx   verdicts \
           %s@."
          n (single_s *. 1000.0) (sharded_s *. 1000.0) ratio
          (if equal then "equal" else "DIFFER");
        (n, single_s, sharded_s, ratio, equal))
      whole_rows sharded_rows
  in
  Format.printf "backend shards: %d + %d, rejects %d + %d@." shards1 shards2
    rej1 rej2;
  if not (List.for_all (fun (_, _, _, _, equal) -> equal) rows) then begin
    prerr_endline "partition bench: sharded verdicts differ from whole-graph";
    exit 1
  end;
  let largest_ratio =
    match List.rev rows with (_, _, _, r, _) :: _ -> r | [] -> 0.0
  in
  Printf.sprintf
    "{\"scheme\":\"eulerian\",\"partitions\":4,\"backends\":2,\"transport\":\"direct\",\"reps\":%d,\"rows\":[%s],\"largest_ratio\":%.3f,\"backend_shards\":[%d,%d]}"
    reps
    (String.concat ","
       (List.map
          (fun (n, single_s, sharded_s, ratio, equal) ->
            Printf.sprintf
              "{\"n\":%d,\"single_s\":%.6f,\"sharded_s\":%.6f,\"ratio\":%.3f,\"verdict_equal\":%b}"
              n single_s sharded_s ratio equal)
          rows))
    largest_ratio shards1 shards2

(* --- randomized bench (--randomized) --------------------------------- *)

(* The sampled-verification subsystem behind the "randomized" section
   of BENCH_lcp.json. Two halves:

   - an in-process table over every catalog sampled variant: honest
     proof size, sampled vs full verification wall at each size, and
     the measured one-sided error of the sampler over the checker's
     forgery distribution (Wilson interval) — the declared ε is a
     tested claim, and this is the test;

   - a serving gate on the wire path: an in-process daemon serves warm
     bipartite instances under always-full Verify and under
     Verify_sampled (sampled fast path, escalate on rejection); the
     sampled leg must win req-equivalent throughput on the largest row
     while agreeing with the full verdict on both a valid proof and an
     all-ones corruption (which every node rejects, so the sampled run
     escalates with certainty). *)
let randomized_bench () =
  Format.printf "@.=== randomized bench (sampled verification) ===@.";
  let reps = 5 in
  (* best-of-reps for the same reason the partition bench uses it: the
     minimum is the reproducible cost of the path itself *)
  let wall f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Obs.Clock.now_ns () in
      f ();
      let s = Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns t0) in
      if s < !best then best := s
    done;
    !best
  in
  let cycle ?(base = 0) n =
    let ids = List.init n (fun i -> base + i) in
    let g = List.fold_left Graph.add_node Graph.empty ids in
    List.fold_left
      (fun g i -> Graph.add_edge g (base + i) (base + ((i + 1) mod n)))
      g
      (List.init n (fun i -> i))
  in
  (* even-cycle yes-instances per sampled scheme: bipartite plain, a
     flagged hamiltonian path as the spanning tree, and s/t dropped
     into two separate components for unreachability *)
  let instance name n =
    match name with
    | "bipartite" -> Instance.of_graph (cycle n)
    | "spanning-tree" ->
        Instance.flag_edges
          (Instance.of_graph (cycle n))
          (List.init (n - 1) (fun i -> (i, i + 1)))
    | "st-unreach" ->
        let h = n / 2 in
        let g =
          Graph.union_disjoint (cycle h) (cycle ~base:h h)
        in
        St.of_graph g ~s:0 ~t:h
    | _ -> failwith ("randomized bench: no instance builder for " ^ name)
  in
  let sizes = [ 256; 1024; 4096 ] in
  let scheme_json (name, rs) =
    let base = rs.Randomized_scheme.base in
    let rows =
      List.map
        (fun n ->
          let inst = instance name n in
          let proof =
            match base.Scheme.prover inst with
            | Some p -> p
            | None ->
                failwith
                  (Printf.sprintf "randomized bench: %s prover refused n=%d"
                     name n)
          in
          let compiled = Simulator.compile inst in
          let queries = rs.Randomized_scheme.queries in
          let o = Randomized_scheme.run rs compiled proof ~seed:1 ~queries in
          if not o.Randomized_scheme.accepted then
            failwith
              (Printf.sprintf
                 "randomized bench: %s sampled run rejected a valid proof \
                  (n=%d)"
                 name n);
          let sampled_s =
            wall (fun () ->
                ignore (Randomized_scheme.run rs compiled proof ~seed:1 ~queries))
          in
          let full_s =
            wall (fun () ->
                ignore
                  (Simulator.run_verifier ~compiled inst proof
                     ~radius:base.Scheme.radius base.Scheme.verifier))
          in
          let speedup = if sampled_s > 0.0 then full_s /. sampled_s else 0.0 in
          Format.printf
            "%-14s n=%-5d proof %2d bit(s)  sampled %8.3f ms (%d probes, %d \
             bits)  full %8.3f ms  speedup %6.2fx@."
            name n (Proof.size proof) (sampled_s *. 1000.0)
            o.Randomized_scheme.nodes_checked o.Randomized_scheme.bits_read
            (full_s *. 1000.0) speedup;
          Printf.sprintf
            "{\"n\":%d,\"proof_bits\":%d,\"queries\":%d,\"nodes_checked\":%d,\"bits_read\":%d,\"sampled_s\":%.6f,\"full_s\":%.6f,\"speedup\":%.3f}"
            n (Proof.size proof) queries o.Randomized_scheme.nodes_checked
            o.Randomized_scheme.bits_read sampled_s full_s speedup)
        sizes
    in
    (* measured one-sided error at the smallest size: forge, keep what
       the base verifier rejects, count sampled acceptances *)
    let e =
      Randomized_scheme.soundness rs
        (instance name (List.hd sizes))
        ~samples:400 ~max_bits:4
    in
    let within = e.Checker.wilson_low <= rs.Randomized_scheme.epsilon in
    Format.printf
      "%-14s soundness: %d of %d invalid forgeries fooled the sampler (rate \
       %.4f, wilson [%.4f, %.4f], ε %g: %s)@."
      name e.Checker.fooled e.Checker.invalid e.Checker.rate
      e.Checker.wilson_low e.Checker.wilson_high rs.Randomized_scheme.epsilon
      (if within then "within budget" else "EXCEEDED");
    Printf.sprintf
      "{\"scheme\":\"%s\",\"epsilon\":%g,\"queries\":%d,\"probes\":%d,\"budget\":\"%s\",\"soundness\":{\"n\":%d,\"samples\":400,\"trials\":%d,\"invalid\":%d,\"fooled\":%d,\"rate\":%.6f,\"wilson_low\":%.6f,\"wilson_high\":%.6f,\"within_budget\":%b},\"rows\":[%s]}"
      name rs.Randomized_scheme.epsilon rs.Randomized_scheme.queries
      rs.Randomized_scheme.probes rs.Randomized_scheme.budget (List.hd sizes)
      e.Checker.trials e.Checker.invalid e.Checker.fooled e.Checker.rate
      e.Checker.wilson_low e.Checker.wilson_high within
      (String.concat "," rows)
  in
  let schemes = List.map scheme_json Sampled.all in
  (* serving gate: the wire path, always-full vs sampled + escalate *)
  let serving =
    let rs =
      match Sampled.find "bipartite" with
      | Some rs -> rs
      | None -> failwith "randomized bench: bipartite has no sampled variant"
    in
    let config =
      { Server.default_config with Server.port = 0; jobs = 1; cache_size = 128 }
    in
    let server = Server.create config in
    let th = Server.start server in
    Fun.protect
      ~finally:(fun () ->
        Server.stop server;
        Thread.join th)
    @@ fun () ->
    let port = Server.port server in
    let queries = rs.Randomized_scheme.queries in
    let reqs = 40 in
    let rows =
      List.map
        (fun n ->
          let g = cycle n in
          let g6 = Graph6.encode g in
          let inst = Instance.of_graph g in
          let proof =
            match rs.Randomized_scheme.base.Scheme.prover inst with
            | Some p -> p
            | None -> failwith "randomized bench: bipartite prover refused"
          in
          (* all-ones: both endpoints of every edge claim the same
             colour, so every node rejects — full verify says REJECT
             and any probed node trips the sampled run into the
             escalation path *)
          let ones =
            Proof.map
              (fun _ b ->
                Bits.of_bools (List.init (Bits.length b) (fun _ -> true)))
              proof
          in
          match Client.connect ~port () with
          | Error m -> failwith ("randomized bench: " ^ m)
          | Ok c ->
              Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
              let call req =
                match Client.call c req with
                | Ok r -> r
                | Error m -> failwith ("randomized bench: " ^ m)
              in
              let full p =
                call (Wire.Verify { scheme = "bipartite"; graph6 = g6; proof = p })
              in
              let sampled ~seed p =
                call
                  (Wire.Verify_sampled
                     {
                       scheme = "bipartite";
                       graph6 = g6;
                       proof = p;
                       seed;
                       queries;
                       budget_id = "";
                     })
              in
              let verdict_equal =
                (match (full proof, sampled ~seed:1 proof) with
                | ( Wire.Verified { accepted = true; _ },
                    Wire.Sampled_verified
                      { accepted = true; escalated = false; _ } ) ->
                    true
                | _ -> false)
                &&
                match (full ones, sampled ~seed:1 ones) with
                | ( Wire.Verified { accepted = false; _ },
                    Wire.Sampled_verified
                      { accepted = false; escalated = true; _ } ) ->
                    true
                | _ -> false
              in
              let leg make =
                ignore (make 0);
                (* warm the compiled-graph cache *)
                let t0 = Obs.Clock.now_ns () in
                for i = 1 to reqs do
                  ignore (make i)
                done;
                float_of_int reqs /. Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns t0)
              in
              let full_rps = leg (fun _ -> full proof) in
              let sampled_rps = leg (fun i -> sampled ~seed:(i + 1) proof) in
              let speedup =
                if full_rps > 0.0 then sampled_rps /. full_rps else 0.0
              in
              Format.printf
                "serving n=%-5d full %8.1f req/s   sampled %8.1f req/s   \
                 speedup %5.2fx   verdicts %s@."
                n full_rps sampled_rps speedup
                (if verdict_equal then "equal" else "DIFFER");
              Printf.sprintf
                "{\"n\":%d,\"full_rps\":%.1f,\"sampled_rps\":%.1f,\"speedup\":%.3f,\"verdict_equal\":%b}"
                n full_rps sampled_rps speedup verdict_equal)
        [ 512; 2048 ]
    in
    let st = Server.stats server in
    Printf.sprintf
      "{\"scheme\":\"bipartite\",\"queries\":%d,\"reqs_per_leg\":%d,\"rows\":[%s],\"server\":{\"sampled_requests\":%d,\"sampled_escalations\":%d,\"sampled_bits_read\":%d}}"
      queries reqs (String.concat "," rows)
      st.Server.sampled_requests st.Server.sampled_escalations
      st.Server.sampled_bits_read
  in
  Printf.sprintf "{\"schemes\":[%s],\"serving\":%s}"
    (String.concat "," schemes)
    serving

(* --- lower-bound attack experiments --------------------------------- *)

let outcome pp name o = Format.printf "%-34s %a@." name pp o

let gluing name scheme family =
  outcome Gluing.pp_outcome name (Gluing.attack ~rows:4 scheme family)

let lower_bounds () =
  Format.printf "@.=== Figure 1 / Section 5.3: gluing cycles ===@.";
  Format.printf "(undersized-but-complete schemes must be FOOLED; honest Θ(log n) schemes must resist)@.";
  gluing "odd-n, 2-bit counters" (Truncated.odd_n_cycle ~bits:2)
    (Gluing.odd_cycles ~n:9);
  gluing "odd-n, honest Θ(log n)" Counting.odd_n (Gluing.odd_cycles ~n:9);
  gluing "leader, 2-bit counters" (Truncated.leader_cycle ~bits:2)
    (Gluing.leader_cycles ~n:8);
  gluing "leader, honest Θ(log n)" Leader_election.strong
    (Gluing.leader_cycles ~n:8);
  gluing "max-matching, 2-bit counters" (Truncated.max_matching_cycle ~bits:2)
    (Gluing.matching_cycles ~n:9);
  gluing "max-matching, honest Θ(log n)" Matching_schemes.maximum_on_cycle
    (Gluing.matching_cycles ~n:9);

  Format.printf "@.--- general k (the paper's arbitrary constant) ---@.";
  List.iter
    (fun k ->
      match
        Gluing.attack_k ~rows:(2 * k) ~k (Truncated.odd_n_cycle ~bits:2)
          (Gluing.odd_cycles ~n:9)
      with
      | Gluing.Fooled_k { instance; genuinely_no; _ } ->
          Format.printf
            "odd-n, k=%d: glued %d-cycle accepted; genuine no-instance = %b %s@." k
            (Instance.n instance) genuinely_no
            (if genuinely_no then "(parity flipped: refutation)"
             else "(odd k keeps parity: pick even k)")
      | Gluing.Resisted_k _ -> Format.printf "odd-n, k=%d: resisted@." k
      | Gluing.Prover_failed_k _ -> Format.printf "odd-n, k=%d: prover failed@." k)
    [ 2; 3; 4 ];

  Format.printf "@.--- budget sweep: where does the attack stop working? ---@.";
  List.iter
    (fun bits ->
      match Gluing.attack ~rows:4 (Truncated.leader_cycle ~bits) (Gluing.leader_cycles ~n:8) with
      | Gluing.Fooled _ -> Format.printf "leader election, %d-bit counters: FOOLED@." bits
      | Gluing.Resisted { pairs; distinct_signatures } ->
          Format.printf "leader election, %d-bit counters: resisted (%d/%d distinct)@."
            bits distinct_signatures pairs
      | Gluing.Prover_failed _ -> Format.printf "%d bits: prover failed@." bits)
    [ 2; 3; 4 ];

  Format.printf "@.=== Section 6.1: symmetric graphs need Ω(n²) bits ===@.";
  let family = Enumerate.asymmetric_connected 6 in
  Format.printf "family F_6: %d pairwise non-isomorphic asymmetric connected graphs@."
    (List.length family);
  outcome Symmetry_lb.pp_outcome "claims scheme, O(Δ log n) bits"
    (Symmetry_lb.attack_symmetric Truncated.symmetric_claims ~family);
  outcome Symmetry_lb.pp_outcome "universal scheme, Θ(n²) bits"
    (Symmetry_lb.attack_symmetric Universal.symmetric ~family);

  Format.printf "@.=== Section 6.2: fixpoint-free tree symmetry needs Ω(n) ===@.";
  let trees = Tree_enum.rooted_trees 6 in
  Format.printf "family: %d rooted trees on 6 nodes (A000081)@." (List.length trees);
  outcome Symmetry_lb.pp_outcome "claims scheme, O(Δ log n) bits"
    (Symmetry_lb.attack_trees Truncated.fixpoint_free_claims ~family:trees);
  outcome Symmetry_lb.pp_outcome "tree-universal scheme, Θ(n) bits"
    (Symmetry_lb.attack_trees Tree_universal.fixpoint_free_symmetry ~family:trees);

  Format.printf "@.=== Section 6.3: non-3-colourability needs Ω(n²/log n) ===@.";
  let sets =
    Some [ [ (0, 1) ]; [ (1, 0) ]; [ (0, 0); (1, 1) ]; [ (0, 1); (1, 0) ] ]
  in
  let ball_claims =
    Truncated.ball_claims ~name:"non3col-ball-claims" (fun g ->
        not (Coloring.is_k_colourable g 3))
  in
  outcome Non3col_lb.pp_outcome "ball-claims scheme, O(Δ² log n)"
    (Non3col_lb.attack ~k:1 ~r:1 ~sets ball_claims);
  outcome Non3col_lb.pp_outcome "universal scheme, Θ(n²)"
    (Non3col_lb.attack ~k:1 ~r:1 ~sets Universal.non_3_colourable);

  Format.printf
    "@.=== Table 1(a) dash row: connectivity has NO scheme of any size ===@.";
  let conn_universal, _ = row "connected-universal" in
  Format.printf
    "disjoint-union attack vs the universal O(n²) scheme: fooled = %b@."
    (No_scheme.connectivity_has_no_scheme conn_universal.Registry.scheme)

(* --- design ablations ------------------------------------------------- *)

let ablations () =
  Format.printf "@.=== design ablations ===@.";
  (* 1. mutual vs one-sided pointers (directed reachability) *)
  let inst, forged = Truncated.one_sided_fooling () in
  Format.printf
    "one-sided pointers accept the unreachable 3-cycle instance: %b (FOOLED)@."
    (Scheme.accepts Truncated.directed_reach_one_sided inst forged);
  (match
     Adversary.forge ~restarts:6 ~steps:200 Reachability.directed_reach_pointer
       inst ~max_bits:8
   with
  | Adversary.Fooled _ -> Format.printf "mutual pointers: FOOLED (bug!)@."
  | Adversary.Resisted { attempts; _ } ->
      Format.printf
        "mutual pointers: resisted %d forging attempts on the same instance@."
        attempts);
  (* 2. weak vs strong leader election proof sizes *)
  Format.printf "weak vs strong leader-election bits:";
  List.iter
    (fun n ->
      let g = Builders.cycle n in
      let s =
        measured Leader_election.strong
          (Leader_election.mark_leader (of_g g) 0)
      in
      let w = measured Leader_election.weak (of_g g) in
      Format.printf " n=%d:%d/%d" n s w)
    [ 8; 32; 128 ];
  Format.printf "  (strong/weak — within a constant, Section 7.2)@.";
  (* 3. attack budget vs window capacity (the counting inequality) *)
  Format.printf
    "window capacity 2^(bits·(2r+1)) at r=1: bits=1:%d bits=2:%d bits=4:%d — vs |F_6| = 8, |trees_6| = 20@."
    (Symmetry_lb.forced_collision_bound ~bits:1 ~radius:1)
    (Symmetry_lb.forced_collision_bound ~bits:2 ~radius:1)
    (Symmetry_lb.forced_collision_bound ~bits:4 ~radius:1)

(* --- hierarchy summary ----------------------------------------------- *)

let hierarchy () =
  Format.printf "@.=== The LCP hierarchy at n = 64 (bits per node, measured) ===@.";
  List.iter
    (fun (level, name) ->
      let e, r = row name in
      Format.printf "  %-10s %-24s %6d bits@." level r.Registry.what
        (measure_row e r 64))
    [
      ("LCP(0)", "eulerian");
      ("LCP(1)", "bipartite");
      ("LogLCP", "leader");
      ("LCP(n)", "tree-ffsym");
      ("LCP(n²)", "symmetric");
    ];
  Format.printf "  (each level separated by the lower-bound attacks above)@."

(* --- Bechamel timing ------------------------------------------------- *)

let timing () =
  let open Bechamel in
  let open Toolkit in
  (* The serving path: one compiled instance and a warm arena, as the
     daemon keeps them, verified at every node per run. *)
  let timed name scheme inst proof =
    let compiled = Simulator.compile inst in
    let arena = Simulator.arena () in
    Test.make ~name
      (Staged.stage (fun () ->
           ignore
             (Simulator.run_verifier ~compiled ~arena inst proof
                ~radius:scheme.Scheme.radius scheme.Scheme.verifier)))
  in
  let verifier_test name scheme inst =
    match Scheme.prove_and_check scheme inst with
    | `Accepted proof -> timed name scheme inst proof
    | _ -> failwith ("prover failed for " ^ name)
  in
  let n = 64 in
  let tests =
    Test.make_grouped ~name:"verifiers"
      [
        verifier_test "eulerian-C64" Eulerian.scheme (of_g (Builders.cycle n));
        verifier_test "bipartite-C64" Bipartite_scheme.scheme (of_g (Builders.cycle n));
        verifier_test "leader-C64" Leader_election.strong
          (Leader_election.mark_leader (of_g (Builders.cycle n)) 0);
        verifier_test "spanning-tree-G64" Spanning_tree_scheme.scheme
          ((snd (row "spanning-tree")).Registry.make n);
        verifier_test "odd-n-C65" Counting.odd_n (of_g (Builders.cycle 65));
        verifier_test "non-bipartite-C65" Non_bipartite.scheme (of_g (Builders.cycle 65));
        (* mean degree 6, where each certificate is read deg + 1 times
           per sweep: odd-n's verifier over even-n's certificate (the
           same format; on 1024 nodes only the root rejects) *)
        (let inst = of_g (Random_graphs.connected_gnp (st 7) 1024 (6.0 /. 1024.0)) in
         timed "odd-n-G1024" Counting.odd_n inst
           (Option.get (Counting.even_n.Scheme.prover inst)));
        verifier_test "maxw-matching-C16"
          Matching_schemes.maximum_weight_bipartite
          (let g = Builders.cycle 16 in
           let w (u, v) = 1 + ((u + v) mod 7) in
           Matching_schemes.weighted_instance g w (Weighted_matching.maximum_weight g w));
      ]
  in
  let prover_test name scheme inst =
    Test.make ~name
      (Staged.stage (fun () ->
           match scheme.Scheme.prover inst with
           | Some _ -> ()
           | None -> failwith "prover refused"))
  in
  let prover_tests =
    Test.make_grouped ~name:"provers"
      [
        prover_test "bipartite-C64" Bipartite_scheme.scheme (of_g (Builders.cycle n));
        prover_test "leader-C64" Leader_election.strong
          (Leader_election.mark_leader (of_g (Builders.cycle n)) 0);
        prover_test "non-bipartite-C65" Non_bipartite.scheme (of_g (Builders.cycle 65));
        prover_test "menger-grid5x5"
          Connectivity.general
          (Connectivity.instance (Builders.grid 5 5) ~s:0 ~t:24 ~k:2);
        prover_test "universal-symmetric-C24" Universal.symmetric
          (of_g (Builders.cycle 24));
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let report title raw =
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Format.printf "=== %s (ns/run) ===@." title;
    Hashtbl.iter
      (fun name ols_result ->
        let estimate =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> Printf.sprintf "%12.0f ns" e
          | _ -> "?"
        in
        Format.printf "  %-44s %s@." name estimate)
      results
  in
  report "verifier timings (run_verifier, compiled + warm arena, all nodes)"
    (Benchmark.all cfg Instance.[ monotonic_clock ] tests);
  report "prover timings (one instance)"
    (Benchmark.all cfg Instance.[ monotonic_clock ] prover_tests)

(* --- main ------------------------------------------------------------ *)

let run_table ?(smoke = false) title rows =
  print_header title;
  List.map
    (fun ((_, r) as er) ->
      let sizes = if smoke then r.Registry.smoke else r.Registry.sizes in
      let result = eval_row ~sizes er in
      print_result result;
      result)
    rows

(* A row that fails to measure, or whose fit is not the paper's class,
   fails the run (exit 1) once every artefact is written. *)
let exit_unless_all_match results =
  let bad =
    List.filter
      (fun r -> match r.outcome with Fitted (_, _, true) -> false | _ -> true)
      results
  in
  if bad <> [] then begin
    Printf.eprintf "bench: %d row(s) do not match the paper: %s\n"
      (List.length bad)
      (String.concat ", " (List.map (fun r -> r.row.id) bad));
    exit 1
  end

(* Wrap a whole bench section in a trace span when tracing is on. *)
let section name f = if !Obs.Trace.enabled then Obs.Trace.span name f else f ()

let main smoke timing_only with_partition with_randomized jobs_n metrics dir
    profile =
  jobs := Cli.resolve_jobs jobs_n;
  let obs = { Obs.off with dir; profile } in
  (* A traced --smoke --partition --randomized run records about 480k
     events; the default ring would keep only the last 65536. *)
  if dir <> None then Obs.Trace.set_capacity (1 lsl 20);
  collect_metrics := metrics;
  (* --metrics resets the registry at every row, so its end state is no
     run summary: the registry is enabled here, not through the
     session, which would print that table on exit. *)
  if metrics then Obs.enable ();
  if timing_only then timing ()
  else begin
    if smoke then
      Format.printf "Locally Checkable Proofs: smoke sweep (jobs=%d)@." !jobs
    else
      Format.printf
        "Locally Checkable Proofs (Göös & Suomela, PODC 2011): experiment \
         harness (jobs=%d)@."
        !jobs;
    let table prefix =
      List.filter
        (fun (_, r) -> String.starts_with ~prefix r.Registry.id)
        rows
    in
    let tables () =
      if smoke then
        run_table ~smoke "smoke sweep"
          (List.filter (fun (_, r) -> r.Registry.smoke <> []) rows)
      else begin
        let results_a =
          run_table "Table 1(a): graph properties" (table "T1a-")
        in
        let results_b =
          run_table "Table 1(b): graph problems (solution verification)"
            (table "T1b-")
        in
        section "bench.lower_bounds" lower_bounds;
        section "bench.ablations" ablations;
        section "bench.hierarchy" hierarchy;
        results_a @ results_b
      end
    in
    let results, total, partition, randomized =
      Obs.session
        ~process:(Printf.sprintf "bench-%d" (Unix.getpid ()))
        ~exposition:(fun (results, total_wall_s, _, _) ->
          exposition ~total_wall_s results)
        obs
      @@ fun () ->
      let t0 = Obs.Clock.now_ns () in
      let results = tables () in
      let partition =
        if with_partition then Some (section "bench.partition" partition_bench)
        else None
      in
      let randomized =
        if with_randomized then
          Some (section "bench.randomized" randomized_bench)
        else None
      in
      (results, Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns t0), partition,
       randomized)
    in
    if smoke then Format.printf "@.total wall time: %.3fs@." total;
    (* the session stopped the sampler, so the counts are final *)
    let profile =
      if obs.Obs.profile then Some (Obs.Profile.export_string ()) else None
    in
    write_json "BENCH_lcp.json" ~smoke ~total_wall_s:total ?partition
      ?randomized ?profile results;
    if not smoke then
      Format.printf
        "@.run with --timing for Bechamel verifier micro-benchmarks, --smoke \
         for the CI sweep.@.";
    exit_unless_all_match results
  end

(* The eight flags, parsed with the lcp CLI's own terms: the
   observability group from [Obs_flags] and the [--jobs] converter. *)
let () =
  let open Cmdliner in
  let switch name doc = Arg.(value & flag & info [ name ] ~doc) in
  let jobs =
    Arg.(
      value
      & opt Cli.jobs_conv 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Fan the per-node verifier loop over $(docv) domains (0 = all \
             recommended cores).")
  in
  let term =
    Term.(
      const main
      $ switch "smoke" "The tiny CI sweep over the smoke rows."
      $ switch "timing"
          "Bechamel timings of the serving verify path and the provers \
           instead of the sweep."
      $ switch "partition" "Add the partitioned-verification section."
      $ switch "randomized" "Add the sampled-verification section."
      $ jobs $ Obs_flags.metrics $ Obs_flags.obs_dir $ Obs_flags.profile)
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "main"
             ~doc:"Regenerate Table 1 and the lower-bound experiments")
          term))
