(* Benchmark harness: regenerates every row of Table 1(a) and 1(b) and
   the Figure 1 / Section 6 lower-bound experiments.

     dune exec bench/main.exe              (proof-size + attack harness)
     dune exec bench/main.exe -- --timing  (Bechamel timings of the serving
                                           verify path and the provers)
     dune exec bench/main.exe -- --smoke   (tiny CI sweep, < 10 s)

   Flags: --jobs N  fan the per-node verifier loop over N domains
                    (0 = all recommended cores);
          --reference  verify on the seed View.make-per-node path
                    instead of the compiled CSR engine (for
                    before/after speedup measurements);
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

   For each upper-bound row we run the scheme's prover over a sweep of
   instance sizes, check that every proof is accepted by all nodes,
   record the maximum proof size in bits per node, and fit the measured
   series against the growth models {0, Θ(1), Θ(log), Θ(n), Θ(n²),
   Θ(n²/log n)}; the verdict column compares the fit against the
   paper's claim. For each lower-bound row we run the corresponding
   attack: undersized-but-complete schemes are fooled (an accepted
   no-instance is constructed), honest schemes resist (signatures stay
   distinct). *)

let st seed = Random.State.make [| seed |]

(* --- measurement ---------------------------------------------------- *)

type row = {
  id : string;
  what : string;
  family : string;
  paper : string;
  ok_classes : Complexity.growth list;
  param : string;
  series : unit -> (int * int) list;
}

exception Measure_failure of string

(* Engine selection, set from the command line in [main]. *)
let jobs = ref 1
let use_reference = ref false
let collect_metrics = ref false

(* Prove and fully verify; return bits per node. Verification runs on
   the compiled CSR engine (optionally multicore) unless --reference
   asks for the seed View.make-per-node path. *)
let measured scheme inst =
  match scheme.Scheme.prover inst with
  | None ->
      raise (Measure_failure (scheme.Scheme.name ^ ": prover refused a yes-instance"))
  | Some proof -> (
      let rejecting =
        if !use_reference then
          match Scheme.decide scheme inst proof with
          | Scheme.Accept -> []
          | Scheme.Reject vs -> vs
        else
          let verdicts, _ =
            Simulator.run_verifier ~jobs:!jobs inst proof
              ~radius:scheme.Scheme.radius scheme.Scheme.verifier
          in
          Simulator.rejecting verdicts
      in
      match rejecting with
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

let sweep ?(measure = measured) scheme mk ns () =
  List.map (fun n -> (n, measure scheme (mk n))) ns

let ns_log = [ 8; 16; 32; 64; 128; 256 ]
let ns_small = [ 8; 16; 32; 64 ]

(* --- instance makers ------------------------------------------------ *)

let of_g g = Instance.of_graph g
let even n = if n mod 2 = 0 then n else n + 1
let odd n = if n mod 2 = 1 then n else n + 1

let spanning_tree_inst g =
  let pairs = Traversal.spanning_tree g (List.hd (Graph.nodes g)) in
  Instance.flag_edges (of_g g) (List.map (fun (v, p) -> (min v p, max v p)) pairs)

(* s and t joined by k internally-disjoint paths of length 3:
   vertex connectivity exactly k. *)
let theta_graph k =
  let s = 0 and t = 1 in
  let g = ref (Graph.add_node (Graph.add_node Graph.empty s) t) in
  for i = 0 to k - 1 do
    let a = 2 + (2 * i) and b = 3 + (2 * i) in
    g := Graph.add_edge !g s a;
    g := Graph.add_edge !g a b;
    g := Graph.add_edge !g b t
  done;
  (!g, s, t)

let doubled_tree k seed =
  let t = Random_graphs.tree (st seed) k in
  let t' = Canonical.shifted t k in
  Graph.add_edge (Graph.union_disjoint t t') (List.hd (Graph.nodes t))
    (List.hd (Graph.nodes t'))

let two_components n =
  let half = max 3 (n / 2) in
  Graph.union_disjoint (Builders.cycle half)
    (Canonical.shifted (Builders.cycle half) (2 * half))

(* --- Table 1(a) ----------------------------------------------------- *)

let table_1a =
  [
    {
      id = "T1a-1";
      what = "Eulerian graph";
      family = "connected";
      paper = "0";
      ok_classes = [ Complexity.Zero ];
      param = "n";
      series = sweep Eulerian.scheme (fun n -> of_g (Builders.cycle n)) ns_log;
    };
    {
      id = "T1a-2";
      what = "line graph";
      family = "general";
      paper = "0";
      ok_classes = [ Complexity.Zero ];
      param = "n";
      series =
        sweep Line_graph_scheme.scheme
          (fun n -> of_g (Line_graph.of_root_graph (Builders.path (n + 1))))
          [ 8; 16; 32; 64 ];
    };
    {
      id = "T1a-3";
      what = "s-t reachability";
      family = "undirected";
      paper = "Θ(1)";
      ok_classes = [ Complexity.Constant ];
      param = "n";
      series =
        sweep Reachability.undirected_reach
          (fun n -> St.of_graph (Builders.cycle n) ~s:0 ~t:(n / 2))
          ns_log;
    };
    {
      id = "T1a-4";
      what = "s-t unreachability";
      family = "undirected";
      paper = "Θ(1)";
      ok_classes = [ Complexity.Constant ];
      param = "n";
      series =
        sweep Reachability.undirected_unreach
          (fun n ->
            let g = two_components n in
            St.of_graph g ~s:0 ~t:(Graph.max_id g))
          ns_log;
    };
    {
      id = "T1a-5";
      what = "s-t unreachability";
      family = "directed";
      paper = "Θ(1)";
      ok_classes = [ Complexity.Constant ];
      param = "n";
      series =
        sweep Reachability.directed_unreach
          (fun n ->
            (* a directed path plus a reversed tail: t unreachable *)
            let fwd = List.init (n / 2) (fun i -> (i, i + 1)) in
            let bwd = List.init (n / 2) (fun i -> (n - i, n - i - 1)) in
            St.of_digraph (Digraph.of_arcs (fwd @ bwd)) ~s:0 ~t:n)
          ns_log;
    };
    {
      id = "T1a-6";
      what = "s-t connectivity = k";
      family = "planar";
      paper = "Θ(1)";
      ok_classes = [ Complexity.Constant ];
      param = "n";
      series =
        sweep Connectivity.planar
          (fun rows ->
            let g = Builders.grid rows rows in
            Connectivity.instance g ~s:0 ~t:((rows * rows) - 1) ~k:2)
          [ 3; 4; 5; 6; 8 ];
    };
    {
      id = "T1a-7";
      what = "bipartite graph";
      family = "general";
      paper = "Θ(1)";
      ok_classes = [ Complexity.Constant ];
      param = "n";
      series = sweep Bipartite_scheme.scheme (fun n -> of_g (Builders.cycle (even n))) ns_log;
    };
    {
      id = "T1a-8";
      what = "even n(G)";
      family = "cycles";
      paper = "Θ(1)";
      ok_classes = [ Complexity.Constant ];
      param = "n";
      series = sweep Counting.even_cycle (fun n -> of_g (Builders.cycle (even n))) ns_log;
    };
    {
      id = "T1a-9";
      what = "s-t connectivity = k";
      family = "general";
      paper = "O(log k)";
      ok_classes = [ Complexity.Logarithmic; Complexity.Constant ];
      param = "k";
      series =
        sweep Connectivity.general
          (fun k ->
            let g, s, t = theta_graph k in
            Connectivity.instance g ~s ~t ~k)
          [ 2; 4; 8; 16; 32; 64 ];
    };
    {
      id = "T1a-10";
      what = "chromatic number <= k";
      family = "general";
      paper = "O(log k)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "k";
      series =
        sweep Chromatic.scheme
          (fun k -> Chromatic.instance_with_k (Builders.complete k) k)
          [ 2; 4; 8; 16; 32 ];
    };
    {
      id = "T1a-11";
      what = "coLCP(0): non-Eulerian";
      family = "connected";
      paper = "O(log n)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "n";
      series = sweep Colcp0.non_eulerian (fun n -> of_g (Builders.star (n - 1))) ns_log;
    };
    {
      id = "T1a-12";
      what = "monadic Σ¹₁: has-triangle";
      family = "connected";
      paper = "O(log n)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "n";
      series =
        sweep
          (Sigma11.scheme Sentences.has_triangle)
          (fun n -> of_g (Builders.wheel (n - 1)))
          [ 8; 16; 32; 64 ];
    };
    {
      id = "T1a-13";
      what = "odd n(G)";
      family = "cycles";
      paper = "Θ(log n)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "n";
      series = sweep Counting.odd_n (fun n -> of_g (Builders.cycle (odd n))) ns_log;
    };
    {
      id = "T1a-14";
      what = "chromatic number > 2";
      family = "connected";
      paper = "Θ(log n)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "n";
      series = sweep Non_bipartite.scheme (fun n -> of_g (Builders.cycle (odd n))) ns_log;
    };
    {
      id = "T1a-15";
      what = "fixpoint-free symmetry";
      family = "trees";
      paper = "Θ(n)";
      ok_classes = [ Complexity.Linear ];
      param = "n";
      series =
        sweep Tree_universal.fixpoint_free_symmetry
          (fun n -> of_g (doubled_tree (n / 2) (100 + n)))
          ns_log;
    };
    {
      id = "T1a-16";
      what = "symmetric graph";
      family = "connected";
      paper = "Θ(n²)";
      ok_classes = [ Complexity.Quadratic; Complexity.Quadratic_over_log ];
      param = "n";
      series =
        sweep ~measure:measured_prover_only Universal.symmetric
          (fun n -> of_g (Builders.cycle n))
          ns_small;
    };
    {
      id = "T1a-17";
      what = "chromatic number > 3";
      family = "connected";
      paper = "Ω(n²/log n)..O(n²)";
      ok_classes = [ Complexity.Quadratic; Complexity.Quadratic_over_log ];
      param = "n";
      series =
        sweep ~measure:measured_prover_only Universal.non_3_colourable
          (fun n -> of_g (Builders.wheel (odd (n - 1))))
          ns_small;
    };
    {
      id = "T1a-18";
      what = "computable property";
      family = "connected";
      paper = "O(n²)";
      ok_classes = [ Complexity.Quadratic; Complexity.Quadratic_over_log ];
      param = "n";
      series =
        sweep ~measure:measured_prover_only
          (Universal.of_predicate ~name:"connected-universal" Traversal.is_connected)
          (fun n -> of_g (Random_graphs.connected_gnp (st n) n 0.2))
          ns_small;
    };
  ]

(* --- Table 1(b) ----------------------------------------------------- *)

let table_1b =
  [
    {
      id = "T1b-1";
      what = "maximal matching";
      family = "general";
      paper = "0";
      ok_classes = [ Complexity.Zero ];
      param = "n";
      series =
        sweep Matching_schemes.maximal
          (fun n ->
            let g = Builders.cycle n in
            Instance.flag_edges (of_g g) (Matching.greedy_maximal g))
          ns_log;
    };
    {
      id = "T1b-2";
      what = "LCL: maximal independent set";
      family = "general";
      paper = "0";
      ok_classes = [ Complexity.Zero ];
      param = "n";
      series =
        sweep Lcl.maximal_independent_set
          (fun n ->
            let g = Builders.cycle (even n) in
            Instance.with_node_labels (of_g g)
              (List.map (fun v -> (v, Bits.one_bit (v mod 2 = 0))) (Graph.nodes g)))
          ns_log;
    };
    {
      id = "T1b-3";
      what = "maximum matching";
      family = "bipartite";
      paper = "Θ(1)";
      ok_classes = [ Complexity.Constant ];
      param = "n";
      series =
        sweep Matching_schemes.maximum_bipartite
          (fun n ->
            let g = Builders.cycle (even n) in
            Instance.flag_edges (of_g g) (Matching.maximum_bipartite g))
          ns_log;
    };
    {
      id = "T1b-4";
      what = "max-weight matching";
      family = "bipartite";
      paper = "O(log W)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "W";
      series =
        (fun () ->
          (* fixed topology, growing weight range *)
          let g = Builders.cycle 16 in
          List.map
            (fun w_max ->
              let weights (u, v) = 1 + (((u * 13) + (v * 7)) mod w_max) in
              let m = Weighted_matching.maximum_weight g weights in
              let inst = Matching_schemes.weighted_instance g weights m in
              (w_max, measured Matching_schemes.maximum_weight_bipartite inst))
            [ 2; 4; 16; 64; 256; 1024 ]);
    };
    {
      id = "T1b-5";
      what = "leader election";
      family = "connected";
      paper = "Θ(log n)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "n";
      series =
        sweep Leader_election.strong
          (fun n -> Leader_election.mark_leader (of_g (Builders.cycle n)) 0)
          ns_log;
    };
    {
      id = "T1b-6";
      what = "spanning tree";
      family = "connected";
      paper = "Θ(log n)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "n";
      series =
        sweep Spanning_tree_scheme.scheme
          (fun n -> spanning_tree_inst (Random_graphs.connected_gnp (st n) n 0.1))
          [ 8; 16; 32; 64; 128 ];
    };
    {
      id = "T1b-7";
      what = "maximum matching";
      family = "cycles";
      paper = "Θ(log n)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "n";
      series =
        sweep Matching_schemes.maximum_on_cycle
          (fun n ->
            let g = Builders.cycle (odd n) in
            Instance.flag_edges (of_g g) (Matching.maximum_on_cycle g))
          ns_log;
    };
    {
      id = "T1b-8";
      what = "Hamiltonian cycle";
      family = "connected";
      paper = "Θ(log n)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "n";
      series =
        sweep Hamiltonian_scheme.scheme
          (fun n ->
            let g = Builders.cycle n in
            Instance.flag_edges (of_g g) (Graph.edges g))
          ns_log;
    };
    {
      id = "T1b-9";
      what = "acyclicity";
      family = "general";
      paper = "O(log n)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "n";
      series =
        sweep Acyclic.scheme (fun n -> of_g (Random_graphs.tree (st n) n)) ns_log;
    };
  ]

(* --- smoke sweep (CI) ------------------------------------------------ *)

(* A representative, verifier-bound subset that finishes in seconds on
   the CSR engine: the largest rows are exactly where per-node
   View.make extraction used to go quadratic. *)
let smoke_table =
  [
    {
      id = "S-1";
      what = "Eulerian graph";
      family = "connected";
      paper = "0";
      ok_classes = [ Complexity.Zero ];
      param = "n";
      series =
        sweep Eulerian.scheme (fun n -> of_g (Builders.cycle n)) [ 128; 256; 512 ];
    };
    {
      id = "S-2";
      what = "bipartite graph";
      family = "general";
      paper = "Θ(1)";
      ok_classes = [ Complexity.Constant ];
      param = "n";
      series =
        sweep Bipartite_scheme.scheme
          (fun n -> of_g (Builders.cycle (even n)))
          [ 128; 256; 512 ];
    };
    {
      id = "S-3";
      what = "odd n(G)";
      family = "cycles";
      paper = "Θ(log n)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "n";
      series =
        sweep Counting.odd_n (fun n -> of_g (Builders.cycle (odd n)))
          [ 129; 257; 513 ];
    };
    {
      id = "S-4";
      what = "leader election";
      family = "connected";
      paper = "Θ(log n)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "n";
      series =
        sweep Leader_election.strong
          (fun n -> Leader_election.mark_leader (of_g (Builders.cycle n)) 0)
          [ 128; 256; 512 ];
    };
    {
      id = "S-5";
      what = "spanning tree";
      family = "connected";
      paper = "Θ(log n)";
      ok_classes = [ Complexity.Logarithmic ];
      param = "n";
      series =
        sweep Spanning_tree_scheme.scheme
          (fun n -> spanning_tree_inst (Random_graphs.connected_gnp (st n) n 0.1))
          [ 32; 64; 128 ];
    };
    {
      id = "S-6";
      what = "s-t reachability";
      family = "undirected";
      paper = "Θ(1)";
      ok_classes = [ Complexity.Constant ];
      param = "n";
      series =
        sweep Reachability.undirected_reach
          (fun n -> St.of_graph (Builders.cycle n) ~s:0 ~t:(n / 2))
          [ 512; 1024; 2048; 4096 ];
    };
  ]

(* --- printing + JSON ------------------------------------------------- *)

type row_outcome =
  | Failed of string
  | Fitted of (int * int) list * Complexity.growth * bool (* series, fit, match *)

type row_result = {
  row : row;
  outcome : row_outcome;
  wall_s : float;
  metrics : string option;  (* pre-rendered JSON object, with --metrics *)
  profile : string option;  (* per-row GC deltas, with --profile *)
}

(* One row: monotonic wall time, an optional trace span, and — with
   --metrics — a per-row snapshot of the deterministic engine counters
   (the metrics registry is reset at row entry, so each row sees only
   its own work). *)
let eval_row r =
  if !collect_metrics then Obs.Metrics.reset ();
  let measure () =
    match r.series () with
    | exception Measure_failure msg -> Failed msg
    | series ->
        let fit = Complexity.classify series in
        Fitted (series, fit, List.mem fit r.ok_classes)
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

let print_header title =
  Format.printf "@.=== %s ===@." title;
  Format.printf "%-7s %-28s %-10s %-18s %-32s %-12s %-8s %s@." "id"
    "property/problem" "family" "paper" "measured bits per node" "fit" "verdict"
    "wall";
  Format.printf "%s@." (String.make 126 '-')

let print_result { row = r; outcome; wall_s; metrics = _; profile = _ } =
  match outcome with
  | Failed msg ->
      Format.printf "%-7s %-28s %-10s %-18s MEASUREMENT FAILED: %s@." r.id r.what
        r.family r.paper msg
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
      Format.printf "%-7s %-28s %-10s %-18s %-32s %-12s %-8s %.3fs@." r.id r.what
        r.family r.paper series_str (Complexity.label fit) verdict wall_s

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
      \  \"engine\": \"%s\",\n\
      \  \"jobs\": %d,\n\
      \  \"smoke\": %b,\n\
      \  \"metrics\": %b,\n\
      \  \"total_wall_s\": %.6f,\n\
       %s\
       %s\
       %s\
      \  \"rows\": [\n%s\n  ]\n\
       }\n"
      (if !use_reference then "reference" else "csr")
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

let gluing_outcome name scheme family =
  match Gluing.attack ~rows:4 scheme family with
  | Gluing.Fooled { instance; genuinely_no; quad = (a1, b1), (a2, b2); _ } ->
      Format.printf
        "%-34s FOOLED: glued C(%d,%d)+C(%d,%d) -> accepted %d-node no-instance (no=%b)@."
        name a1 b1 a2 b2 (Instance.n instance) genuinely_no
  | Gluing.Resisted { pairs; distinct_signatures } ->
      Format.printf "%-34s resisted: %d/%d signatures distinct@." name
        distinct_signatures pairs
  | Gluing.Prover_failed (a, b) ->
      Format.printf "%-34s prover failed on C(%d,%d)@." name a b

let symmetry_outcome name outcome =
  match outcome with
  | Symmetry_lb.Fooled { glued; genuinely_no; _ } ->
      Format.printf "%-34s FOOLED: accepted %d-node spliced graph (no=%b)@." name
        (Graph.n glued) genuinely_no
  | Symmetry_lb.Resisted { family_size; distinct_windows } ->
      Format.printf "%-34s resisted: %d/%d windows distinct@." name distinct_windows
        family_size
  | Symmetry_lb.Prover_failed _ -> Format.printf "%-34s prover failed@." name

let non3col_outcome name outcome =
  match outcome with
  | Non3col_lb.Fooled { instance; genuinely_no; _ } ->
      Format.printf "%-34s FOOLED: accepted %d-node spliced gadget (3-colourable=%b)@."
        name (Instance.n instance) genuinely_no
  | Non3col_lb.Resisted { family_size; distinct_windows } ->
      Format.printf "%-34s resisted: %d/%d windows distinct@." name distinct_windows
        family_size
  | Non3col_lb.Prover_failed _ -> Format.printf "%-34s prover failed@." name

let lower_bounds () =
  Format.printf "@.=== Figure 1 / Section 5.3: gluing cycles ===@.";
  Format.printf "(undersized-but-complete schemes must be FOOLED; honest Θ(log n) schemes must resist)@.";
  gluing_outcome "odd-n, 2-bit counters" (Truncated.odd_n_cycle ~bits:2)
    (Gluing.odd_cycles ~n:9);
  gluing_outcome "odd-n, honest Θ(log n)" Counting.odd_n (Gluing.odd_cycles ~n:9);
  gluing_outcome "leader, 2-bit counters" (Truncated.leader_cycle ~bits:2)
    (Gluing.leader_cycles ~n:8);
  gluing_outcome "leader, honest Θ(log n)" Leader_election.strong
    (Gluing.leader_cycles ~n:8);
  gluing_outcome "max-matching, 2-bit counters" (Truncated.max_matching_cycle ~bits:2)
    (Gluing.matching_cycles ~n:9);
  gluing_outcome "max-matching, honest Θ(log n)" Matching_schemes.maximum_on_cycle
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
  symmetry_outcome "claims scheme, O(Δ log n) bits"
    (Symmetry_lb.attack_symmetric Truncated.symmetric_claims ~family);
  symmetry_outcome "universal scheme, Θ(n²) bits"
    (Symmetry_lb.attack_symmetric Universal.symmetric ~family);

  Format.printf "@.=== Section 6.2: fixpoint-free tree symmetry needs Ω(n) ===@.";
  let trees = Tree_enum.rooted_trees 6 in
  Format.printf "family: %d rooted trees on 6 nodes (A000081)@." (List.length trees);
  symmetry_outcome "claims scheme, O(Δ log n) bits"
    (Symmetry_lb.attack_trees Truncated.fixpoint_free_claims ~family:trees);
  symmetry_outcome "tree-universal scheme, Θ(n) bits"
    (Symmetry_lb.attack_trees Tree_universal.fixpoint_free_symmetry ~family:trees);

  Format.printf "@.=== Section 6.3: non-3-colourability needs Ω(n²/log n) ===@.";
  let sets =
    Some [ [ (0, 1) ]; [ (1, 0) ]; [ (0, 0); (1, 1) ]; [ (0, 1); (1, 0) ] ]
  in
  let ball_claims =
    Truncated.ball_claims ~name:"non3col-ball-claims" (fun g ->
        not (Coloring.is_k_colourable g 3))
  in
  non3col_outcome "ball-claims scheme, O(Δ² log n)"
    (Non3col_lb.attack ~k:1 ~r:1 ~sets ball_claims);
  non3col_outcome "universal scheme, Θ(n²)"
    (Non3col_lb.attack ~k:1 ~r:1 ~sets Universal.non_3_colourable);

  Format.printf
    "@.=== Table 1(a) dash row: connectivity has NO scheme of any size ===@.";
  let conn_universal =
    Universal.of_predicate ~name:"connected-universal" Traversal.is_connected
  in
  Format.printf
    "disjoint-union attack vs the universal O(n²) scheme: fooled = %b@."
    (No_scheme.connectivity_has_no_scheme conn_universal)

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
  let entries =
    [
      ("LCP(0)     eulerian", measured Eulerian.scheme (of_g (Builders.cycle 64)));
      ("LCP(1)     bipartite", measured Bipartite_scheme.scheme (of_g (Builders.cycle 64)));
      ( "LogLCP     leader election",
        measured Leader_election.strong
          (Leader_election.mark_leader (of_g (Builders.cycle 64)) 0) );
      ( "LCP(n)     tree symmetry",
        measured Tree_universal.fixpoint_free_symmetry (of_g (doubled_tree 32 7)) );
      ( "LCP(n²)    symmetric graph",
        measured_prover_only Universal.symmetric (of_g (Builders.cycle 64)) );
    ]
  in
  List.iter (fun (name, bits) -> Format.printf "  %-28s %6d bits@." name bits) entries;
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
        verifier_test "spanning-tree-G64"
          Spanning_tree_scheme.scheme
          (spanning_tree_inst (Random_graphs.connected_gnp (st 5) n 0.1));
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

let run_table title rows =
  print_header title;
  List.map
    (fun r ->
      let result = eval_row r in
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

let usage () =
  prerr_endline
    "usage: main.exe [--smoke] [--timing] [--partition] [--randomized] \
     [--reference] [--jobs N] [--metrics] [--obs-dir DIR] [--profile] \
     (N=0: all cores)";
  exit 2

(* Wrap a whole bench section in a trace span when tracing is on. *)
let section name f = if !Obs.Trace.enabled then Obs.Trace.span name f else f ()

let () =
  let args = Array.to_list Sys.argv in
  let rec find_jobs = function
    | "--jobs" :: v :: _ -> (
        match int_of_string_opt v with
        | Some j when j >= 0 -> j
        | _ ->
            Printf.eprintf "--jobs: expected a non-negative integer, got %S\n" v;
            usage ())
    | [ "--jobs" ] ->
        prerr_endline "--jobs needs an argument";
        usage ()
    | _ :: rest -> find_jobs rest
    | [] -> 1
  in
  let rec find_dir = function
    | "--obs-dir" :: v :: _ when String.length v = 0 || v.[0] <> '-' -> Some v
    | [ "--obs-dir" ] | "--obs-dir" :: _ ->
        prerr_endline "--obs-dir needs a directory argument";
        usage ()
    | _ :: rest -> find_dir rest
    | [] -> None
  in
  jobs := (match find_jobs args with 0 -> Pool.default_jobs () | j -> j);
  let obs = { Obs.off with dir = find_dir args; profile = List.mem "--profile" args } in
  (* A traced --smoke --partition --randomized run records about 480k
     events; the default ring would keep only the last 65536. *)
  if obs.Obs.dir <> None then Obs.Trace.set_capacity (1 lsl 20);
  (* Drop option arguments (the values after --jobs / --obs-dir)
     before scanning for unknown flags. *)
  let rec flags_only = function
    | ("--jobs" | "--obs-dir") :: _ :: rest -> flags_only rest
    | a :: rest -> a :: flags_only rest
    | [] -> []
  in
  (match
     List.filter
       (fun a ->
         String.length a > 1 && a.[0] = '-'
         && not
              (List.mem a
                 [ "--smoke"; "--timing"; "--partition";
                   "--randomized"; "--reference"; "--jobs"; "--metrics";
                   "--obs-dir"; "--profile" ]))
       (flags_only (List.tl args))
   with
  | [] -> ()
  | bad :: _ ->
      Printf.eprintf "unknown option %S\n" bad;
      usage ());
  use_reference := List.mem "--reference" args;
  collect_metrics := List.mem "--metrics" args;
  let with_partition = List.mem "--partition" args in
  let with_randomized = List.mem "--randomized" args in
  (* --metrics resets the registry at every row, so its end state is no
     run summary: the registry is enabled here, not through the
     session, which would print that table on exit. *)
  if !collect_metrics then Obs.enable ();
  if List.mem "--timing" args then timing ()
  else begin
    let smoke = List.mem "--smoke" args in
    let engine = if !use_reference then "reference" else "csr" in
    if smoke then
      Format.printf "Locally Checkable Proofs: smoke sweep (engine=%s, jobs=%d)@."
        engine !jobs
    else
      Format.printf
        "Locally Checkable Proofs (Göös & Suomela, PODC 2011): experiment \
         harness (engine=%s, jobs=%d)@."
        engine !jobs;
    let tables () =
      if smoke then run_table "smoke sweep" smoke_table
      else begin
        let results_a = run_table "Table 1(a): graph properties" table_1a in
        let results_b =
          run_table "Table 1(b): graph problems (solution verification)"
            table_1b
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
