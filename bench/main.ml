(* Benchmark harness: regenerates every row of Table 1(a) and 1(b) and
   the Figure 1 / Section 6 lower-bound experiments.

     dune exec bench/main.exe              (Table 1 + attacks + hierarchy)
     dune exec bench/main.exe -- --smoke   (tiny CI sweep, < 10 s)
     dune exec bench/main.exe -- --help    (the seven flags: --partition,
                                           --randomized, --jobs and the
                                           observability group)

   Every run writes BENCH_lcp.json (per row: wall time, series, fit,
   verdict and cost), merged over the file's other sections; --obs-dir
   adds the trace lane and a Prometheus exposition of the per-row walls
   and verdicts. All timing uses the monotonic Obs.Clock.

   The rows are the Registry entries that carry a Table 1 row; --smoke
   runs the ones that carry smoke sizes. Each size of a row goes through
   the one prove-and-check (Registry.prove_and_check): prove, compile,
   verify at every node on the serving path. The bits per node of the
   accepted proofs are fitted against the growth models {0, Θ(1),
   Θ(log), Θ(n), Θ(n²), Θ(n²/log n)} and the verdict compares the fit
   with the paper's claim. At the largest size the same pass records
   the row's cost (Registry.prove_and_cost). For each lower bound the
   attack runs against both schemes of its pair (Attacks.all):
   undersized-but-complete schemes are fooled (an accepted no-instance
   is constructed), honest schemes resist. *)

let of_g g = Instance.of_graph g
let int i = Obs.Json.Num (float_of_int i)

(* --- measurement ---------------------------------------------------- *)

exception Measure_failure of string

(* Set from the command line in [main]. *)
let jobs = ref 1
let collect_metrics = ref false

(* The bits per node of a proof every node accepted. *)
let bits_of scheme = function
  | Registry.Accepted proof -> Proof.size proof
  | Registry.No_proof ->
      raise (Measure_failure (scheme.Scheme.name ^ ": prover refused a yes-instance"))
  | Registry.Rejected vs ->
      raise
        (Measure_failure
           (Printf.sprintf "%s: own proof rejected at [%s]" scheme.Scheme.name
              (String.concat "," (List.map string_of_int vs))))

let measured scheme inst =
  bits_of scheme (Registry.prove_and_check ~jobs:!jobs scheme inst)

(* The entries that carry a Table 1 row, in registry (= table) order. *)
let rows =
  List.filter_map
    (fun (e : Registry.entry) -> Option.map (fun r -> (e, r)) e.Registry.row)
    Registry.all

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> failwith ("bench: no scheme " ^ name)

(* The best of [reps] runs, not the mean: any one run can eat an
   unrelated scheduler or GC stall, so the minimum is the reproducible
   cost of the path itself. *)
let best_of reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Obs.Clock.now_ns () in
    f ();
    best := Float.min !best (Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns t0))
  done;
  !best

(* --- printing + JSON ------------------------------------------------- *)

type row_outcome =
  | Failed of string
  | Fitted of {
      series : (int * int) list;
      fit : Complexity.growth;
      matches : bool;
      cost : Registry.cost;  (* at the largest size *)
    }

type row_result = {
  row : Registry.row;
  outcome : row_outcome;
  wall_s : float;
  metrics : Obs.Json.t option;  (* with --metrics *)
}

(* One row: every size through the one prove-and-check, the largest
   also costed; monotonic wall time, an optional trace span, and — with
   --metrics — a per-row snapshot of the deterministic engine counters
   (the metrics registry is reset at row entry, so each row sees only
   its own work). *)
let eval_row ~sizes ((e : Registry.entry), (r : Registry.row)) =
  if !collect_metrics then Obs.Metrics.reset ();
  let scheme = e.Registry.scheme in
  let largest = List.length sizes - 1 in
  let measure () =
    match
      List.mapi
        (fun i n ->
          let inst = r.Registry.make n in
          let checked, cost =
            if i = largest then Registry.prove_and_cost ~jobs:!jobs scheme inst
            else (Registry.prove_and_check ~jobs:!jobs scheme inst, None)
          in
          ((n, bits_of scheme checked), cost))
        sizes
    with
    | exception Measure_failure msg -> Failed msg
    | points ->
        let series = List.map fst points in
        let fit = Complexity.classify series in
        Fitted
          {
            series;
            fit;
            matches = List.mem fit r.Registry.fits;
            cost = Option.get (List.find_map snd points);
          }
  in
  let t0 = Obs.Clock.now_ns () in
  let outcome =
    if Obs.Trace.on () then Obs.Trace.span ("bench.row:" ^ r.id) measure
    else measure ()
  in
  let wall_s = Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns t0) in
  let metrics =
    if not !collect_metrics then None
    else begin
      let snap = Obs.Metrics.deterministic (Obs.Metrics.snapshot ()) in
      let count name = int (Obs.Metrics.count snap name) in
      Some
        (Obs.Json.Obj
           [
             ("balls_extracted", count "simulator.balls_extracted");
             ("max_ball_size", int (Obs.Metrics.max_value snap "simulator.ball_size"));
             ("verifier_calls", count "simulator.verifier_calls");
             ("verifier_rejects", count "simulator.verifier_rejects");
             ( "forgeries_tried",
               int
                 (Obs.Metrics.count snap "checker.samples"
                 + Obs.Metrics.count snap "adversary.attempts") );
             ("decode_errors", count "simulator.decode_errors");
             ("compiles", count "simulator.compiles");
           ])
    end
  in
  { row = r; outcome; wall_s; metrics }

(* One table line: every cell but the last padded to its column's
   display width (paper classes and fits hold multi-byte symbols). *)
let print_line widths cells =
  let last = List.length cells - 1 in
  Format.printf "%s@."
    (String.concat " "
       (List.mapi (fun i c -> if i = last then c else Cli.pad widths.(i) c) cells))

let table_widths = [| 7; 28; 10; 18; 32; 12; 8 |]

let print_header title =
  Format.printf "@.=== %s ===@." title;
  print_line table_widths
    [ "id"; "property/problem"; "family"; "paper"; "measured bits per node";
      "fit"; "verdict"; "wall" ];
  Format.printf "%s@." (String.make 126 '-')

let point r (n, b) = Printf.sprintf "%s=%d:%d" r.Registry.param n b
let n_max series = List.fold_left (fun acc (n, _) -> max acc n) 0 series

let print_result { row = r; outcome; wall_s; metrics = _ } =
  match outcome with
  | Failed msg ->
      print_line table_widths
        [ r.id; r.what; r.family; r.paper; "MEASUREMENT FAILED: " ^ msg ]
  | Fitted { series; fit; matches; cost = _ } ->
      let series_str = String.concat " " (List.map (point r) series) in
      let series_str =
        if String.length series_str <= 32 then series_str
        else String.sub series_str 0 29 ^ "..."
      in
      print_line table_widths
        [ r.id; r.what; r.family; r.paper; series_str; Complexity.label fit;
          (if matches then "MATCH" else "DIFFERS"); Printf.sprintf "%.3fs" wall_s ]

(* The cost of each measured row at its largest size. *)
let print_costs results =
  Format.printf
    "@.--- cost at the largest size (verify: jobs 1, compiled, warm arena) ---@.";
  let widths = [| 7; 8; 12; 12; 16 |] in
  print_line widths
    [ "id"; "size"; "prove"; "compile"; "verify ns/node"; "minor words/node" ];
  List.iter
    (function
      | { row = r; outcome = Fitted { series; cost = c; _ }; _ } ->
          let ms s = Printf.sprintf "%.3fms" (s *. 1000.0) in
          print_line widths
            [ r.id; Printf.sprintf "%s=%d" r.param (n_max series);
              ms c.Registry.prove_s; ms c.Registry.compile_s;
              Printf.sprintf "%.0f" c.Registry.verify_ns_per_node;
              Printf.sprintf "%.1f" c.Registry.minor_words_per_node ]
      | _ -> ())
    results

let json_of_result { row = r; outcome; wall_s; metrics } =
  let open Obs.Json in
  Obj
    ([ ("id", Str r.id); ("what", Str r.what); ("family", Str r.family);
       ("paper", Str r.paper); ("param", Str r.param); ("wall_s", Num wall_s) ]
    @ Option.fold ~none:[] ~some:(fun m -> [ ("metrics", m) ]) metrics
    @
    match outcome with
    | Failed msg -> [ ("error", Str msg) ]
    | Fitted { series; fit; matches; cost = c } ->
        [ ("n_max", int (n_max series));
          ("series", Arr (List.map (fun (n, b) -> Arr [ int n; int b ]) series));
          ("fit", Str (Complexity.label fit));
          ("verdict", Str (if matches then "MATCH" else "DIFFERS"));
          ("prove_s", Num c.Registry.prove_s);
          ("compile_s", Num c.Registry.compile_s);
          ("verify_ns_per_node", Num c.Registry.verify_ns_per_node);
          ("minor_words_per_node", Num c.Registry.minor_words_per_node) ])

(* A run that skips a section (say, --partition without --randomized)
   must not clobber the section a previous run wrote: the fresh
   document is merged over the file's current top level, fresh keys
   winning. An unreadable or unparsable old file degrades to a plain
   overwrite. *)
let write_json path ~smoke ~total_wall_s sections results =
  let fresh =
    Obs.Json.Obj
      ([ ("bench", Obs.Json.Str "lcp"); ("jobs", int !jobs);
         ("smoke", Obs.Json.Bool smoke); ("metrics", Obs.Json.Bool !collect_metrics);
         ("total_wall_s", Obs.Json.Num total_wall_s) ]
      @ sections
      @ [ ("rows", Obs.Json.Arr (List.map json_of_result results)) ])
  in
  let doc =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> fresh
    | s -> (
        match Obs.Json.parse s with
        | Ok old -> Obs.Json.merge_objects ~old ~fresh
        | Error _ -> fresh)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Obs.Json.to_string doc ^ "\n"));
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
    (fun { row = r; outcome; wall_s; metrics = _ } ->
      let labels = [ ("id", r.id) ] in
      Obs.Export.gauge e ~help:"per-row wall time" ~labels
        "bench.row_wall_seconds" wall_s;
      let verdict =
        match outcome with
        | Fitted { matches = true; _ } -> 1.0
        | _ -> 0.0
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
   attacks: a graph6 payload is n²/12 bytes to encode, send and scan
   (the decoder skips blank runs a word at a time, then builds in
   O(n + m)), so four quarter shards pay ~1/16 of those byte costs
   each and ~1/4 of the linear rest, and the sharded run wins even when
   the backends time-share a core, and wins again on compute when they
   do not. Verdict equality against the single-daemon reply is
   asserted per row, on an accepting instance and on a rejecting
   one. *)
let partition_bench () =
  Format.printf
    "@.=== partition bench (1 whole-graph daemon vs 2 sharded backends) ===@.";
  (* eulerian: radius 1, LCP(0) — the proof is empty, so the rows
     measure exactly what partitioning targets: the n²/12-byte graph6
     payload of the instance itself (encode, transport, decode). A cycle accepts; a cycle
     plus one chord has two odd-degree endpoints and must reject at
     them, in both paths, with identical node ids. *)
  let scheme = (entry "eulerian").Registry.scheme in
  (* best-of-reps: the client and both daemons time-share one box *)
  let reps = 5 in
  let wall = best_of reps in
  let proof = Proof.empty in
  (* the largest row is sized just under the 16 MiB frame cap:
     graph6 at n=13312 is ~14.8 MiB whole, ~3.7 MiB per half shard *)
  let sizes = [ 4096; 8192; 13312 ] in
  let graphs =
    List.map
      (fun n ->
        let g = Builders.cycle n in
        (n, g, Csr.of_graph g, Graph.add_edge g 2 (n / 2)))
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
  (* one request on a fresh connection *)
  let call port req =
    match Client.connect ~port () with
    | Error m -> failwith ("partition bench: " ^ m)
    | Ok c -> (
        let r = Client.call c req in
        Client.close c;
        match r with Ok r -> r | Error m -> failwith ("partition bench: " ^ m))
  in
  (* phase 1: whole-graph requests against one daemon *)
  let call_whole port g =
    match
      call port (Wire.Verify { scheme = "eulerian"; graph6 = Graph6.encode g; proof })
    with
    | Wire.Verified { accepted; rejecting } -> (accepted, rejecting)
    | _ -> failwith "partition bench: unexpected reply"
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
    match call port Wire.Metrics_text with
    | Wire.Metrics_text_reply s -> s
    | _ -> failwith "partition bench: metrics scrape failed"
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
  let open Obs.Json in
  Obj
    [ ("scheme", Str "eulerian"); ("partitions", int 4); ("backends", int 2);
      ("transport", Str "direct"); ("reps", int reps);
      ( "rows",
        Arr
          (List.map
             (fun (n, single_s, sharded_s, ratio, equal) ->
               Obj
                 [ ("n", int n); ("single_s", Num single_s);
                   ("sharded_s", Num sharded_s); ("ratio", Num ratio);
                   ("verdict_equal", Bool equal) ])
             rows) );
      ("largest_ratio", Num largest_ratio);
      ("backend_shards", Arr [ int shards1; int shards2 ]) ]

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
  let wall = best_of 5 in
  let cycle = Builders.cycle in
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
          Graph.union_disjoint (cycle h) (Canonical.shifted (cycle h) h)
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
                  (Simulator.run_compiled compiled proof
                     ~radius:base.Scheme.radius base.Scheme.verifier))
          in
          let speedup = if sampled_s > 0.0 then full_s /. sampled_s else 0.0 in
          Format.printf
            "%-14s n=%-5d proof %2d bit(s)  sampled %8.3f ms (%d probes, %d \
             bits)  full %8.3f ms  speedup %6.2fx@."
            name n (Proof.size proof) (sampled_s *. 1000.0)
            o.Randomized_scheme.nodes_checked o.Randomized_scheme.bits_read
            (full_s *. 1000.0) speedup;
          let open Obs.Json in
          Obj
            [ ("n", int n); ("proof_bits", int (Proof.size proof));
              ("queries", int queries);
              ("nodes_checked", int o.Randomized_scheme.nodes_checked);
              ("bits_read", int o.Randomized_scheme.bits_read);
              ("sampled_s", Num sampled_s); ("full_s", Num full_s);
              ("speedup", Num speedup) ])
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
    let open Obs.Json in
    Obj
      [ ("scheme", Str name); ("epsilon", Num rs.Randomized_scheme.epsilon);
        ("queries", int rs.Randomized_scheme.queries);
        ("probes", int rs.Randomized_scheme.probes);
        ("budget", Str rs.Randomized_scheme.budget);
        ( "soundness",
          Obj
            [ ("n", int (List.hd sizes)); ("samples", int 400);
              ("trials", int e.Checker.trials); ("invalid", int e.Checker.invalid);
              ("fooled", int e.Checker.fooled); ("rate", Num e.Checker.rate);
              ("wilson_low", Num e.Checker.wilson_low);
              ("wilson_high", Num e.Checker.wilson_high);
              ("within_budget", Bool within) ] );
        ("rows", Arr rows) ]
  in
  let schemes = List.map scheme_json Sampled.all in
  (* serving gate: the wire path, always-full vs sampled + escalate *)
  let serving =
    let rs = Option.get (Sampled.find "bipartite") in
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
    let rounds = 7 and per_round = 10 in
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
              (* The legs alternate over warm rounds, the first leg of
                 each round flipping, and each leg's rate is its median
                 round's: a slow stretch of a shared host lands on both
                 legs, and one outlier round moves neither. *)
              let full_leg _ = full proof in
              let sampled_leg i = sampled ~seed:(i + 1) proof in
              (* warm the compiled-graph cache *)
              ignore (full_leg 0);
              ignore (sampled_leg 0);
              let round r leg =
                let t0 = Obs.Clock.now_ns () in
                for i = 1 to per_round do
                  ignore (leg ((r * per_round) + i))
                done;
                Obs.Clock.elapsed_ns t0
              in
              let times =
                List.init rounds (fun r ->
                    if r mod 2 = 0 then
                      let f = round r full_leg in
                      (f, round r sampled_leg)
                    else
                      let s = round r sampled_leg in
                      (round r full_leg, s))
              in
              let median_rps l =
                let a = Array.of_list l in
                Array.sort compare a;
                float_of_int per_round
                /. Obs.Clock.ns_to_s a.(Array.length a / 2)
              in
              let full_rps = median_rps (List.map fst times) in
              let sampled_rps = median_rps (List.map snd times) in
              let speedup =
                if full_rps > 0.0 then sampled_rps /. full_rps else 0.0
              in
              Format.printf
                "serving n=%-5d full %8.1f req/s   sampled %8.1f req/s   \
                 speedup %5.2fx   verdicts %s@."
                n full_rps sampled_rps speedup
                (if verdict_equal then "equal" else "DIFFER");
              let open Obs.Json in
              Obj
                [ ("n", int n); ("full_rps", Num full_rps);
                  ("sampled_rps", Num sampled_rps); ("speedup", Num speedup);
                  ("verdict_equal", Bool verdict_equal) ])
        [ 512; 2048 ]
    in
    let st = Server.stats server in
    let open Obs.Json in
    Obj
      [ ("scheme", Str "bipartite"); ("queries", int queries);
        ("rounds", int rounds); ("reqs_per_round", int per_round);
        ("rows", Arr rows);
        ( "server",
          Obj
            [ ("sampled_requests", int st.Server.sampled_requests);
              ("sampled_escalations", int st.Server.sampled_escalations);
              ("sampled_bits_read", int st.Server.sampled_bits_read) ] ) ]
  in
  Obs.Json.Obj [ ("schemes", Obs.Json.Arr schemes); ("serving", serving) ]

(* --- lower-bound attack experiments --------------------------------- *)

let lower_bounds () =
  Format.printf
    "@.=== Lower bounds: undersized-but-complete schemes must be FOOLED, \
     honest ones resist ===@.";
  ignore
    (List.fold_left
       (fun section (a : Attacks.t) ->
         if a.Attacks.section <> section then
           Format.printf "@.--- %s ---@." a.Attacks.section;
         Option.iter (fun f -> Format.printf "%s@." (Lazy.force f)) a.Attacks.family;
         List.iter
           (fun (label, scheme) ->
             Format.printf "%s %t@." (Cli.pad 34 label) (snd (a.Attacks.run scheme)))
           [ a.Attacks.undersized; a.Attacks.honest ];
         a.Attacks.section)
       "" Attacks.all);

  Format.printf "@.--- Figure 1, general k (the paper's arbitrary constant) ---@.";
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

  Format.printf
    "@.--- Figure 1, budget sweep: where does the attack stop working? ---@.";
  List.iter
    (fun bits ->
      match Gluing.attack ~rows:4 (Truncated.leader_cycle ~bits) (Gluing.leader_cycles ~n:8) with
      | Gluing.Fooled _ -> Format.printf "leader election, %d-bit counters: FOOLED@." bits
      | Gluing.Resisted { pairs; distinct_signatures } ->
          Format.printf "leader election, %d-bit counters: resisted (%d/%d distinct)@."
            bits distinct_signatures pairs
      | Gluing.Prover_failed _ -> Format.printf "%d bits: prover failed@." bits)
    [ 2; 3; 4 ];

  Format.printf
    "@.--- Table 1(a) dash row: connectivity has NO scheme of any size ---@.";
  Format.printf
    "disjoint-union attack vs the universal O(n²) scheme: fooled = %b@."
    (No_scheme.connectivity_has_no_scheme (entry "connected-universal").Registry.scheme)

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

(* One row per level, read from the table's own series at n = 64 (every
   listed row sweeps it). *)
let hierarchy results =
  Format.printf "@.=== The LCP hierarchy at n = 64 (bits per node, measured) ===@.";
  List.iter
    (fun (level, name) ->
      let r = Option.get (entry name).Registry.row in
      let bits =
        List.find_map
          (function
            | { row; outcome = Fitted { series; _ }; _ } when row.id = r.id ->
                List.assoc_opt 64 series
            | _ -> None)
          results
      in
      Format.printf "  %s %s %s@." (Cli.pad 10 level) (Cli.pad 24 r.Registry.what)
        (match bits with
        | Some b -> Printf.sprintf "%6d bits" b
        | None -> "not measured"))
    [
      ("LCP(0)", "eulerian");
      ("LCP(1)", "bipartite");
      ("LogLCP", "leader");
      ("LCP(n)", "tree-ffsym");
      ("LCP(n²)", "symmetric");
    ];
  Format.printf "  (each level separated by the lower-bound attacks above)@."

(* --- main ------------------------------------------------------------ *)

let run_table ?(smoke = false) title rows =
  print_header title;
  let results =
    List.map
      (fun ((_, r) as er) ->
        let sizes = if smoke then r.Registry.smoke else r.Registry.sizes in
        let result = eval_row ~sizes er in
        print_result result;
        result)
      rows
  in
  print_costs results;
  results

(* A row that fails to measure, or whose fit is not the paper's class,
   fails the run (exit 1) once every artefact is written. *)
let exit_unless_all_match results =
  let bad =
    List.filter
      (fun r -> match r.outcome with Fitted { matches = true; _ } -> false | _ -> true)
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

let main smoke with_partition with_randomized jobs_n metrics dir profile =
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
  if smoke then
    Format.printf "Locally Checkable Proofs: smoke sweep (jobs=%d)@." !jobs
  else
    Format.printf
      "Locally Checkable Proofs (Göös & Suomela, PODC 2011): experiment \
       harness (jobs=%d)@."
      !jobs;
  let table prefix =
    List.filter (fun (_, r) -> String.starts_with ~prefix r.Registry.id) rows
  in
  let tables () =
    if smoke then
      run_table ~smoke "smoke sweep"
        (List.filter (fun (_, r) -> r.Registry.smoke <> []) rows)
    else begin
      let results_a = run_table "Table 1(a): graph properties" (table "T1a-") in
      let results_b =
        run_table "Table 1(b): graph problems (solution verification)"
          (table "T1b-")
      in
      let results = results_a @ results_b in
      section "bench.lower_bounds" lower_bounds;
      section "bench.ablations" ablations;
      section "bench.hierarchy" (fun () -> hierarchy results);
      results
    end
  in
  let results, total, sections =
    Obs.session
      ~process:(Printf.sprintf "bench-%d" (Unix.getpid ()))
      ~exposition:(fun (results, total_wall_s, _) ->
        exposition ~total_wall_s results)
      obs
    @@ fun () ->
    let t0 = Obs.Clock.now_ns () in
    let results = tables () in
    let partition =
      if with_partition then
        [ ("partition", section "bench.partition" partition_bench) ]
      else []
    in
    let randomized =
      if with_randomized then
        [ ("randomized", section "bench.randomized" randomized_bench) ]
      else []
    in
    (results, Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns t0), partition @ randomized)
  in
  if smoke then Format.printf "@.total wall time: %.3fs@." total;
  (* the session stopped the sampler, so the counts are final; the
     profile is the profiler's own JSON export, embedded as a value *)
  let profile =
    if not obs.Obs.profile then []
    else
      match Obs.Json.parse (Obs.Profile.export_string ()) with
      | Ok p -> [ ("profile", p) ]
      | Error _ -> []
  in
  write_json "BENCH_lcp.json" ~smoke ~total_wall_s:total (sections @ profile)
    results;
  if not smoke then
    Format.printf "@.run with --smoke for the CI sweep.@.";
  exit_unless_all_match results

(* The seven flags, parsed with the lcp CLI's own terms: the
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
