(* The lcp command-line tool.

     lcp schemes                          list available schemes
     lcp prove  -s NAME -g FILE [-o OUT]  run the prover, print/save the proof
     lcp verify -s NAME -g FILE -p PROOF  run the verifier at every node
                [--cluster HOST:PORT --partitions K]  shard + scatter-gather
     lcp partition -g FILE -o PREFIX      cut a graph into shard files
     lcp forge  -s NAME -g FILE [-b BITS] adversarial proof forging
     lcp stats  -s NAME -g FILE           prove+verify+soundness with metrics
     lcp attack ATTACK [...]              run a lower-bound attack
     lcp info   -g FILE                   instance statistics
     lcp serve   [--port ...]             run the TCP verification daemon
     lcp route   [--backend ...]          run the cluster routing frontend
     lcp loadgen [--port ...]             drive a daemon or router with a mix
     lcp top     [--port ...]             live telemetry dashboard for a daemon
     lcp trace fetch HOST:PORT            pull a live process's trace ring
     lcp trace merge FILES -o OUT         join per-process lanes, align clocks

   prove/verify/forge accept [--metrics] (print engine counters on
   exit); they and stats accept [--obs-dir DIR] (spool a Chrome
   trace-event JSON timeline there). The flags live in [Obs_flags], one
   lifecycle ([Obs.session]) runs them.
   Graph files are described in [Graph_file]; the by-name scheme
   registry lives in [Registry], shared with the daemon. *)

open Cmdliner

(* --- arguments -------------------------------------------------------- *)

(* [-s NAME] yields the registry entry, so a command holds both the
   scheme and the name the wire and [Sampled] key on. *)
let scheme_conv =
  Arg.enum (List.map (fun e -> (e.Registry.name, e)) Registry.all)

let scheme_arg =
  Arg.(
    required
    & opt (some scheme_conv) None
    & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc:"Scheme name (see 'lcp schemes').")

let graph_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "g"; "graph" ] ~docv:"FILE" ~doc:"Instance file (see FORMATS).")

let proof_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "p"; "proof" ] ~docv:"FILE" ~doc:"Proof file: one 'NODE BITS' per line.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the proof here.")

let bits_arg default =
  Arg.(
    value
    & opt int default
    & info [ "b"; "bits" ] ~docv:"BITS" ~doc:"Adversary's per-node bit budget.")

let hostport_conv =
  let parse s =
    let fail () =
      Error (`Msg (Printf.sprintf "invalid target %S (want HOST:PORT)" s))
    in
    match String.rindex_opt s ':' with
    | None -> fail ()
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 && host <> "" -> Ok (host, p)
        | _ -> fail ())
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv (parse, print)

let cluster_arg =
  Arg.(
    value
    & opt (some hostport_conv) None
    & info [ "cluster" ] ~docv:"HOST:PORT"
        ~doc:
          "Verify over the network instead of in-process: partition the \
           graph into --partitions radius-r shards and scatter them to \
           $(docv) — an 'lcp route' frontend (shards spread over its \
           backends and run in parallel) or a single 'lcp serve' daemon.")

let partitions_arg =
  Arg.(
    value
    & opt int 2
    & info [ "partitions" ] ~docv:"K"
        ~doc:"Shards to cut the graph into for --cluster (default 2).")

(* --- commands --------------------------------------------------------- *)

let schemes_cmd =
  let run () =
    List.iter
      (fun e ->
        Format.printf "%-20s r=%d  %s@." e.Registry.name
          e.Registry.scheme.Scheme.radius e.Registry.doc)
      Registry.all;
    0
  in
  Cmd.v (Cmd.info "schemes" ~doc:"List the available proof labelling schemes")
    Term.(const run $ const ())

(* [f] on the instance in [path]; exit code 1 when it does not load. *)
let with_instance path f =
  match Graph_file.load_instance path with
  | inst -> f inst
  | exception (Failure m | Sys_error m) -> prerr_endline m; 1

let print_proof proof =
  List.iter
    (fun (v, b) ->
      Format.printf "  %d %s@." v (if Bits.length b = 0 then "-" else Bits.to_string b))
    (Proof.bindings proof)

(* The session for the one-shot commands: their lane is the command
   name and pid. *)
let one_shot name obs f =
  Obs.session ~process:(Printf.sprintf "%s-%d" name (Unix.getpid ())) obs f

let one_shot_flags =
  Term.(
    const (fun metrics dir -> { Obs.off with metrics; dir })
    $ Obs_flags.metrics $ Obs_flags.obs_dir)

let prove_cmd =
  let run (e : Registry.entry) graph output jobs obs =
    with_instance graph @@ fun inst -> (
        one_shot "prove" obs @@ fun () ->
        match
          Registry.prove_and_check ~jobs:(Cli.resolve_jobs jobs) e.Registry.scheme
            inst
        with
        | exception Invalid_argument m ->
            (* a prover that cannot take this instance, such as the Σ¹₁
               brute force past its size limit, says why *)
            prerr_endline m;
            1
        | Registry.No_proof ->
            Format.printf
              "no-instance: the prover found no locally checkable proof@.";
            2
        | Registry.Rejected vs ->
            Format.printf "internal error: own proof rejected at [%s]@."
              (String.concat ";" (List.map string_of_int vs));
            3
        | Registry.Accepted proof ->
            Format.printf "yes-instance: proof of %d bits per node@."
              (Proof.size proof);
            (match output with
            | Some path ->
                Graph_file.save_proof path proof;
                Format.printf "proof written to %s@." path
            | None -> print_proof proof);
            0)
  in
  Cmd.v
    (Cmd.info "prove" ~doc:"Run a scheme's prover on an instance")
    Term.(
      const run $ scheme_arg $ graph_arg $ out_arg $ Cli.jobs
      $ one_shot_flags)

let verify_cmd =
  let sampled_arg =
    Arg.(
      value & flag
      & info [ "sampled" ]
          ~doc:
            "Run the scheme's error-budgeted sampled verifier instead of \
             checking every node; a sampled rejection escalates to the \
             full verifier, so a printed REJECT is always exact.")
  in
  let queries_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "queries" ] ~docv:"Q"
          ~doc:
            "Per-node query bound for --sampled (default: the scheme's \
             configured bound).")
  in
  let seed_arg =
    Arg.(
      value
      & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "PRG seed for --sampled; the probe set and every charged read \
             are a pure function of it.")
  in
  let run_sampled name inst proof jobs queries seed =
    match Sampled.find name with
    | None ->
        Format.eprintf "scheme %s has no sampled variant@." name;
        1
    | Some rs -> (
        let queries =
          Option.value queries ~default:rs.Randomized_scheme.queries
        in
        if queries < 1 then begin
          prerr_endline "--queries must be positive";
          1
        end
        else
          match
            Randomized_scheme.verify ~jobs rs (Simulator.compile inst) proof
              ~seed ~queries
          with
          | exception Invalid_argument m -> prerr_endline m; 1
          | { Randomized_scheme.probe = o; final = None } ->
              Format.printf
                "ACCEPT (sampled): %d of %d node(s) probed, %d bit(s) \
                 read, budget %s, seed %d@."
                o.Randomized_scheme.nodes_checked (Instance.n inst)
                o.Randomized_scheme.bits_read rs.Randomized_scheme.budget
                seed;
              0
          | { Randomized_scheme.probe = o; final = Some final } -> (
              (* A sampled rejection is only a suspicion; the escalated
                 full verification makes the verdict exact. *)
              Format.printf
                "sampled REJECT at [%s] (%d probed, %d bit(s) read) — \
                 escalating to a full verification@."
                (String.concat "; "
                   (List.map string_of_int
                      (Wire.rejecting_sample o.Randomized_scheme.rejecting)))
                o.Randomized_scheme.nodes_checked
                o.Randomized_scheme.bits_read;
              match final with
              | [] ->
                  Format.printf
                    "ACCEPT: all %d nodes accept (sampled suspicion not \
                     confirmed)@."
                    (Instance.n inst);
                  0
              | vs ->
                  Format.printf "REJECT at nodes [%s]@."
                    (String.concat "; " (List.map string_of_int vs));
                  2))
  in
  let run (e : Registry.entry) graph proof jobs obs cluster partitions
      sampled queries seed =
    let scheme = e.Registry.scheme in
    with_instance graph @@ fun inst ->
        one_shot "verify" obs @@ fun () ->
        (
        let proof =
          try Ok (Graph_file.load_proof proof)
          with Failure m | Sys_error m -> Error m
        in
        match proof with
        | Error m -> prerr_endline m; 1
        | Ok proof when sampled -> (
            match cluster with
            | Some _ ->
                prerr_endline
                  "--sampled runs in-process; drop --cluster (the daemon \
                   path is 'lcp loadgen --mix P:V:S')";
                1
            | None ->
                run_sampled e.Registry.name inst proof (Cli.resolve_jobs jobs)
                  queries seed)
        | Ok proof -> (
            match cluster with
            | Some (host, port) -> (
                let csr = Csr.of_graph (Instance.graph inst) in
                match
                  Fanout.verify ~host ~port ~scheme:e.Registry.name ~csr
                    ~proof ~radius:scheme.Scheme.radius ~k:partitions ()
                with
                | Error m ->
                    prerr_endline m;
                    1
                | Ok v when v.Fanout.all_accept ->
                    Format.printf "ACCEPT: all %d nodes accept (%d shards)@."
                      v.Fanout.owned v.Fanout.shards;
                    0
                | Ok v ->
                    Format.printf "REJECT at nodes [%s]%s@."
                      (String.concat "; "
                         (List.map string_of_int v.Fanout.rejecting))
                      (if v.Fanout.rejected > List.length v.Fanout.rejecting
                       then
                         Printf.sprintf " (%d rejecting in total)"
                           v.Fanout.rejected
                       else "");
                    2)
            | None -> (
                let verdicts =
                  Simulator.run_compiled ~jobs:(Cli.resolve_jobs jobs)
                    (Simulator.compile inst) proof ~radius:scheme.Scheme.radius
                    scheme.Scheme.verifier
                in
                match Simulator.rejecting verdicts with
                | [] ->
                    Format.printf "ACCEPT: all %d nodes accept@."
                      (Instance.n inst);
                    0
                | vs ->
                    Format.printf "REJECT at nodes [%s]@."
                      (String.concat "; " (List.map string_of_int vs));
                    2)))
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Run a scheme's verifier at every node")
    Term.(
      const run $ scheme_arg $ graph_arg $ proof_arg $ Cli.jobs
      $ one_shot_flags $ cluster_arg $ partitions_arg $ sampled_arg
      $ queries_arg $ seed_arg)

let partition_cmd =
  let radius_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "r"; "radius" ] ~docv:"R"
          ~doc:
            "Ghost-halo radius; defaults to the scheme's radius when \
             --scheme is given. One of the two is required.")
  in
  let scheme_opt_arg =
    Arg.(
      value
      & opt (some scheme_conv) None
      & info [ "s"; "scheme" ] ~docv:"SCHEME"
          ~doc:"Scheme whose radius to cut for (see 'lcp schemes').")
  in
  let prefix_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PREFIX"
          ~doc:"Write one $(docv).I-of-K.shard file per shard.")
  in
  let run graph partitions radius scheme prefix =
    match
      match (radius, scheme) with
      | Some r, _ -> Ok r
      | None, Some e -> Ok e.Registry.scheme.Scheme.radius
      | None, None -> Error "one of --radius or --scheme is required"
    with
    | Error m ->
        prerr_endline m;
        1
    | Ok radius -> (
        with_instance graph @@ fun inst -> (
            let csr = Csr.of_graph (Instance.graph inst) in
            match Partition.make csr ~k:partitions ~radius with
            | exception Invalid_argument m ->
                prerr_endline m;
                1
            | shards -> (
                match Partition.check csr shards with
                | Error m ->
                    Format.eprintf "partition check failed: %s@." m;
                    1
                | Ok () ->
                    Array.iter
                      (fun (s : Partition.shard) ->
                        let path =
                          Printf.sprintf "%s.%d-of-%d.shard" prefix
                            s.Partition.index s.Partition.count
                        in
                        let oc = open_out path in
                        output_string oc (Partition.to_string s);
                        close_out oc;
                        Format.printf
                          "%s: %d owned + %d ghost node(s), radius %d@." path
                          (Partition.owned_count s)
                          (Partition.shard_n s - Partition.owned_count s)
                          radius)
                      shards;
                    Format.printf
                      "%d shard(s), ghost closure verified exact@."
                      (Array.length shards);
                    0)))
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:
         "Cut a graph into balanced shards with radius-r ghost halos for \
          partition-parallel verification")
    Term.(
      const run $ graph_arg $ partitions_arg $ radius_arg $ scheme_opt_arg
      $ prefix_arg)

let forge_cmd =
  let run (e : Registry.entry) graph bits obs =
    with_instance graph @@ fun inst ->
        one_shot "forge" obs @@ fun () ->
        (
        match Adversary.forge e.Registry.scheme inst ~max_bits:bits with
        | Adversary.Fooled proof ->
            Format.printf
              "FOOLED: found a proof of <= %d bits accepted by every node!@." bits;
            print_proof proof;
            2
        | Adversary.Resisted { best_rejections; attempts } ->
            Format.printf
              "resisted: %d attempts; best forgery still rejected at %d node(s)@."
              attempts best_rejections;
            0)
  in
  Cmd.v
    (Cmd.info "forge"
       ~doc:"Try to forge an accepted proof (soundness stress test)")
    Term.(const run $ scheme_arg $ graph_arg $ bits_arg 4 $ one_shot_flags)

let stats_cmd =
  let samples_arg =
    Arg.(
      value
      & opt int 200
      & info [ "samples" ] ~docv:"N"
          ~doc:"Random forgeries for the soundness probe.")
  in
  let run (e : Registry.entry) graph jobs samples bits dir =
    let scheme = e.Registry.scheme in
    with_instance graph @@ fun inst -> (
        (* The whole point of this command is the metrics table, so
           metrics are always on here; --obs-dir is still opt-in. *)
        one_shot "stats" { Obs.off with metrics = true; dir } @@ fun () ->
        let jobs = Cli.resolve_jobs jobs in
        let g = Instance.graph inst in
        Format.printf "scheme:    %s (radius %d)@." e.Registry.name
          scheme.Scheme.radius;
        Format.printf "instance:  %d nodes, %d edges, max degree %d, jobs %d@."
          (Instance.n inst) (Graph.m g) (Graph.max_degree g) jobs;
        let probe () =
          (* Stops at the first accepted proof; the sample counter says
             how far it got. *)
          let t = Obs.Clock.now_ns () in
          let sound =
            Checker.soundness_random ~jobs scheme inst ~samples ~max_bits:bits
          in
          let ms = Obs.Clock.ns_to_us (Obs.Clock.elapsed_ns t) /. 1000. in
          let tried =
            Obs.Metrics.count (Obs.Metrics.snapshot ()) "checker.samples"
          in
          (sound, tried, ms)
        in
        let budget_line () =
          (* Error budget of the scheme's sampled variant, measured
             against the same forgery distribution the probe uses. *)
          match Sampled.find e.Registry.name with
          | None -> ()
          | Some rs ->
              let t = Obs.Clock.now_ns () in
              let e =
                Randomized_scheme.soundness ~jobs rs inst ~samples
                  ~max_bits:bits
              in
              let ms = Obs.Clock.ns_to_us (Obs.Clock.elapsed_ns t) /. 1000. in
              Format.printf
                "budget:    %.3f ms, %s — sampler fooled on %d of %d \
                 invalid forgeries (err %.4f, wilson [%.4f, %.4f], ε %g: \
                 %s)@."
                ms rs.Randomized_scheme.budget e.Checker.fooled
                e.Checker.invalid e.Checker.rate e.Checker.wilson_low
                e.Checker.wilson_high rs.Randomized_scheme.epsilon
                (if e.Checker.wilson_low <= rs.Randomized_scheme.epsilon then
                   "within budget"
                 else "EXCEEDED")
        in
        (* On a yes-instance valid proofs exist, so an accepted random
           proof is legitimate — report it neutrally. *)
        let yes_instance ~accepted =
          let sound, tried, ms = probe () in
          if sound then
            Format.printf
              "probe:     %.3f ms, %d random proofs (<= %d bits): all \
               rejected@."
              ms samples bits
          else
            Format.printf
              "probe:     %.3f ms, random proof %d of %d accepted \
               (yes-instance: valid proofs exist)@."
              ms tried samples;
          budget_line ();
          if accepted then 0 else 3
        in
        match Registry.prove_and_cost ~jobs scheme inst with
        | exception Invalid_argument m ->
            prerr_endline m;
            1
        | Registry.No_proof, _ ->
            (* The prover refuses: a no-instance — the one case where an
               accepted random proof is a genuine soundness violation. *)
            Format.printf "prove:     no proof — no-instance@.";
            let sound, tried, ms = probe () in
            if sound then begin
              Format.printf
                "soundness: %.3f ms, %d random proofs (<= %d bits): all \
                 rejected@."
                ms samples bits;
              budget_line ();
              0
            end
            else begin
              Format.printf
                "soundness: %.3f ms, FOOLED — random proof %d of %d (<= %d \
                 bits) accepted on a no-instance@."
                ms tried samples bits;
              3
            end
        | Registry.Rejected vs, _ ->
            Format.printf "prove:     a proof its own verifier rejects@.";
            Format.printf "verify:    REJECTED at [%s]@."
              (String.concat ";" (List.map string_of_int vs));
            yes_instance ~accepted:false
        | Registry.Accepted proof, cost ->
            (* the serving path's own costs: every accepted pass has one *)
            let c = Option.get cost in
            Format.printf "prove:     %.3f ms, proof of %d bits@."
              (c.Registry.prove_s *. 1000.)
              (Proof.size proof);
            Format.printf
              "verify:    %.3f ms compile, %.0f ns/node warm, all nodes \
               accept@."
              (c.Registry.compile_s *. 1000.)
              c.Registry.verify_ns_per_node;
            yes_instance ~accepted:true)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Prove, verify and soundness-probe one instance, then print the \
          engine metrics")
    Term.(
      const run $ scheme_arg $ graph_arg $ Cli.jobs $ samples_arg $ bits_arg 4
      $ Obs_flags.obs_dir)

let info_cmd =
  let run graph =
    with_instance graph @@ fun inst ->
        let g = Instance.graph inst in
        Format.printf "nodes: %d, edges: %d, max degree: %d@." (Graph.n g)
          (Graph.m g) (Graph.max_degree g);
        Format.printf "connected: %b, bipartite: %b, eulerian: %b@."
          (Traversal.is_connected g) (Bipartite.is_bipartite g)
          (Euler.is_eulerian g);
        (match St.find inst with
        | Some (s, t) -> Format.printf "terminals: s=%d t=%d@." s t
        | None -> ());
        (match Instance.marked_exactly_one inst with
        | Some l -> Format.printf "leader: %d@." l
        | None -> ());
        let flagged = Instance.flagged_edges inst in
        if flagged <> [] then
          Format.printf "flagged edges: %s@."
            (String.concat " "
               (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) flagged));
        0
  in
  Cmd.v (Cmd.info "info" ~doc:"Show instance statistics") Term.(const run $ graph_arg)

let dot_cmd =
  let proof_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "p"; "proof" ] ~docv:"FILE"
          ~doc:"Optional proof file; proof bits become node labels.")
  in
  let run graph proof =
    with_instance graph @@ fun inst ->
        let g = Instance.graph inst in
        let proof =
          match proof with
          | None -> Proof.empty
          | Some path -> Graph_file.load_proof path
        in
        let node_attrs v =
          let bits = Proof.get proof v in
          let label = Instance.node_label inst v in
          let text =
            Printf.sprintf "%d%s%s" v
              (if Bits.length label > 0 then "\nL:" ^ Bits.to_string label else "")
              (if Bits.length bits > 0 then "\nP:" ^ Bits.to_string bits else "")
          in
          ("label", text)
          :: (if Bits.length label > 0 && Bits.get label 0 then
                [ ("style", "filled"); ("fillcolor", "lightblue") ]
              else [])
        in
        let edge_attrs u v =
          let l = Instance.edge_label inst u v in
          if Bits.length l >= 1 && Bits.get l 0 then
            [ ("penwidth", "3"); ("color", "blue") ]
          else []
        in
        print_string (Dot.of_graph ~name:(Filename.basename graph) ~node_attrs ~edge_attrs g);
        0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export an instance (and optional proof) as Graphviz DOT")
    Term.(const run $ graph_arg $ proof_opt)

let attack_cmd =
  let attack_arg =
    let names = List.map (fun a -> a.Attacks.name) Attacks.all in
    Arg.(
      required
      & pos 0 (some (enum (List.combine names Attacks.all))) None
      & info [] ~docv:"ATTACK" ~doc:("One of: " ^ String.concat ", " names ^ "."))
  in
  let honest_arg =
    Arg.(
      value & flag
      & info [ "honest" ]
          ~doc:"Attack the honest scheme instead of the undersized one.")
  in
  let n_arg =
    Arg.(value & opt int 9 & info [ "n" ] ~docv:"N" ~doc:"Cycle length (gluing).")
  in
  (* exit 2 when the attack fools the scheme, 0 when it resists *)
  let run (a : Attacks.t) honest n =
    let _, scheme = if honest then a.Attacks.honest else a.Attacks.undersized in
    let result, report = a.Attacks.run ~n scheme in
    Format.printf "%t@." report;
    match result with
    | Attacks.Fooled -> 2
    | Attacks.Resisted -> 0
    | Attacks.Prover_failed -> 1
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run one of the paper's lower-bound attacks")
    Term.(const run $ attack_arg $ honest_arg $ n_arg)

let table_cmd =
  let run () =
    let line id scheme paper sizes =
      Format.printf "%s %s %s %s@." (Cli.pad 8 id) (Cli.pad 20 scheme)
        (Cli.pad 20 paper) sizes
    in
    line "id" "scheme" "paper" "bits/node at the first three sweep sizes";
    Format.printf "%s@." (String.make 90 '-');
    List.iter
      (fun (e : Registry.entry) ->
        match e.Registry.row with
        | None -> ()
        | Some r ->
            let bits_at size =
              let bits =
                match
                  Registry.prove_and_check e.Registry.scheme (r.Registry.make size)
                with
                | Registry.Accepted proof -> string_of_int (Proof.size proof)
                | Registry.No_proof | Registry.Rejected _ -> "!"
              in
              Printf.sprintf "%s=%d:%s" r.Registry.param size bits
            in
            line r.Registry.id e.Registry.name r.Registry.paper
              (String.concat " "
                 (List.map bits_at (List.filteri (fun i _ -> i < 3) r.Registry.sizes))))
      Registry.all;
    Format.printf
      "@.(the full sweep with growth fits and attacks: dune exec bench/main.exe)@.";
    0
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Measured proof sizes for every Table 1 row")
    Term.(const run $ const ())

(* --- network service --------------------------------------------------- *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to listen on / connect to.")

let port_arg =
  Arg.(
    value
    & opt int 7411
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port (server: 0 picks an ephemeral one).")

let serve_cmd =
  let cache_arg =
    Arg.(
      value
      & opt int 128
      & info [ "cache-size" ] ~docv:"N"
          ~doc:"Compiled-verifier cache capacity (0 disables caching).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline, measured from arrival (queue wait \
             counts); 0 disables.")
  in
  let http_port_arg =
    Arg.(
      value
      & opt int (-1)
      & info [ "http-port" ] ~docv:"PORT"
          ~doc:
            "Also serve plain-HTTP telemetry on $(docv): /metrics (Prometheus \
             text), /healthz and /readyz. 0 picks an ephemeral port; \
             negative (the default) disables the sidecar.")
  in
  let log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Write one structured JSON log line per request to $(docv) \
             ('-' means stderr).")
  in
  let log_sample_arg =
    Arg.(
      value
      & opt int 0
      & info [ "log-sample" ] ~docv:"N"
          ~doc:
            "At most $(docv) log lines per second (excess lines are dropped \
             and counted); 0 logs every request.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt int 0
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Flag requests slower than $(docv) ms; with --obs-dir, each \
             dumps its trace-ring slice to DIR/slow-<id>-<seq>.json. 0 disables.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string ""
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist compiled verifier images to $(docv) and mmap them back \
             on cache misses, so a restarted daemon serves known graphs warm \
             without recompiling. Empty (the default) disables the disk \
             tier.")
  in
  let run host port jobs cache_size deadline_ms http_port log_path log_sample
      slow_ms cache_dir obs metrics =
    Obs.session
      ~process:(Printf.sprintf "serve-%d-%d" port (Unix.getpid ()))
      { obs with Obs.metrics }
    @@ fun () ->
    let log =
      match log_path with
      | None -> None
      | Some "-" -> Some (Obs.Log.to_stderr ~max_per_sec:log_sample ())
      | Some path -> Some (Obs.Log.to_file ~max_per_sec:log_sample path)
    in
    let config =
      {
        Server.default_config with
        Server.host;
        port;
        jobs = max 1 (Cli.resolve_jobs jobs);
        cache_size;
        deadline_ms;
        http_port;
        slow_ms;
        obs_dir = obs.Obs.dir;
        cache_dir;
        log;
        trace_sample = obs.Obs.trace_sample;
      }
    in
    match Server.create config with
    | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "cannot listen on %s:%d: %s@." host port
          (Unix.error_message e);
        Option.iter Obs.Log.close log;
        1
    | exception Invalid_argument m ->
        prerr_endline m;
        Option.iter Obs.Log.close log;
        1
    | server ->
        (* re-stamp the lane with the bound port once it is known
           (port 0 picks an ephemeral one) *)
        Obs.Trace.process :=
          Printf.sprintf "serve-%d-%d" (Server.port server) (Unix.getpid ());
        let stop _ = Server.stop server in
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Format.printf
          "lcp: serving %d schemes on %s:%d (jobs %d, cache %d, deadline %s, \
           queue bound %d%s) — ctrl-c stops@."
          (List.length Registry.all) host (Server.port server) config.Server.jobs
          config.Server.cache_size
          (if deadline_ms <= 0 then "off" else Printf.sprintf "%d ms" deadline_ms)
          config.Server.max_queue
          (if Server.http_port server < 0 then ""
           else Printf.sprintf ", telemetry on http://%s:%d/metrics" host
               (Server.http_port server));
        Server.run server;
        Option.iter Obs.Log.close log;
        let st = Server.stats server in
        Format.printf
          "served %d request(s) on %d connection(s): cache %d hit(s) / %d \
           miss(es), %d shed, %d past deadline, %d bad frame(s), %d slow@."
          st.Server.requests st.Server.connections st.Server.cache_hits
          st.Server.cache_misses st.Server.overloaded
          st.Server.deadline_exceeded st.Server.bad_frames
          st.Server.slow_requests;
        0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the TCP verification daemon (amortises graph parsing and \
          verifier compilation across requests)")
    Term.(
      const run $ host_arg $ port_arg $ Cli.jobs $ cache_arg $ deadline_arg
      $ http_port_arg $ log_arg $ log_sample_arg $ slow_ms_arg $ cache_dir_arg
      $ Obs_flags.term $ Obs_flags.metrics)

let route_cmd =
  let backend_arg =
    Arg.(
      value
      & opt_all hostport_conv []
      & info [ "backend" ] ~docv:"HOST:PORT"
          ~doc:"Backend daemon to route to (repeatable; at least one).")
  in
  let route_port_arg =
    Arg.(
      value
      & opt int 7412
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral one).")
  in
  let retries_arg =
    Arg.(
      value
      & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra forwarding attempts after the first, each on a backend \
             that has not failed the request yet, separated by jittered \
             exponential backoff.")
  in
  let hedge_arg =
    Arg.(
      value
      & opt int 0
      & info [ "hedge-ms" ] ~docv:"MS"
          ~doc:
            "Hedge delay: if the first backend is silent for $(docv) ms, \
             race the request on a second backend and take the first reply. \
             0 (the default) disables hedging.")
  in
  let http_port_arg =
    Arg.(
      value
      & opt int (-1)
      & info [ "http-port" ] ~docv:"PORT"
          ~doc:
            "Serve router telemetry over plain HTTP on $(docv): /metrics \
             (Prometheus text), /healthz and /readyz. 0 picks an ephemeral \
             port; negative (the default) disables the sidecar.")
  in
  let log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Write one structured JSON log line per routed request to \
             $(docv) ('-' means stderr).")
  in
  let run host port backends retries hedge_ms http_port log_path obs =
    if backends = [] then begin
      prerr_endline "lcp route: need at least one --backend HOST:PORT";
      1
    end
    else begin
      Obs.session
        ~process:(Printf.sprintf "route-%d-%d" port (Unix.getpid ()))
        obs
      @@ fun () ->
      let log =
        match log_path with
        | None -> None
        | Some "-" -> Some (Obs.Log.to_stderr ())
        | Some path -> Some (Obs.Log.to_file path)
      in
      let config =
        {
          Router.default_config with
          Router.host;
          port;
          backends;
          retries;
          hedge_ms;
          http_port;
          log;
          trace_sample = obs.Obs.trace_sample;
        }
      in
      match Router.create config with
      | exception Unix.Unix_error (e, _, _) ->
          Format.eprintf "cannot listen on %s:%d: %s@." host port
            (Unix.error_message e);
          Option.iter Obs.Log.close log;
          1
      | exception Invalid_argument m ->
          prerr_endline m;
          Option.iter Obs.Log.close log;
          1
      | router ->
          Obs.Trace.process :=
            Printf.sprintf "route-%d-%d" (Router.port router) (Unix.getpid ());
          let stop _ = Router.stop router in
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
          Format.printf
            "lcp: routing %s:%d over %d backend(s) [%s] (retries %d, hedge \
             %s, probe every %d ms%s) — ctrl-c stops@."
            host (Router.port router) (List.length backends)
            (String.concat "; "
               (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) backends))
            retries
            (if hedge_ms <= 0 then "off" else Printf.sprintf "%d ms" hedge_ms)
            config.Router.probe_interval_ms
            (if Router.http_port router < 0 then ""
             else
               Printf.sprintf ", telemetry on http://%s:%d/metrics" host
                 (Router.http_port router));
          Router.run router;
          Option.iter Obs.Log.close log;
          let st = Router.stats router in
          Format.printf
            "routed %d request(s) on %d connection(s): %d retried, %d \
             hedged (%d hedge wins), %d with no backend@."
            st.Router.requests st.Router.connections st.Router.retries
            st.Router.hedges st.Router.hedge_wins st.Router.no_backend;
          List.iter
            (fun b ->
              Format.printf
                "backend %s: %d attempt(s), %d error(s), %d retr%s caused, \
                 last state %s@."
                b.Router.name b.Router.requests b.Router.errors
                b.Router.retries
                (if b.Router.retries = 1 then "y" else "ies")
                (Health.state_to_string b.Router.state))
            st.Router.per_backend;
          0
    end
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run the cluster routing frontend: one wire-protocol endpoint over \
          several daemons, with consistent-hash cache affinity, health \
          checks, retries and hedged requests")
    Term.(
      const run $ host_arg $ route_port_arg $ backend_arg $ retries_arg
      $ hedge_arg $ http_port_arg $ log_arg $ Obs_flags.term)

let loadgen_cmd =
  let connections_arg =
    Arg.(
      value
      & opt int 4
      & info [ "connections" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let requests_arg =
    Arg.(
      value
      & opt int 100
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per connection.")
  in
  let mix_arg =
    (* "P:V" or "P:V:S" — e.g. the default 1:4 sends one prove per
       four verifies; 1:2:2 adds two sampled verifies per cycle *)
    let parse s =
      let ints = List.map int_of_string_opt (String.split_on_char ':' s) in
      match ints with
      | [ Some p; Some v ] when p >= 0 && v >= 0 && p + v > 0 -> Ok (p, v, 0)
      | [ Some p; Some v; Some sm ]
        when p >= 0 && v >= 0 && sm >= 0 && p + v + sm > 0 ->
          Ok (p, v, sm)
      | [ _; _ ] | [ _; _; _ ] ->
          Error (`Msg "MIX needs non-negative weights, e.g. 1:4 or 1:2:2")
      | _ -> Error (`Msg (Printf.sprintf "invalid MIX %S (want P:V[:S])" s))
    in
    let print ppf (p, v, sm) = Format.fprintf ppf "%d:%d:%d" p v sm in
    Arg.(
      value
      & opt (conv (parse, print)) (1, 4, 0)
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            "prove:verify[:sampled] weights of the request mix, e.g. 1:4 \
             or 1:2:2. Sampled ops send Verify_sampled frames over the \
             proofs the setup pass stored.")
  in
  let scheme_name_arg =
    Arg.(
      value
      & opt string "eulerian"
      & info [ "s"; "scheme" ] ~docv:"SCHEME"
          ~doc:"Scheme to exercise (see 'lcp schemes').")
  in
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 64; 96; 128; 160 ]
      & info [ "sizes" ] ~docv:"N,N,..."
          ~doc:
            "Cycle-graph sizes to replay; repeats of the same size hit the \
             server's compiled-verifier cache.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the summary as JSON to $(docv).")
  in
  let batch_arg =
    Arg.(
      value
      & opt int 1
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Pack $(docv) operations into each Batch wire frame (1 sends \
             plain requests). The mix and graph rotation are identical per \
             operation, so ops/s is directly comparable across batch sizes.")
  in
  let run host port connections requests batch mix scheme sizes out obs =
    Obs.session ~process:(Printf.sprintf "loadgen-%d" (Unix.getpid ())) obs
    @@ fun () ->
    match
      Client.loadgen ~host ~batch ~trace_sample:obs.Obs.trace_sample ~port
        ~connections ~requests ~mix ~scheme ~sizes ()
    with
    | Error m -> prerr_endline m; 1
    | Ok report ->
        Format.printf "%a" Client.pp_report report;
        (match out with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            output_string oc (Client.report_json report);
            output_char oc '\n';
            close_out oc;
            Format.printf "summary written to %s@." path);
        if report.Client.errors = 0 then 0 else 2
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running daemon or router with a prove/verify mix and \
          report throughput and latency percentiles")
    Term.(
      const run $ host_arg $ port_arg $ connections_arg $ requests_arg
      $ batch_arg $ mix_arg $ scheme_name_arg $ sizes_arg $ out_arg
      $ Obs_flags.term)

let trace_cmd =
  let merge_cmd =
    let files_arg =
      Arg.(
        non_empty & pos_all file []
        & info [] ~docv:"FILE"
            ~doc:
              "Per-process trace spools — the Chrome trace-event JSON files \
               written by --obs-dir or fetched with 'lcp trace fetch'.")
    in
    let out_arg =
      Arg.(
        value
        & opt string "trace-merged.json"
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:"Write the merged timeline here.")
    in
    let id_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "trace-id" ] ~docv:"HEX"
            ~doc:
              "Keep only the events of this trace (the 32-hex id from a \
               slow-request log line or a span's args).")
    in
    let run files out trace_id =
      let slurp path =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let named =
        List.map
          (fun path ->
            (Filename.remove_extension (Filename.basename path), slurp path))
          files
      in
      match Obs.Trace_merge.merge ?trace_id named with
      | Error m ->
          prerr_endline ("lcp trace merge: " ^ m);
          1
      | Ok (json, stats) ->
          let oc = open_out out in
          output_string oc json;
          close_out oc;
          Obs.Trace_merge.pp_stats stdout stats;
          Format.printf "merged timeline written to %s@." out;
          0
    in
    Cmd.v
      (Cmd.info "merge"
         ~doc:
           "Join per-process trace spools into one timeline, aligning each \
            process's clock from cross-process span parent links (no NTP \
            assumption)")
      Term.(const run $ files_arg $ out_arg $ id_arg)
  in
  let fetch_cmd =
    let target_arg =
      Arg.(
        required
        & pos 0 (some hostport_conv) None
        & info [] ~docv:"HOST:PORT"
            ~doc:"Daemon or router to fetch the trace ring from.")
    in
    let out_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:"Output file (default trace-HOST-PORT.json).")
    in
    let run (host, port) out =
      match Client.connect ~host ~port () with
      | Error m ->
          prerr_endline m;
          1
      | Ok c -> (
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          match Client.call c Wire.Trace_export with
          | Ok (Wire.Trace_export_reply json) ->
              let path =
                match out with
                | Some p -> p
                | None -> Printf.sprintf "trace-%s-%d.json" host port
              in
              let oc = open_out path in
              output_string oc json;
              close_out oc;
              Format.printf "trace lane from %s:%d written to %s@." host port
                path;
              0
          | Ok (Wire.Error_reply { message; _ }) ->
              prerr_endline ("server said: " ^ message);
              1
          | Ok _ ->
              prerr_endline "unexpected response type";
              1
          | Error m ->
              prerr_endline m;
              1)
    in
    Cmd.v
      (Cmd.info "fetch"
         ~doc:
           "Fetch a live process's trace ring over the wire protocol \
            (Trace_export) without restarting it")
      Term.(const run $ target_arg $ out_arg)
  in
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Distributed-tracing utilities: fetch per-process trace rings and \
          merge spooled lanes into one cross-process timeline")
    [ merge_cmd; fetch_cmd ]

let profile_cmd =
  let slurp path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* Shared by fetch's summary and diff: the collapsed-stack text of a
     profile export, parsed back to (stack, count) rows. *)
  let collapsed_rows json =
    match Obs.Json.parse json with
    | Error m -> Error ("malformed profile JSON: " ^ m)
    | Ok doc -> (
        match
          Option.bind (Obs.Json.member "collapsed" doc) Obs.Json.to_string_opt
        with
        | None -> Error "profile JSON has no \"collapsed\" member"
        | Some text ->
            Ok
              (List.filter_map
                 (fun line ->
                   match String.rindex_opt line ' ' with
                   | None -> None
                   | Some i ->
                       Option.map
                         (fun c -> (String.sub line 0 i, c))
                         (int_of_string_opt
                            (String.sub line (i + 1)
                               (String.length line - i - 1))))
                 (String.split_on_char '\n' text)))
  in
  let fetch_cmd =
    let target_arg =
      Arg.(
        required
        & pos 0 (some hostport_conv) None
        & info [] ~docv:"HOST:PORT"
            ~doc:"Daemon or router to fetch the live profile from.")
    in
    let out_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:"Output file (default profile-HOST-PORT.json).")
    in
    let collapsed_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "collapsed" ] ~docv:"FILE"
            ~doc:
              "Also extract the collapsed-stack text to $(docv) — ready \
               for flamegraph.pl.")
    in
    let speedscope_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "speedscope" ] ~docv:"FILE"
            ~doc:
              "Also extract the speedscope profile to $(docv) — open it at \
               https://www.speedscope.app.")
    in
    let run (host, port) out collapsed_out speedscope_out =
      match Client.connect ~host ~port () with
      | Error m ->
          prerr_endline m;
          1
      | Ok c -> (
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          match Client.call c Wire.Profile_export with
          | Ok (Wire.Profile_export_reply json) -> (
              let path =
                match out with
                | Some p -> p
                | None -> Printf.sprintf "profile-%s-%d.json" host port
              in
              let oc = open_out path in
              output_string oc json;
              close_out oc;
              match Obs.Json.parse json with
              | Error m ->
                  prerr_endline ("malformed profile JSON: " ^ m);
                  1
              | Ok doc ->
                  let num name =
                    match
                      Option.bind (Obs.Json.member name doc)
                        Obs.Json.to_float_opt
                    with
                    | Some f -> int_of_float f
                    | None -> 0
                  in
                  Format.printf
                    "profile from %s:%d written to %s (%d sample(s), %d \
                     stack(s), %d Hz)@."
                    host port path (num "samples") (num "stack_samples")
                    (num "hz");
                  (match collapsed_out with
                  | None -> ()
                  | Some p -> (
                      match
                        Option.bind
                          (Obs.Json.member "collapsed" doc)
                          Obs.Json.to_string_opt
                      with
                      | None -> ()
                      | Some text ->
                          let oc = open_out p in
                          output_string oc text;
                          close_out oc;
                          Format.printf "collapsed stacks written to %s@." p));
                  (match speedscope_out with
                  | None -> ()
                  | Some p -> (
                      match Obs.Json.member "speedscope" doc with
                      | None -> ()
                      | Some ss ->
                          let oc = open_out p in
                          output_string oc (Obs.Json.to_string ss);
                          close_out oc;
                          Format.printf
                            "speedscope profile written to %s (open at \
                             https://www.speedscope.app)@."
                            p));
                  (match collapsed_rows json with
                  | Error _ -> ()
                  | Ok rows ->
                      let total =
                        List.fold_left (fun a (_, c) -> a + c) 0 rows
                      in
                      if total > 0 then begin
                        Format.printf "top stacks:@.";
                        List.iteri
                          (fun i (stack, c) ->
                            if i < 10 then
                              Format.printf "  %5.1f%% %6d  %s@."
                                (100.0 *. float_of_int c /. float_of_int total)
                                c stack)
                          rows
                      end);
                  (match
                     Option.bind (Obs.Json.member "schemes" doc)
                       Obs.Json.to_list
                   with
                  | Some (_ :: _ as rows) ->
                      Format.printf "schemes:@.";
                      List.iter
                        (fun r ->
                          let str name =
                            Option.bind (Obs.Json.member name r)
                              Obs.Json.to_string_opt
                          in
                          let fl name =
                            Option.bind (Obs.Json.member name r)
                              Obs.Json.to_float_opt
                          in
                          match
                            ( str "scheme", fl "cpu_ns", fl "alloc_bytes",
                              fl "requests" )
                          with
                          | Some sc, Some cpu, Some alloc, Some n ->
                              Format.printf
                                "  %-16s %9.1f ms cpu %10.1f KB %7.0f \
                                 request(s)@."
                                sc (cpu /. 1e6) (alloc /. 1024.0) n
                          | _ -> ())
                        rows
                  | _ -> ());
                  0)
          | Ok (Wire.Error_reply { message; _ }) ->
              prerr_endline ("server said: " ^ message);
              1
          | Ok _ ->
              prerr_endline "unexpected response type";
              1
          | Error m ->
              prerr_endline m;
              1)
    in
    Cmd.v
      (Cmd.info "fetch"
         ~doc:
           "Fetch a live process's accumulated profile over the wire \
            protocol (Profile_export) without restarting it")
      Term.(const run $ target_arg $ out_arg $ collapsed_arg $ speedscope_arg)
  in
  let diff_cmd =
    let a_arg =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"BEFORE" ~doc:"Baseline profile export (JSON).")
    in
    let b_arg =
      Arg.(
        required
        & pos 1 (some file) None
        & info [] ~docv:"AFTER" ~doc:"Comparison profile export (JSON).")
    in
    let limit_arg =
      Arg.(
        value
        & opt int 20
        & info [ "limit" ] ~docv:"N" ~doc:"Show the top $(docv) movers.")
    in
    (* Each side is normalised to its own total before differencing, so
       runs of different lengths compare on time share, not raw ticks. *)
    let run a b limit =
      match (collapsed_rows (slurp a), collapsed_rows (slurp b)) with
      | Error m, _ | _, Error m ->
          prerr_endline ("lcp profile diff: " ^ m);
          1
      | Ok ra, Ok rb ->
          let total r =
            float_of_int
              (max 1 (List.fold_left (fun acc (_, c) -> acc + c) 0 r))
          in
          let ta = total ra and tb = total rb in
          let tbl = Hashtbl.create 64 in
          List.iter
            (fun (st, c) -> Hashtbl.replace tbl st (float_of_int c /. ta, 0.0))
            ra;
          List.iter
            (fun (st, c) ->
              let before =
                match Hashtbl.find_opt tbl st with
                | Some (x, _) -> x
                | None -> 0.0
              in
              Hashtbl.replace tbl st (before, float_of_int c /. tb))
            rb;
          let rows = Hashtbl.fold (fun st xy l -> (st, xy) :: l) tbl [] in
          let rows =
            List.sort
              (fun (s1, (x1, y1)) (s2, (x2, y2)) ->
                match
                  compare (Float.abs (y2 -. x2)) (Float.abs (y1 -. x1))
                with
                | 0 -> compare s1 s2
                | c -> c)
              rows
          in
          Format.printf "%8s %8s %9s  stack@." "before%" "after%" "delta";
          List.iteri
            (fun i (st, (x, y)) ->
              if i < limit then
                Format.printf "%8.2f %8.2f %+9.2f  %s@." (100.0 *. x)
                  (100.0 *. y)
                  (100.0 *. (y -. x))
                  st)
            rows;
          if List.length rows > limit then
            Format.printf "(%d more stack(s) not shown)@."
              (List.length rows - limit);
          0
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two fetched profiles: time share per stack before vs \
            after, biggest movers first")
      Term.(const run $ a_arg $ b_arg $ limit_arg)
  in
  Cmd.group
    (Cmd.info "profile"
       ~doc:
         "Continuous-profiling utilities: fetch a live process's \
          attribution tree (collapsed stacks + speedscope) and diff two \
          captures")
    [ fetch_cmd; diff_cmd ]

let top_cmd =
  let interval_arg =
    Arg.(
      value
      & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between samples.")
  in
  let iterations_arg =
    Arg.(
      value
      & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after $(docv) samples; 0 runs until interrupted.")
  in
  (* vmstat-style dashboard: one row per sample, scraped over the wire
     protocol's Metrics_text request and read back through the same
     parser `lcp top`'s tests use — the exposition is the contract. *)
  let header () =
    Format.printf "%9s %9s %9s %9s %9s %9s %6s %6s %6s %8s %8s %6s %s@."
      "frame/s" "ops/s" "reqs" "p50_us" "p95_us" "p99_us" "hit%" "queue"
      "shed" "alloc/s" "heap" "maj/s" "ready"
  in
  let human_bytes v =
    if v >= 1_073_741_824.0 then Printf.sprintf "%.1fG" (v /. 1_073_741_824.0)
    else if v >= 1_048_576.0 then Printf.sprintf "%.1fM" (v /. 1_048_576.0)
    else if v >= 1024.0 then Printf.sprintf "%.1fK" (v /. 1024.0)
    else Printf.sprintf "%.0f" v
  in
  (* Pointed at a router, expand each sample into per-backend rows —
     the labelled lcp_router_backend_* series are already in the same
     exposition text. *)
  let backend_rows text =
    List.iter
      (fun line ->
        match Obs.Export.parse_sample line with
        | Some ("lcp_router_backend_requests_total", labels, reqs) -> (
            match List.assoc_opt "backend" labels with
            | None -> ()
            | Some name ->
                let fl metric =
                  Option.value ~default:0.0
                    (Obs.Export.find_sample text ~name:metric
                       ~labels:[ ("backend", name) ])
                in
                Format.printf
                  "  %-21s %9.0f attempts %6.0f err %4.0f inflight %s@."
                  name reqs
                  (fl "lcp_router_backend_errors_total")
                  (fl "lcp_router_backend_inflight")
                  (match fl "lcp_router_backend_state" with
                  | 0. -> "ready"
                  | 1. -> "saturated"
                  | _ -> "dead"))
        | _ -> ())
      (String.split_on_char '\n' text)
  in
  let sample gc_prev samp_prev text =
    let f ?(labels = []) name =
      Option.value ~default:0.0 (Obs.Export.find_sample text ~name ~labels)
    in
    let opt name = Obs.Export.find_sample text ~name ~labels:[] in
    (* GC columns come from the lcp_gc_* families the profiling layer
       exposes; a pre-profiling server has none and renders "-". Rates
       are diffed across our own samples (guarding against counter
       resets on daemon restart); the allocation rate prefers the
       server's own 10 s window when the sampler is running there. *)
    let now = Unix.gettimeofday () in
    let gc_alloc = opt "lcp_gc_allocated_bytes_total" in
    let gc_major = opt "lcp_gc_major_collections_total" in
    let rates =
      match (gc_alloc, gc_major, !gc_prev) with
      | Some a, Some m, Some (t0, a0, m0)
        when now -. t0 > 0.01 && a >= a0 && m >= m0 ->
          let dt = now -. t0 in
          Some ((a -. a0) /. dt, (m -. m0) /. dt)
      | _ -> None
    in
    (match (gc_alloc, gc_major) with
    | Some a, Some m -> gc_prev := Some (now, a, m)
    | _ -> gc_prev := None);
    let alloc_col =
      match opt "lcp_gc_alloc_bytes_per_s" with
      | Some r -> human_bytes r
      | None -> (
          match rates with Some (r, _) -> human_bytes r | None -> "-")
    in
    let heap_col =
      match opt "lcp_gc_heap_bytes" with
      | Some h -> human_bytes h
      | None -> "-"
    in
    let major_col =
      match rates with Some (_, r) -> Printf.sprintf "%.1f" r | None -> "-"
    in
    let w10 = [ ("window", "10s") ] in
    let q v = ("quantile", v) :: w10 in
    (* the same dashboard reads a daemon or a router — the router has
       no compile cache (hit% renders as "-"), and its queue / shed
       columns are in-flight forwards / unroutable requests. frame/s
       counts wire frames, ops/s counts batch sub-ops — they diverge
       exactly when --batch is doing its job *)
    let router =
      Obs.Export.find_sample text ~name:"lcp_router_ready" ~labels:[] <> None
    in
    let p name = (if router then "lcp_router_" else "lcp_server_") ^ name in
    Format.printf
      "%9.1f %9.1f %9.0f %9.0f %9.0f %9.0f %6s %6.0f %6.0f %8s %8s %6s %s@."
      (f ~labels:w10 (p "request_rate"))
      (f ~labels:w10 (p "op_rate"))
      (f (p "requests_total"))
      (f ~labels:(q "0.5") (p "request_us"))
      (f ~labels:(q "0.95") (p "request_us"))
      (f ~labels:(q "0.99") (p "request_us"))
      (if router then "-"
       else
         Printf.sprintf "%.1f"
           (100.0 *. f ~labels:w10 "lcp_server_cache_hit_ratio"))
      (f (if router then "lcp_router_inflight" else "lcp_server_pool_pending"))
      (f
         (if router then "lcp_router_no_backend_total"
          else "lcp_server_overloaded_total"))
      alloc_col heap_col major_col
      (if f (p "ready") > 0.5 then "yes" else "NO");
    if router then backend_rows text;
    (* partitioned-verification traffic gets its own row once any
       shard has been seen: the daemon counts shards executed (plus
       rejecting owned nodes), the router counts shards forwarded *)
    let shards =
      if router then f "lcp_router_partition_shards_total"
      else f "lcp_partition_shards_total"
    in
    if shards > 0.0 then
      Format.printf "  partition: %9.0f shard(s) %9.0f reject(s)@." shards
        (f "lcp_partition_reject_total");
    (* sampled-verify traffic likewise appears once the daemon has
       served any Verify_sampled frame: rate is diffed across our own
       samples, escalation %% and bits/req are lifetime averages *)
    let sreq = f "lcp_sampled_requests_total" in
    (if sreq > 0.0 then
       let rate =
         match !samp_prev with
         | Some (t0, r0) when now -. t0 > 0.01 && sreq >= r0 ->
             Printf.sprintf "%.1f" ((sreq -. r0) /. (now -. t0))
         | _ -> "-"
       in
       Format.printf
         "  sampled: %9.0f req(s) %8s req/s %5.1f%% escalated %8.0f \
          bits/req@."
         sreq rate
         (100.0 *. f "lcp_sampled_escalations_total" /. sreq)
         (f "lcp_sampled_bits_read_total" /. sreq));
    samp_prev := Some (now, sreq)
  in
  (* A lost daemon renders as a status row and `top` keeps sampling:
     the next connect (itself retried with backoff) picks the daemon
     back up when it returns. The exit code only says whether any
     sample ever succeeded. *)
  let disconnected_row reason =
    Format.printf
      "%9s %9s %9s %9s %9s %9s %6s %6s %6s %8s %8s %6s disconnected (%s)@."
      "-" "-" "-" "-" "-" "-" "-" "-" "-" "-" "-" "-" reason
  in
  let run host port interval iterations =
    let stop = ref false in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
     with Invalid_argument _ | Sys_error _ -> ());
    let successes = ref 0 and rows = ref 0 in
    let gc_prev = ref None in
    let samp_prev = ref None in
    let conn = ref None in
    let drop_conn () =
      Option.iter Client.close !conn;
      conn := None
    in
    let get_conn () =
      match !conn with
      | Some c -> Ok c
      | None -> (
          match Client.connect ~host ~port ~retries:2 () with
          | Ok c ->
              conn := Some c;
              Ok c
          | Error _ as e -> e)
    in
    let row line =
      if !rows mod 20 = 0 then header ();
      incr rows;
      line ()
    in
    let rec loop i =
      if !stop || (iterations > 0 && i >= iterations) then ()
      else begin
        (match get_conn () with
        | Error m -> row (fun () -> disconnected_row m)
        | Ok c -> (
            match Client.call c Wire.Metrics_text with
            | Ok (Wire.Metrics_text_reply text) ->
                incr successes;
                row (fun () -> sample gc_prev samp_prev text)
            | Ok (Wire.Error_reply { message; _ }) ->
                drop_conn ();
                row (fun () -> disconnected_row ("server said: " ^ message))
            | Ok _ ->
                drop_conn ();
                row (fun () -> disconnected_row "unexpected response type")
            | Error m ->
                drop_conn ();
                row (fun () -> disconnected_row m)));
        if (not !stop) && (iterations = 0 || i + 1 < iterations) then
          Unix.sleepf (max 0.05 interval);
        loop (i + 1)
      end
    in
    loop 0;
    drop_conn ();
    if !successes > 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live telemetry dashboard for a running daemon: request rate, \
          rolling latency quantiles, cache hit ratio, queue depth")
    Term.(const run $ host_arg $ port_arg $ interval_arg $ iterations_arg)

let main =
  let doc = "locally checkable proofs (Göös & Suomela, PODC 2011)" in
  Cmd.group
    (Cmd.info "lcp" ~doc ~version:"1.0.0")
    [
      schemes_cmd; prove_cmd; verify_cmd; partition_cmd; forge_cmd; stats_cmd;
      info_cmd; dot_cmd; attack_cmd; table_cmd; serve_cmd; route_cmd;
      loadgen_cmd; trace_cmd; profile_cmd; top_cmd;
    ]

let () = exit (Cmd.eval' main)
