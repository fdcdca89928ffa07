(* Equivalence suite for the CSR backend and the multicore verification
   engine: on sampled graph families the fast path must be
   bit-identical to the seed persistent-map path — same balls, same
   views, same verdicts, same transcripts — including with jobs > 1. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let st seed = Random.State.make [| seed |]

(* Graph families named by the issue: Erdős–Rényi, trees, cycles —
   with n up to ~200, plus non-contiguous identifiers, which the CSR
   id ↔ dense-index table must handle. *)
let family =
  [
    ("C9", Builders.cycle 9);
    ("C200", Builders.cycle 200);
    ("path1", Builders.path 1);
    ("star7", Builders.star 7);
    ("grid4x5", Builders.grid 4 5);
    ("tree60", Random_graphs.tree (st 1) 60);
    ("tree200", Random_graphs.tree (st 2) 200);
    ("gnp40", Random_graphs.gnp (st 3) 40 0.1);
    ("gnp200", Random_graphs.connected_gnp (st 4) 200 0.02);
    ("sparse-ids", Random_graphs.permuted_ids (st 5) ~factor:7 (Random_graphs.gnp (st 6) 50 0.08));
    ("two-cycles", Graph.union_disjoint (Builders.cycle 5) (Canonical.shifted (Builders.cycle 6) 10));
  ]

let csr_structure () =
  List.iter
    (fun (name, g) ->
      let c = Csr.of_graph g in
      check_int (name ^ " n") (Graph.n g) (Csr.n c);
      check_int (name ^ " m") (Graph.m g) (Csr.m c);
      Graph.iter_nodes
        (fun v ->
          let i = Csr.index c v in
          check_int (name ^ " id round-trip") v (Csr.node c i);
          check_int (name ^ " degree") (Graph.degree g v) (Csr.degree c i);
          let nbrs = ref [] in
          Csr.iter_neighbours c i (fun j -> nbrs := Csr.node c j :: !nbrs);
          check (name ^ " neighbours") true (List.rev !nbrs = Graph.neighbours g v))
        g)
    family

let csr_balls () =
  (* the ball of an identifier-named centre as sorted identifiers *)
  let ball_ids c s ~centre ~radius =
    let count = Csr.ball c s ~centre:(Csr.index c centre) ~radius in
    List.init count (fun i -> Csr.node c (Csr.visited s i)) |> List.sort Int.compare
  in
  List.iter
    (fun (name, g) ->
      let c = Csr.of_graph g in
      let s = Csr.scratch c in
      Graph.iter_nodes
        (fun v ->
          List.iter
            (fun r ->
              check
                (Printf.sprintf "%s ball v=%d r=%d" name v r)
                true
                (ball_ids c s ~centre:v ~radius:r = Traversal.ball g v r))
            [ 0; 1; 2; 3 ])
        g)
    family

(* Decorated instance + proof, as in the seed simulator tests: node
   labels, edge labels, globals and proof bits all in transit. *)
let decorated g =
  let inst = Instance.of_graph g in
  let inst =
    Instance.with_node_labels inst
      (List.map (fun v -> (v, Bits.encode_int (v mod 5))) (Graph.nodes g))
  in
  let inst =
    Graph.fold_edges
      (fun u v acc ->
        if (u + v) mod 3 = 0 then
          Instance.with_edge_label acc u v (Bits.encode_int (u + v))
        else acc)
      g inst
  in
  let inst = Instance.with_globals inst (Bits.encode_int 42) in
  let proof =
    Graph.fold_nodes (fun v p -> Proof.set p v (Bits.encode_int (v * 7))) g
      Proof.empty
  in
  (inst, proof)

let fast_views_identical () =
  List.iter
    (fun (name, g) ->
      let inst, proof = decorated g in
      let c = Simulator.compile inst in
      List.iter
        (fun radius ->
          Graph.iter_nodes
            (fun v ->
              check
                (Printf.sprintf "%s view v=%d r=%d" name v radius)
                true
                (View.equal
                   (Simulator.view_at c proof ~radius v)
                   (View.make inst proof ~centre:v ~radius)))
            g)
        [ 0; 1; 2 ])
    (List.filter (fun (_, g) -> Graph.n g <= 60) family)

(* [decorated] over a digraph: every edge carries an [Instance.of_digraph]
   arc label (one way, the other way, or both), plus node labels,
   globals and proof bits. *)
let decorated_arcs g =
  let d =
    Graph.fold_edges
      (fun u v acc ->
        match (u * 31 + v) mod 3 with
        | 0 -> Digraph.add_arc acc u v
        | 1 -> Digraph.add_arc acc v u
        | _ -> Digraph.add_arc (Digraph.add_arc acc u v) v u)
      g
      (Graph.fold_nodes (fun v acc -> Digraph.add_node acc v) g Digraph.empty)
  in
  let inst, proof = decorated g in
  let arcs = Instance.of_digraph d in
  let arcs =
    Instance.with_node_labels arcs
      (List.map (fun v -> (v, Instance.node_label inst v)) (Graph.nodes g))
  in
  (Instance.with_globals arcs (Instance.globals inst), proof)

(* Every window accessor on [view] against [View.make]'s view of the
   same ball (values and Invalid_argument messages alike) and against
   the seed's semantics rebuilt here from the induced subgraph, at
   every node of [g] and one identifier outside it, and at every pair
   for the two-node accessors — without forcing the view's
   sub-instance. *)
let same_accessors label g inst proof view =
  let centre = View.centre view and radius = View.radius view in
  let reference = View.make inst proof ~centre ~radius in
  let sub = Graph.induced g (Traversal.ball g centre radius) in
  let dists = Traversal.bfs_distances sub centre in
  let in_ball u = Graph.mem_node sub u in
  let edge a b =
    if Graph.mem_edge sub a b then Instance.edge_label inst a b else Bits.empty
  in
  let masked f u = if in_ball u then f u else Bits.empty in
  let known f u = if in_ball u then Ok (f u) else Error () in
  let res f = match f () with x -> Ok x | exception Invalid_argument m -> Error m in
  let same what f oracle =
    let got = res (fun () -> f view) in
    if got <> res (fun () -> f reference) || Result.map_error ignore got <> oracle
    then Alcotest.failf "%s: %s differs" label (what ())
  in
  let nodes = (Graph.max_id g + 1) :: Graph.nodes g in
  same (fun () -> "globals") View.globals (Ok (Instance.globals inst));
  List.iter
    (fun u ->
      let at what f oracle =
        same (fun () -> Printf.sprintf "%s %d" what u) (fun v -> f v u) oracle
      in
      at "neighbours" View.neighbours (known (Graph.neighbours sub) u);
      at "degree_in_view" View.degree_in_view (known (Graph.degree sub) u);
      at "proof_of" View.proof_of (Ok (masked (Proof.get proof) u));
      at "label_of" View.label_of (Ok (masked (Instance.node_label inst) u));
      at "dist_to_centre" View.dist_to_centre (known (fun u -> List.assoc u dists) u);
      List.iter
        (fun w ->
          let pair what f oracle =
            same (fun () -> Printf.sprintf "%s %d %d" what u w) (fun v -> f v u w)
              (Ok oracle)
          in
          let l = edge u w in
          pair "edge_label_of" View.edge_label_of l;
          pair "arc_exists" View.arc_exists
            (Bits.length l >= 2 && Bits.get l (if u < w then 0 else 1)))
        nodes)
    nodes

let window_accessors_match () =
  let small = List.filter (fun (_, g) -> Graph.n g <= 60) family in
  let arena = Simulator.arena () in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (kind, (inst, proof)) ->
          let c = Simulator.compile inst in
          List.iter
            (fun radius ->
              let label = Printf.sprintf "%s %s r=%d" name kind radius in
              Graph.iter_nodes
                (fun v ->
                  same_accessors
                    (Printf.sprintf "%s view_at v=%d" label v)
                    g inst proof
                    (Simulator.view_at c proof ~radius v))
                g;
              let verdicts, _ =
                Simulator.run_verifier ~compiled:c ~arena inst proof ~radius
                  (fun view ->
                    same_accessors
                      (Printf.sprintf "%s arena v=%d" label (View.centre view))
                      g inst proof view;
                    true)
              in
              check (label ^ " arena sweep ran") true
                (List.for_all snd verdicts))
            [ 0; 1; 2 ])
        [ ("labels", decorated g); ("arcs", decorated_arcs g) ])
    small

(* The fast path builds no per-node sub-instance: a warm arena run
   with a constant verifier stays within a fixed per-node word budget
   (a view materialized per node costs several hundred). *)
let window_allocation_budget () =
  let g = Random_graphs.connected_gnp (st 21) 1024 (6.0 /. 1024.0) in
  let inst, proof = decorated g in
  let compiled = Simulator.compile inst in
  let arena = Simulator.arena () in
  let run () =
    ignore (Simulator.run_compiled ~arena compiled proof ~radius:1 (fun _ -> true))
  in
  let metrics = !Obs.Metrics.enabled and trace = !Obs.Trace.enabled in
  Obs.disable ();
  let words =
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.enabled := metrics;
        Obs.Trace.enabled := trace)
      (fun () ->
        run ();
        let w0 = Gc.minor_words () in
        run ();
        Gc.minor_words () -. w0)
  in
  let per_node = words /. 1024.0 in
  if per_node > 100.0 then
    Alcotest.failf "warm sweep allocates %.1f minor words per node (> 100)"
      per_node

(* A warm sweep decodes each proof string once: every view of the sweep
   reads its centre and each neighbour through one counting codec, so
   without sharing a node's string would be decoded deg + 1 times. At
   jobs 2 each worker domain has its own cells, so each decodes at most
   n strings. *)
let decode_once_per_sweep () =
  let g = Random_graphs.connected_gnp (st 31) 300 (6.0 /. 300.0) in
  let inst, proof = decorated g in
  let n = Graph.n g in
  let lock = Mutex.create () in
  let calls = Hashtbl.create 4 in
  let codec =
    View.codec (fun b ->
        Mutex.protect lock (fun () ->
            let d = (Domain.self () :> int) in
            Hashtbl.replace calls d
              (1 + Option.value ~default:0 (Hashtbl.find_opt calls d)));
        Bits.length b)
  in
  let verifier view =
    let v = View.centre view in
    let len = View.decoded codec view in
    List.for_all (fun u -> len u + len v >= 0) (View.neighbours view v)
  in
  let compiled = Simulator.compile inst in
  let arena = Simulator.arena () in
  let sweep jobs =
    Hashtbl.reset calls;
    let verdicts, _ =
      Simulator.run_verifier ~jobs ~compiled ~arena inst proof ~radius:1 verifier
    in
    check (Printf.sprintf "jobs=%d all accept" jobs) true (List.for_all snd verdicts);
    Hashtbl.fold (fun _ k acc -> k :: acc) calls []
  in
  ignore (sweep 1);
  check_int "warm jobs=1 sweep decodes n strings" n
    (List.fold_left ( + ) 0 (sweep 1));
  let per_domain = sweep 2 in
  check "jobs=2: at most n decodes per domain" true
    (List.for_all (fun k -> k <= n) per_domain);
  check "jobs=2: every string decoded" true (List.fold_left ( + ) 0 per_domain >= n)

(* What decoding once buys on a tree-certificate scheme: a warm odd-n
   sweep (the even-n prover writes the same counting certificate, so
   on this 1024-node graph only the root rejects) over mean degree ~6
   stays within 180 minor words per node; decoding per read costs
   about 250. *)
let odd_n_allocation_budget () =
  let g = Random_graphs.connected_gnp (st 21) 1024 (6.0 /. 1024.0) in
  let inst = Instance.of_graph g in
  let proof = Option.get (Counting.even_n.Scheme.prover inst) in
  let compiled = Simulator.compile inst in
  let arena = Simulator.arena () in
  let run () =
    Simulator.run_compiled ~arena compiled proof ~radius:1
      Counting.odd_n.Scheme.verifier
  in
  let metrics = !Obs.Metrics.enabled and trace = !Obs.Trace.enabled in
  Obs.disable ();
  let words =
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.enabled := metrics;
        Obs.Trace.enabled := trace)
      (fun () ->
        ignore (run ());
        let w0 = Gc.minor_words () in
        let verdicts = run () in
        let words = Gc.minor_words () -. w0 in
        check_int "only the root rejects" 1
          (List.length (Simulator.rejecting verdicts));
        words)
  in
  let per_node = words /. 1024.0 in
  if per_node > 180.0 then
    Alcotest.failf "warm odd-n sweep allocates %.1f minor words per node (> 180)"
      per_node

let run_verifier_matches_reference () =
  (* A verifier exercising graph structure, labels, proof bits and
     distances of the view. *)
  let verifier view =
    let c = View.centre view in
    let h = Hashtbl.hash
        ( Graph.edges (View.graph view),
          View.proof_of view c,
          View.label_of view c,
          List.map (fun u -> View.dist_to_centre view u)
            (Graph.nodes (View.graph view)) )
    in
    h mod 3 <> 0
  in
  (* every call reads record sizes from the instance it is given, arc
     labels included *)
  let check_run label inst proof ~radius =
    let ref_verdicts, ref_tr =
      Simulator.run_verifier_reference inst proof ~radius verifier
    in
    List.iter
      (fun jobs ->
        let verdicts, tr = Simulator.run_verifier ~jobs inst proof ~radius verifier in
        let label what = Printf.sprintf "%s %s r=%d jobs=%d" label what radius jobs in
        check (label "verdicts") true (verdicts = ref_verdicts);
        check_int (label "rounds") ref_tr.Simulator.rounds tr.Simulator.rounds;
        check_int (label "messages") ref_tr.Simulator.messages_sent
          tr.Simulator.messages_sent;
        check_int (label "max bits") ref_tr.Simulator.max_message_bits
          tr.Simulator.max_message_bits)
      [ 1; 4 ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (kind, (inst, proof)) ->
          List.iter
            (fun radius -> check_run (name ^ " " ^ kind) inst proof ~radius)
            [ 0; 1; 2 ])
        [ ("labels", decorated g); ("arcs", decorated_arcs g) ])
    (List.filter (fun (_, g) -> Graph.n g <= 60) family)

let scheme_verdicts_identical () =
  (* Real schemes, honest and garbage proofs: the fast engine must
     reproduce Scheme.decide (the seed View.make-per-node path) and
     all_accept must agree with Scheme.accepts. *)
  let cases =
    [
      ("bipartite-C12", Bipartite_scheme.scheme, Instance.of_graph (Builders.cycle 12));
      ("bipartite-C9", Bipartite_scheme.scheme, Instance.of_graph (Builders.cycle 9));
      ("odd-n-C9", Counting.odd_n, Instance.of_graph (Builders.cycle 9));
      ( "leader-C16",
        Leader_election.strong,
        Leader_election.mark_leader (Instance.of_graph (Builders.cycle 16)) 0 );
      ("acyclic-T40", Acyclic.scheme, Instance.of_graph (Random_graphs.tree (st 9) 40)) ;
    ]
  in
  let rstate = st 11 in
  List.iter
    (fun (name, scheme, inst) ->
      let c = Simulator.compile inst in
      let proofs =
        (match scheme.Scheme.prover inst with Some p -> [ p ] | None -> [])
        @ [ Proof.empty ]
        @ List.init 8 (fun _ ->
              Graph.fold_nodes
                (fun v p ->
                  Proof.set p v
                    (Bits.random rstate (Random.State.int rstate 6)))
                (Instance.graph inst) Proof.empty)
      in
      List.iteri
        (fun k proof ->
          let seed_verdicts =
            Graph.fold_nodes
              (fun v acc -> (v, Scheme.verifier_output scheme inst proof v) :: acc)
              (Instance.graph inst) []
            |> List.rev
          in
          List.iter
            (fun jobs ->
              let verdicts, _ =
                Simulator.run_verifier ~jobs ~compiled:c inst proof
                  ~radius:scheme.Scheme.radius scheme.Scheme.verifier
              in
              check
                (Printf.sprintf "%s proof#%d jobs=%d" name k jobs)
                true (verdicts = seed_verdicts))
            [ 1; 4 ];
          check
            (Printf.sprintf "%s proof#%d all_accept" name k)
            (Scheme.accepts scheme inst proof)
            (Simulator.all_accept c proof ~radius:scheme.Scheme.radius
               scheme.Scheme.verifier))
        proofs)
    cases

let agrees_on_fast_path () =
  List.iter
    (fun (name, g) ->
      let inst, proof = decorated g in
      check (name ^ " agrees") true (Simulator.agrees_with_direct inst proof ~radius:2))
    (List.filter (fun (_, g) -> Graph.n g <= 60) family)

let soundness_random_parallel () =
  let inst = Instance.of_graph (Builders.cycle 12) in
  (* Honest scheme: never fooled, sequential or parallel. *)
  check "bipartite seq" true
    (Checker.soundness_random Bipartite_scheme.scheme inst ~samples:150 ~max_bits:3);
  check "bipartite jobs=4" true
    (Checker.soundness_random ~jobs:4 Bipartite_scheme.scheme inst ~samples:150
       ~max_bits:3);
  (* jobs > 1 verdict is independent of the worker count. *)
  let trivial =
    Scheme.make ~name:"accept-anything" ~radius:1
      ~size_bound:(fun _ -> 1)
      ~prover:(fun _ -> Some Proof.empty)
      ~verifier:(fun _ -> true)
  in
  List.iter
    (fun jobs ->
      check
        (Printf.sprintf "trivially fooled jobs=%d" jobs)
        false
        (Checker.soundness_random ~jobs trivial inst ~samples:10 ~max_bits:2))
    [ 1; 2; 4 ]

let pool_basics () =
  let p = Pool.create 3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let n = 10_000 in
  let hits = Array.make n 0 in
  Pool.parallel_for p ~chunks:16 ~n (fun _c lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  check "every index exactly once" true (Array.for_all (( = ) 1) hits);
  (* exceptions propagate out of wait *)
  Alcotest.check_raises "task exception" Exit (fun () ->
      Pool.parallel_for p ~chunks:4 ~n:4 (fun _ lo _ ->
          if lo = 0 then raise Exit));
  (* pool is still usable afterwards *)
  let total = Atomic.make 0 in
  Pool.parallel_for p ~chunks:8 ~n:100 (fun _ lo hi ->
      ignore (Atomic.fetch_and_add total (hi - lo)));
  check_int "pool survives exceptions" 100 (Atomic.get total)

(* extract_subgraph: the induced subgraph keeps original identifiers,
   keeps exactly the selected nodes' mutual edges, and returns the
   remap table sorted — against a reference computed with Graph
   operations. Rejects duplicate and out-of-range selections. *)
let extract_subgraph_induced () =
  List.iter
    (fun (name, g) ->
      let c = Csr.of_graph g in
      let n = Csr.n c in
      let rng = st 77 in
      List.iter
        (fun frac ->
          let sel =
            Array.of_list
              (List.filteri
                 (fun _ _ -> Random.State.float rng 1.0 < frac)
                 (List.init n Fun.id))
          in
          (* shuffle: selection order must not matter *)
          let sel = Array.copy sel in
          for i = Array.length sel - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let t = sel.(i) in
            sel.(i) <- sel.(j);
            sel.(j) <- t
          done;
          let sub, remap = Csr.extract_subgraph c sel in
          let sorted = Array.copy sel in
          Array.sort compare sorted;
          check (name ^ " remap is the sorted selection") true (remap = sorted);
          check_int (name ^ " node count") (Array.length sel) (Csr.n sub);
          let keep = Hashtbl.create 16 in
          Array.iter (fun i -> Hashtbl.replace keep (Csr.node c i) ()) sel;
          let m_ref = ref 0 in
          Graph.fold_edges
            (fun u v () ->
              if Hashtbl.mem keep u && Hashtbl.mem keep v then incr m_ref)
            g ();
          check_int (name ^ " induced edge count") !m_ref (Csr.m sub);
          for i = 0 to Csr.n sub - 1 do
            let v = Csr.node sub i in
            check (name ^ " keeps original identifiers") true
              (Hashtbl.mem keep v);
            Csr.iter_neighbours sub i (fun j ->
                let u = Csr.node sub j in
                check (name ^ " edges come from g") true
                  (List.mem u (Graph.neighbours g v)))
          done)
        [ 0.3; 0.7; 1.0 ])
    family

let extract_subgraph_rejects () =
  let c = Csr.of_graph (Builders.cycle 8) in
  Alcotest.check_raises "duplicate selection"
    (Invalid_argument "Csr.extract_subgraph: duplicate dense index 3")
    (fun () ->
      ignore (Csr.extract_subgraph c [| 1; 3; 3 |]));
  check "out of range raises" true
    (match Csr.extract_subgraph c [| 0; 99 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The bulk constructor behind [Graph6.decode_res], a graph6 image's
   instance and the partition shards: it rebuilds every family graph
   (non-contiguous ids included, as shard images carry them) from its
   CSR rows, and refuses rows that would not describe a simple
   undirected graph — as does [Csr.of_rows], the one check for rows
   from outside the process. *)
let of_rows_rebuilds () =
  List.iter
    (fun (name, g) ->
      let offsets, targets, ids = Csr.export (Csr.of_graph g) in
      let g' = Graph.of_rows ~ids ~offsets ~targets in
      check (name ^ " rebuilt") true (Graph.equal g g');
      check_int (name ^ " m") (Graph.m g) (Graph.m g'))
    (("empty", Graph.empty) :: family);
  let rejects what ~ids ~offsets ~targets =
    check what true
      (match Graph.of_rows ~ids ~offsets ~targets with
      | exception Invalid_argument _ -> true
      | _ -> false);
    check ("Csr.of_rows: " ^ what) true
      (Result.is_error (Csr.of_rows ~ids ~offsets ~targets))
  in
  (* path 0-1-2 is [| 1 |; | 0; 2 |; | 1 |] *)
  let ids = [| 0; 1; 2 |] and offsets = [| 0; 1; 3; 4 |] in
  check "path accepted" true
    (Graph.equal (Builders.path 3)
       (Graph.of_rows ~ids ~offsets ~targets:[| 1; 0; 2; 1 |]));
  rejects "asymmetric" ~ids ~offsets ~targets:[| 1; 0; 2; 0 |];
  rejects "one-sided edge" ~ids ~offsets:[| 0; 1; 1; 1 |] ~targets:[| 1 |];
  rejects "unsorted row" ~ids ~offsets ~targets:[| 1; 2; 0; 1 |];
  rejects "self-loop" ~ids ~offsets:[| 0; 1; 1; 1 |] ~targets:[| 0 |];
  rejects "out of range" ~ids ~offsets ~targets:[| 1; 0; 3; 1 |];
  rejects "ids not increasing" ~ids:[| 0; 2; 1 |] ~offsets ~targets:[| 1; 0; 2; 1 |];
  rejects "negative id" ~ids:[| -1; 1; 2 |] ~offsets ~targets:[| 1; 0; 2; 1 |];
  rejects "offsets short" ~ids ~offsets:[| 0; 1; 3 |] ~targets:[| 1; 0; 2; 1 |];
  rejects "offsets overrun" ~ids ~offsets:[| 0; 1; 3; 5 |] ~targets:[| 1; 0; 2; 1 |];
  rejects "offsets decrease" ~ids ~offsets:[| 0; 3; 1; 4 |] ~targets:[| 1; 0; 2; 1 |]

(* A graph6 image's instance holds rows and no graph until something
   asks. Two domains asking at once may both build the graph; neither
   raises, and both get the one that was published. The same holds the
   other way round for the rows of a graph-backed instance. *)
let compiled_instance_two_domains () =
  let g = Random_graphs.connected_gnp (st 41) 600 (6.0 /. 600.0) in
  let csr =
    match Graph6.decode_csr (Graph6.encode g) with
    | Ok csr -> csr
    | Error e -> Alcotest.fail e
  in
  let race ask =
    let d1 = Domain.spawn ask and d2 = Domain.spawn ask in
    let x1 = Domain.join d1 and x2 = Domain.join d2 in
    check "the published one, to both" true (x1 == x2 && ask () == x1);
    x1
  in
  for _ = 1 to 3 do
    let inst = Simulator.compile_csr csr in
    check "the decoded graph" true
      (Graph.equal (race (fun () -> Instance.graph inst)) g);
    let inst = Instance.of_graph g in
    check "the compiled rows" true
      (Csr.export (race (fun () -> Instance.csr inst)) = Csr.export csr)
  done

let suite =
  ( "csr-engine",
    [
      Alcotest.test_case "csr structure mirrors graph" `Quick csr_structure;
      Alcotest.test_case "csr balls = Traversal.ball" `Quick csr_balls;
      Alcotest.test_case "fast views = View.make" `Quick fast_views_identical;
      Alcotest.test_case "window accessors = View.make (unforced)" `Quick
        window_accessors_match;
      Alcotest.test_case "warm run_verifier allocation budget" `Quick
        window_allocation_budget;
      Alcotest.test_case "warm sweep decodes each string once" `Quick
        decode_once_per_sweep;
      Alcotest.test_case "warm odd-n sweep allocation budget" `Quick
        odd_n_allocation_budget;
      Alcotest.test_case "run_verifier = reference (verdicts + transcript)"
        `Quick run_verifier_matches_reference;
      Alcotest.test_case "scheme verdicts identical (jobs 1 and 4)" `Quick
        scheme_verdicts_identical;
      Alcotest.test_case "gather agrees with fast direct extraction" `Quick
        agrees_on_fast_path;
      Alcotest.test_case "soundness_random parallel" `Quick
        soundness_random_parallel;
      Alcotest.test_case "pool basics" `Quick pool_basics;
      Alcotest.test_case "extract_subgraph = induced subgraph" `Quick
        extract_subgraph_induced;
      Alcotest.test_case "extract_subgraph validates selection" `Quick
        extract_subgraph_rejects;
      Alcotest.test_case "Graph.of_rows rebuilds from csr rows" `Quick
        of_rows_rebuilds;
      Alcotest.test_case "compiled_instance from two domains" `Quick
        compiled_instance_two_domains;
    ] )
