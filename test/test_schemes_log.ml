(* The LogLCP level: Table 1 rows T1a-11..T1a-14, T1b-5..T1b-9. *)

open Test_util

let check = Alcotest.(check bool)
let of_g g = Instance.of_graph g

(* --- spanning tree certificates (the shared tool) --- *)

let tree_cert_roundtrip () =
  let c = { Tree_cert.root = 42; dist = 7; parent = Some 13 } in
  check "roundtrip" true (Tree_cert.decode (Tree_cert.encode c) = c);
  let r = { Tree_cert.root = 42; dist = 0; parent = None } in
  check "root roundtrip" true (Tree_cert.decode (Tree_cert.encode r) = r)

let tree_cert_prove () =
  let g = Random_graphs.connected_gnp (st 5) 15 0.2 in
  let certs = Tree_cert.prove g ~root:0 in
  check "all nodes" true (List.length certs = Graph.n g);
  List.iter
    (fun (v, c) ->
      check "same root" true (c.Tree_cert.root = 0);
      match c.Tree_cert.parent with
      | None -> check "root at dist 0" true (v = 0 && c.Tree_cert.dist = 0)
      | Some p -> check "parent is neighbour" true (Graph.mem_edge g v p))
    certs

(* --- T1b-6 spanning tree --- *)

let spanning_tree_instances g =
  let pairs = Traversal.spanning_tree g (List.hd (Graph.nodes g)) in
  Instance.flag_edges (of_g g) (List.map (fun (v, p) -> (min v p, max v p)) pairs)

let spanning_tree () =
  List.iter
    (fun g -> assert_complete Spanning_tree_scheme.scheme [ spanning_tree_instances g ])
    [
      Builders.cycle 9;
      Builders.grid 3 4;
      Random_graphs.connected_gnp (st 6) 12 0.25;
      Random_graphs.tree (st 7) 10;
    ];
  (* strong scheme: an adversarially chosen different spanning tree *)
  let g = Builders.complete 5 in
  let star_tree = Instance.flag_edges (of_g g) [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  let path_tree = Instance.flag_edges (of_g g) [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  assert_complete Spanning_tree_scheme.scheme [ star_tree; path_tree ];
  (* not a spanning tree: a cycle among the flagged edges *)
  let bad = Instance.flag_edges (of_g g) [ (0, 1); (1, 2); (0, 2); (3, 4) ] in
  assert_refuses Spanning_tree_scheme.scheme [ bad ];
  assert_sound_random ~max_bits:8 Spanning_tree_scheme.scheme [ bad ];
  (* disconnected flagged forest with the right count is also bad *)
  let g6 = Builders.cycle 6 in
  let forest =
    Instance.flag_edges (of_g g6) [ (0, 1); (1, 2); (3, 4); (4, 5); (2, 3) ]
  in
  assert_complete Spanning_tree_scheme.scheme [ forest ];
  (* dropping one edge leaves two paths: not spanning *)
  let broken = Instance.flag_edges (of_g g6) [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  assert_refuses Spanning_tree_scheme.scheme [ broken ];
  assert_sound_random ~max_bits:8 Spanning_tree_scheme.scheme [ broken ];
  assert_tamper_sensitive Spanning_tree_scheme.scheme
    (spanning_tree_instances (Builders.grid 3 3))

(* --- T1b-5 leader election --- *)

let leader () =
  List.iter
    (fun g ->
      (* strong: adversary picks any leader *)
      List.iter
        (fun leader ->
          let inst = Leader_election.mark_leader (of_g g) leader in
          assert_complete Leader_election.strong [ inst ])
        [ List.hd (Graph.nodes g); Graph.max_id g ])
    [ Builders.cycle 8; Builders.grid 3 3; Random_graphs.tree (st 9) 9 ];
  (* two leaders: refused and unforgeable *)
  let g = Builders.cycle 6 in
  let two =
    Instance.with_node_labels (of_g g)
      (List.map (fun v -> (v, Bits.one_bit (v = 0 || v = 3))) (Graph.nodes g))
  in
  assert_refuses Leader_election.strong [ two ];
  assert_sound_random ~max_bits:8 Leader_election.strong [ two ];
  assert_sound_adversarial ~max_bits:6 Leader_election.strong [ two ];
  (* zero leaders *)
  let zero =
    Instance.with_node_labels (of_g g)
      (List.map (fun v -> (v, Bits.one_bit false)) (Graph.nodes g))
  in
  assert_refuses Leader_election.strong [ zero ];
  assert_sound_random ~max_bits:8 Leader_election.strong [ zero ];
  (* weak flavour: solves unlabelled instances *)
  assert_complete Leader_election.weak [ of_g g; of_g (Builders.grid 3 4) ]

(* --- T1a-13 counting (odd n) --- *)

let counting () =
  assert_complete Counting.odd_n
    [ of_g (Builders.cycle 7); of_g (Builders.grid 3 3);
      of_g (Random_graphs.tree (st 10) 11) ];
  assert_refuses Counting.odd_n [ of_g (Builders.cycle 8) ];
  assert_sound_random ~max_bits:8 Counting.odd_n
    [ of_g (Builders.cycle 6); of_g (Builders.grid 3 4) ];
  assert_sound_adversarial ~max_bits:8 Counting.odd_n [ of_g (Builders.cycle 6) ];
  assert_complete Counting.even_n [ of_g (Builders.cycle 8) ];
  assert_complete (Counting.exact_n 9) [ of_g (Builders.grid 3 3) ];
  assert_refuses (Counting.exact_n 9) [ of_g (Builders.grid 3 4) ];
  assert_tamper_sensitive Counting.odd_n (of_g (Builders.cycle 9))

(* --- T1a-14 non-bipartiteness (chromatic number > 2) --- *)

let non_bipartite () =
  assert_complete Non_bipartite.scheme
    [
      of_g (Builders.cycle 7);
      of_g Test_util.petersen;
      of_g (Builders.wheel 5);
      of_g (Builders.complete 4);
      of_g (Random_graphs.connected_gnp (st 11) 13 0.35);
    ];
  assert_refuses Non_bipartite.scheme
    [ of_g (Builders.cycle 8); of_g (Builders.grid 3 4) ];
  assert_sound_random ~max_bits:8 Non_bipartite.scheme
    [ of_g (Builders.cycle 6); of_g (Builders.grid 3 3) ];
  assert_sound_adversarial ~max_bits:6 Non_bipartite.scheme
    [ of_g (Builders.cycle 6) ];
  assert_tamper_sensitive Non_bipartite.scheme (of_g (Builders.cycle 9))

(* --- T1b-8 Hamiltonian cycle --- *)

let hamiltonian () =
  List.iter
    (fun g ->
      match Hamiltonian.hamiltonian_cycle g with
      | None -> ()
      | Some seq ->
          let arr = Array.of_list seq in
          let n = Array.length arr in
          let edges =
            List.init n (fun i ->
                let u = arr.(i) and v = arr.((i + 1) mod n) in
                (min u v, max u v))
          in
          assert_complete Hamiltonian_scheme.scheme
            [ Instance.flag_edges (of_g g) edges ])
    [ Builders.cycle 8; Builders.complete 5; Test_util.hypercube 3; Builders.grid 2 4 ];
  (* two disjoint triangles inside K6: 2-regular, spanning, but not a cycle *)
  let k6 = Builders.complete 6 in
  let two_triangles =
    Instance.flag_edges (of_g k6)
      [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5) ]
  in
  assert_refuses Hamiltonian_scheme.scheme [ two_triangles ];
  assert_sound_random ~max_bits:10 Hamiltonian_scheme.scheme [ two_triangles ];
  assert_sound_adversarial ~max_bits:8 Hamiltonian_scheme.scheme [ two_triangles ];
  (* a non-spanning cycle *)
  let short = Instance.flag_edges (of_g k6) [ (0, 1); (1, 2); (0, 2) ] in
  assert_refuses Hamiltonian_scheme.scheme [ short ];
  assert_sound_random ~max_bits:10 Hamiltonian_scheme.scheme [ short ]

(* --- T1b-7 maximum matching on cycles --- *)

let matching_on_cycles () =
  List.iter
    (fun n ->
      let g = Builders.cycle n in
      let m = Matching.maximum_on_cycle g in
      assert_complete Matching_schemes.maximum_on_cycle
        [ Instance.flag_edges (of_g g) m ])
    [ 6; 7; 9; 12 ];
  (* sub-maximum: skip two nodes *)
  let g = Builders.cycle 8 in
  let submax = Instance.flag_edges (of_g g) [ (1, 2); (4, 5) ] in
  assert_refuses Matching_schemes.maximum_on_cycle [ submax ];
  assert_sound_random ~max_bits:8 Matching_schemes.maximum_on_cycle [ submax ];
  assert_sound_adversarial ~max_bits:8 Matching_schemes.maximum_on_cycle [ submax ]

(* --- T1b-9 acyclicity --- *)

let acyclic () =
  assert_complete Acyclic.scheme
    [
      of_g (Random_graphs.tree (st 12) 12);
      of_g (Builders.path 6);
      of_g (Graph.union_disjoint (Builders.path 4) (Canonical.shifted (Builders.path 5) 10));
      of_g (Graph.add_node Graph.empty 3);
    ];
  assert_refuses Acyclic.scheme [ of_g (Builders.cycle 5) ];
  assert_sound_random ~max_bits:10 Acyclic.scheme
    [ of_g (Builders.cycle 6);
      of_g (Graph.union_disjoint (Builders.path 3) (Canonical.shifted (Builders.cycle 4) 10)) ];
  assert_sound_adversarial ~max_bits:8 Acyclic.scheme [ of_g (Builders.cycle 6) ]

(* --- T1a-11 coLCP(0): non-Eulerian graphs --- *)

let colcp0 () =
  assert_complete Colcp0.non_eulerian
    [ of_g (Builders.path 5); of_g (Builders.complete 4); of_g Test_util.petersen ];
  assert_refuses Colcp0.non_eulerian
    [ of_g (Builders.cycle 6); of_g (Builders.complete 5) ];
  assert_sound_random ~max_bits:8 Colcp0.non_eulerian
    [ of_g (Builders.cycle 6) ];
  assert_sound_adversarial ~max_bits:8 Colcp0.non_eulerian [ of_g (Builders.cycle 5) ];
  (* generic transformer on another LCP(0) scheme: non-line-graphs *)
  let co_line = Colcp0.complement Line_graph_scheme.scheme in
  assert_complete co_line [ of_g (Builders.star 3); of_g (Builders.wheel 5) ];
  assert_refuses co_line [ of_g (Builders.complete 3) ]

(* --- proof sizes scale as Θ(log n) --- *)

let log_growth () =
  let sizes scheme mk =
    List.map (fun n -> (n, proof_size scheme (mk n))) [ 8; 16; 32; 64; 128 ]
  in
  let spanning n = spanning_tree_instances (Builders.cycle n) in
  let leader n = Leader_election.mark_leader (of_g (Builders.cycle n)) 0 in
  let odd n = of_g (Builders.cycle (n + 1)) in
  List.iter
    (fun (name, s) ->
      check (name ^ " grows logarithmically") true
        (Complexity.classify s = Complexity.Logarithmic))
    [
      ("spanning tree", sizes Spanning_tree_scheme.scheme spanning);
      ("leader election", sizes Leader_election.strong leader);
      ("odd n", sizes Counting.odd_n odd);
    ]

let suite =
  ( "schemes-loglcp",
    [
      Alcotest.test_case "tree certificate roundtrip" `Quick tree_cert_roundtrip;
      Alcotest.test_case "tree certificate prover" `Quick tree_cert_prove;
      Alcotest.test_case "T1b-6 spanning tree" `Quick spanning_tree;
      Alcotest.test_case "T1b-5 leader election" `Quick leader;
      Alcotest.test_case "T1a-13 counting" `Quick counting;
      Alcotest.test_case "T1a-14 non-bipartite" `Quick non_bipartite;
      Alcotest.test_case "T1b-8 hamiltonian cycle" `Quick hamiltonian;
      Alcotest.test_case "T1b-7 matching on cycles" `Quick matching_on_cycles;
      Alcotest.test_case "T1b-9 acyclic" `Quick acyclic;
      Alcotest.test_case "T1a-11 coLCP(0)" `Quick colcp0;
      Alcotest.test_case "log-size growth" `Slow log_growth;
    ] )
