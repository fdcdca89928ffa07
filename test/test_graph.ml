let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let st () = Random.State.make [| 42 |]

(* A small generator of random graphs for qcheck properties. *)
let arb_graph =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Graph.pp g)
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let* p = float_range 0.1 0.8 in
      let* seed = int_bound 1_000_000 in
      return (Random_graphs.gnp (Random.State.make [| seed |]) n p))

let construction () =
  let g = Graph.create ~nodes:[ 1; 2; 3 ] ~edges:[ (1, 2); (2, 3) ] in
  check_int "n" 3 (Graph.n g);
  check_int "m" 2 (Graph.m g);
  check "edge" true (Graph.mem_edge g 2 1);
  check "no edge" false (Graph.mem_edge g 1 3);
  Alcotest.(check (list int)) "neighbours" [ 1; 3 ] (Graph.neighbours g 2);
  check_int "degree" 2 (Graph.degree g 2)

let invalid_construction () =
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (Graph.of_edges [ (1, 1) ]));
  Alcotest.check_raises "unknown endpoint"
    (Invalid_argument "Graph.create: edge (1, 9) has unknown endpoint") (fun () ->
      ignore (Graph.create ~nodes:[ 1; 2 ] ~edges:[ (1, 9) ]))

let removal () =
  let g = Builders.cycle 5 in
  let g' = Graph.remove_node g 0 in
  check_int "n after removal" 4 (Graph.n g');
  check_int "m after removal" 3 (Graph.m g');
  let g'' = Graph.remove_edge g 0 1 in
  check_int "m after edge removal" 4 (Graph.m g'')

let relabel () =
  let g = Builders.path 4 in
  let g' = Graph.relabel g (fun v -> (v * 10) + 5 ) in
  Alcotest.(check (list int)) "nodes" [ 5; 15; 25; 35 ] (Graph.nodes g');
  check "edge" true (Graph.mem_edge g' 5 15)

let builders () =
  check_int "cycle m" 7 (Graph.m (Builders.cycle 7));
  check_int "complete m" 10 (Graph.m (Builders.complete 5));
  check_int "grid n" 12 (Graph.n (Builders.grid 3 4));
  check_int "grid m" 17 (Graph.m (Builders.grid 3 4));
  check_int "hypercube m" 12 (Graph.m (Test_util.hypercube 3));
  check_int "petersen degree" 3 (Graph.max_degree Test_util.petersen);
  check_int "star m" 6 (Graph.m (Builders.star 6));
  check_int "wheel m" 10 (Graph.m (Builders.wheel 5))

let traversal () =
  let g = Builders.grid 3 3 in
  Alcotest.(check (option int)) "corner distance" (Some 4) (Traversal.distance g 0 8);
  check_int "ball size r1" 3 (List.length (Traversal.ball g 0 1));
  check_int "ball size r2" 6 (List.length (Traversal.ball g 0 2));
  check "connected" true (Traversal.is_connected g);
  check_int "diameter" 4 (Traversal.diameter g);
  let two = Graph.union_disjoint (Builders.cycle 3) (Canonical.shifted (Builders.cycle 4) 10) in
  check "disconnected" false (Traversal.is_connected two);
  check_int "components" 2 (List.length (Traversal.components two))

let shortest_paths () =
  let g = Builders.cycle 8 in
  match Traversal.shortest_path g 0 4 with
  | None -> Alcotest.fail "no path"
  | Some p ->
      check_int "path length" 5 (List.length p);
      check_int "starts" 0 (List.hd p);
      check_int "ends" 4 (List.nth p 4)

let spanning_tree () =
  let g = Random_graphs.connected_gnp (st ()) 20 0.15 in
  let pairs = Traversal.spanning_tree g (List.hd (Graph.nodes g)) in
  check_int "tree size" 19 (List.length pairs);
  List.iter (fun (v, p) -> check "tree edge real" true (Graph.mem_edge g v p)) pairs

let dfs_intervals () =
  (* the complete binary tree of depth 2, children of v at 2v+1, 2v+2 *)
  let g = Graph.of_edges [ (0, 1); (0, 2); (1, 3); (1, 4); (2, 5); (2, 6) ] in
  let ivs = Traversal.dfs_intervals g 0 in
  check_int "count" 7 (List.length ivs);
  let root = List.assoc 0 ivs in
  check_int "root disc" 0 (fst root);
  check_int "root fin" 13 (snd root);
  (* Nesting: every child interval is inside its parent's. *)
  List.iter
    (fun (v, (x, y)) ->
      check (Printf.sprintf "interval %d" v) true (x < y))
    ivs

let line_graph_construction () =
  let lg, mapping = Graph.line_graph (Builders.star 3) in
  check_int "L(K1,3) = K3 nodes" 3 (Graph.n lg);
  check_int "L(K1,3) = K3 edges" 3 (Graph.m lg);
  check_int "mapping size" 3 (List.length mapping)

let qcheck_handshake =
  QCheck.Test.make ~name:"handshake: sum of degrees = 2m" ~count:100 arb_graph
    (fun g ->
      Graph.fold_nodes (fun v acc -> acc + Graph.degree g v) g 0 = 2 * Graph.m g)

let qcheck_induced =
  QCheck.Test.make ~name:"induced subgraph edges are original edges" ~count:100
    arb_graph (fun g ->
      let nodes = List.filteri (fun i _ -> i mod 2 = 0) (Graph.nodes g) in
      let h = Graph.induced g nodes in
      Graph.fold_edges (fun u v acc -> acc && Graph.mem_edge g u v) h true
      && List.for_all (Graph.mem_node g) (Graph.nodes h))

let qcheck_relabel_involution =
  QCheck.Test.make ~name:"relabel by +k then -k is identity" ~count:100 arb_graph
    (fun g ->
      let g' = Graph.relabel (Graph.relabel g (fun v -> v + 7)) (fun v -> v - 7) in
      Graph.equal g g')

let qcheck_components_partition =
  QCheck.Test.make ~name:"components partition the nodes" ~count:100 arb_graph
    (fun g ->
      let comps = Traversal.components g in
      List.sort Int.compare (List.concat comps) = Graph.nodes g)

let qcheck_ball_monotone =
  QCheck.Test.make ~name:"balls grow with radius" ~count:100 arb_graph (fun g ->
      match Graph.nodes g with
      | [] -> true
      | v :: _ ->
          let b1 = Traversal.ball g v 1 and b2 = Traversal.ball g v 2 in
          List.for_all (fun u -> List.mem u b2) b1)

let graph6_known () =
  (* K2 = "A_", K3 = "Bw", empty triangle = "B?" *)
  Alcotest.(check string) "K2" "A_" (Graph6.encode (Builders.complete 2));
  Alcotest.(check string) "K3" "Bw" (Graph6.encode (Builders.complete 3));
  Alcotest.(check string)
    "empty 3" "B?"
    (Graph6.encode (List.fold_left Graph.add_node Graph.empty [ 0; 1; 2 ]));
  check "decode K3" true (Graph.equal (Graph6.decode "Bw") (Builders.complete 3))

let qcheck_graph6 =
  QCheck.Test.make ~name:"graph6 roundtrips" ~count:100
    QCheck.(pair (int_range 1 20) (int_bound 1_000_000))
    (fun (n, seed) ->
      let g = Random_graphs.gnp (Random.State.make [| seed |]) n 0.4 in
      Graph.equal g (Graph6.decode (Graph6.encode g)))

let dot_output () =
  let s = Dot.of_graph ~name:"test" (Builders.path 3) in
  check "has header" true (String.length s > 0 && String.sub s 0 5 = "graph");
  check "has edge" true
    (let rec contains i =
       i + 8 <= String.length s
       && (String.sub s i 6 = "0 -- 1" || contains (i + 1))
     in
     contains 0)

let suite =
  ( "graph",
    [
      Alcotest.test_case "graph6 known values" `Quick graph6_known;
      QCheck_alcotest.to_alcotest qcheck_graph6;
      Alcotest.test_case "dot output" `Quick dot_output;
      Alcotest.test_case "construction" `Quick construction;
      Alcotest.test_case "invalid construction" `Quick invalid_construction;
      Alcotest.test_case "removal" `Quick removal;
      Alcotest.test_case "relabel" `Quick relabel;
      Alcotest.test_case "builders" `Quick builders;
      Alcotest.test_case "traversal" `Quick traversal;
      Alcotest.test_case "shortest paths" `Quick shortest_paths;
      Alcotest.test_case "spanning tree" `Quick spanning_tree;
      Alcotest.test_case "dfs intervals" `Quick dfs_intervals;
      Alcotest.test_case "line graph construction" `Quick line_graph_construction;
      QCheck_alcotest.to_alcotest qcheck_handshake;
      QCheck_alcotest.to_alcotest qcheck_induced;
      QCheck_alcotest.to_alcotest qcheck_relabel_involution;
      QCheck_alcotest.to_alcotest qcheck_components_partition;
      QCheck_alcotest.to_alcotest qcheck_ball_monotone;
    ] )
