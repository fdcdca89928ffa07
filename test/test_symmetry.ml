let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let st seed = Random.State.make [| seed |]

let automorphism_counts () =
  check_int "path P4" 2 (Automorphism.count_automorphisms (Builders.path 4));
  check_int "cycle C5 (dihedral)" 10 (Automorphism.count_automorphisms (Builders.cycle 5));
  check_int "K4 (symmetric group)" 24 (Automorphism.count_automorphisms (Builders.complete 4));
  check_int "star K1,3" 6 (Automorphism.count_automorphisms (Builders.star 3));
  check_int "petersen" 120 (Automorphism.count_automorphisms Test_util.petersen)

let asymmetric_graphs () =
  (* The smallest asymmetric tree has 7 nodes. *)
  check "paths are symmetric" true (Automorphism.is_symmetric (Builders.path 5));
  let smallest_asymmetric_tree =
    (* node 1 carries three pairwise non-isomorphic branches: a leaf,
       a 2-path, and a 3-path *)
    Graph.of_edges [ (0, 1); (1, 2); (2, 3); (3, 4); (1, 5); (5, 6) ]
  in
  check "7-node asymmetric tree" true
    (Automorphism.is_asymmetric smallest_asymmetric_tree)

let automorphism_validity () =
  List.iter
    (fun g ->
      match Automorphism.nontrivial_automorphism g with
      | None -> ()
      | Some mapping ->
          check "valid automorphism" true (Automorphism.is_automorphism g mapping);
          check "non-trivial" true (List.exists (fun (u, v) -> u <> v) mapping))
    [
      Builders.cycle 6;
      Builders.grid 2 3;
      Random_graphs.tree (st 3) 9;
      (* shuffled ids: the search must not backtrack exponentially *)
      Random_graphs.permuted_ids (st 4) ~factor:3 (Builders.cycle 40);
      Random_graphs.permuted_ids (st 5) ~factor:3 (Builders.path 40);
    ]

let fixpoint_free () =
  check "C6 has fixpoint-free" true
    (Automorphism.has_fixpoint_free_symmetry (Builders.cycle 6));
  check "P3 has none (centre fixed)" false
    (Automorphism.has_fixpoint_free_symmetry (Builders.path 3));
  check "P2 swaps" true (Automorphism.has_fixpoint_free_symmetry (Builders.path 2));
  check "star fixes centre" false
    (Automorphism.has_fixpoint_free_symmetry (Builders.star 4))

(* The centre-edge check against the backtracking oracle on every
   rooted tree up to 9 nodes (every free tree appears among them). *)
let fixpoint_free_trees_agree () =
  for k = 1 to 9 do
    List.iter
      (fun (t : Tree_enum.rooted) ->
        let g = t.Tree_enum.tree in
        check
          (Printf.sprintf "k=%d %s" k (Tree_enum.canonical_code g 0))
          (Automorphism.has_fixpoint_free_symmetry g)
          (Tree_enum.has_fixpoint_free_symmetry g))
      (Tree_enum.rooted_trees k)
  done

let canonical_forms () =
  let g1 = Builders.cycle 5 in
  let g2 = Graph.relabel g1 (fun v -> ((v * 3) mod 5) + 20) in
  check "isomorphic keys equal" true
    (Canonical.canonical_key g1 = Canonical.canonical_key g2);
  check "canonical forms equal" true
    (Graph.equal (Canonical.canonical_form g1) (Canonical.canonical_form g2));
  check "different graphs differ" false
    (Canonical.canonical_key (Builders.cycle 6) = Canonical.canonical_key (Builders.path 6));
  Alcotest.(check (list int))
    "canonical ids are 1..n" [ 1; 2; 3; 4; 5 ]
    (Graph.nodes (Canonical.canonical_form g1))

let qcheck_canonical =
  QCheck.Test.make ~name:"canonical key is relabelling-invariant" ~count:60
    QCheck.(pair (int_range 2 7) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rnd = Random.State.make [| seed |] in
      let g = Random_graphs.gnp rnd n 0.5 in
      let g' = Random_graphs.permuted_ids rnd ~factor:3 g in
      Canonical.canonical_key g = Canonical.canonical_key g')

let enumeration_counts () =
  (* numbers of graphs up to isomorphism: 1, 2, 4, 11, 34, 156 *)
  check_int "graphs on 1" 1 (List.length (Enumerate.all_graphs 1));
  check_int "graphs on 2" 2 (List.length (Enumerate.all_graphs 2));
  check_int "graphs on 3" 4 (List.length (Enumerate.all_graphs 3));
  check_int "graphs on 4" 11 (List.length (Enumerate.all_graphs 4));
  check_int "graphs on 5" 34 (List.length (Enumerate.all_graphs 5));
  (* connected: 1, 1, 2, 6, 21 *)
  check_int "connected on 4" 6 (List.length (Enumerate.connected_graphs 4));
  check_int "connected on 5" 21 (List.length (Enumerate.connected_graphs 5));
  (* asymmetric connected: none below 6 nodes, eight on 6 *)
  check_int "asymmetric on 5" 0 (List.length (Enumerate.asymmetric_connected 5));
  check_int "asymmetric on 6" 8 (List.length (Enumerate.asymmetric_connected 6))

let sampled_asymmetric () =
  let sample = Enumerate.sample_asymmetric_connected (st 5) ~n:7 ~count:20 ~attempts:4000 in
  check "found some" true (List.length sample >= 10);
  List.iter
    (fun g ->
      check "connected" true (Traversal.is_connected g);
      check "asymmetric" true (Automorphism.is_asymmetric g))
    sample;
  let keys = List.map Canonical.canonical_key sample in
  check "pairwise non-isomorphic" true
    (List.length (List.sort_uniq compare keys) = List.length keys)

let rooted_tree_counts () =
  (* OEIS A000081: 1 1 2 4 9 20 48 115 286 *)
  List.iter
    (fun (k, expected) ->
      check_int (Printf.sprintf "rooted trees %d" k) expected
        (Tree_enum.count_rooted_trees k))
    [ (1, 1); (2, 1); (3, 2); (4, 4); (5, 9); (6, 20); (7, 48); (8, 115) ]

let rooted_tree_structures () =
  List.iter
    (fun (t : Tree_enum.rooted) ->
      check "is tree" true (Tree_enum.is_tree t.tree);
      check_int "root is 0" 0 t.root)
    (Tree_enum.rooted_trees 6);
  let codes =
    List.map
      (fun (t : Tree_enum.rooted) -> Tree_enum.canonical_code t.tree t.root)
      (Tree_enum.rooted_trees 7)
  in
  check "codes distinct" true
    (List.length (List.sort_uniq compare codes) = List.length codes)

(* The nine graphs are data; derive them again — the connected graphs
   on 4 to 6 nodes that fail the Krausz test while every node-deleted
   subgraph passes — and check the two sets agree up to isomorphism. *)
let beineke () =
  let fs = Line_graph.forbidden_subgraphs in
  check_int "exactly nine" 9 (List.length fs);
  check "the claw comes first" true
    (Subgraph_iso.are_isomorphic (List.hd fs) (Builders.star 3));
  let derived =
    List.concat_map Enumerate.all_graphs [ 4; 5; 6 ]
    |> List.filter (fun g ->
           Traversal.is_connected g
           && (not (Line_graph.is_line_graph_krausz g))
           && List.for_all
                (fun v ->
                  Line_graph.is_line_graph_krausz (Graph.remove_node g v))
                (Graph.nodes g))
  in
  check_int "nine derived" 9 (List.length derived);
  let matches g l = List.filter (Subgraph_iso.are_isomorphic g) l in
  List.iter
    (fun g ->
      check_int "listed once among the derived" 1
        (List.length (matches g derived)))
    fs;
  List.iter
    (fun g ->
      check_int "derived once among the listed" 1 (List.length (matches g fs)))
    derived

let line_graph_agreement () =
  (* Krausz test and Beineke test agree. *)
  let cases =
    [
      Builders.cycle 6;
      Builders.star 3;
      Builders.complete 4;
      Builders.path 5;
      Line_graph.of_root_graph (Builders.star 4);
      Line_graph.of_root_graph Test_util.petersen;
      Builders.wheel 5;
      Random_graphs.gnp (st 17) 8 0.4;
      Random_graphs.gnp (st 18) 9 0.3;
    ]
  in
  List.iter
    (fun g ->
      check "Krausz = Beineke" true
        (Bool.equal (Line_graph.is_line_graph_krausz g) (Line_graph.is_line_graph g)))
    cases

let line_graphs_of_roots () =
  (* L(G) of any root graph is a line graph. *)
  List.iter
    (fun root ->
      check "line graph recognised" true
        (Line_graph.is_line_graph (Line_graph.of_root_graph root)))
    [ Builders.cycle 5; Builders.path 6; Builders.star 4; Builders.complete 4;
      Random_graphs.tree (st 23) 8 ]

let graph_codec () =
  List.iter
    (fun g ->
      let g' = Graph_code.decode (Graph_code.encode g) in
      check "codec roundtrip" true (Graph.equal g g'))
    [
      Builders.cycle 9;
      Builders.complete 5;
      Random_graphs.permuted_ids (st 3) ~factor:5 (Builders.grid 3 3);
      Graph.add_node Graph.empty 0;
    ];
  (* two nodes, both id 3, and the edge between them: a proof string,
     so a decode error (which rejects), not an invalid self-loop *)
  let w = Bits.Writer.create () in
  List.iter (Bits.Writer.int_gamma w) [ 2; 3; 0 ];
  Bits.Writer.bool w true;
  check "repeated id is a decode error" true
    (match Graph_code.decode (Bits.Writer.contents w) with
    | exception Bits.Reader.Decode_error _ -> true
    | _ -> false)

let qcheck_graph_codec =
  QCheck.Test.make ~name:"graph codec roundtrips" ~count:80
    QCheck.(pair (int_range 1 10) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rnd = Random.State.make [| seed |] in
      let g = Random_graphs.permuted_ids rnd ~factor:4 (Random_graphs.gnp rnd n 0.4) in
      Graph.equal g (Graph_code.decode (Graph_code.encode g)))

let tree_codec () =
  List.iter
    (fun k ->
      List.iter
        (fun (t : Tree_enum.rooted) ->
          let code = Tree_code.encode_structure t.tree ~root:t.root in
          check_int "code length" (2 * (Graph.n t.tree - 1)) (Bits.length code);
          let t' = Tree_code.decode_structure code in
          (* decoded tree is isomorphic as a rooted tree *)
          check "rooted-isomorphic" true
            (Tree_enum.canonical_code t.tree t.root
            = Tree_enum.canonical_code t'.tree t'.root))
        (Tree_enum.rooted_trees k))
    [ 1; 2; 5; 7 ]

let tree_positions () =
  let t = Random_graphs.tree (st 31) 12 in
  let order = Tree_code.traversal t ~root:(List.hd (Graph.nodes t)) in
  check_int "traversal covers" 12 (List.length order);
  check "traversal visits each node once" true
    (List.sort Int.compare order = Graph.nodes t)

let suite =
  ( "symmetry-enumeration",
    [
      Alcotest.test_case "automorphism counts" `Quick automorphism_counts;
      Alcotest.test_case "asymmetric graphs" `Quick asymmetric_graphs;
      Alcotest.test_case "automorphism validity" `Quick automorphism_validity;
      Alcotest.test_case "fixpoint-free" `Quick fixpoint_free;
      Alcotest.test_case "fixpoint-free trees agree with the search" `Quick
        fixpoint_free_trees_agree;
      Alcotest.test_case "canonical forms" `Quick canonical_forms;
      QCheck_alcotest.to_alcotest qcheck_canonical;
      Alcotest.test_case "enumeration counts" `Quick enumeration_counts;
      Alcotest.test_case "sampled asymmetric" `Quick sampled_asymmetric;
      Alcotest.test_case "rooted tree counts (A000081)" `Quick rooted_tree_counts;
      Alcotest.test_case "rooted tree structures" `Quick rooted_tree_structures;
      Alcotest.test_case "Beineke's nine graphs, derived" `Slow beineke;
      Alcotest.test_case "line-graph tests agree" `Slow line_graph_agreement;
      Alcotest.test_case "line graphs of roots" `Slow line_graphs_of_roots;
      Alcotest.test_case "graph codec" `Quick graph_codec;
      QCheck_alcotest.to_alcotest qcheck_graph_codec;
      Alcotest.test_case "tree codec" `Quick tree_codec;
      Alcotest.test_case "tree positions" `Quick tree_positions;
    ] )
