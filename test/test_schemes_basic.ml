(* Schemes at the bottom of the hierarchy: LCP(0), LCP(O(1)),
   LCP(O(log k)) — Table 1 rows T1a-1..T1a-10, T1b-1..T1b-4. *)

open Test_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let of_g g = Instance.of_graph g

(* --- Eulerian: LCP(0) --- *)

let eulerian () =
  assert_complete Eulerian.scheme
    [ of_g (Builders.cycle 6); of_g (Builders.complete 5); of_g (Builders.complete 7) ];
  (* no-instances rejected with the only possible (empty) proof *)
  List.iter
    (fun g ->
      check "rejects" false (Scheme.accepts Eulerian.scheme (of_g g) Proof.empty))
    [ Builders.path 4; Builders.complete 4; Builders.star 3 ];
  check_int "zero bits" 0 (proof_size Eulerian.scheme (of_g (Builders.cycle 8)))

(* --- line graphs: LCP(0) --- *)

let line_graphs () =
  assert_complete Line_graph_scheme.scheme
    [
      of_g (Line_graph.of_root_graph (Builders.star 4));
      of_g (Line_graph.of_root_graph (Builders.cycle 6));
      of_g (Builders.complete 3);
      of_g (Line_graph.of_root_graph (Random_graphs.tree (st 2) 7));
    ];
  List.iter
    (fun g ->
      check "rejects non-line-graph" false
        (Scheme.accepts Line_graph_scheme.scheme (of_g g) Proof.empty))
    [ Builders.star 3; Test_util.complete_bipartite 1 3; Builders.wheel 5 ]

(* --- bipartite: LCP(1) --- *)

let bipartite () =
  assert_complete Bipartite_scheme.scheme
    [
      of_g (Builders.cycle 8);
      of_g (Builders.grid 4 5);
      of_g (Test_util.complete_bipartite 3 4);
      of_g (Random_graphs.tree (st 3) 20);
      of_g (Test_util.hypercube 4);
    ];
  assert_refuses Bipartite_scheme.scheme
    [ of_g (Builders.cycle 5); of_g Test_util.petersen ];
  assert_sound_random Bipartite_scheme.scheme
    [ of_g (Builders.cycle 9); of_g (Builders.wheel 5) ];
  assert_sound_exhaustive ~max_bits:1 Bipartite_scheme.scheme
    [ of_g (Builders.cycle 5) ];
  assert_tamper_sensitive Bipartite_scheme.scheme (of_g (Builders.grid 3 3))

let qcheck_bipartite =
  QCheck.Test.make ~name:"bipartite scheme decides random graphs" ~count:60
    QCheck.(pair (int_range 2 12) (int_bound 1_000_000))
    (fun (n, seed) ->
      let g = Random_graphs.gnp (Random.State.make [| seed |]) n 0.3 in
      let inst = Instance.of_graph g in
      match Scheme.prove_and_check Bipartite_scheme.scheme inst with
      | `Accepted _ -> Bipartite.is_bipartite g
      | `No_proof -> not (Bipartite.is_bipartite g)
      | `Rejected _ -> false)

(* --- s-t reachability / unreachability: LCP(1) --- *)

let st_instances_reachable =
  [
    St.of_graph (Builders.grid 3 4) ~s:0 ~t:11;
    St.of_graph (Builders.cycle 10) ~s:0 ~t:5;
    St.of_graph (Random_graphs.connected_gnp (st 4) 14 0.2) ~s:0 ~t:13;
  ]

let disconnected_pair () =
  (* two components: s in one, t in the other *)
  let g =
    Graph.union_disjoint (Builders.cycle 5) (Canonical.shifted (Builders.cycle 5) 10)
  in
  St.of_graph g ~s:0 ~t:11

let st_reach () =
  assert_complete Reachability.undirected_reach st_instances_reachable;
  assert_refuses Reachability.undirected_reach [ disconnected_pair () ];
  assert_sound_random Reachability.undirected_reach [ disconnected_pair () ];
  assert_sound_exhaustive ~max_bits:1 Reachability.undirected_reach
    [
      (let g = Graph.union_disjoint (Builders.path 3) (Canonical.shifted (Builders.path 3) 5) in
       St.of_graph g ~s:0 ~t:7);
    ];
  check_int "1 bit" 1
    (proof_size Reachability.undirected_reach (List.hd st_instances_reachable))

let st_unreach () =
  assert_complete Reachability.undirected_unreach [ disconnected_pair () ];
  assert_refuses Reachability.undirected_unreach st_instances_reachable;
  assert_sound_random Reachability.undirected_unreach st_instances_reachable;
  assert_sound_exhaustive ~max_bits:1 Reachability.undirected_unreach
    [ St.of_graph (Builders.path 4) ~s:0 ~t:3 ]

let st_unreach_directed () =
  (* an arc-chain 0 -> 1 -> 2 and a lonely 3 -> 2 back-arc: t=3 is
     unreachable from s=0 although the underlying graph is connected *)
  let d = Digraph.of_arcs [ (0, 1); (1, 2); (3, 2) ] in
  let yes = St.of_digraph d ~s:0 ~t:3 in
  assert_complete Reachability.directed_unreach [ yes ];
  assert_sound_exhaustive ~max_bits:1 Reachability.directed_unreach
    [ St.of_digraph (Digraph.of_arcs [ (0, 1); (1, 2); (2, 3) ]) ~s:0 ~t:3 ];
  (* reachable: prover refuses *)
  assert_refuses Reachability.directed_unreach
    [ St.of_digraph (Digraph.of_arcs [ (0, 1); (1, 3) ]) ~s:0 ~t:3 ]

let st_reach_directed () =
  let chain = Digraph.of_arcs [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 2) ] in
  assert_complete Reachability.directed_reach_pointer
    [ St.of_digraph chain ~s:0 ~t:4 ];
  (* back-edges: path must follow arc directions *)
  let back = Digraph.of_arcs [ (1, 0); (2, 1); (3, 2) ] in
  assert_refuses Reachability.directed_reach_pointer [ St.of_digraph back ~s:0 ~t:3 ];
  assert_sound_random ~max_bits:6 Reachability.directed_reach_pointer
    [ St.of_digraph back ~s:0 ~t:3 ];
  (* the classic soundness trap: a disjoint pointer cycle must not fool
     the verifier (this is why pointers are mutual) *)
  let with_cycle =
    Digraph.of_arcs [ (0, 1); (5, 6); (6, 7); (7, 5); (8, 3) ]
  in
  assert_sound_random ~max_bits:8 Reachability.directed_reach_pointer
    [ St.of_digraph with_cycle ~s:0 ~t:3 ]

(* --- s-t connectivity = k: LCP(O(log k)) / planar LCP(O(1)) --- *)

let conn_instance g s t =
  let k = Flow.vertex_connectivity g ~s ~t in
  (Connectivity.instance g ~s ~t ~k, k)

let connectivity_general () =
  List.iter
    (fun (g, s, t) ->
      let inst, k = conn_instance g s t in
      if k >= 1 then begin
        assert_complete Connectivity.general [ inst ];
        (* wrong k must be refused and unprovable *)
        let wrong = Connectivity.instance g ~s ~t ~k:(k + 1) in
        assert_refuses Connectivity.general [ wrong ];
        assert_sound_random ~samples:150 ~max_bits:6 Connectivity.general [ wrong ];
        let wrong2 = Connectivity.instance g ~s ~t ~k:(max 1 (k - 1)) in
        if k > 1 then assert_sound_random ~samples:150 ~max_bits:6 Connectivity.general [ wrong2 ]
      end)
    [
      (Builders.grid 3 3, 0, 8);
      (Builders.grid 4 4, 0, 15);
      (Test_util.hypercube 3, 0, 7);
      (Builders.cycle 8, 0, 4);
      (Random_graphs.connected_gnp (st 6) 12 0.3, 0, 11);
    ]

let connectivity_planar () =
  List.iter
    (fun (g, s, t) ->
      let inst, k = conn_instance g s t in
      if k >= 1 then begin
        assert_complete Connectivity.planar [ inst ];
        let wrong = Connectivity.instance g ~s ~t ~k:(k + 1) in
        assert_sound_random ~samples:150 ~max_bits:6 Connectivity.planar [ wrong ]
      end)
    [ (Builders.grid 3 3, 0, 8); (Builders.grid 3 5, 0, 14); (Builders.cycle 9, 0, 4) ];
  (* constant proof size: the planar scheme's labels do not grow *)
  let size_at rows =
    let g = Builders.grid rows rows in
    let inst, _ = conn_instance g 0 ((rows * rows) - 1) in
    proof_size Connectivity.planar inst
  in
  check "planar size constant" true (size_at 5 <= 10 && size_at 3 <= 10)

(* --- chromatic number <= k: LCP(O(log k)) --- *)

let chromatic () =
  List.iter
    (fun (g, k) ->
      let inst = Chromatic.instance_with_k g k in
      assert_complete Chromatic.scheme [ inst ];
      (* k-1 colours must fail *)
      if k >= 2 then begin
        let tight = Chromatic.instance_with_k g (k - 1) in
        assert_refuses Chromatic.scheme [ tight ];
        assert_sound_random ~max_bits:4 Chromatic.scheme [ tight ]
      end)
    [
      (Builders.cycle 5, 3);
      (Builders.complete 5, 5);
      (Test_util.petersen, 3);
      (Builders.wheel 5, 4);
      (Builders.grid 3 4, 2);
    ];
  assert_sound_exhaustive ~max_bits:2 Chromatic.scheme
    [ Chromatic.instance_with_k (Builders.complete 4) 3 ]

(* --- LCL problems: LCP(0) --- *)

let lcl () =
  let g = Builders.cycle 6 in
  (* proper colouring as labels *)
  let good =
    Instance.with_node_labels (of_g g)
      (List.map (fun v -> (v, Bits.encode_int (v mod 2))) (Graph.nodes g))
  in
  check "lcl colouring accepted" true
    (Scheme.accepts Lcl.proper_colouring good Proof.empty);
  let bad =
    Instance.with_node_labels (of_g g)
      (List.map (fun v -> (v, Bits.encode_int 0)) (Graph.nodes g))
  in
  check "lcl colouring rejected" false
    (Scheme.accepts Lcl.proper_colouring bad Proof.empty);
  (* maximal independent set *)
  let mis =
    Instance.with_node_labels (of_g g)
      (List.map (fun v -> (v, Bits.one_bit (v mod 2 = 0))) (Graph.nodes g))
  in
  check "mis accepted" true
    (Scheme.accepts Lcl.maximal_independent_set mis Proof.empty);
  let not_maximal =
    Instance.with_node_labels (of_g g)
      (List.map (fun v -> (v, Bits.one_bit false)) (Graph.nodes g))
  in
  check "empty set not maximal" false
    (Scheme.accepts Lcl.maximal_independent_set not_maximal Proof.empty);
  (* agreement *)
  let agree =
    Instance.with_node_labels (of_g g)
      (List.map (fun v -> (v, Bits.of_string "1011")) (Graph.nodes g))
  in
  check "agreement accepted" true (Scheme.accepts Lcl.agreement agree Proof.empty)

(* An LCL prover certifies nothing, but it must still refuse an
   instance whose labelling breaks the constraint: a labelling that is
   not a solution is a no-instance, not a proof the verifier rejects. *)
let lcl_provers_refuse () =
  let c8 = Builders.cycle 8 in
  check "unlabelled C8 is no MIS" true
    (Lcl.maximal_independent_set.Scheme.prover (of_g c8) = None);
  let mono =
    Instance.with_node_labels (of_g c8)
      (List.map (fun v -> (v, Bits.encode_int 1)) (Graph.nodes c8))
  in
  check "monochrome C8 is no proper colouring" true
    (Lcl.proper_colouring.Scheme.prover mono = None);
  let two_coloured =
    Instance.with_node_labels (of_g c8)
      (List.map (fun v -> (v, Bits.encode_int (v mod 2))) (Graph.nodes c8))
  in
  let empty_proof what = function
    | Some p -> check_int (what ^ ": 0 bits") 0 (Proof.size p)
    | None -> Alcotest.failf "%s: yes-instance refused" what
  in
  empty_proof "2-coloured C8" (Lcl.proper_colouring.Scheme.prover two_coloured);
  match Registry.find "lcl-mis" with
  | Some { Registry.row = Some row; scheme; _ } ->
      List.iter
        (fun n ->
          empty_proof
            (Printf.sprintf "%s at n = %d" row.Registry.id n)
            (scheme.Scheme.prover (row.Registry.make n)))
        row.Registry.sizes
  | _ -> Alcotest.fail "lcl-mis has no Table 1 row"

(* --- matchings: LCP(0) and LCP(1) --- *)

let maximal_matching () =
  let g = Builders.grid 3 4 in
  let m = Matching.greedy_maximal g in
  assert_complete Matching_schemes.maximal [ Instance.flag_edges (of_g g) m ];
  (* an empty matching on a graph with edges is not maximal *)
  check "empty not maximal" false
    (Scheme.accepts Matching_schemes.maximal (Instance.flag_edges (of_g g) []) Proof.empty);
  (* two adjacent flagged edges are not a matching *)
  let bad = Instance.flag_edges (of_g (Builders.path 3)) [ (0, 1); (1, 2) ] in
  check "overlapping rejected" false
    (Scheme.accepts Matching_schemes.maximal bad Proof.empty)

let maximum_matching_bipartite () =
  List.iter
    (fun g ->
      let m = Matching.maximum_bipartite g in
      let inst = Instance.flag_edges (of_g g) m in
      assert_complete Matching_schemes.maximum_bipartite [ inst ];
      check_int "1 bit" 1 (proof_size Matching_schemes.maximum_bipartite inst))
    [
      Test_util.complete_bipartite 3 5;
      Builders.cycle 10;
      Builders.path 7;
      Random_graphs.bipartite (st 7) 5 6 0.5;
    ];
  (* a maximal-but-not-maximum matching must be refused and unprovable *)
  let g = Builders.path 4 in
  (* matching {1-2} is maximal but not maximum ({0-1, 2-3}) *)
  let submax = Instance.flag_edges (of_g g) [ (1, 2) ] in
  assert_refuses Matching_schemes.maximum_bipartite [ submax ];
  assert_sound_exhaustive ~max_bits:1 Matching_schemes.maximum_bipartite [ submax ]

let maximum_weight () =
  let g = Builders.cycle 8 in
  let weights (u, v) = ((u + v) mod 5) + 1 in
  let m = Weighted_matching.maximum_weight g weights in
  let inst = Matching_schemes.weighted_instance g weights m in
  assert_complete Matching_schemes.maximum_weight_bipartite [ inst ];
  (* a lighter matching is refused *)
  let m' = [ (0, 1) ] in
  let inst' = Matching_schemes.weighted_instance g weights m' in
  assert_refuses Matching_schemes.maximum_weight_bipartite [ inst' ];
  assert_sound_random ~samples:300 ~max_bits:5 Matching_schemes.maximum_weight_bipartite
    [ inst' ]

let qcheck_maximum_weight =
  QCheck.Test.make ~name:"weighted matching scheme: prove + verify random instances"
    ~count:40
    QCheck.(pair (pair (int_range 2 5) (int_range 2 5)) (int_bound 1_000_000))
    (fun ((a, b), seed) ->
      let rnd = Random.State.make [| seed |] in
      let g = Random_graphs.bipartite rnd a b 0.5 in
      let weights (u, v) = (u * 7 + v * 3) mod 6 in
      let m = Weighted_matching.maximum_weight g weights in
      let inst = Matching_schemes.weighted_instance g weights m in
      match Scheme.prove_and_check Matching_schemes.maximum_weight_bipartite inst with
      | `Accepted _ -> true
      | _ -> false)

(* --- even n on cycles: LCP(1) --- *)

let even_cycle () =
  assert_complete Counting.even_cycle
    [ of_g (Builders.cycle 6); of_g (Builders.cycle 12) ];
  assert_refuses Counting.even_cycle [ of_g (Builders.cycle 7) ];
  assert_sound_exhaustive ~max_bits:1 Counting.even_cycle [ of_g (Builders.cycle 5) ]

let suite =
  ( "schemes-constant",
    [
      Alcotest.test_case "T1a-1 eulerian" `Quick eulerian;
      Alcotest.test_case "T1a-2 line graphs" `Slow line_graphs;
      Alcotest.test_case "T1a-7 bipartite" `Quick bipartite;
      QCheck_alcotest.to_alcotest qcheck_bipartite;
      Alcotest.test_case "T1a-3 st-reachability" `Quick st_reach;
      Alcotest.test_case "T1a-4 st-unreachability" `Quick st_unreach;
      Alcotest.test_case "T1a-5 st-unreachability directed" `Quick st_unreach_directed;
      Alcotest.test_case "open: directed reachability pointer" `Quick st_reach_directed;
      Alcotest.test_case "T1a-9 connectivity general" `Slow connectivity_general;
      Alcotest.test_case "T1a-6 connectivity planar" `Slow connectivity_planar;
      Alcotest.test_case "T1a-10 chromatic <= k" `Quick chromatic;
      Alcotest.test_case "T1b-2 LCL problems" `Quick lcl;
      Alcotest.test_case "LCL provers refuse no-instances" `Quick
        lcl_provers_refuse;
      Alcotest.test_case "T1b-1 maximal matching" `Quick maximal_matching;
      Alcotest.test_case "T1b-3 maximum matching bipartite" `Quick maximum_matching_bipartite;
      Alcotest.test_case "T1b-4 maximum weight matching" `Quick maximum_weight;
      QCheck_alcotest.to_alcotest qcheck_maximum_weight;
      Alcotest.test_case "T1a-8 even n on cycles" `Quick even_cycle;
    ] )
