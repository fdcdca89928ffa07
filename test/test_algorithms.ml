let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let st seed = Random.State.make [| seed |]

let arb_graph =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Graph.pp g)
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let* p = float_range 0.1 0.7 in
      let* seed = int_bound 1_000_000 in
      return (Random_graphs.gnp (Random.State.make [| seed |]) n p))

let arb_bipartite =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Graph.pp g)
    QCheck.Gen.(
      let* a = int_range 1 7 in
      let* b = int_range 1 7 in
      let* p = float_range 0.2 0.8 in
      let* seed = int_bound 1_000_000 in
      return (Random_graphs.bipartite (Random.State.make [| seed |]) a b p))

(* --- bipartiteness --- *)

let bipartite_basic () =
  check "even cycle" true (Bipartite.is_bipartite (Builders.cycle 8));
  check "odd cycle" false (Bipartite.is_bipartite (Builders.cycle 7));
  check "tree" true (Bipartite.is_bipartite (Random_graphs.tree (st 1) 20));
  check "petersen" false (Bipartite.is_bipartite Test_util.petersen);
  check "K33" true (Bipartite.is_bipartite (Test_util.complete_bipartite 3 3))

(* The non-bipartite prover's witness: the nodes whose certificate
   carries a cycle position, in position order, with their successor
   pointers. *)
let odd_cycle_witness () =
  let witness proof =
    List.filter_map
      (fun (v, b) ->
        let cur = Bits.Reader.of_bits b in
        ignore (Tree_cert.read cur);
        if Bits.Reader.bool cur then
          let pos = Bits.Reader.int_gamma cur in
          Some (pos, (v, Bits.Reader.int_gamma cur))
        else None)
      (Proof.bindings proof)
    |> List.sort compare |> List.map snd
  in
  List.iter
    (fun g ->
      match Non_bipartite.scheme.Scheme.prover (Instance.of_graph g) with
      | None -> check "is bipartite" true (Bipartite.is_bipartite g)
      | Some proof ->
          let succ = witness proof in
          let cycle = List.map fst succ in
          check "successors close the cycle" true
            (List.map snd succ = List.tl cycle @ [ List.hd cycle ]);
          check "odd length" true (List.length cycle mod 2 = 1);
          check "at least 3" true (List.length cycle >= 3);
          (* distinct nodes, consecutive adjacency, closing edge *)
          check "distinct" true
            (List.length (List.sort_uniq Int.compare cycle) = List.length cycle);
          let arr = Array.of_list cycle in
          let n = Array.length arr in
          for i = 0 to n - 1 do
            check "edge" true (Graph.mem_edge g arr.(i) arr.((i + 1) mod n))
          done)
    [
      Builders.cycle 9;
      Builders.cycle 8;
      Test_util.petersen;
      Builders.wheel 5;
      Builders.complete 5;
      Random_graphs.connected_gnp (st 7) 15 0.3;
    ]

(* --- euler --- *)

let euler_basic () =
  check "cycle eulerian" true (Euler.is_eulerian (Builders.cycle 6));
  check "path not" false (Euler.is_eulerian (Builders.path 4));
  check "K5 eulerian" true (Euler.is_eulerian (Builders.complete 5));
  check "K4 not" false (Euler.is_eulerian (Builders.complete 4))

let euler_circuit () =
  List.iter
    (fun g ->
      match Euler.eulerian_circuit g with
      | None -> check "not eulerian" false (Euler.is_eulerian g)
      | Some walk ->
          check_int "walk length" (Graph.m g + 1) (List.length walk);
          let rec edges_ok = function
            | a :: (b :: _ as rest) -> Graph.mem_edge g a b && edges_ok rest
            | _ -> true
          in
          check "consecutive edges" true (edges_ok walk);
          check "closed" true (List.hd walk = List.nth walk (Graph.m g));
          (* every edge used exactly once *)
          let used = Hashtbl.create 16 in
          let rec record = function
            | a :: (b :: _ as rest) ->
                let k = (min a b, max a b) in
                check "edge unused" false (Hashtbl.mem used k);
                Hashtbl.replace used k ();
                record rest
            | _ -> ()
          in
          record walk;
          check_int "all edges" (Graph.m g) (Hashtbl.length used))
    [ Builders.cycle 5; Builders.complete 5; Random_graphs.regular_even (st 3) 9 2 ]

(* --- matching --- *)

let matching_basic () =
  let g = Builders.cycle 6 in
  let m = Matching.greedy_maximal g in
  check "valid" true (Matching.is_matching g m);
  check "maximal" true (Matching.is_maximal g m);
  check "not maximal" false (Matching.is_maximal g [ (0, 1) ])

let bipartite_maximum () =
  let g = Test_util.complete_bipartite 4 6 in
  check_int "K46 matching" 4 (List.length (Matching.maximum_bipartite g));
  let g = Builders.cycle 8 in
  check_int "C8 matching" 4 (List.length (Matching.maximum_bipartite g));
  let g = Builders.path 5 in
  check_int "P5 matching" 2 (List.length (Matching.maximum_bipartite g))

let koenig () =
  List.iter
    (fun g ->
      let m = Matching.maximum_bipartite g in
      let c = Matching.koenig_cover g m in
      check "cover valid" true (Matching.is_vertex_cover g c);
      check_int "König equality" (List.length m) (List.length c);
      (* each matched edge has exactly one endpoint in the cover *)
      List.iter
        (fun (u, v) ->
          check "exactly one covered" true
            (List.mem u c <> List.mem v c))
        m;
      (* every cover node is matched *)
      let matched = Matching.matched_nodes m in
      List.iter (fun v -> check "cover node matched" true (List.mem v matched)) c)
    [
      Test_util.complete_bipartite 3 5;
      Builders.cycle 10;
      Builders.path 7;
      Random_graphs.bipartite (st 5) 6 6 0.4;
      Random_graphs.bipartite (st 9) 7 3 0.6;
      Random_graphs.tree (st 11) 15;
    ]

let qcheck_koenig =
  QCheck.Test.make ~name:"König: |max matching| = |min cover| on bipartite"
    ~count:100 arb_bipartite (fun g ->
      let m = Matching.maximum_bipartite g in
      let c = Matching.koenig_cover g m in
      Matching.is_vertex_cover g c && List.length c = List.length m)

let cycle_matching () =
  let g = Builders.cycle 9 in
  let m = Matching.maximum_on_cycle g in
  check_int "C9" 4 (List.length m);
  check "maximum" true (Matching.is_maximum_on_cycle g m);
  let g = Builders.cycle 8 in
  check_int "C8" 4 (List.length (Matching.maximum_on_cycle g))

(* --- weighted matching --- *)

let weights_of_table tbl (u, v) =
  match List.assoc_opt (min u v, max u v) tbl with Some w -> w | None -> 0

let weighted_basic () =
  (* Square with one heavy diagonal pair of edges. *)
  let g = Builders.cycle 4 in
  let w = weights_of_table [ ((0, 1), 5); ((1, 2), 1); ((2, 3), 5); ((0, 3), 1) ] in
  let m = Weighted_matching.maximum_weight g w in
  check_int "weight" 10 (Weighted_matching.weight_of_matching w m);
  match Weighted_matching.dual_certificate g w m with
  | None -> Alcotest.fail "no dual certificate"
  | Some dual -> check "certificate valid" true (Weighted_matching.check_certificate g w m dual)

let weighted_rejects_suboptimal () =
  let g = Builders.cycle 4 in
  let w = weights_of_table [ ((0, 1), 5); ((1, 2), 1); ((2, 3), 5); ((0, 3), 1) ] in
  (* matching of weight 2 < 10: must yield no certificate *)
  check "no cert for bad matching" true
    (Weighted_matching.dual_certificate g w [ (1, 2); (0, 3) ] = None)

let brute_force_max_weight g w =
  (* all matchings by recursion over the edge list *)
  let edges = Graph.edges g in
  let rec go acc best = function
    | [] -> max best (Weighted_matching.weight_of_matching w acc)
    | (u, v) :: rest ->
        let best = go acc best rest in
        let used = Matching.matched_nodes acc in
        if List.mem u used || List.mem v used then best
        else go ((u, v) :: acc) best rest
  in
  go [] 0 edges

let qcheck_weighted =
  QCheck.Test.make
    ~name:"max-weight matching matches brute force; dual certifies it" ~count:60
    QCheck.(pair arb_bipartite (int_bound 1_000_000))
    (fun (g, seed) ->
      QCheck.assume (Graph.n g <= 10);
      let rnd = Random.State.make [| seed |] in
      let tbl =
        Graph.fold_edges (fun u v acc -> ((u, v), Random.State.int rnd 8) :: acc) g []
      in
      let w = weights_of_table tbl in
      let m = Weighted_matching.maximum_weight g w in
      let value = Weighted_matching.weight_of_matching w m in
      value = brute_force_max_weight g w
      &&
      match Weighted_matching.dual_certificate g w m with
      | None -> false
      | Some dual -> Weighted_matching.check_certificate g w m dual)

(* --- flow / Menger --- *)

let flow_basic () =
  let net =
    Flow.network ~nodes:[ 0; 1; 2; 3 ]
      ~arcs:[ (0, 1, 3); (0, 2, 2); (1, 3, 2); (2, 3, 3); (1, 2, 1) ]
  in
  let v, _ = Flow.max_flow net ~source:0 ~sink:3 in
  check_int "flow value" 5 v

let menger_grid () =
  let g = Builders.grid 3 3 in
  (* opposite corners of a 3x3 grid: connectivity 2 *)
  check_int "connectivity" 2 (Flow.vertex_connectivity g ~s:0 ~t:8);
  let paths = Flow.vertex_disjoint_paths g ~s:0 ~t:8 in
  check_int "paths" 2 (List.length paths);
  (* internal disjointness *)
  let internals = List.map (fun p -> List.tl (List.rev (List.tl (List.rev p)))) paths in
  let all = List.concat internals in
  check "disjoint" true (List.length all = List.length (List.sort_uniq Int.compare all));
  let sep = Flow.vertex_separator g ~s:0 ~t:8 in
  check_int "separator size" 2 (List.length sep);
  (* removing the separator disconnects *)
  let g' = List.fold_left Graph.remove_node g sep in
  check "separated" true (Traversal.distance g' 0 8 = None)

let menger_structure () =
  List.iter
    (fun (g, s, t) ->
      match Flow.menger_certificate g ~s ~t with
      | None -> check "disconnected" true (Traversal.distance g s t = None)
      | Some (paths, sep) ->
          check_int "Menger equality" (List.length paths) (List.length sep);
          List.iter
            (fun p ->
              check "path starts at s" true (List.hd p = s);
              check "path ends at t" true (List.nth p (List.length p - 1) = t);
              (* consecutive edges *)
              let rec ok = function
                | a :: (b :: _ as rest) -> Graph.mem_edge g a b && ok rest
                | _ -> true
              in
              check "real path" true (ok p);
              (* exactly one separator node per path *)
              check_int "crosses separator once" 1
                (List.length (List.filter (fun v -> List.mem v sep) p)))
            paths;
          (* chordless *)
          List.iter
            (fun p ->
              let arr = Array.of_list p in
              let n = Array.length arr in
              for i = 0 to n - 3 do
                for j = i + 2 to n - 1 do
                  if not (i = 0 && j = n - 1) then
                    check "chordless" false (Graph.mem_edge g arr.(i) arr.(j))
                done
              done)
            paths)
    [
      (Builders.grid 3 3, 0, 8);
      (Builders.grid 4 4, 0, 15);
      (Test_util.hypercube 3, 0, 7);
      (Builders.cycle 9, 0, 4);
      (Random_graphs.connected_gnp (st 21) 14 0.25, 0, 13);
    ]

let qcheck_menger =
  QCheck.Test.make ~name:"Menger: #disjoint paths = min separator" ~count:60
    QCheck.(pair arb_graph (int_bound 1_000_000))
    (fun (g, _) ->
      QCheck.assume (Graph.n g >= 2);
      let nodes = Graph.nodes g in
      let s = List.hd nodes and t = List.nth nodes (List.length nodes - 1) in
      QCheck.assume (s <> t && not (Graph.mem_edge g s t));
      let k = Flow.vertex_connectivity g ~s ~t in
      let paths = Flow.vertex_disjoint_paths g ~s ~t in
      let sep = Flow.vertex_separator g ~s ~t in
      List.length paths = k && List.length sep = k)

(* --- coloring --- *)

let coloring_basic () =
  check "C5 not 2col" false (Coloring.is_k_colourable (Builders.cycle 5) 2);
  check "C5 3col" true (Coloring.is_k_colourable (Builders.cycle 5) 3);
  check_int "chi C5" 3 (Coloring.chromatic_number (Builders.cycle 5));
  check_int "chi K5" 5 (Coloring.chromatic_number (Builders.complete 5));
  check_int "chi petersen" 3 (Coloring.chromatic_number Test_util.petersen);
  check_int "chi W5" 4 (Coloring.chromatic_number (Builders.wheel 5));
  check_int "chi W6" 3 (Coloring.chromatic_number (Builders.wheel 6));
  check_int "chi grid" 2 (Coloring.chromatic_number (Builders.grid 3 4));
  (* the search opens fresh colours in order: refuting K_11 with 10
     colours is about k^2 steps, not k! *)
  check "K11 not 10col" false
    (Coloring.is_k_colourable (Builders.complete 11) 10);
  match Coloring.k_colouring (Builders.complete 10) 10 with
  | Some c -> check "K10 10col" true (Coloring.is_proper (Builders.complete 10) c)
  | None -> Alcotest.fail "K10 has a 10-colouring"

let coloring_with_pre () =
  let g = Builders.path 3 in
  (match Coloring.k_colouring_with g 2 ~pre:[ (0, 0); (2, 0) ] with
  | Some c -> check "proper" true (Coloring.is_proper g c)
  | None -> Alcotest.fail "should extend");
  check "conflicting pre" true
    (Coloring.k_colouring_with g 2 ~pre:[ (0, 0); (1, 0) ] = None)

let qcheck_coloring =
  QCheck.Test.make ~name:"chromatic number colourings are proper and minimal"
    ~count:40 arb_graph (fun g ->
      QCheck.assume (not (Graph.is_empty g));
      let k = Coloring.chromatic_number g in
      (match Coloring.k_colouring g k with
      | Some c -> Coloring.is_proper g c
      | None -> false)
      && (k = 0 || k = 1 || not (Coloring.is_k_colourable g (k - 1))))

(* --- hamiltonian --- *)

let hamiltonian_basic () =
  (match Hamiltonian.hamiltonian_cycle (Builders.cycle 7) with
  | Some seq -> check "cycle is HC" true (Hamiltonian.is_hamiltonian_cycle (Builders.cycle 7) seq)
  | None -> Alcotest.fail "C7 has HC");
  check "petersen has no HC" true (Hamiltonian.hamiltonian_cycle Test_util.petersen = None);
  check "K5 has HC" true (Hamiltonian.hamiltonian_cycle (Builders.complete 5) <> None);
  check "tree has no HC" true
    (Hamiltonian.hamiltonian_cycle (Random_graphs.tree (st 2) 8) = None);
  (match Hamiltonian.hamiltonian_cycle (Test_util.hypercube 3) with
  | Some seq -> check "Q3 HC valid" true (Hamiltonian.is_hamiltonian_cycle (Test_util.hypercube 3) seq)
  | None -> Alcotest.fail "Q3 has HC")

let suite =
  ( "algorithms",
    [
      Alcotest.test_case "bipartite basics" `Quick bipartite_basic;
      Alcotest.test_case "odd cycle witness" `Quick odd_cycle_witness;
      Alcotest.test_case "euler basics" `Quick euler_basic;
      Alcotest.test_case "euler circuit" `Quick euler_circuit;
      Alcotest.test_case "matching basics" `Quick matching_basic;
      Alcotest.test_case "bipartite maximum matching" `Quick bipartite_maximum;
      Alcotest.test_case "König cover" `Quick koenig;
      QCheck_alcotest.to_alcotest qcheck_koenig;
      Alcotest.test_case "cycle matching" `Quick cycle_matching;
      Alcotest.test_case "weighted matching" `Quick weighted_basic;
      Alcotest.test_case "weighted rejects suboptimal" `Quick weighted_rejects_suboptimal;
      QCheck_alcotest.to_alcotest qcheck_weighted;
      Alcotest.test_case "flow basics" `Quick flow_basic;
      Alcotest.test_case "Menger on grid" `Quick menger_grid;
      Alcotest.test_case "Menger structure" `Quick menger_structure;
      QCheck_alcotest.to_alcotest qcheck_menger;
      Alcotest.test_case "coloring basics" `Quick coloring_basic;
      Alcotest.test_case "coloring with preassignment" `Quick coloring_with_pre;
      QCheck_alcotest.to_alcotest qcheck_coloring;
      Alcotest.test_case "hamiltonian basics" `Quick hamiltonian_basic;
    ] )
