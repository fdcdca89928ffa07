type entry = {
  id : string;
  scheme : Scheme.t;
  paper_class : string;
  yes : Random.State.t -> int -> Instance.t option;
  no : Random.State.t -> int -> Instance.t option;
}

let of_g g = Instance.of_graph g
let even n = if n mod 2 = 0 then max 4 n else n + 1
let odd n = if n mod 2 = 1 then max 5 n else n + 1

(* Disjoint union of two cycles, for disconnection-style no-instances. *)
let two_cycles n =
  let half = max 3 (n / 2) in
  Graph.union_disjoint (Builders.cycle half)
    (Canonical.shifted (Builders.cycle half) (2 * half))

let all =
  [
    {
      id = "T1a-1";
      scheme = Eulerian.scheme;
      paper_class = "0";
      yes = (fun _ n -> Some (of_g (Builders.cycle (max 3 n))));
      no = (fun _ n -> Some (of_g (Builders.path (max 2 n))));
    };
    {
      id = "T1a-2";
      scheme = Line_graph_scheme.scheme;
      paper_class = "0";
      yes =
        (fun st n ->
          Some (of_g (Line_graph.of_root_graph (Random_graphs.tree st (max 2 (n / 2))))));
      no = (fun _ n -> Some (of_g (Builders.star (max 3 n))));
    };
    {
      id = "T1a-3";
      scheme = Reachability.undirected_reach;
      paper_class = "Θ(1)";
      yes =
        (fun st n ->
          let g = Random_graphs.connected_gnp st (max 4 n) 0.3 in
          Some (St.of_graph g ~s:(List.hd (Graph.nodes g)) ~t:(Graph.max_id g)));
      no =
        (fun _ n ->
          let g = two_cycles (max 6 n) in
          Some (St.of_graph g ~s:0 ~t:(Graph.max_id g)));
    };
    {
      id = "T1a-4";
      scheme = Reachability.undirected_unreach;
      paper_class = "Θ(1)";
      yes =
        (fun _ n ->
          let g = two_cycles (max 6 n) in
          Some (St.of_graph g ~s:0 ~t:(Graph.max_id g)));
      no =
        (fun st n ->
          let g = Random_graphs.connected_gnp st (max 4 n) 0.3 in
          Some (St.of_graph g ~s:(List.hd (Graph.nodes g)) ~t:(Graph.max_id g)));
    };
    {
      id = "T1a-7";
      scheme = Bipartite_scheme.scheme;
      paper_class = "Θ(1)";
      yes = (fun _ n -> Some (of_g (Builders.cycle (even n))));
      no = (fun _ n -> Some (of_g (Builders.cycle (odd n))));
    };
    {
      id = "T1a-8";
      scheme = Counting.even_cycle;
      paper_class = "Θ(1)";
      yes = (fun _ n -> Some (of_g (Builders.cycle (even n))));
      no = (fun _ n -> Some (of_g (Builders.cycle (odd n))));
    };
    {
      id = "T1a-10";
      scheme = Chromatic.scheme;
      paper_class = "O(log k)";
      yes = (fun _ n -> let k = max 2 (n / 4) in Some (Chromatic.instance_with_k (Builders.complete k) k));
      no =
        (fun _ n ->
          let k = max 2 (n / 4) in
          Some (Chromatic.instance_with_k (Builders.complete (k + 1)) k));
    };
    {
      id = "T1a-11";
      scheme = Colcp0.non_eulerian;
      paper_class = "O(log n)";
      yes = (fun _ n -> Some (of_g (Builders.star (max 3 n))));
      no = (fun _ n -> Some (of_g (Builders.cycle (max 3 n))));
    };
    {
      id = "T1a-13";
      scheme = Counting.odd_n;
      paper_class = "Θ(log n)";
      yes = (fun st n -> Some (of_g (Random_graphs.connected_gnp st (odd n) 0.3)));
      no = (fun st n -> Some (of_g (Random_graphs.connected_gnp st (even n) 0.3)));
    };
    {
      id = "T1a-14";
      scheme = Non_bipartite.scheme;
      paper_class = "Θ(log n)";
      yes = (fun _ n -> Some (of_g (Builders.cycle (odd n))));
      no = (fun _ n -> Some (of_g (Builders.cycle (even n))));
    };
    {
      id = "T1a-15";
      scheme = Tree_universal.fixpoint_free_symmetry;
      paper_class = "Θ(n)";
      yes =
        (fun st n ->
          let k = max 2 (n / 2) in
          let t = Random_graphs.tree st k in
          let t' = Canonical.shifted t k in
          Some
            (of_g
               (Graph.add_edge (Graph.union_disjoint t t')
                  (List.hd (Graph.nodes t))
                  (List.hd (Graph.nodes t')))));
      no = (fun _ n -> Some (of_g (Builders.star (max 3 n))));
    };
    {
      id = "T1a-16";
      scheme = Universal.symmetric;
      paper_class = "Θ(n²)";
      yes = (fun _ n -> Some (of_g (Builders.cycle (max 3 n))));
      no =
        (fun st n ->
          let sample =
            Enumerate.sample_asymmetric_connected st ~n:(max 6 (min n 8)) ~count:1
              ~attempts:2000
          in
          match sample with g :: _ -> Some (of_g g) | [] -> None);
    };
    {
      id = "T1a-17";
      scheme = Universal.non_3_colourable;
      paper_class = "Ω(n²/log n)‥O(n²)";
      yes = (fun _ n -> Some (of_g (Builders.wheel (odd (max 5 (n - 1))))));
      no = (fun _ n -> Some (of_g (Builders.cycle (odd n))));
    };
    {
      id = "T1b-1";
      scheme = Matching_schemes.maximal;
      paper_class = "0";
      yes =
        (fun st n ->
          let g = Random_graphs.connected_gnp st (max 4 n) 0.3 in
          Some (Instance.flag_edges (of_g g) (Matching.greedy_maximal g)));
      no =
        (fun _ n ->
          (* the empty matching on a graph with at least one edge *)
          Some (Instance.flag_edges (of_g (Builders.cycle (max 3 n))) []));
    };
    {
      id = "T1b-3";
      scheme = Matching_schemes.maximum_bipartite;
      paper_class = "Θ(1)";
      yes =
        (fun st n ->
          let g = Random_graphs.bipartite st (max 2 (n / 2)) (max 2 (n / 2)) 0.5 in
          Some (Instance.flag_edges (of_g g) (Matching.maximum_bipartite g)));
      no =
        (fun _ _ ->
          (* maximal-but-not-maximum on a path *)
          Some (Instance.flag_edges (of_g (Builders.path 4)) [ (1, 2) ]));
    };
    {
      id = "T1b-4";
      scheme = Matching_schemes.maximum_weight_bipartite;
      paper_class = "O(log W)";
      yes =
        (fun st n ->
          let g = Random_graphs.bipartite st (max 2 (n / 2)) (max 2 (n / 2)) 0.5 in
          let w (u, v) = ((u * 5) + (v * 3)) mod 7 in
          Some
            (Matching_schemes.weighted_instance g w
               (Weighted_matching.maximum_weight g w)));
      no =
        (fun _ _ ->
          let g = Builders.cycle 4 in
          let w (u, v) = if (u, v) = (0, 1) || (u, v) = (2, 3) then 5 else 1 in
          Some (Matching_schemes.weighted_instance g w [ (1, 2) ]));
    };
    {
      id = "T1b-5";
      scheme = Leader_election.strong;
      paper_class = "Θ(log n)";
      yes =
        (fun st n ->
          let g = Random_graphs.connected_gnp st (max 3 n) 0.3 in
          Some (Leader_election.mark_leader (of_g g) (Graph.max_id g)));
      no =
        (fun st n ->
          let g = Random_graphs.connected_gnp st (max 3 n) 0.3 in
          (* nobody marked *)
          Some
            (Instance.with_node_labels (of_g g)
               (List.map (fun v -> (v, Bits.one_bit false)) (Graph.nodes g))));
    };
    {
      id = "T1b-6";
      scheme = Spanning_tree_scheme.scheme;
      paper_class = "Θ(log n)";
      yes =
        (fun st n ->
          let g = Random_graphs.connected_gnp st (max 3 n) 0.25 in
          let pairs = Traversal.spanning_tree g (List.hd (Graph.nodes g)) in
          Some
            (Instance.flag_edges (of_g g)
               (List.map (fun (v, p) -> (min v p, max v p)) pairs)));
      no =
        (fun _ n ->
          let g = Builders.cycle (max 4 n) in
          Some (Instance.flag_edges (of_g g) (Graph.edges g)));
    };
    {
      id = "T1b-7";
      scheme = Matching_schemes.maximum_on_cycle;
      paper_class = "Θ(log n)";
      yes =
        (fun _ n ->
          let g = Builders.cycle (odd n) in
          Some (Instance.flag_edges (of_g g) (Matching.maximum_on_cycle g)));
      no =
        (fun _ n ->
          let g = Builders.cycle (max 8 (even n)) in
          Some (Instance.flag_edges (of_g g) [ (1, 2) ]));
    };
    {
      id = "T1b-8";
      scheme = Hamiltonian_scheme.scheme;
      paper_class = "Θ(log n)";
      yes =
        (fun _ n ->
          let g = Builders.cycle (max 3 n) in
          Some (Instance.flag_edges (of_g g) (Graph.edges g)));
      no =
        (fun _ _ ->
          let k6 = Builders.complete 6 in
          Some
            (Instance.flag_edges (of_g k6)
               [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5) ]));
    };
    {
      id = "T1b-9";
      scheme = Acyclic.scheme;
      paper_class = "O(log n)";
      yes = (fun st n -> Some (of_g (Random_graphs.tree st (max 2 n))));
      no = (fun _ n -> Some (of_g (Builders.cycle (max 3 n))));
    };
    {
      id = "T1a-12";
      scheme = Sigma11.scheme Sentences.two_colourable;
      paper_class = "O(log n)";
      yes = (fun _ n -> Some (of_g (Builders.cycle (even (min n 10)))));
      no = (fun _ n -> Some (of_g (Builders.cycle (odd (min n 9)))));
    };
  ]
