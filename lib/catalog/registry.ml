(* The one list of schemes. Names are the stable public identifiers:
   they appear in `lcp schemes`, in `-s` arguments, in wire requests
   and in cache keys. Rows carry what bench/main.exe needs to
   reproduce Table 1; the yes/no generators feed the metatests. *)

type row = {
  id : string;
  what : string;
  family : string;
  paper : string;
  fits : Complexity.growth list;
  param : string;
  sizes : int list;
  smoke : int list;
  make : int -> Instance.t;
  prover_only : bool;
}

type entry = {
  name : string;
  doc : string;
  scheme : Scheme.t;
  yes : Random.State.t -> int -> Instance.t option;
  no : Random.State.t -> int -> Instance.t option;
  row : row option;
}

let none _ _ = None

let mk ?(yes = none) ?(no = none) ?row name doc scheme =
  { name; doc; scheme; yes; no; row }

let row ~id ~what ~family ~paper ~fits ?(param = "n") ?(smoke = [])
    ?(prover_only = false) sizes make =
  { id; what; family; paper; fits; param; sizes; smoke; make; prover_only }

(* --- instance makers ------------------------------------------------ *)

let st seed = Random.State.make [| seed |]
let of_g g = Instance.of_graph g
let even n = if n mod 2 = 0 then n else n + 1
let odd n = if n mod 2 = 1 then n else n + 1
let ns_log = [ 8; 16; 32; 64; 128; 256 ]
let ns_small = [ 8; 16; 32; 64 ]

(* Disjoint union of two cycles, for disconnection-style instances. *)
let two_cycles n =
  let half = max 3 (n / 2) in
  Graph.union_disjoint (Builders.cycle half)
    (Canonical.shifted (Builders.cycle half) (2 * half))

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

(* Two copies of a random k-node tree joined at their first nodes. *)
let doubled_tree st k =
  let t = Random_graphs.tree st k in
  let t' = Canonical.shifted t k in
  Graph.add_edge (Graph.union_disjoint t t') (List.hd (Graph.nodes t))
    (List.hd (Graph.nodes t'))

let st_gnp st n =
  let g = Random_graphs.connected_gnp st (max 4 n) 0.3 in
  St.of_graph g ~s:(List.hd (Graph.nodes g)) ~t:(Graph.max_id g)

let st_split n =
  let g = two_cycles (max 6 n) in
  St.of_graph g ~s:0 ~t:(Graph.max_id g)

(* --- the list ------------------------------------------------------- *)

let quadratic = Complexity.[ Quadratic; Quadratic_over_log ]

let all =
  [
    mk "eulerian" "Eulerian graph, LCP(0)" Eulerian.scheme
      ~yes:(fun _ n -> Some (of_g (Builders.cycle (max 3 n))))
      ~no:(fun _ n -> Some (of_g (Builders.path (max 2 n))))
      ~row:
        (row ~id:"T1a-1" ~what:"Eulerian graph" ~family:"connected" ~paper:"0"
           ~fits:[ Complexity.Zero ] ~smoke:[ 128; 256; 512 ] ns_log (fun n ->
             of_g (Builders.cycle n)));
    mk "line-graph" "line graph, LCP(0)" Line_graph_scheme.scheme
      ~yes:(fun st n ->
        Some (of_g (Line_graph.of_root_graph (Random_graphs.tree st (max 2 (n / 2))))))
      ~no:(fun _ n -> Some (of_g (Builders.star (max 3 n))))
      ~row:
        (row ~id:"T1a-2" ~what:"line graph" ~family:"general" ~paper:"0"
           ~fits:[ Complexity.Zero ] [ 8; 16; 32; 64 ] (fun n ->
             of_g (Line_graph.of_root_graph (Builders.path (n + 1)))));
    mk "st-reach" "s-t reachability (undirected; needs s/t), LCP(1)"
      Reachability.undirected_reach
      ~yes:(fun st n -> Some (st_gnp st n))
      ~no:(fun _ n -> Some (st_split n))
      ~row:
        (row ~id:"T1a-3" ~what:"s-t reachability" ~family:"undirected"
           ~paper:"Θ(1)" ~fits:[ Complexity.Constant ]
           ~smoke:[ 512; 1024; 2048; 4096 ] ns_log (fun n ->
             St.of_graph (Builders.cycle n) ~s:0 ~t:(n / 2)));
    mk "st-unreach" "s-t unreachability (undirected)"
      Reachability.undirected_unreach
      ~yes:(fun _ n -> Some (st_split n))
      ~no:(fun st n -> Some (st_gnp st n))
      ~row:
        (row ~id:"T1a-4" ~what:"s-t unreachability" ~family:"undirected"
           ~paper:"Θ(1)" ~fits:[ Complexity.Constant ] ns_log (fun n ->
             let g = two_cycles n in
             St.of_graph g ~s:0 ~t:(Graph.max_id g)));
    mk "st-unreach-dir" "s-t unreachability (directed; use arc)"
      Reachability.directed_unreach
      ~row:
        (row ~id:"T1a-5" ~what:"s-t unreachability" ~family:"directed"
           ~paper:"Θ(1)" ~fits:[ Complexity.Constant ] ns_log (fun n ->
             (* a directed path plus a reversed tail: t unreachable *)
             let fwd = List.init (n / 2) (fun i -> (i, i + 1)) in
             let bwd = List.init (n / 2) (fun i -> (n - i, n - i - 1)) in
             St.of_digraph (Digraph.of_arcs (fwd @ bwd)) ~s:0 ~t:n));
    mk "st-reach-dir" "directed s-t reachability, O(log Δ) pointers"
      Reachability.directed_reach_pointer;
    mk "connectivity-planar" "planar s-t connectivity = k, O(1)"
      Connectivity.planar
      ~row:
        (row ~id:"T1a-6" ~what:"s-t connectivity = k" ~family:"planar"
           ~paper:"Θ(1)" ~fits:[ Complexity.Constant ] [ 3; 4; 5; 6; 8 ]
           (fun rows ->
             let g = Builders.grid rows rows in
             Connectivity.instance g ~s:0 ~t:((rows * rows) - 1) ~k:2));
    mk "bipartite" "bipartite graph, LCP(1)" Bipartite_scheme.scheme
      ~yes:(fun _ n -> Some (of_g (Builders.cycle (even (max 4 n)))))
      ~no:(fun _ n -> Some (of_g (Builders.cycle (odd (max 5 n)))))
      ~row:
        (row ~id:"T1a-7" ~what:"bipartite graph" ~family:"general" ~paper:"Θ(1)"
           ~fits:[ Complexity.Constant ] ~smoke:[ 128; 256; 512 ] ns_log (fun n ->
             of_g (Builders.cycle (even n))));
    mk "even-cycle" "even cycle, LCP(1)" Counting.even_cycle
      ~yes:(fun _ n -> Some (of_g (Builders.cycle (even (max 4 n)))))
      ~no:(fun _ n -> Some (of_g (Builders.cycle (odd (max 5 n)))))
      ~row:
        (row ~id:"T1a-8" ~what:"even n(G)" ~family:"cycles" ~paper:"Θ(1)"
           ~fits:[ Complexity.Constant ] ns_log (fun n ->
             of_g (Builders.cycle (even n))));
    mk "connectivity" "s-t connectivity = k (needs s/t and k)"
      Connectivity.general
      ~row:
        (row ~id:"T1a-9" ~what:"s-t connectivity = k" ~family:"general"
           ~paper:"O(log k)" ~fits:Complexity.[ Logarithmic; Constant ]
           ~param:"k" [ 2; 4; 8; 16; 32; 64 ] (fun k ->
             let g, s, t = theta_graph k in
             Connectivity.instance g ~s ~t ~k));
    mk "chromatic" "chromatic number <= k (needs k)" Chromatic.scheme
      ~yes:(fun _ n ->
        let k = max 2 (n / 4) in
        Some (Chromatic.instance_with_k (Builders.complete k) k))
      ~no:(fun _ n ->
        let k = max 2 (n / 4) in
        Some (Chromatic.instance_with_k (Builders.complete (k + 1)) k))
      ~row:
        (row ~id:"T1a-10" ~what:"chromatic number <= k" ~family:"general"
           ~paper:"O(log k)" ~fits:[ Complexity.Logarithmic ] ~param:"k"
           [ 2; 4; 8; 16; 32 ] (fun k ->
             Chromatic.instance_with_k (Builders.complete k) k));
    mk "non-eulerian" "coLCP(0): non-Eulerian, LogLCP" Colcp0.non_eulerian
      ~yes:(fun _ n -> Some (of_g (Builders.star (max 3 n))))
      ~no:(fun _ n -> Some (of_g (Builders.cycle (max 3 n))))
      ~row:
        (row ~id:"T1a-11" ~what:"coLCP(0): non-Eulerian" ~family:"connected"
           ~paper:"O(log n)" ~fits:[ Complexity.Logarithmic ] ns_log (fun n ->
             of_g (Builders.star (n - 1))));
    mk "sigma11-triangle" "Σ¹₁: has a triangle"
      (Sigma11.scheme Sentences.has_triangle)
      ~row:
        (row ~id:"T1a-12" ~what:"monadic Σ¹₁: has-triangle" ~family:"connected"
           ~paper:"O(log n)" ~fits:[ Complexity.Logarithmic ] [ 8; 16; 32; 64 ]
           (fun n -> of_g (Builders.wheel (n - 1))));
    mk "sigma11-2col" "Σ¹₁: 2-colourable" (Sigma11.scheme Sentences.two_colourable)
      ~yes:(fun _ n -> Some (of_g (Builders.cycle (even (max 4 (min n 10))))))
      ~no:(fun _ n -> Some (of_g (Builders.cycle (odd (max 5 (min n 9))))));
    mk "odd-n" "odd number of nodes, LogLCP" Counting.odd_n
      ~yes:(fun st n -> Some (of_g (Random_graphs.connected_gnp st (odd (max 5 n)) 0.3)))
      ~no:(fun st n -> Some (of_g (Random_graphs.connected_gnp st (even (max 4 n)) 0.3)))
      ~row:
        (row ~id:"T1a-13" ~what:"odd n(G)" ~family:"cycles" ~paper:"Θ(log n)"
           ~fits:[ Complexity.Logarithmic ] ~smoke:[ 129; 257; 513 ] ns_log
           (fun n -> of_g (Builders.cycle (odd n))));
    mk "even-n" "even number of nodes, LogLCP" Counting.even_n
      ~yes:(fun _ n -> Some (of_g (Builders.cycle (even (max 4 n)))))
      ~no:(fun _ n -> Some (of_g (Builders.cycle (odd (max 5 n)))));
    mk "non-bipartite" "chromatic number > 2, LogLCP" Non_bipartite.scheme
      ~yes:(fun _ n -> Some (of_g (Builders.cycle (odd (max 5 n)))))
      ~no:(fun _ n -> Some (of_g (Builders.cycle (even (max 4 n)))))
      ~row:
        (row ~id:"T1a-14" ~what:"chromatic number > 2" ~family:"connected"
           ~paper:"Θ(log n)" ~fits:[ Complexity.Logarithmic ] ns_log (fun n ->
             of_g (Builders.cycle (odd n))));
    mk "tree-ffsym" "fixpoint-free tree symmetry, Θ(n)"
      Tree_universal.fixpoint_free_symmetry
      ~yes:(fun st n -> Some (of_g (doubled_tree st (max 2 (n / 2)))))
      ~no:(fun _ n -> Some (of_g (Builders.star (max 3 n))))
      ~row:
        (row ~id:"T1a-15" ~what:"fixpoint-free symmetry" ~family:"trees"
           ~paper:"Θ(n)" ~fits:[ Complexity.Linear ] ns_log (fun n ->
             of_g (doubled_tree (st (100 + n)) (n / 2))));
    mk "symmetric" "symmetric graph, Θ(n²)" Universal.symmetric
      ~yes:(fun _ n -> Some (of_g (Builders.cycle (max 3 n))))
      ~no:(fun st n ->
        match
          Enumerate.sample_asymmetric_connected st ~n:(max 6 (min n 8)) ~count:1
            ~attempts:2000
        with
        | g :: _ -> Some (of_g g)
        | [] -> None)
      ~row:
        (row ~id:"T1a-16" ~what:"symmetric graph" ~family:"connected"
           ~paper:"Θ(n²)" ~fits:quadratic ~prover_only:true ns_small (fun n ->
             of_g (Builders.cycle n)));
    mk "non-3-colourable" "chromatic number > 3, O(n²)"
      Universal.non_3_colourable
      ~yes:(fun _ n -> Some (of_g (Builders.wheel (odd (max 5 (n - 1))))))
      ~no:(fun _ n -> Some (of_g (Builders.cycle (odd (max 5 n)))))
      ~row:
        (row ~id:"T1a-17" ~what:"chromatic number > 3" ~family:"connected"
           ~paper:"Ω(n²/log n)..O(n²)" ~fits:quadratic ~prover_only:true ns_small
           (fun n -> of_g (Builders.wheel (odd (n - 1)))));
    mk "connected-universal" "connectivity, universal scheme, O(n²)"
      (Universal.of_predicate ~name:"connected-universal" Traversal.is_connected)
      ~row:
        (row ~id:"T1a-18" ~what:"computable property" ~family:"connected"
           ~paper:"O(n²)" ~fits:quadratic ~prover_only:true ns_small (fun n ->
             of_g (Random_graphs.connected_gnp (st n) n 0.2)));
    mk "maximal-matching" "maximal matching (flag edges), LCP(0)"
      Matching_schemes.maximal
      ~yes:(fun st n ->
        let g = Random_graphs.connected_gnp st (max 4 n) 0.3 in
        Some (Instance.flag_edges (of_g g) (Matching.greedy_maximal g)))
      ~no:(fun _ n ->
        (* the empty matching on a graph with at least one edge *)
        Some (Instance.flag_edges (of_g (Builders.cycle (max 3 n))) []))
      ~row:
        (row ~id:"T1b-1" ~what:"maximal matching" ~family:"general" ~paper:"0"
           ~fits:[ Complexity.Zero ] ns_log (fun n ->
             let g = Builders.cycle n in
             Instance.flag_edges (of_g g) (Matching.greedy_maximal g)));
    mk "lcl-mis" "LCL: maximal independent set (label bit 1), LCP(0)"
      Lcl.maximal_independent_set
      ~row:
        (row ~id:"T1b-2" ~what:"LCL: maximal independent set" ~family:"general"
           ~paper:"0" ~fits:[ Complexity.Zero ] ns_log (fun n ->
             let g = Builders.cycle (even n) in
             Instance.with_node_labels (of_g g)
               (List.map (fun v -> (v, Bits.one_bit (v mod 2 = 0))) (Graph.nodes g))));
    mk "max-matching" "maximum matching, bipartite (flag edges)"
      Matching_schemes.maximum_bipartite
      ~yes:(fun st n ->
        let g = Random_graphs.bipartite st (max 2 (n / 2)) (max 2 (n / 2)) 0.5 in
        Some (Instance.flag_edges (of_g g) (Matching.maximum_bipartite g)))
      ~no:(fun _ _ ->
        (* maximal-but-not-maximum on a path *)
        Some (Instance.flag_edges (of_g (Builders.path 4)) [ (1, 2) ]))
      ~row:
        (row ~id:"T1b-3" ~what:"maximum matching" ~family:"bipartite"
           ~paper:"Θ(1)" ~fits:[ Complexity.Constant ] ns_log (fun n ->
             let g = Builders.cycle (even n) in
             Instance.flag_edges (of_g g) (Matching.maximum_bipartite g)));
    mk "maxw-matching" "max-weight matching (weight + flag edges)"
      Matching_schemes.maximum_weight_bipartite
      ~yes:(fun st n ->
        let g = Random_graphs.bipartite st (max 2 (n / 2)) (max 2 (n / 2)) 0.5 in
        let w (u, v) = ((u * 5) + (v * 3)) mod 7 in
        Some
          (Matching_schemes.weighted_instance g w (Weighted_matching.maximum_weight g w)))
      ~no:(fun _ _ ->
        let g = Builders.cycle 4 in
        let w (u, v) = if (u, v) = (0, 1) || (u, v) = (2, 3) then 5 else 1 in
        Some (Matching_schemes.weighted_instance g w [ (1, 2) ]))
      ~row:
        (row ~id:"T1b-4" ~what:"max-weight matching" ~family:"bipartite"
           ~paper:"O(log W)" ~fits:[ Complexity.Logarithmic ] ~param:"W"
           [ 2; 4; 16; 64; 256; 1024 ] (fun w_max ->
             (* fixed topology, growing weight range *)
             let g = Builders.cycle 16 in
             let weights (u, v) = 1 + (((u * 13) + (v * 7)) mod w_max) in
             Matching_schemes.weighted_instance g weights
               (Weighted_matching.maximum_weight g weights)));
    mk "leader" "leader election (needs leader mark)" Leader_election.strong
      ~yes:(fun st n ->
        let g = Random_graphs.connected_gnp st (max 3 n) 0.3 in
        Some (Leader_election.mark_leader (of_g g) (Graph.max_id g)))
      ~no:(fun st n ->
        let g = Random_graphs.connected_gnp st (max 3 n) 0.3 in
        (* nobody marked *)
        Some
          (Instance.with_node_labels (of_g g)
             (List.map (fun v -> (v, Bits.one_bit false)) (Graph.nodes g))))
      ~row:
        (row ~id:"T1b-5" ~what:"leader election" ~family:"connected"
           ~paper:"Θ(log n)" ~fits:[ Complexity.Logarithmic ]
           ~smoke:[ 128; 256; 512 ] ns_log (fun n ->
             Leader_election.mark_leader (of_g (Builders.cycle n)) 0));
    mk "leader-weak" "leader election, weak flavour" Leader_election.weak;
    mk "spanning-tree" "spanning tree (flag the tree edges)"
      Spanning_tree_scheme.scheme
      ~yes:(fun st n ->
        Some (spanning_tree_inst (Random_graphs.connected_gnp st (max 3 n) 0.25)))
      ~no:(fun _ n ->
        let g = Builders.cycle (max 4 n) in
        Some (Instance.flag_edges (of_g g) (Graph.edges g)))
      ~row:
        (row ~id:"T1b-6" ~what:"spanning tree" ~family:"connected"
           ~paper:"Θ(log n)" ~fits:[ Complexity.Logarithmic ]
           ~smoke:[ 32; 64; 128 ] [ 8; 16; 32; 64; 128 ] (fun n ->
             spanning_tree_inst (Random_graphs.connected_gnp (st n) n 0.1)));
    mk "cycle-matching" "maximum matching on cycles (flag edges)"
      Matching_schemes.maximum_on_cycle
      ~yes:(fun _ n ->
        let g = Builders.cycle (odd (max 5 n)) in
        Some (Instance.flag_edges (of_g g) (Matching.maximum_on_cycle g)))
      ~no:(fun _ n ->
        let g = Builders.cycle (max 8 (even n)) in
        Some (Instance.flag_edges (of_g g) [ (1, 2) ]))
      ~row:
        (row ~id:"T1b-7" ~what:"maximum matching" ~family:"cycles"
           ~paper:"Θ(log n)" ~fits:[ Complexity.Logarithmic ] ns_log (fun n ->
             let g = Builders.cycle (odd n) in
             Instance.flag_edges (of_g g) (Matching.maximum_on_cycle g)));
    mk "hamiltonian" "Hamiltonian cycle (flag the cycle edges)"
      Hamiltonian_scheme.scheme
      ~yes:(fun _ n ->
        let g = Builders.cycle (max 3 n) in
        Some (Instance.flag_edges (of_g g) (Graph.edges g)))
      ~no:(fun _ _ ->
        let k6 = Builders.complete 6 in
        Some
          (Instance.flag_edges (of_g k6)
             [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5) ]))
      ~row:
        (row ~id:"T1b-8" ~what:"Hamiltonian cycle" ~family:"connected"
           ~paper:"Θ(log n)" ~fits:[ Complexity.Logarithmic ] ns_log (fun n ->
             let g = Builders.cycle n in
             Instance.flag_edges (of_g g) (Graph.edges g)));
    mk "acyclic" "acyclicity, LogLCP" Acyclic.scheme
      ~yes:(fun st n -> Some (of_g (Random_graphs.tree st (max 2 n))))
      ~no:(fun _ n -> Some (of_g (Builders.cycle (max 3 n))))
      ~row:
        (row ~id:"T1b-9" ~what:"acyclicity" ~family:"general" ~paper:"O(log n)"
           ~fits:[ Complexity.Logarithmic ] ns_log (fun n ->
             of_g (Random_graphs.tree (st n) n)));
  ]

(* A hash table, not a list scan: the daemon resolves a name on every
   request. *)
let by_name =
  let t = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace t e.name e) all;
  t

let find name = Hashtbl.find_opt by_name name
