(** Sections 6.1 and 6.2 — counting lower bounds for symmetric graphs
    (Ω(n²)) and fixpoint-free tree symmetry (Ω(n) on trees).

    The construction G₁ ⊙ G₂ joins canonical copies of G₁ and G₂ by a
    k-node path: C(G₁, k) on identifiers {k+1..2k}, C(G₂, 2k) on
    {2k+1..3k}, and the path (k+1, 1, 2, …, k, 2k+1). For asymmetric
    G₁, G₂: G₁ ⊙ G₂ is symmetric iff G₁ ≅ G₂ (for trees with k even:
    has a fixpoint-free symmetry iff G₁ = G₂).

    The attack: for every G ∈ F_k, prove G ⊙ G with the scheme under
    test; compare the proof bits on the window U = {1, …, 2r+1}. If two
    distinct G₁, G₂ agree on U (guaranteed once |F_k| exceeds the
    number of distinct windows — the paper's counting argument),
    splice the proofs into G₁ ⊙ G₂ and run the verifier: an accepted
    asymmetric graph. Honest Θ(n²)-bit (resp. Θ(n)-bit) schemes never
    collide on the experiment sizes; the claim schemes of [Truncated]
    collide immediately. *)

let odot g1 g2 =
  let k = Graph.n g1 in
  if Graph.n g2 <> k then invalid_arg "Symmetry_lb.odot: sizes differ";
  if k < 2 then invalid_arg "Symmetry_lb.odot: need k >= 2";
  let c1 = Canonical.shifted (Canonical.canonical_form g1) k in
  let c2 = Canonical.shifted (Canonical.canonical_form g2) (2 * k) in
  let path_nodes = List.init k (fun i -> i + 1) in
  let path_edges =
    ((k + 1, 1) :: List.init (k - 1) (fun i -> (i + 1, i + 2)))
    @ [ (k, (2 * k) + 1) ]
  in
  let g =
    List.fold_left Graph.add_node (Graph.union_disjoint c1 c2) path_nodes
  in
  List.fold_left (fun g (u, v) -> Graph.add_edge g u v) g path_edges

(** Root-respecting variant for Section 6.2: copies are attached at
    their {e roots}, and isomorphic rooted trees get identical copies
    (nodes renumbered along the canonical traversal). For k even,
    t₁ ⊙ t₂ has a fixpoint-free symmetry iff t₁ ≅ t₂ as rooted trees:
    a fixpoint-free automorphism of a tree must invert an edge, size
    balance puts that edge at the middle of the joining path, and the
    swap witnesses the rooted isomorphism. *)
let odot_rooted (t1 : Tree_enum.rooted) (t2 : Tree_enum.rooted) =
  let k = Graph.n t1.Tree_enum.tree in
  if Graph.n t2.Tree_enum.tree <> k then
    invalid_arg "Symmetry_lb.odot_rooted: sizes differ";
  let relabel (t : Tree_enum.rooted) shift =
    let order = Tree_code.traversal t.Tree_enum.tree ~root:t.Tree_enum.root in
    let map = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace map v (shift + 1 + i)) order;
    Graph.relabel t.Tree_enum.tree (Hashtbl.find map)
  in
  let c1 = relabel t1 k and c2 = relabel t2 (2 * k) in
  let path_nodes = List.init k (fun i -> i + 1) in
  let path_edges =
    ((k + 1, 1) :: List.init (k - 1) (fun i -> (i + 1, i + 2)))
    @ [ (k, (2 * k) + 1) ]
  in
  let g = List.fold_left Graph.add_node (Graph.union_disjoint c1 c2) path_nodes in
  List.fold_left (fun g (u, v) -> Graph.add_edge g u v) g path_edges

type outcome =
  | Fooled of {
      glued : Graph.t;
      instance : Instance.t;
      proof : Proof.t;
      genuinely_no : bool;
    }
  | Resisted of { family_size : int; distinct_windows : int }
  | Prover_failed of Graph.t

let window_signature proof ~radius =
  let nodes = List.init ((2 * radius) + 1) (fun i -> i + 1) in
  String.concat "|" (List.map (fun v -> Bits.to_string (Proof.get proof v)) nodes)

(* Splice per the paper: copy-1 block {k+1..2k} from f(G₁⊙G₁);
   window U = {1..2r+1} common; everything else from f(G₂⊙G₂). *)
let splice ~k ~radius p1 p2 =
  let from_p1 = List.init k (fun i -> k + 1 + i) in
  let window = List.init ((2 * radius) + 1) (fun i -> i + 1) in
  let rest =
    List.init (k - ((2 * radius) + 1)) (fun i -> (2 * radius) + 2 + i)
    @ List.init k (fun i -> (2 * k) + 1 + i)
  in
  let take src nodes p =
    List.fold_left (fun p v -> Proof.set p v (Proof.get src v)) p nodes
  in
  Proof.empty |> take p1 from_p1 |> take p1 window |> take p2 rest

(** [attack_with scheme ~family ~combine ~size ~is_yes] — [family] is a
    list of pairwise non-isomorphic seeds (asymmetric connected graphs
    for 6.1, rooted trees for 6.2); [combine] is the ⊙ operation,
    [size] the number of nodes k of each seed, and [is_yes] the ground
    truth for the property under attack. *)
let attack_with (scheme : Scheme.t) ~family ~combine ~size ~is_yes =
  if family = [] then invalid_arg "Symmetry_lb.attack: empty family";
  let k = size in
  let radius = scheme.Scheme.radius in
  if k < (2 * radius) + 2 then invalid_arg "Symmetry_lb.attack: need k >= 2r + 2";
  let exception Fail of Graph.t in
  try
    let entries =
      List.map
        (fun g ->
          let glued = combine g g in
          let inst = Instance.of_graph glued in
          match scheme.Scheme.prover inst with
          | None -> raise (Fail glued)
          | Some proof ->
              if not (Scheme.accepts scheme inst proof) then raise (Fail glued);
              (g, proof, window_signature proof ~radius))
        family
    in
    (* Find two distinct seeds with equal windows. *)
    let by_sig = Hashtbl.create 64 in
    let collision =
      List.find_map
        (fun (g, proof, s) ->
          match Hashtbl.find_opt by_sig s with
          | Some (g', proof') -> Some ((g', proof'), (g, proof))
          | None ->
              Hashtbl.replace by_sig s (g, proof);
              None)
        entries
    in
    match collision with
    | None ->
        Resisted
          {
            family_size = List.length family;
            distinct_windows = Hashtbl.length by_sig;
          }
    | Some ((g1, p1), (g2, p2)) ->
        let glued = combine g1 g2 in
        let instance = Instance.of_graph glued in
        let proof = splice ~k ~radius p1 p2 in
        let accepted = Scheme.accepts scheme instance proof in
        if accepted then
          Fooled { glued; instance; proof; genuinely_no = not (is_yes glued) }
        else
          Resisted
            {
              family_size = List.length family;
              distinct_windows = Hashtbl.length by_sig;
            }
  with Fail g -> Prover_failed g

(** Section 6.1: symmetric graphs, seeds = asymmetric connected graphs
    on k nodes. *)
let attack_symmetric scheme ~family =
  match family with
  | [] -> invalid_arg "Symmetry_lb.attack_symmetric: empty family"
  | g0 :: _ ->
      attack_with scheme ~family ~combine:odot ~size:(Graph.n g0)
        ~is_yes:Automorphism.is_symmetric

(** Section 6.2: fixpoint-free symmetry on trees, seeds = rooted trees
    on an even number k of nodes. *)
let attack_trees scheme ~family =
  match family with
  | [] -> invalid_arg "Symmetry_lb.attack_trees: empty family"
  | t0 :: _ ->
      let k = Graph.n t0.Tree_enum.tree in
      if k mod 2 = 1 then invalid_arg "Symmetry_lb.attack_trees: need even k";
      attack_with scheme ~family ~combine:odot_rooted ~size:k
        ~is_yes:Tree_enum.has_fixpoint_free_symmetry

(** The paper's counting inequality, made explicit for the report:
    a scheme of [bits] per node has at most [2^(bits·(2r+1)+1)]
    distinct windows, so any family larger than that must collide. *)
let forced_collision_bound ~bits ~radius =
  let window_bits = bits * ((2 * radius) + 1) in
  if window_bits >= 62 then max_int else 1 lsl window_bits
