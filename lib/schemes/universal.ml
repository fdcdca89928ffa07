(** The universal O(n²)-bit scheme (Section 6): on connected graphs,
    {e any} computable pure graph property has a locally checkable
    proof that simply hands every node the full encoded graph. Each
    node checks that (i) its neighbours carry an identical encoding,
    (ii) the encoding is connected, (iii) its own identity and
    neighbourhood match the encoding, and (iv) the property holds of
    the decoded graph (unlimited local computation).

    Soundness: if all nodes accept, every node of G appears in the
    (shared, by connectivity of G) decoded graph H with exactly its
    real neighbourhood; as H is connected, induction along H's paths
    shows H = G, so the property genuinely holds of G.

    Section 6 instances: symmetric graphs (Θ(n²) — also the matching
    lower bound in [Lowerbounds]), and non-3-colourability
    (Ω(n²/log n) ≤ · ≤ O(n²)). *)

let scheme ~name (predicate : Graph.t -> bool) =
  Scheme.make ~name ~radius:1
    ~size_bound:(fun n ->
      (* n(n-1)/2 matrix bits + gamma-coded ids: ids ≤ poly(n). *)
      (n * (n - 1) / 2) + (6 * (n + 1) * Bits.int_width (max 2 n)) + 8)
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      if (not (Traversal.is_connected g)) || Graph.is_empty g || not (predicate g)
      then None
      else begin
        let code = Graph_code.encode g in
        Some
          (Graph.fold_nodes (fun v p -> Proof.set p v code) g Proof.empty)
      end)
    ~verifier:(fun view ->
      let v = View.centre view in
      let mine = View.proof_of view v in
      List.for_all
        (fun u -> Bits.equal (View.proof_of view u) mine)
        (View.neighbours view v)
      &&
      let h = Graph_code.decode mine in
      Graph.mem_node h v
      && Traversal.is_connected h
      && Graph.neighbours h v = View.neighbours view v
      && predicate h)

(** Table 1(a): symmetric graphs — the hardest natural pure property,
    Θ(n²). *)
let symmetric = scheme ~name:"symmetric-graph" Automorphism.is_symmetric

(** Table 1(a): chromatic number > 3 — Ω(n²/log n) by the fooling-set
    argument, O(n²) by this scheme. *)
let non_3_colourable =
  scheme ~name:"chromatic-gt-3" (fun g -> not (Coloring.is_k_colourable g 3))

(** Any computable property, for the "computable properties / O(n²)"
    row. *)
let of_predicate = scheme
