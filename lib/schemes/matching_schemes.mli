(** Matching verification across the hierarchy (Section 2.3,
    Table 1(b)). Matchings travel as edge labels: bit 0 flags
    membership; the weighted scheme appends a gamma-coded weight. *)

val maximal : Scheme.t
(** LCP(0), radius 2: validity plus local maximality. *)

val maximum_bipartite : Scheme.t
(** LCP(1): a König minimum vertex cover — one bit per node — with
    "every matched edge has exactly one covered endpoint" and "every
    covered node is matched" making |C| = |M| locally evident. *)

val weighted_instance :
  Graph.t -> Weighted_matching.weights -> Matching.matching -> Instance.t

val instance_weights : Instance.t -> Graph.node * Graph.node -> int

val maximum_weight_bipartite : Scheme.t
(** LCP(O(log W)): LP-dual potentials; the verifier checks dual
    feasibility on incident edges and complementary slackness. *)

val maximum_on_cycle : Scheme.t
(** Θ(log n) on cycles: a spanning tree rooted at the unmatched node
    (if any); every unmatched node must be the root, so at most one
    node is unmatched — maximum on a cycle. *)

