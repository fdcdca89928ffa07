(** Radius-r views: what one node sees when a local verifier with
    horizon [r] runs at it. Everything a verifier may legally depend on
    is reachable from this type — the induced subgraph [G[v,r]], the
    labels and the proof restricted to it, the centre, and the global
    input. Anything else (n(G), far-away structure) is invisible, which
    is what the lower-bound gluing arguments exploit. *)

type t

val make :
  Instance.t -> Proof.t -> centre:Graph.node -> radius:int -> t
(** Direct extraction of [(G[v,r], labels[v,r], P[v,r], v)]. *)

val of_ball :
  Instance.t ->
  Proof.t ->
  centre:Graph.node ->
  radius:int ->
  ball:Graph.node list ->
  dists:(Graph.node, int) Hashtbl.t ->
  t
(** Assembly step of {!make} with the ball precomputed: [ball] must be
    the sorted radius-[radius] ball of [centre] and [dists] the exact
    distances within it. {!Simulator}'s CSR fast path computes both
    with a bounded array BFS and funnels through this constructor, so
    fast-path views are structurally identical to {!make}'s. *)

val centre : t -> Graph.node
val radius : t -> int

val graph : t -> Graph.t
(** The induced subgraph [G[v,r]] — node identifiers are the original
    ones, as the paper's model M1 allows. *)

val instance : t -> Instance.t
(** The instance restricted to the ball — graph, labels and globals
    (no proof). Scheme transformers (Section 7) use it to re-run an
    inner verifier on the same ball with a different proof or label
    assignment. *)

val proof_of : t -> Graph.node -> Bits.t
val label_of : t -> Graph.node -> Bits.t
val edge_label_of : t -> Graph.node -> Graph.node -> Bits.t
val arc_exists : t -> Graph.node -> Graph.node -> bool
val globals : t -> Bits.t

val neighbours : t -> Graph.node -> Graph.node list
val degree_in_view : t -> Graph.node -> int

val dist_to_centre : t -> Graph.node -> int
(** A node at distance exactly [radius] is on the boundary: its own
    neighbourhood is not fully visible, and verifiers must not trust
    its degree. *)

val equal : t -> t -> bool
(** Structural equality of views — used to validate the round-based
    simulator against direct extraction, and by "indistinguishability"
    assertions in the lower-bound tests. *)

