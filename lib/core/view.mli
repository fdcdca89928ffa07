(** Radius-r views: what one node sees when a local verifier with
    horizon [r] runs at it. Everything a verifier may legally depend on
    is reachable from this type — the induced subgraph [G[v,r]], the
    labels and the proof restricted to it, the centre, and the global
    input. Anything else (n(G), far-away structure) is invisible, which
    is what the lower-bound gluing arguments exploit.

    A view is a window onto the enclosing instance and proof, not a
    copy: it holds the whole {!Instance.t} and {!Proof.t} together with
    the ball's distance function and in-ball adjacency, and every
    accessor answers by reading through them, masking what lies outside
    the ball. The sub-instance [G[v,r]] with its labels is built only
    when {!graph}, {!instance} or {!equal} asks for it, and then once
    per view. *)

type t

val make :
  Instance.t -> Proof.t -> centre:Graph.node -> radius:int -> t
(** Direct extraction of [(G[v,r], labels[v,r], P[v,r], v)]. *)

val window :
  Instance.t ->
  Proof.t ->
  centre:Graph.node ->
  radius:int ->
  dist:(Graph.node -> int) ->
  neighbours:(Graph.node -> Graph.node list) ->
  t
(** The window constructor behind {!make}: [dist u] must be [u]'s
    distance from [centre] when it is at most [radius] and [-1]
    otherwise, and [neighbours u], for a node [u] of the ball, its
    neighbours inside the ball in increasing order. Nothing is copied,
    so the view reads whatever the two functions read when it is
    queried. {!Simulator}'s CSR fast path builds its views with this
    from a BFS scratch; they are only valid until that scratch's next
    ball. *)

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
(** Outside the ball these read as empty ([false] for {!arc_exists});
    an edge is visible when both endpoints are in the ball. *)

val globals : t -> Bits.t

val neighbours : t -> Graph.node -> Graph.node list
(** Neighbours inside the ball, in increasing order; raises
    [Invalid_argument] for a node outside the ball. *)

val degree_in_view : t -> Graph.node -> int
(** [List.length (neighbours v u)], with the same [Invalid_argument]. *)

val dist_to_centre : t -> Graph.node -> int
(** Raises [Invalid_argument] outside the ball. A node at distance exactly [radius] is on the boundary: its own
    neighbourhood is not fully visible, and verifiers must not trust
    its degree. *)

val equal : t -> t -> bool
(** Structural equality of views — used to validate the round-based
    simulator against direct extraction, and by "indistinguishability"
    assertions in the lower-bound tests. *)

