(** Radius-r views: what one node sees when a local verifier with
    horizon [r] runs at it. Everything a verifier may legally depend on
    is reachable from this type — the induced subgraph [G[v,r]], the
    labels and the proof restricted to it, the centre, and the global
    input. Anything else (n(G), far-away structure) is invisible, which
    is what the lower-bound gluing arguments exploit.

    A view is a window onto the enclosing instance and proof, not a
    copy: it holds the enclosing instance's labels and the whole
    {!Proof.t} together with the ball's distance function and in-ball
    adjacency, and every accessor answers by reading through them,
    masking what lies outside the ball. The sub-instance [G[v,r]] with
    its labels is built only when {!graph}, {!instance} or {!equal}
    asks for it, and then once per view.

    Decoded certificates live on a {e plane}: a stamp naming one proof
    over one graph, plus that graph's node -> dense index map. A
    verifier sweep puts all its views on one plane, so {!decoded}
    decodes each ball node's string at most once per sweep (per
    domain), however many views read it; a {!make} view gets a plane
    of its own. *)

type t

type plane
(** One decoding plane; immutable and shareable across domains. *)

val plane : (Graph.node -> int) -> plane
(** [plane index] is a plane with a fresh stamp over [index], which
    must map every node a view on this plane may hold in its ball to a
    dense index [0 .. k-1], injectively. {!Simulator}'s sweep takes one
    per call. *)

val make :
  Instance.t -> Proof.t -> centre:Graph.node -> radius:int -> t
(** Direct extraction of [(G[v,r], labels[v,r], P[v,r], v)]. *)

val window :
  Instance.t ->
  Proof.t ->
  plane:plane ->
  centre:Graph.node ->
  radius:int ->
  dist:(Graph.node -> int) ->
  neighbours:(Graph.node -> Graph.node list) ->
  t
(** The window constructor behind {!make}. The first argument is where
    labels and globals are read: the enclosing instance ({!Instance.of_csr}
    for a bare graph, on which every label, edge label, arc and the
    globals read empty). The window never reads that instance's graph,
    only the ball [dist] and [neighbours] describe. [dist u] must be
    [u]'s distance from [centre] when it is at most [radius] and [-1]
    otherwise, and [neighbours u], for a node [u] of the ball, its
    neighbours inside the ball in increasing order. Nothing is copied,
    so the view reads whatever the two functions read when it is
    queried. {!Simulator}'s CSR fast path builds its views with this
    from a BFS scratch; they are only valid until that scratch's next
    ball. Views sharing [plane] must read the same proof over the same
    graph. *)

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

(** {1 Decoded certificates} *)

type 'a codec
(** A pure decoder of proof strings with per-domain storage for its
    results. Make one per certificate format, at module level. *)

val codec : (Bits.t -> 'a) -> 'a codec

val decoded : 'a codec -> t -> Graph.node -> 'a
(** [decoded c v u] is [decode (proof_of v u)] for [c]'s decoder. An
    in-ball read is answered from a cell keyed by [u]'s dense index and
    the view's plane, so each string is decoded at most once per plane
    and domain; an out-of-ball read decodes the empty string. Only
    successes are stored: a malformed string raises
    [Bits.Reader.Decode_error] at every read. *)
