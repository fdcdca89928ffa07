(** Problem instances: a graph plus the auxiliary information the paper
    allows — node labels (s/t marks, solution bits, leader flags),
    edge labels (matching membership, orientations, weights) and a
    global input shared by all nodes (e.g. the constant [k] of the
    s–t connectivity scheme, which "is given as input to all nodes").

    Labels are bit strings; each scheme fixes its own field layout
    using {!Bits.Writer}/{!Bits.Reader}. Labels are {e inputs} visible
    to the verifier, as opposed to the proof, which is the
    nondeterministic part. *)

type t
(** The graph is held as a {!Graph.t}, as {!Csr.t} rows, or both, each
    a once-cell: the first call needing a missing form builds it from
    the other and publishes it with one compare-and-set. Domains racing
    on a first call may each build it; none raises, and all get the
    published one. *)

val of_graph : Graph.t -> t

val of_csr : Csr.t -> t
(** The unlabelled graph the rows describe, in O(1), as the daemon's
    compiled images hold it. {!graph} builds a {!Graph.t} only when
    called, and counts each build in [instance.graphs_built]. *)

val on_graph : t -> Graph.t -> t
(** [on_graph inst g]: [g] with no node or edge labels, but [inst]'s
    globals and edge-label encoding (an {!of_digraph} instance's arc
    bits stay arc bits under {!relabel}) — the frame a sub-instance of
    [inst], such as a ball, is filled in on. *)

val graph : t -> Graph.t

val csr : t -> Csr.t
(** What the bare-graph provers read; O(n + m) on a first call. *)

val n : t -> int
(** O(1) once the rows exist. *)

val node_label : t -> Graph.node -> Bits.t
(** Empty when unset. *)

val edge_label : t -> Graph.node -> Graph.node -> Bits.t
(** Symmetric: queried with either endpoint order. Empty when unset. *)

val globals : t -> Bits.t

val with_node_label : t -> Graph.node -> Bits.t -> t
val with_node_labels : t -> (Graph.node * Bits.t) list -> t
val with_edge_label : t -> Graph.node -> Graph.node -> Bits.t -> t
val with_globals : t -> Bits.t -> t

val marked_exactly_one : t -> Graph.node option
(** When exactly one node has label "1", that node; else [None].
    Convenience for s/t/leader-style promises. *)

val flag_edges : t -> (Graph.node * Graph.node) list -> t
(** Single-bit edge labels: listed edges get "1", all other edges of
    the graph get "0". Raises on non-edges. *)

val flagged_edges : t -> (Graph.node * Graph.node) list
(** Edges whose label has first bit 1, each as [(u, v)], [u < v]. *)

val of_digraph : Digraph.t -> t
(** Encodes a directed graph over its underlying undirected graph:
    each edge label is two bits [(u→v?, v→u?)] with [u < v]. *)

val arc_exists : t -> Graph.node -> Graph.node -> bool
(** Reads the {!of_digraph} encoding: is there an arc u→v? *)

val relabel : t -> (Graph.node -> Graph.node) -> t
(** Rename nodes everywhere (graph, labels); injective maps only. On an
    {!of_digraph} instance (or a union with one) the two arc bits of an
    edge swap when its endpoints' order does; other edge labels move
    unchanged. *)

val union_disjoint : t -> t -> t
(** Disjoint union of graphs and labels; globals must agree. *)

val equal : t -> t -> bool
