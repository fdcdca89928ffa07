(** The locally checkable rooted-spanning-tree certificate of Korman,
    Kutten & Peleg, as used throughout Section 5: each node carries
    (root identity, its distance to the root, its parent pointer), all
    in O(log n) bits.

    Local checks force global correctness on connected graphs: parent
    pointers strictly decrease the distance field, so every node's
    pointer chain terminates at a distance-0 node; a distance-0 node
    must carry its own identity as the root field; and neighbours must
    agree on the root field, so there is exactly one root. The parent
    edges therefore form a spanning tree rooted at a unique,
    globally-agreed node — the versatile tool behind leader election,
    counting, acyclicity, non-bipartiteness and the LogLCP
    normalisation results. *)

type t = {
  root : Graph.node;  (** Claimed root identity. *)
  dist : int;  (** Hop distance to the root along the tree. *)
  parent : Graph.node option;  (** [None] exactly at the root. *)
}

val write : Bits.Writer.buf -> t -> unit
val read : Bits.Reader.cursor -> t
val encode : t -> Bits.t
val decode : Bits.t -> t

val codec : t View.codec
(** {!decode} as a {!View.codec}: [View.decoded codec view u] decodes
    [u]'s certificate at most once per sweep, however many views of the
    sweep read it. *)

val size_bound : int -> int
(** Generous bit bound for graphs whose identifiers are polynomial in
    [n] (the paper's standing assumption). *)

(** {1 The BFS behind every certificate}

    One array BFS over a CSR image's dense indices, from which the
    bare-graph provers build their certificates; {!prove} runs it on a
    graph's image. Arrays are indexed by dense index; [-1] marks an
    unreached node, and a root's parent. *)

type bfs = {
  order : int array;  (** Visiting order; its first [reached] entries. *)
  reached : int;
  dists : int array;  (** Hops from the node's root. *)
  parents : int array;
      (** The smallest-index neighbour one level closer, as
          [Traversal.spanning_tree] picks it. *)
  roots : int array;  (** The root of the node's component. *)
}

val bfs : Csr.t -> root:int -> bfs
(** The root's component, O(n + m). *)

val bfs_forest : Csr.t -> bfs
(** Every component, rooted at its smallest index. *)

val spanning : Csr.t -> bfs option
(** {!bfs} from index 0 when it reaches every node of a non-empty
    graph. *)

val cert : Csr.t -> bfs -> int -> t
(** A reached node's certificate. *)

val prove : Graph.t -> root:Graph.node -> (Graph.node * t) list
(** BFS spanning tree of the root's component: the root first, then
    the other nodes in increasing order. *)

val proof : Graph.t -> root:Graph.node -> Proof.t
(** {!prove}'s certificates, {!encode}d, as a proof. *)

val prove_tree :
  Graph.t -> edges:(Graph.node * Graph.node) list -> root:Graph.node ->
  (Graph.node * t) list option
(** Certificate for a {e given} spanning tree (strong schemes must
    certify an adversary's tree): distances measured inside the edge
    set. [None] if the edges do not connect the graph as a tree. *)

val check_at :
  View.t -> cert_of:(Graph.node -> t) -> bool
(** The local verification at the view's centre. [cert_of] decodes the
    certificate embedded in a node's proof string (the calling schemes
    read it through a {!View.codec}, so each string is decoded once per
    sweep); it may raise [Bits.Reader.Decode_error] to reject. Requires
    radius ≥ 1. *)

val is_root : t -> bool
