(** O(n)-bit encoding of a rooted tree structure (balanced
    parentheses), plus the node identifiers. Section 6.2: "the
    structure of a tree can be encoded in Θ(n) bits, and the index
    requires Θ(log n) bits" — the universal tree scheme stores the
    structure once per node plus each node's own position.

    Note the identifier list itself costs Θ(n log n) bits; the Θ(n)
    claim concerns the pure structure, which is what the fixpoint-free
    symmetry property needs. Both encodings are provided. *)

val encode_structure : Graph.t -> root:Graph.node -> Bits.t
(** Balanced-parentheses code ('1' = down, '0' = up), 2(n-1) bits;
    children are visited in canonical (non-increasing code) order so
    isomorphic rooted trees encode identically. Raises
    [Invalid_argument] when the graph is not a tree. *)

val decode_structure : Bits.t -> Tree_enum.rooted
(** Rebuilds the canonical representative on nodes [0..n-1], root 0. *)

val traversal : Graph.t -> root:Graph.node -> Graph.node list
(** The canonical depth-first order itself ([position_of] inverts it). *)
