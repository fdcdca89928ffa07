(** Enumeration of rooted trees up to isomorphism — the family [F_k] of
    Section 6.2, whose size is OEIS A000081 (1, 1, 2, 4, 9, 20, 48,
    115, 286, …) and in particular grows as [2^Θ(k)]. *)

type rooted = { root : Graph.node; tree : Graph.t }
(** A tree with a distinguished root. Nodes are [0..k-1] with the root
    at 0, children numbered depth-first in canonical order. *)

val rooted_trees : int -> rooted list
(** All rooted trees with [k >= 1] nodes, one per isomorphism class. *)

val count_rooted_trees : int -> int
(** [List.length (rooted_trees k)], computed without materialising the
    graphs (recurrence-free: still enumerates canonical codes). *)

val canonical_code : Graph.t -> Graph.node -> string
(** Canonical string code of a tree rooted at the given node;
    two rooted trees are isomorphic iff their codes are equal. Raises
    [Invalid_argument] when the graph is not a tree. *)

val rooted_code : Graph.t -> parent:Graph.node -> Graph.node -> string
(** The canonical code of the subtree hanging below the node when the
    tree is rooted so that [parent] is its parent ([-1] for the root):
    that neighbour and its side of the tree are left out. Assumes a
    tree; {!canonical_code} is [rooted_code g ~parent:(-1) root]. *)

val has_fixpoint_free_symmetry : Graph.t -> bool
(** Whether some automorphism of the tree moves every node, decided
    without search. Every automorphism of a tree fixes its centre, so
    one that fixes no node must swap the two ends of a central edge
    {a, b}; it exists iff the two halves, rooted at a and at b, have
    equal codes. Agrees with {!Automorphism.has_fixpoint_free_symmetry}
    on trees. Raises [Invalid_argument] when the graph is not a tree. *)

val is_tree : Graph.t -> bool
(** Connected and [m = n - 1]. *)
