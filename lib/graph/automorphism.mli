(** Graph automorphisms. Section 6.1 classifies graphs as symmetric
    (some non-trivial automorphism) or asymmetric; Section 6.2 uses
    fixpoint-free automorphisms of trees. Backtracking with degree
    pruning — fine for the experiment sizes. *)

val count_automorphisms : Graph.t -> int

val nontrivial_automorphism : Graph.t -> (Graph.node * Graph.node) list option
(** A non-identity automorphism as an explicit mapping, or [None]. The
    search stops at the first witness. *)

val is_symmetric : Graph.t -> bool
(** Has a non-trivial automorphism. *)

val is_asymmetric : Graph.t -> bool

val fixpoint_free_automorphism : Graph.t -> (Graph.node * Graph.node) list option
(** An automorphism moving every node, or [None]. *)

val has_fixpoint_free_symmetry : Graph.t -> bool

val is_automorphism : Graph.t -> (Graph.node * Graph.node) list -> bool
(** Checks that the mapping is a bijection on the node set preserving
    adjacency and non-adjacency. *)
