(** The universal Θ(n)-bit scheme on trees (Section 6.2): every node
    receives the balanced-parentheses structure code of the whole tree
    (2(n−1) bits) plus its own canonical traversal position. Local
    bijectivity of the position map makes it a covering G → T, and a
    connected cover of a tree is the tree. *)

val encode_node : Bits.t -> int -> Bits.t
(** [encode_node structure pos] — the per-node proof layout. *)

val scheme : name:string -> (Tree_enum.rooted -> bool) -> Scheme.t
(** Universal scheme for any computable property of (canonically
    rooted) trees. *)

val fixpoint_free_symmetry : Scheme.t
(** Table 1(a): trees with a fixpoint-free automorphism — Θ(n), tight
    by Section 6.2. *)

