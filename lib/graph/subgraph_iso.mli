(** Induced-subgraph isomorphism by backtracking, sufficient for the
    small patterns that matter here (Beineke's nine forbidden line
    graphs have at most 6 nodes). *)

val are_isomorphic : Graph.t -> Graph.t -> bool

val contains_induced : pattern:Graph.t -> Graph.t -> bool
