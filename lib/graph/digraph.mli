(** Simple directed graphs, used for the directed s–t (un)reachability
    schemes of Section 4.1. *)

type node = int
type t

val empty : t
val of_arcs : (node * node) list -> t

val mem_arc : t -> node -> node -> bool

val add_node : t -> node -> t
val add_arc : t -> node -> node -> t

val underlying : t -> Graph.t
(** Forget orientations (antiparallel arcs merge into one edge). *)

val reachable : t -> node -> node list
(** Nodes reachable from the given node by directed paths (sorted,
    includes the node itself). *)

