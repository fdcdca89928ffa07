(** Bipartiteness: a graph is bipartite iff it has a proper
    2-colouring iff it has no odd cycle. The schemes that certify
    either side (Section 5.1) find their colouring or odd cycle on the
    CSR image ([Bipartite_scheme], [Non_bipartite]); this module
    serves the matching algorithms and the reference predicates. *)

val is_bipartite : Graph.t -> bool

val sides : Graph.t -> (Graph.node list * Graph.node list) option
(** The two colour classes (each sorted), when bipartite. *)
