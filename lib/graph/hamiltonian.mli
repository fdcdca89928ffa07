(** Hamiltonian cycles and paths by backtracking search. Used by the
    Θ(log n) Hamiltonian-cycle scheme (Section 5.1): a Hamiltonian
    cycle is certified as a spanning path plus its closing edge. *)

val hamiltonian_cycle : Graph.t -> Graph.node list option
(** A Hamiltonian cycle as a node sequence (start node not repeated),
    or [None]. Graphs with fewer than 3 nodes have no Hamiltonian
    cycle. *)

val is_hamiltonian_cycle : Graph.t -> Graph.node list -> bool
(** Checks that the sequence visits every node exactly once along
    edges of the graph and closes up. *)
