(** Random instance generators for tests and benchmarks. All take an
    explicit [Random.State.t] so experiments are reproducible. *)

val gnp : Random.State.t -> int -> float -> Graph.t
(** Erdős–Rényi G(n, p) on nodes [0..n-1]. *)

val connected_gnp : Random.State.t -> int -> float -> Graph.t
(** G(n, p) patched into connectivity by adding a uniformly random
    tree edge between components until connected. *)

val tree : Random.State.t -> int -> Graph.t
(** Uniform random labelled tree on [n >= 1] nodes via Prüfer codes. *)

val bipartite : Random.State.t -> int -> int -> float -> Graph.t
(** Random bipartite graph: sides [0..a-1] and [a..a+b-1], each of the
    [a*b] candidate edges present with probability [p]. *)

val regular_even : Random.State.t -> int -> int -> Graph.t
(** Random 2k-regular graph on [n] nodes built from [k] random
    Hamiltonian cycles (simple, may merge parallel edges). *)

val id_map : Random.State.t -> factor:int -> Graph.t -> Graph.node -> Graph.node
(** A uniformly random injective map from the nodes of the graph into
    [0 .. factor * n - 1]. Models the paper's
    [V(G) ⊆ {1, …, poly(n)}] assumption that ids need not be
    contiguous; [Instance.relabel] applies it to a labelled instance. *)

val permuted_ids : Random.State.t -> factor:int -> Graph.t -> Graph.t
(** The graph renamed by {!id_map}. *)
