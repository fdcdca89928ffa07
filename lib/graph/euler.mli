(** Eulerian graphs — the paper's canonical LCP(0) example: a connected
    graph is Eulerian iff every degree is even, a condition each node
    checks with zero communication. *)

val is_eulerian : Graph.t -> bool
(** Connected and all degrees even. *)

val eulerian_circuit : Graph.t -> Graph.node list option
(** An Eulerian circuit (closed walk using each edge once) via
    Hierholzer's algorithm, or [None]. The returned walk lists the
    visited nodes, starting and ending at the same node. The circuit of
    an edgeless single node is that node alone. *)
