(** LCP(1): bipartite graphs (Section 1.2). The proof is a proper
    2-colouring, one bit per node; neighbours must disagree. The
    flagship example of the paper's introduction — and the subject of
    the matching Ω(log n) lower bound for its complement (Section 5). *)

val scheme : Scheme.t

val prove : Csr.t -> Proof.t option
(** The proper 2-colouring by BFS distance parity from each
    component's smallest node, or [None] when the graph has an odd
    cycle. One array BFS; the even-cycle scheme proves with it too. *)
