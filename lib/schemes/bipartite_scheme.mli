(** LCP(1): bipartite graphs (Section 1.2). The proof is a proper
    2-colouring, one bit per node; neighbours must disagree. The
    flagship example of the paper's introduction — and the subject of
    the matching Ω(log n) lower bound for its complement (Section 5). *)

val scheme : Scheme.t
