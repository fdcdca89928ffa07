(** LCP(0): line graphs (Section 1.1), via Beineke's nine forbidden
    induced subgraphs — each fits in a radius-5 ball, so a local
    verifier needs no proof at all. The forbidden list itself is
    {e derived} by {!Line_graph.forbidden_subgraphs}. *)

val scheme : Scheme.t
