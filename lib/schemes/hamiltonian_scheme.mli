(** Θ(log n): Hamiltonian cycle verification (Section 5.1) — the
    flagged cycle minus one edge is a spanning path, certified as a
    rooted spanning tree whose every node has at most one child; the
    closing edge returns to the root. *)

val scheme : Scheme.t
