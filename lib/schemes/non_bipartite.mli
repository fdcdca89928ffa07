(** Θ(log n): chromatic number > 2 on connected graphs (Section 5.1).
    The proof exhibits an odd cycle: a leader on the cycle (certified
    unique by a spanning tree) plus strictly increasing position
    counters along successor pointers; the closing position is even,
    so the certified closed walk is odd — impossible in a bipartite
    graph. Tight by the gluing lower bound. *)

val scheme : Scheme.t
