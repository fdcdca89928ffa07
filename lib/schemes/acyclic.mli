(** O(log n): acyclicity (Section 5.1) — each component certifies a
    rooted spanning tree plus two aggregated counters (node count and
    degree sum), letting the component root check m = n − 1. *)

val scheme : Scheme.t
