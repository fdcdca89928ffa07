(** LCP(0): Eulerian graphs (Section 1.1). On connected graphs,
    Eulerian ⟺ all degrees even, which each node checks alone. *)

val scheme : Scheme.t
(** Zero proof bits, radius 1. *)

