(** Counting schemes (Section 5.1): a certified spanning tree carries
    subtree-size counters, so the root learns n(G) and checks any
    decidable predicate of it — Θ(log n) bits, tight by the gluing
    lower bound for non-trivial predicates such as parity. *)

val odd_n : Scheme.t
(** Table 1(a): odd n(G) — Θ(log n) on cycles. *)

val even_n : Scheme.t
val exact_n : int -> Scheme.t
(** [exact_n m]: every node becomes convinced that n(G) = m. *)

val even_cycle : Scheme.t
(** Table 1(a): even n(G) on the family of cycles is only Θ(1) — an
    alternating bit (even cycle ⟺ bipartite). *)
