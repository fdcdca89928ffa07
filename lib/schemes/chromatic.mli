(** LCP(O(log k)): chromatic number ≤ k (Section 2.2) — the proof is a
    proper k-colouring in ⌈log k⌉ fixed-width bits per node; [k] is a
    global input. *)

val globals_of_k : int -> Bits.t
val k_of_globals : View.t -> int
val instance_with_k : Graph.t -> int -> Instance.t
val scheme : Scheme.t
