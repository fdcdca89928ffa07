(** Compilation of monadic Σ¹₁ sentences to LogLCP schemes
    (Section 7.5): on connected graphs, every monadic Σ¹₁ property has
    a locally checkable proof of O(log n) bits.

    The proof at node v consists of the k membership bits
    [A₁(v) … A_k(v)], and — when the sentence uses the existential
    centre x — a spanning-tree certificate rooted at the witness node
    a, plus a copy of a's membership bits (so that φ may test
    [In_set (i, "x")] even far from a). The verifier checks the tree,
    then evaluates φ(Ā, a, y) in its radius-r view for its own y. *)

type witness = {
  sets : Graph.node -> int -> bool;  (** A_i membership. *)
  x : Graph.node option;
}

val holds : Formula.sentence -> Graph.t -> bool
(** Brute-force model checking: ∃A₁…A_k ∃a ∀y φ — exponential in
    [k · n(G)]; for small graphs and tests. *)

val scheme :
  ?find:(Graph.t -> witness option) -> Formula.sentence -> Scheme.t
(** The compiled scheme. The prover uses [find] (defaulting to a
    brute-force search) to obtain the second-order witness. The instance
    family is connected graphs. The brute-force search, like {!holds},
    raises [Invalid_argument] naming its limit when [k · n(G)] exceeds
    24 membership bits. *)
