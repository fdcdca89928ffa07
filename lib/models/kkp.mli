(** The proof labelling scheme model of Korman, Kutten & Peleg, as
    contrasted with LCP in Section 3.2: a node's output may depend only
    on its own identifier, its own input label, its own proof label,
    and the {e proof labels} of its neighbours — not on their
    identifiers or input labels.

    The paper: "in this model, some trivial problems that are in LCL
    become unsolvable without proof labels of nonzero size; one example
    is the agreement problem" (their Lemma 2.1). Both sides of the
    separation are executable here:
    - {!agreement_indistinguishable} exhibits the indistinguishability
      argument: with empty proofs, every node's KKP view of a mixed
      labelling already occurs in some all-equal labelling, so no KKP
      verifier can solve agreement with 0 bits;
    - {!agreement} solves it with |label| proof bits (echo your label
      into your proof);
    - LCP(0) solves it outright ({!Lcl.agreement}), because LCP views
      include neighbour labels. *)

type kkp_view = {
  me : Graph.node;
  my_label : Bits.t;
  my_proof : Bits.t;
  neighbour_proofs : Bits.t list;
      (** In increasing neighbour-identifier (port) order. *)
}

type t = {
  name : string;
  size_bound : int -> int;
  prover : Instance.t -> Proof.t option;
  verifier : kkp_view -> bool;
}

val accepts : t -> Instance.t -> Proof.t -> bool

val to_lcp : t -> Scheme.t
(** Every KKP scheme is an LCP scheme with the same proofs (the KKP
    view is computable from the radius-1 LCP view) — "the positive
    results by Korman et al. translate directly to the LCP model". *)

val agreement : t
(** Agreement with non-zero proofs: each node's proof echoes its label;
    verify own echo and neighbour echoes. *)

val agreement_indistinguishable : Graph.t -> u:Graph.node -> bool
(** The Lemma 2.1 argument on a concrete graph: picks a mixed labelling
    (label "1" at [u], "0" elsewhere — a no-instance of agreement when
    [u] has a neighbour) and checks that, under empty proofs, every
    node's KKP view equals its view in one of the two constant
    labellings (both yes-instances). When this returns [true], no KKP
    verifier whatsoever can solve agreement with empty proofs on this
    graph. *)
