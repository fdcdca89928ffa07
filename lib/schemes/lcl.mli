(** LCP(0) builders for locally checkable labellings (Naor–Stockmeyer;
    Section 3): solutions carried entirely by input labels, verified
    with zero proof bits. *)

val of_constraint :
  name:string -> radius:int -> check:(View.t -> bool) -> Scheme.t
(** Wrap a local constraint as an LCP(0) scheme. The prover returns
    the empty proof when the constraint holds at every node and [None]
    (a no-instance) otherwise. *)

val proper_colouring : Scheme.t
(** Node labels are colours; neighbours must differ. *)

val maximal_independent_set : Scheme.t
(** Label bit 1 marks the set; independence + domination checks. *)

val agreement : Scheme.t
(** All nodes carry the same label. Solvable with zero proof bits in
    this paper's LCP model but {e not} in the weaker proof labelling
    scheme model of Korman–Kutten–Peleg (Section 3.2) — see the
    model-separation tests. *)
