(** Handicapped schemes: {e complete but undersized} — the natural
    candidates below each lower-bound threshold, which the attack
    constructions then prove unsound by forging accepted no-instances.

    Cyclic-counter schemes replace unbounded distance counters by
    counters mod 2^bits (the missing "unique origin" check is exactly
    what costs Θ(log n)); claims schemes replace global encodings by
    locally cross-checkable but globally groundless assertions. *)

val odd_n_cycle : bits:int -> Scheme.t
(** Odd n(G) on cycles with O(1) bits (even modulus preserves parity);
    complete, and fooled by gluing two odd cycles. *)

val leader_cycle : bits:int -> Scheme.t
(** Leader election on cycles with O(1) bits; "leader ⟹ origin" is
    checkable, uniqueness is not. *)

val max_matching_cycle : bits:int -> Scheme.t
(** Maximum matching on cycles with O(1) bits; "unmatched ⟹ origin". *)

val symmetric_claims : Scheme.t
(** Symmetric graphs with O(Δ log n) bits: each node claims its image
    under an automorphism plus the image's neighbourhood; neighbours
    cross-check. Fooled by the Section 6.1 splice. *)

val fixpoint_free_claims : Scheme.t
(** Same idea on trees (fixpoint-freeness is even locally checkable);
    fooled by the Section 6.2 splice. *)

val ball_claims : name:string -> (Graph.t -> bool) -> Scheme.t
(** "Certify your radius-1 ball and agree on a one-bit verdict" —
    o(n²/log n) bits, complete for any property, fooled by the
    Section 6.3 wire-window fooling set. *)

val directed_reach_one_sided : Scheme.t
(** Ablation for {!Reachability.directed_reach_pointer}: the same
    O(log Δ) pointer scheme {e without} the mutual predecessor check.
    Complete — and fooled by disjoint pointer cycles. *)

val one_sided_fooling : unit -> Instance.t * Proof.t
(** A concrete unreachable instance plus a forged proof that
    {!directed_reach_one_sided} accepts at every node (and that the
    mutual-pointer scheme rejects). *)
