(** Θ(log n): leader election (Section 5.1, Table 1(b)) — a spanning
    tree rooted at the leader certifies uniqueness. Both the strong
    flavour (adversary marks the leader) and the weak one (prover
    picks it, so the mark lives in the proof) are provided; the gluing
    lower bound applies to both (Section 7.2). *)

val mark_leader : Instance.t -> Graph.node -> Instance.t
(** Mark one node as leader, all others as non-leaders. *)

val strong : Scheme.t
val weak : Scheme.t
