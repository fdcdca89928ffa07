(** Section 4.2: s–t vertex connectivity = k via Menger's theorem.

    The proof partitions V into S ∪ C ∪ T and labels k vertex-disjoint
    chordless s–t paths with a path index (O(log k) bits) and the
    distance from s mod 3. On planar graphs a 3-colouring of the
    path-adjacency conflict graph replaces the indices — O(1) bits.

    [k] is a global input ("given as input to all nodes"). *)

val instance : Graph.t -> s:Graph.node -> t:Graph.node -> k:int -> Instance.t
(** Terminal marks plus the global [k]. *)

val general : Scheme.t
(** O(log k) bits; exact per-index uniqueness checks at s and t. *)

val planar : Scheme.t
(** O(1) bits; the prover 3-colours the conflict graph of the Menger
    paths and fails (returns [None]) if 3 colours do not suffice —
    they always do on the planar benchmark instances, per the paper's
    observation. *)
