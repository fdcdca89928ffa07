(** Proofs: an assignment [P : V(G) → {0,1}*] of a bit string to every
    node (Section 2.1). The size [|P|] is the maximum number of bits at
    any node. *)

type t
(** Two stores behind one type. A {e dense} array binds every id in
    [0 .. k-1] and is read by index: the wire decoder builds it in one
    pass ({!of_dense}), and the verifier's per-node {!get} is then an
    array read. A persistent map {e overlay} binds every other id and
    every {!set} made afterwards, shadowing the array where both bind,
    so a prover still grows its proof by O(log n) [set]s. Every
    operation below sees only the merged bindings. *)

val empty : t
(** The empty proof [ε], size 0 — what LCP(0) verifiers receive. *)

val of_list : (Graph.node * Bits.t) list -> t

val of_dense : Bits.t array -> t
(** [of_dense a] binds node [v] to [a.(v)] for every [v] below
    [Array.length a], explicit [ε] entries included. The proof takes
    the array over: the caller must not mutate it afterwards. *)

val of_csr : Csr.t -> Bits.t array -> t
(** [of_csr csr a] binds the node at dense index [i] of [csr] to
    [a.(i)]: {!of_dense} when the ids are [0 .. n-1], as for every
    graph6 image, and an overlay otherwise (partition shards,
    relabelled graphs). Takes the array over, as {!of_dense} does. *)

val bindings : t -> (Graph.node * Bits.t) list
(** In increasing node order. *)

val iter : (Graph.node -> Bits.t -> unit) -> t -> unit
(** [iter f p] applies [f] to every binding in increasing node order,
    allocating nothing per binding. *)

val extent : t -> int
(** One more than the largest bound node, 0 when nothing is bound:
    the length of the table that lists the proof by node id. *)

val get : t -> Graph.node -> Bits.t
(** Unassigned nodes read the empty string, so that the empty proof is
    total on any graph. *)

val set : t -> Graph.node -> Bits.t -> t

val size : t -> int
(** [|P|]: maximum bits per node. *)

val union_disjoint : t -> t -> t
(** Merge proofs on disjoint node sets (gluing constructions inherit
    proof labels from several yes-instances). Raises
    [Invalid_argument] on an overlap with conflicting values. *)

val map : (Graph.node -> Bits.t -> Bits.t) -> t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
