(** Proofs: an assignment [P : V(G) → {0,1}*] of a bit string to every
    node (Section 2.1). The size [|P|] is the maximum number of bits at
    any node. *)

type t

val empty : t
(** The empty proof [ε], size 0 — what LCP(0) verifiers receive. *)

val of_list : (Graph.node * Bits.t) list -> t
val bindings : t -> (Graph.node * Bits.t) list

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
