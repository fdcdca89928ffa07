(** Binary encoding of a whole graph together with its identifier map —
    the payload of the universal O(n²)-bit scheme of Section 6: "we can
    encode the structure of G and the unique node identifiers in O(n²)
    bits".

    The encoding lists n, the sorted identifiers (gamma-coded deltas),
    and the upper-triangular adjacency matrix: n·⌈log n⌉-ish id bits
    plus n(n-1)/2 matrix bits = O(n²) for ids in [poly(n)]. *)

val encode : Graph.t -> Bits.t
val decode : Bits.t -> Graph.t
(** Raises [Bits.Reader.Decode_error] on malformed input. *)

