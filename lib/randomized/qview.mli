(** Query-counting views: the randomized verifier's only window onto
    the instance.

    A [Qview.t] wraps a {!View.t} and meters every read of prover- or
    neighbour-supplied data: single proof bits, whole proof cells
    (one node's full bit string), neighbour label cells and edge-label
    cells each cost one {e query unit}. A sampled verifier declared
    with per-node bound [q] may spend at most [q] units per node —
    spending more raises {!Budget_exceeded}, a hard failure (a scheme
    bug, not a verdict), so the bound is enforced by the simulator
    rather than left as a convention.

    Structure is free: the centre, its neighbour list, degrees,
    distances, boundary flags, arc orientations, the centre's own
    input label and the global input are all part of the node's local
    input in the paper's model, not of the proof, so reading them
    costs nothing.

    Randomness comes from a splitmix-style PRG seeded by
    [(seed, centre)] only, so the bits a node chooses to read are a
    pure function of [(seed, q, graph, proof)] — identical at any
    [--jobs], which the determinism tests pin. Every charged read is
    appended to a log of [(node, kind, index)] triples for exactly
    that comparison. *)

type t

exception Budget_exceeded of { centre : Graph.node; queries : int }
(** Raised by a charged read once the per-node budget is exhausted. *)

val make : View.t -> seed:int -> queries:int -> t
(** Wrap a view with budget [queries] (must be ≥ 1) and a PRG derived
    from [seed] and the view's centre. *)

(** {1 Free (structural) accessors} *)

val centre : t -> Graph.node
val neighbours : t -> Graph.node list

val my_label : t -> Bits.t
(** The centre's own input label — local input, never charged. *)

(** {1 Charged reads — one query unit each} *)

val proof_bit : t -> Graph.node -> int -> bool option
(** Bit [i] of node [u]'s proof string; [None] when the string is
    shorter. One unit, one bit. *)

val proof_cell : t -> Graph.node -> Bits.t
(** A node's whole proof string. One unit, [length] bits. *)

val edge_cell : t -> Graph.node -> Graph.node -> Bits.t
(** The label of edge [(u, v)] inside the view. One unit. *)

(** {1 Randomness and sampling} *)

val mix : int -> int
(** The splitmix-style finalizer behind the PRG, truncated to OCaml's
    63-bit int — exposed so the probe-set sampler and the tests share
    the exact stream construction. *)

val gamma : int
(** The PRG's additive constant (state advances by [gamma] per draw). *)

val sample_neighbours : t -> int -> Graph.node list
(** Up to [k] distinct neighbours of the centre, chosen by the PRG
    (partial Fisher–Yates). Choosing is free; reading the chosen
    nodes' data is what costs units. *)

(** {1 Accounting} *)

val units_left : t -> int

val bits_read : t -> int
(** Total bits actually obtained by charged reads (cells add their
    length, single-bit reads add one). *)

val reads : t -> (Graph.node * int * int) list
(** The charged-read log, oldest first: [(node, kind, index)] where
    [kind] is 0 for {!proof_bit}, 1 for {!proof_cell} and 3 for
    {!edge_cell}, and [index] is the bit index for {!proof_bit}, the
    other endpoint for {!edge_cell}, and [0] for whole-cell reads. *)
