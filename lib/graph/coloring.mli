(** Proper node colourings. The [χ ≤ k] scheme (Section 2.2) certifies
    with an explicit colouring; the non-3-colourability work of
    Section 6.3 needs an exact solver to validate gadget graphs. *)

type colouring = (Graph.node * int) list
(** Colour per node, colours in [0 .. k-1], sorted by node. *)

val is_proper : Graph.t -> colouring -> bool
(** Every node coloured, adjacent nodes differ. *)

val k_colouring : Graph.t -> int -> colouring option
(** Exact backtracking search for a proper k-colouring (degree-ordered,
    forward-checking). Exponential in the worst case; intended for the
    moderate instance sizes of the experiments. *)

val k_colouring_with :
  Graph.t -> int -> pre:(Graph.node * int) list -> colouring option
(** Like {!k_colouring} but with some colours fixed in advance. Used to
    confirm that a gadget admits a colouring extending a given partial
    assignment. *)

val is_k_colourable : Graph.t -> int -> bool

val chromatic_number : Graph.t -> int
(** Smallest k with a proper k-colouring (0 for the empty graph). *)

