(** Maximum flow and Menger-style vertex connectivity.

    The s–t connectivity scheme of Section 4.2 needs, for a graph with
    vertex connectivity exactly [k]: (i) a partition [S ∪ C ∪ T] with
    [s ∈ S], [t ∈ T], [|C| = k] and no S–T edge, and (ii) [k]
    internally-vertex-disjoint s–t paths each crossing [C] once. Both
    come out of a unit-capacity max-flow on the node-split graph. *)

type flow_network
(** A directed network with integer arc capacities. *)

val network : nodes:int list -> arcs:(int * int * int) list -> flow_network
(** [(u, v, cap)] arcs; parallel arcs add up their capacities. *)

val max_flow : flow_network -> source:int -> sink:int -> int * ((int * int) * int) list
(** Edmonds–Karp. Returns the flow value and the positive flow on each
    arc. *)

val vertex_disjoint_paths :
  Graph.t -> s:Graph.node -> t:Graph.node -> Graph.node list list
(** A maximum set of internally-vertex-disjoint s–t paths (each path is
    a node list from [s] to [t]). Requires [s ≠ t] and that the edge
    [s–t] is absent; raises [Invalid_argument] otherwise. *)

val vertex_connectivity : Graph.t -> s:Graph.node -> t:Graph.node -> int
(** The s–t vertex connectivity (size of a minimum s–t vertex
    separator = number of disjoint paths, by Menger). Same
    preconditions as {!vertex_disjoint_paths}. *)

val vertex_separator : Graph.t -> s:Graph.node -> t:Graph.node -> Graph.node list
(** A minimum s–t vertex separator, sorted. Empty when [s] and [t] are
    already disconnected. *)

val menger_certificate :
  Graph.t ->
  s:Graph.node ->
  t:Graph.node ->
  (Graph.node list list * Graph.node list) option
(** [menger_certificate g ~s ~t] packages the scheme's witness: [k]
    disjoint paths and a separator [C] of the same size [k], with each
    path meeting [C] exactly once. [None] when [t] is unreachable from
    [s]. *)
