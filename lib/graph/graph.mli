(** Simple undirected graphs with arbitrary non-negative integer node
    identifiers.

    The paper assumes [V(G) ⊆ {1, …, poly(n)}]: identifiers are unique
    but not necessarily contiguous, and a local verifier may read them.
    This module therefore never assumes nodes are numbered [0..n-1];
    the lower-bound constructions of Section 5.3 depend on gluing
    graphs with carefully chosen, non-contiguous identifier patterns. *)

type node = int

type t
(** A simple undirected graph: no self-loops, no parallel edges. *)

val create : nodes:node list -> edges:(node * node) list -> t
(** [create ~nodes ~edges] builds a graph. Duplicate nodes are merged.
    Raises [Invalid_argument] on negative identifiers, self-loops, or
    edges mentioning unknown endpoints. Parallel edges are merged. *)

val of_edges : (node * node) list -> t
(** [of_edges es] is [create] with the node set implied by [es]. *)

val check_rows :
  ids:node array -> offsets:int array -> targets:int array -> (unit, string) result
(** The structural check on sorted adjacency rows in the layout
    {!Csr.export} returns (node [ids.(i)] is adjacent to
    [ids.(targets.(k))] for [k] in [offsets.(i) .. offsets.(i+1) - 1]):
    [Ok ()] exactly when [ids] is non-negative and strictly increasing,
    [offsets] frames [targets], and every row is strictly increasing,
    in range, loop-free and mirrored by the row it names. O(n + m);
    [Error] names the first violation. Rows from outside the process
    pass it once, in {!Csr.of_rows}. *)

val of_rows : ids:node array -> offsets:int array -> targets:int array -> t
(** [of_rows ~ids ~offsets ~targets] builds the graph of rows that pass
    {!check_rows}, with one set per row and one map and no per-edge
    insert; raises [Invalid_argument] naming the violation otherwise,
    so no input yields an asymmetric graph. O(n + m) plus the sets. *)

val empty : t
val is_empty : t -> bool

val nodes : t -> node list
(** Sorted in increasing identifier order. *)

val n : t -> int
(** Number of nodes, written [n(G)] in the paper. *)

val edges : t -> (node * node) list
(** Each edge appears once as [(u, v)] with [u < v], sorted. *)

val m : t -> int
(** Number of edges. *)

val mem_node : t -> node -> bool
val mem_edge : t -> node -> node -> bool

val neighbours : t -> node -> node list
(** Sorted; raises [Invalid_argument] for an unknown node. *)

val degree : t -> node -> int
val max_degree : t -> int
val max_id : t -> node
(** Largest identifier; 0 on the empty graph. *)

val add_node : t -> node -> t
val add_edge : t -> node -> node -> t
(** Adds missing endpoints as needed; idempotent on existing edges. *)

val remove_edge : t -> node -> node -> t
val remove_node : t -> node -> t
(** Removes the node and all incident edges. *)

val induced : t -> node list -> t
(** [induced g vs] is the subgraph induced by the listed nodes
    (unknown nodes are ignored). *)

val relabel : t -> (node -> node) -> t
(** [relabel g f] renames every node by [f], which must be injective on
    [nodes g] and produce non-negative identifiers; raises
    [Invalid_argument] otherwise. *)

val union_disjoint : t -> t -> t
(** Raises [Invalid_argument] if the node sets intersect. *)

val equal : t -> t -> bool
(** Equality of labelled graphs: same node set, same edge set. *)

val pp : Format.formatter -> t -> unit

val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a
val fold_edges : (node -> node -> 'a -> 'a) -> t -> 'a -> 'a
val iter_nodes : (node -> unit) -> t -> unit
val iter_edges : (node -> node -> unit) -> t -> unit

val iter_neighbours : (node -> unit) -> t -> node -> unit
(** Like [List.iter f (neighbours g v)] — increasing identifier
    order — but without materialising the list; the traversal and
    simulation inner loops use this. Raises [Invalid_argument] for an
    unknown node. *)

val line_graph : t -> t * (node * (node * node)) list
(** [line_graph g] is the line graph [L(g)] together with the mapping
    from each fresh node of [L(g)] to the edge of [g] it represents. *)
