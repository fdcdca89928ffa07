(** Dense compressed-sparse-row (CSR) image of a graph, compiled from
    a {!Graph.t} ({!of_graph}) or checked in from raw rows
    ({!of_rows}).

    The persistent [IntSet.t IntMap.t] representation behind {!Graph.t}
    is the right tool for the gluing and relabelling constructions, but
    it is a poor fit for the hot loop shared by every experiment: per
    node radius-r ball extraction over the {e same} immutable graph,
    repeated for all [n] nodes (and, in the soundness samplers, for
    thousands of candidate proofs). This module compiles a graph once
    into three int arrays — row offsets, concatenated adjacency, and a
    dense-index ↔ node-id table — so that neighbour iteration is
    allocation-free and a radius-bounded BFS touches only the ball it
    returns instead of the whole graph.

    A compiled value is immutable and may be shared freely across
    domains; all mutability lives in the per-worker {!scratch}. *)

type t
(** CSR image of a graph. Nodes are renumbered to dense indices
    [0 .. n-1] in increasing identifier order; all functions below
    speak dense indices unless they say otherwise. *)

val of_graph : Graph.t -> t
(** O(n + m). The source graph is not retained. *)

val n : t -> int
val m : t -> int

val node : t -> int -> Graph.node
(** Original identifier of a dense index. Dense indices are assigned in
    increasing identifier order, so [node] is strictly increasing. *)

val index : t -> Graph.node -> int
(** Dense index of an identifier; raises [Invalid_argument] for nodes
    not in the compiled graph. O(1) when the identifier sits at its own
    index ([node t v = v], as for every graph with ids [0 .. n-1], which
    graph6 yields); otherwise a binary search over the sorted
    identifiers (partition shards, relabelled graphs). No table is
    kept. *)

val index_opt : t -> Graph.node -> int option
val degree : t -> int -> int

val iter_neighbours : t -> int -> (int -> unit) -> unit
(** Allocation-free; neighbours arrive in increasing dense-index order
    (equivalently: increasing identifier order, matching
    {!Graph.neighbours}). *)

(** {1 Reusable-scratch bounded BFS} *)

type scratch
(** Mutable per-worker workspace (distance array + BFS queue). One
    scratch must never be shared between domains; allocate one per
    worker with {!scratch} and reuse it across any number of calls. *)

val scratch : t -> scratch

val scratch_of_capacity : int -> scratch
(** A scratch usable with {e any} compiled graph of at most that many
    nodes — the arena primitive: one long-lived scratch per worker
    domain serves every cached graph whose [n] fits, growing (by
    reallocation) only when a bigger graph arrives. *)

val scratch_capacity : scratch -> int

val ball : t -> scratch -> centre:int -> radius:int -> int
(** [ball t s ~centre ~radius] runs a BFS from [centre] truncated at
    [radius] and returns the number of nodes in the ball. Afterwards
    [visited s i] for [i < count] lists the ball in BFS order (centre
    first) and {!node_dist} gives the distance of any visited node.
    Cost is proportional to the ball, not the graph; the scratch is
    recycled lazily so back-to-back calls stay cheap. *)

val visited : scratch -> int -> int
(** [visited s i] is the [i]-th dense index reached by the last
    {!ball} call. *)

val node_dist : t -> scratch -> Graph.node -> int
(** Distance from the last centre; [-1] for unvisited nodes and for
    identifiers not in the graph. Allocation-free; the identifier costs
    what {!index} costs. *)

val ball_neighbours : t -> scratch -> Graph.node -> Graph.node list
(** Identifiers of a node's neighbours that the last {!ball} visited,
    in increasing order: its adjacency in the subgraph induced by the
    ball. Raises [Invalid_argument] for identifiers not in the graph.
    The identifier costs what {!index} costs. *)

(** {1 Induced subgraphs} *)

val extract_subgraph : t -> int array -> t * int array
(** [extract_subgraph t sel] compiles the subgraph induced by the dense
    indices in [sel] (any order; [Invalid_argument] on duplicates or
    out-of-range entries). Kept nodes retain their original
    identifiers, so {!node}/{!index} keep working on the result. Also
    returns the remap table: entry [i'] is the {e old} dense index now
    living at new dense index [i'] (i.e. [sel] sorted increasingly).
    The partitioner carves shards with this; any future dynamic-graph
    work shares it. *)

(** {1 Raw image access}

    The graph6 decoder builds an image straight from the rows it
    scans, and the disk cache persists an image as its three arrays
    and rebuilds it; neither goes through a {!Graph.t}. *)

val export : t -> int array * int array * int array
(** [(offsets, targets, ids)] — aliases of the live arrays; callers
    must not mutate them. *)

val of_rows :
  ids:int array ->
  offsets:int array ->
  targets:int array ->
  (t, string) result
(** An image over raw arrays in {!export}'s layout, kept without a
    copy. O(n + m): [Error] unless the rows pass {!Graph.check_rows}
    (ids non-negative and strictly increasing, offsets framing the
    targets, every row strictly increasing, in range, loop-free and
    mirrored), so bytes from a corrupt cache file or a hostile frame
    cannot become a value that faults later. *)
