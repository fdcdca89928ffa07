(** Breadth-first and depth-first primitives: distances, components,
    radius-r balls (the heart of the LOCAL model), and tree utilities. *)

val bfs_distances : ?radius:int -> Graph.t -> Graph.node -> (Graph.node * int) list
(** Distances from the source to every node reachable from it within
    [radius] hops (default: all), in increasing identifier order. The
    search stops at the radius, so it costs the ball, not the graph. *)

val distance : Graph.t -> Graph.node -> Graph.node -> int option
(** Shortest-path length, [None] when disconnected. *)

val shortest_path : Graph.t -> Graph.node -> Graph.node -> Graph.node list option
(** A shortest path (list of nodes, endpoints included). *)

val ball : Graph.t -> Graph.node -> int -> Graph.node list
(** [ball g v r] is [V[v, r]]: all nodes within distance [r] of [v],
    sorted. This is exactly the paper's radius-[r] neighbourhood. *)

val component : Graph.t -> Graph.node -> Graph.node list
(** Connected component containing the node, sorted. *)

val components : Graph.t -> Graph.node list list
(** All connected components, each sorted, ordered by smallest member. *)

val is_connected : Graph.t -> bool
(** The empty graph counts as connected. *)

val spanning_tree : Graph.t -> Graph.node -> (Graph.node * Graph.node) list
(** BFS spanning tree of the component of the given root, as a list of
    (child, parent) pairs — the root has no pair. *)

val dfs_intervals : Graph.t -> Graph.node -> (Graph.node * (int * int)) list
(** Discovery/finishing times of a DFS over the component of the root,
    as used by the M2-model identifier scheme of Section 7.1. Times
    count node events: each node is discovered once and finished once,
    so times range over [0 .. 2·size-1]. *)

val diameter : Graph.t -> int
(** Largest eccentricity; raises [Invalid_argument] if the graph is
    empty or disconnected. *)
