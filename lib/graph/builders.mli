(** Deterministic graph constructions used throughout the schemes,
    tests and benchmarks. Unless stated otherwise, node identifiers are
    [0 .. n-1]. *)

val cycle : int -> Graph.t
(** [cycle n] is the n-cycle, [n >= 3]. *)

val cycle_of_ids : int list -> Graph.t
(** A cycle visiting the given distinct identifiers in order; the list
    must have length at least 3. Used by the gluing construction, which
    needs cycles over prescribed non-contiguous identifiers. *)

val path : int -> Graph.t
(** [path n] is the path with [n >= 1] nodes. *)

val complete : int -> Graph.t

val star : int -> Graph.t
(** [star k] has centre 0 and leaves [1..k]. *)

val grid : int -> int -> Graph.t
(** [grid rows cols]; node at (r, c) has id [r * cols + c]. Planar. *)

val wheel : int -> Graph.t
(** [wheel k] is a k-cycle plus a hub adjacent to all; chromatic number
    4 when [k] is odd. *)

