(** The catalog of sampled scheme variants: existing deterministic
    schemes wrapped as {!Randomized_scheme.t}s whose verifiers read a
    PRG-chosen subset of neighbours / certificate cells within the
    per-node query budget. Keys are the {e registry} names ("the
    stable public identifiers"), so a [Verify_sampled] wire frame, the
    daemon's compiled-graph cache and the router's affinity key all
    agree with the deterministic paths. *)

val all : (string * Randomized_scheme.t) list
(** [(registry name, sampled variant)] for every wrapped scheme. *)

val find : string -> Randomized_scheme.t option
(** Look up by registry name ("bipartite", "spanning-tree",
    "st-unreach"). *)
