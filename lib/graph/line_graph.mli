(** Line-graph recognition — the paper's second LCP(0) example.

    Two independent characterisations are implemented:

    - {b Krausz}: a graph is a line graph iff its edge set partitions
      into cliques with every node in at most two cliques (found by
      backtracking; ground truth in tests).
    - {b Beineke}: a graph is a line graph iff it contains none of nine
      forbidden induced subgraphs, written out as edge lists. The tests
      derive the same nine — the minimal non-line graphs on at most 6
      nodes, from {!Enumerate.all_graphs} with the Krausz test — and
      check the two sets agree up to isomorphism.

    The Beineke form is what makes the property locally checkable:
    every forbidden pattern fits inside a radius-5 ball. *)

val is_line_graph_krausz : Graph.t -> bool
(** Exponential backtracking; intended for small graphs. *)

val forbidden_subgraphs : Graph.t list
(** Beineke's nine minimal non-line graphs, the claw K_{1,3} first. *)

val is_line_graph : Graph.t -> bool
(** No forbidden induced subgraph. Polynomial (pattern size ≤ 6). *)

val of_root_graph : Graph.t -> Graph.t
(** The line graph L(G) of a root graph (fresh contiguous ids) —
    a generator of guaranteed yes-instances. *)
