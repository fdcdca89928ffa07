(** Conventions for the distinguished nodes s and t of the
    reachability/connectivity problems (Section 4): the input promise
    is that exactly one node carries each mark. Node label layout:
    bit 0 = "I am s", bit 1 = "I am t". *)

val s_label : Bits.t
val t_label : Bits.t

val of_graph : Graph.t -> s:Graph.node -> t:Graph.node -> Instance.t
val of_digraph : Digraph.t -> s:Graph.node -> t:Graph.node -> Instance.t

val is_s_label : Bits.t -> bool
val is_t_label : Bits.t -> bool

val is_s : View.t -> Graph.node -> bool
(** Reads the mark of a node inside a view. *)

val is_t : View.t -> Graph.node -> bool

val find : Instance.t -> (Graph.node * Graph.node) option
(** [(s, t)] when the promise holds — exactly one node of each mark. *)
