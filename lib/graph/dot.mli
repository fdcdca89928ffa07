(** Graphviz DOT export, for eyeballing instances, proofs and the
    lower-bound constructions ([lcp dot], or programmatically). *)

val of_graph :
  ?name:string ->
  ?node_attrs:(Graph.node -> (string * string) list) ->
  ?edge_attrs:(Graph.node -> Graph.node -> (string * string) list) ->
  Graph.t ->
  string
(** Undirected DOT ([graph { … }]). Attribute callbacks return
    [(key, value)] pairs rendered as [key="value"]. *)

