(** LCP(0): line graphs (Section 1.1). By Beineke's characterisation a
    graph is a line graph iff it has no forbidden induced subgraph from
    a fixed list of nine graphs on at most 6 nodes. Each forbidden
    pattern is connected with at most 6 nodes, hence contained in the
    radius-5 ball of any of its nodes: a radius-5 verifier that rejects
    when its ball contains a forbidden pattern is complete and sound
    with zero proof bits. *)

let radius = 5

let scheme =
  Scheme.make ~name:"line-graph" ~radius
    ~size_bound:(fun _ -> 0)
    ~prover:(fun inst ->
      if Line_graph.is_line_graph (Instance.graph inst) then Some Proof.empty
      else None)
    ~verifier:(fun view ->
      let ball = View.graph view in
      not
        (List.exists
           (fun pattern -> Subgraph_iso.contains_induced ~pattern ball)
           Line_graph.forbidden_subgraphs))

