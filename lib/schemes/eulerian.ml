(** LCP(0): Eulerian graphs (Section 1.1). On the family of connected
    graphs, a graph is Eulerian iff every degree is even — each node
    checks its own degree, no proof needed. *)

let scheme =
  Scheme.make ~name:"eulerian" ~radius:1
    ~size_bound:(fun _ -> 0)
    ~prover:(fun inst ->
      if Euler.is_eulerian (Instance.graph inst) then Some Proof.empty else None)
    ~verifier:(fun view ->
      View.degree_in_view view (View.centre view) mod 2 = 0)

