(** LCP(1): bipartite graphs (Section 1.2). The proof is a 2-colouring,
    one bit per node; every node checks that all its neighbours carry
    the opposite bit. Non-bipartite graphs contain an odd cycle, along
    which no bit assignment can alternate — some node always rejects. *)

let scheme =
  Scheme.make ~name:"bipartite" ~radius:1
    ~size_bound:(fun _ -> 1)
    ~prover:(fun inst ->
      match Bipartite.two_colouring (Instance.graph inst) with
      | None -> None
      | Some colour ->
          Some
            (Graph.fold_nodes
               (fun v p -> Proof.set p v (Bits.one_bit (colour v)))
               (Instance.graph inst) Proof.empty))
    ~verifier:(fun view ->
      let v = View.centre view in
      let bit u =
        let b = View.proof_of view u in
        Bits.length b >= 1 && Bits.get b 0
      in
      let mine = bit v in
      List.for_all (fun u -> bit u <> mine) (View.neighbours view v))

