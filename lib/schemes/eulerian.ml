(** LCP(0): Eulerian graphs (Section 1.1). On the family of connected
    graphs, a graph is Eulerian iff every degree is even — each node
    checks its own degree, no proof needed. *)

let scheme =
  Scheme.make ~name:"eulerian" ~radius:1
    ~size_bound:(fun _ -> 0)
    ~prover:(fun inst ->
      let csr = Instance.csr inst in
      let rec even i = i = Csr.n csr || (Csr.degree csr i land 1 = 0 && even (i + 1)) in
      if even 0 && (Csr.n csr = 0 || Tree_cert.spanning csr <> None) then Some Proof.empty
      else None)
    ~verifier:(fun view ->
      View.degree_in_view view (View.centre view) mod 2 = 0)

