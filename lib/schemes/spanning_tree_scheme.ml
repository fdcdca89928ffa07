(** Θ(log n): verifying that the edges labelled 1 form a spanning tree
    (Korman–Kutten–Peleg; Section 5.1 and Table 1(b)). This is a
    {e strong} scheme: the tree is chosen by the adversary and the
    prover must certify whatever it is given — any spanning tree can be
    rooted anywhere and equipped with root/distance/parent labels. *)

let scheme =
  Scheme.make ~name:"spanning-tree" ~radius:1 ~size_bound:Tree_cert.size_bound
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      let edges = Instance.flagged_edges inst in
      match Graph.nodes g with
      | [] -> None
      | root :: _ -> (
          match Tree_cert.prove_tree g ~edges ~root with
          | None -> None
          | Some certs ->
              Some
                (List.fold_left
                   (fun p (v, c) -> Proof.set p v (Tree_cert.encode c))
                   Proof.empty certs)))
    ~verifier:(fun view ->
      let v = View.centre view in
      let cert_of = View.decoded Tree_cert.codec view in
      let c = cert_of v in
      let flagged u =
        let l = View.edge_label_of view v u in
        Bits.length l >= 1 && Bits.get l 0
      in
      Tree_cert.check_at view ~cert_of
      && (match c.Tree_cert.parent with
         | None -> true
         | Some p -> flagged p)
      && List.for_all
           (fun u ->
             (* Every flagged incident edge is a parent edge in one of
                the two directions — flagged = tree edges exactly. *)
             (not (flagged u))
             || c.Tree_cert.parent = Some u
             || (cert_of u).Tree_cert.parent = Some v)
           (View.neighbours view v))

