(** coLCP(0) ⊆ LogLCP on connected graphs (Section 7.3): to prove that
    an LCP(0) verifier [A] rejects the input somewhere, exhibit a
    spanning tree rooted at a rejecting node; the root re-runs [A] on
    its own view and confirms the rejection, while the tree certificate
    guarantees the root really exists. *)

let complement (inner : Scheme.t) =
  if inner.Scheme.size_bound 1 <> 0 || inner.Scheme.size_bound 1000 <> 0 then
    invalid_arg "Colcp0.complement: inner scheme must be LCP(0)";
  let radius = max 1 inner.Scheme.radius in
  Scheme.make
    ~name:(Printf.sprintf "co-%s" inner.Scheme.name)
    ~radius ~size_bound:Tree_cert.size_bound
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      if Graph.is_empty g || not (Traversal.is_connected g) then None
      else begin
        let rejecting =
          Graph.fold_nodes
            (fun v acc ->
              if Scheme.verifier_output inner inst Proof.empty v then acc
              else v :: acc)
            g []
        in
        match rejecting with
        | [] -> None (* all nodes accept: the input satisfies P *)
        | a :: _ ->
            Some (Tree_cert.proof g ~root:a)
      end)
    ~verifier:(fun view ->
      let cert_of = View.decoded Tree_cert.codec view in
      Tree_cert.check_at view ~cert_of
      &&
      let c = cert_of (View.centre view) in
      if not (Tree_cert.is_root c) then true
      else begin
        (* Re-run the inner verifier at the root with the empty proof.
           Our radius dominates the inner one, so the inner view is a
           restriction of ours. *)
        let inner_view =
          View.make (View.instance view) Proof.empty ~centre:(View.centre view)
            ~radius:inner.Scheme.radius
        in
        not
          (try inner.Scheme.verifier inner_view
           with Bits.Reader.Decode_error _ -> false)
      end)

(** Ready-made instance for Table 1(a)'s "coLCP(0) properties" row:
    non-Eulerian connected graphs. *)
let non_eulerian = complement Eulerian.scheme

