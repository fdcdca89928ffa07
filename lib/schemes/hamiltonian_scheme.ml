(** Θ(log n): Hamiltonian cycle verification (Section 5.1 — "a
    Hamiltonian path can be interpreted as a spanning tree"). The
    flagged edges are the claimed cycle; the proof removes one cycle
    edge and certifies the rest as a spanning path rooted at one end:

    - every node has exactly two flagged incident edges;
    - the tree certificate's parent edge is flagged and positions
      (= tree distances) decrease towards the root;
    - a non-root node's second flagged neighbour is its unique child —
      or the root, making it the closing node;
    - the root's flagged neighbours are exactly one child and one
      non-child (the other end of the path).

    The certificate forces the flagged set to be a spanning path plus
    the closing edge: a Hamiltonian cycle. *)

let flagged view u w =
  let l = View.edge_label_of view u w in
  Bits.length l >= 1 && Bits.get l 0

let scheme =
  Scheme.make ~name:"hamiltonian-cycle" ~radius:1 ~size_bound:Tree_cert.size_bound
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      let cycle_edges = Instance.flagged_edges inst in
      let n = Graph.n g in
      if n < 3 || List.length cycle_edges <> n then None
      else begin
        (* Walk the flagged 2-regular structure from the smallest node;
           it must be a single cycle through all nodes. *)
        let adj = Hashtbl.create 64 in
        List.iter
          (fun (u, v) ->
            Hashtbl.add adj u v;
            Hashtbl.add adj v u)
          cycle_edges;
        if not (Graph.fold_nodes (fun v acc -> acc && List.length (Hashtbl.find_all adj v) = 2) g true)
        then None
        else begin
          let start = List.hd (Graph.nodes g) in
          let rec walk acc prev v =
            if v = start then List.rev acc
            else
              match Hashtbl.find_all adj v with
              | [ a; b ] -> walk (v :: acc) v (if a = prev then b else a)
              | _ -> acc (* unreachable: degrees checked above *)
          in
          let first = List.hd (Hashtbl.find_all adj start) in
          let order = start :: walk [ ] start first in
          if List.length order <> n then None
          else begin
            let arr = Array.of_list order in
            Some
              (Array.to_list arr
              |> List.mapi (fun i v ->
                     ( v,
                       Tree_cert.encode
                         {
                           Tree_cert.root = arr.(0);
                           dist = i;
                           parent = (if i = 0 then None else Some arr.(i - 1));
                         } ))
              |> List.fold_left (fun p (v, b) -> Proof.set p v b) Proof.empty)
          end
        end
      end)
    ~verifier:(fun view ->
      let v = View.centre view in
      let cert_of = View.decoded Tree_cert.codec view in
      let c = cert_of v in
      let flagged_nbrs = List.filter (flagged view v) (View.neighbours view v) in
      Tree_cert.check_at view ~cert_of
      && List.length flagged_nbrs = 2
      &&
      let claims_me u = (cert_of u).Tree_cert.parent = Some v in
      match c.Tree_cert.parent with
      | None ->
          (* Root: one flagged neighbour is its child, the other is the
             closing end (not a child). *)
          List.length (List.filter claims_me flagged_nbrs) = 1
      | Some p ->
          List.mem p flagged_nbrs
          &&
          let others = List.filter (fun u -> u <> p) flagged_nbrs in
          (match others with
          | [ u ] -> claims_me u || Tree_cert.is_root (cert_of u)
          | _ -> false))

