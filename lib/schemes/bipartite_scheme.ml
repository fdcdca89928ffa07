(** LCP(1): bipartite graphs (Section 1.2). The proof is a 2-colouring,
    one bit per node; every node checks that all its neighbours carry
    the opposite bit. Non-bipartite graphs contain an odd cycle, along
    which no bit assignment can alternate — some node always rejects. *)

(* Each component's BFS from its smallest node colours by distance
   parity; the colouring is proper exactly when no edge joins two
   nodes of one parity. *)
let prove csr =
  let b = Tree_cert.bfs_forest csr in
  let odd i = b.dists.(i) land 1 = 1 in
  let proper = ref true in
  for i = 0 to Csr.n csr - 1 do
    Csr.iter_neighbours csr i (fun j -> if odd i = odd j then proper := false)
  done;
  if not !proper then None
  else Some (Proof.of_csr csr (Array.init (Csr.n csr) (fun i -> Bits.one_bit (odd i))))

let scheme =
  Scheme.make ~name:"bipartite" ~radius:1
    ~size_bound:(fun _ -> 1)
    ~prover:(fun inst -> prove (Instance.csr inst))
    ~verifier:(fun view ->
      let v = View.centre view in
      let bit u =
        let b = View.proof_of view u in
        Bits.length b >= 1 && Bits.get b 0
      in
      let mine = bit v in
      List.for_all (fun u -> bit u <> mine) (View.neighbours view v))

