(** Counting the nodes of a connected graph with a certified spanning
    tree (Section 5.1): every node stores its subtree size alongside
    the tree certificate; the root learns n(G) and checks the desired
    predicate. Also the Θ(1) parity scheme for the family of cycles:
    a cycle is even iff it is 2-colourable. *)

type cert = { tree : Tree_cert.t; count : int }

let encode c =
  let buf = Bits.Writer.create () in
  Tree_cert.write buf c.tree;
  Bits.Writer.int_gamma buf c.count;
  Bits.Writer.contents buf

let codec =
  View.codec @@ fun b ->
  let cur = Bits.Reader.of_bits b in
  let tree = Tree_cert.read cur in
  let count = Bits.Reader.int_gamma cur in
  Bits.Reader.expect_end cur;
  { tree; count }

(* One BFS from the smallest node; subtree sizes summed in reverse BFS
   order, each node adding its finished count to its parent's. *)
let prove csr =
  let n = Csr.n csr in
  Option.map
    (fun (b : Tree_cert.bfs) ->
      let count = Array.make n 1 in
      for k = n - 1 downto 1 do
        let v = b.order.(k) in
        count.(b.parents.(v)) <- count.(b.parents.(v)) + count.(v)
      done;
      Proof.of_csr csr
        (Array.init n (fun i ->
             encode { tree = Tree_cert.cert csr b i; count = count.(i) })))
    (Tree_cert.spanning csr)

(** [scheme ~name ~accept_n] proves any decidable predicate of n(G) on
    connected graphs with Θ(log n) bits — used for "odd number of
    nodes" (tight by the gluing lower bound) and relatives. *)
let scheme ~name ~accept_n =
  Scheme.make ~name ~radius:1
    ~size_bound:(fun n -> Tree_cert.size_bound n + (2 * Bits.int_width (max 2 n)) + 2)
    ~prover:(fun inst ->
      let csr = Instance.csr inst in
      if accept_n (Csr.n csr) then prove csr else None)
    ~verifier:(fun view ->
      let v = View.centre view in
      let cert_of = View.decoded codec view in
      let c = cert_of v in
      Tree_cert.check_at view ~cert_of:(fun u -> (cert_of u).tree)
      &&
      let child_sum =
        List.fold_left
          (fun acc u ->
            let cu = cert_of u in
            if cu.tree.Tree_cert.parent = Some v then acc + cu.count else acc)
          0 (View.neighbours view v)
      in
      c.count = 1 + child_sum
      && (if Tree_cert.is_root c.tree then accept_n c.count else true))

let odd_n = scheme ~name:"odd-n" ~accept_n:(fun n -> n mod 2 = 1)
let even_n = scheme ~name:"even-n" ~accept_n:(fun n -> n mod 2 = 0)

let exact_n target =
  scheme ~name:(Printf.sprintf "n-equals-%d" target) ~accept_n:(fun n -> n = target)

(** Θ(1) parity on the family of cycles: even cycles are exactly the
    bipartite ones, so one alternating bit per node suffices
    (Table 1(a): "even n(G) / cycles"). *)
let even_cycle =
  Scheme.make ~name:"even-n-cycle" ~radius:1
    ~size_bound:(fun _ -> 1)
    ~prover:(fun inst ->
      let csr = Instance.csr inst in
      if Csr.n csr mod 2 = 0 then Bipartite_scheme.prove csr else None)
    ~verifier:(fun view ->
      let bit u =
        let b = View.proof_of view u in
        Bits.length b >= 1 && Bits.get b 0
      in
      let v = View.centre view in
      List.for_all (fun u -> bit u <> bit v) (View.neighbours view v))
