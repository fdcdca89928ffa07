(** Θ(log n): chromatic number > 2 on connected graphs (Section 5.1).
    The witness is an odd cycle: pick a node of the cycle as the
    leader, certify its uniqueness with a spanning tree, and propagate
    a position counter along the cycle, "starting and ending" at the
    leader. Locally: every cycle node names its successor; positions
    increase by one; predecessor pointers are unique; the closing node
    has even position, so the cycle length is odd.

    Soundness: the successor relation on cycle-marked nodes is
    injective (the predecessor-count check), positions strictly
    increase except into the root, so the functional component of the
    root is a single simple cycle of odd length — an odd closed walk,
    which cannot exist in a bipartite graph. *)

type cert = {
  tree : Tree_cert.t;
  cycle : (int * Graph.node) option; (* (position, successor id) *)
}

let encode c =
  let buf = Bits.Writer.create () in
  Tree_cert.write buf c.tree;
  (match c.cycle with
  | None -> Bits.Writer.bool buf false
  | Some (pos, succ) ->
      Bits.Writer.bool buf true;
      Bits.Writer.int_gamma buf pos;
      Bits.Writer.int_gamma buf succ);
  Bits.Writer.contents buf

let codec =
  View.codec @@ fun b ->
  let cur = Bits.Reader.of_bits b in
  let tree = Tree_cert.read cur in
  let cycle =
    if Bits.Reader.bool cur then begin
      let pos = Bits.Reader.int_gamma cur in
      let succ = Bits.Reader.int_gamma cur in
      Some (pos, succ)
    end
    else None
  in
  Bits.Reader.expect_end cur;
  { tree; cycle }

(* From the BFS [b] of a connected graph: the first node in BFS order
   with a neighbour on its own level and its smallest such neighbour
   close an odd cycle with their paths up to their lowest common
   ancestor, listed from it, down to the first node and up again. The
   paths follow BFS discoverers (the level-above neighbour visited
   first), as the hashtable 2-colouring this replaced did. *)
let odd_cycle csr (b : Tree_cert.bfs) =
  let n = Csr.n csr in
  let rec conflict k =
    if k = n then None
    else
      let v = b.order.(k) in
      let same = ref (-1) in
      Csr.iter_neighbours csr v (fun u ->
          if !same < 0 && b.dists.(u) = b.dists.(v) then same := u);
      if !same >= 0 then Some (v, !same) else conflict (k + 1)
  in
  match conflict 0 with
  | None -> None
  | Some (v, u) ->
      let rank = Array.make n 0 in
      Array.iteri (fun k x -> rank.(x) <- k) b.order;
      let discoverer w =
        let best = ref (-1) in
        Csr.iter_neighbours csr w (fun x ->
            if b.dists.(x) = b.dists.(w) - 1 && (!best < 0 || rank.(x) < rank.(!best))
            then best := x);
        !best
      in
      (* [v] and [u] share a level, so they reach the ancestor together *)
      let rec climb xs ys x y =
        if x = y then Array.of_list ((x :: xs) @ List.rev ys)
        else climb (x :: xs) (y :: ys) (discoverer x) (discoverer y)
      in
      Some (climb [] [] v u)

let prove csr =
  Option.map
    (fun cycle ->
      let n = Csr.n csr and len = Array.length cycle and leader = cycle.(0) in
      let t = Tree_cert.bfs csr ~root:leader in
      let pos = Array.make n (-1) in
      Array.iteri (fun k v -> pos.(v) <- k) cycle;
      Proof.of_csr csr
        (Array.init n (fun i ->
             let cycle =
               if pos.(i) < 0 then None
               else Some (pos.(i), Csr.node csr cycle.((pos.(i) + 1) mod len))
             in
             encode { tree = Tree_cert.cert csr t i; cycle })))
    (Option.bind (Tree_cert.spanning csr) (odd_cycle csr))

let scheme =
  Scheme.make ~name:"chromatic-gt-2" ~radius:1
    ~size_bound:(fun n -> Tree_cert.size_bound n + (8 * Bits.int_width (max 2 n)) + 4)
    ~prover:(fun inst -> prove (Instance.csr inst))
    ~verifier:(fun view ->
      let v = View.centre view in
      let cert_of = View.decoded codec view in
      let c = cert_of v in
      let neighbours = View.neighbours view v in
      Tree_cert.check_at view ~cert_of:(fun u -> (cert_of u).tree)
      &&
      let on_cycle u = (cert_of u).cycle <> None in
      let preds =
        List.filter
          (fun u ->
            match (cert_of u).cycle with
            | Some (_, succ) -> succ = v
            | None -> false)
          neighbours
      in
      match c.cycle with
      | None ->
          (* Off-cycle nodes must not be pointed at, and the root must
             be on the cycle. *)
          preds = [] && not (Tree_cert.is_root c.tree)
      | Some (pos, succ) ->
          List.length preds = 1
          && List.mem succ neighbours
          && on_cycle succ
          && (pos = 0) = Tree_cert.is_root c.tree
          && (match (cert_of succ).cycle with
             | Some (spos, _) ->
                 if spos = 0 then pos mod 2 = 0 && pos > 0
                 else spos = pos + 1
             | None -> false))
