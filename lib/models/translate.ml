(** The two scheme translations of Section 7.1, showing that LogLCP is
    the same class in model M1 (unique identifiers) and model M2 (port
    numbering plus a leader) — each direction costs O(log n) extra
    proof bits.

    - [m1_of_m2]: an M2 scheme needs a designated leader; in M1 the
      prover elects one (and certifies uniqueness with a spanning
      tree), then runs the M2 scheme.
    - [m2_of_m1]: an M1 scheme needs unique identifiers; in M2 the
      prover synthesises them from DFS intervals on a certified
      spanning tree, whose local consistency forces global uniqueness.
      The resulting verifier never reads the true identifiers except
      through the proof, which is exactly what "works under port
      numbering" means operationally. *)

(* --- M2 -> M1 ------------------------------------------------------ *)

(* Outer proof: leader bit ++ tree certificate ++ gamma(len) ++ inner
   proof bits. *)
let encode_m1 ~leader ~cert ~inner =
  let buf = Bits.Writer.create () in
  Bits.Writer.bool buf leader;
  Tree_cert.write buf cert;
  Bits.Writer.int_gamma buf (Bits.length inner);
  Bits.Writer.bits buf inner;
  Bits.Writer.contents buf

let m1_codec =
  View.codec @@ fun b ->
  let cur = Bits.Reader.of_bits b in
  let leader = Bits.Reader.bool cur in
  let cert = Tree_cert.read cur in
  let len = Bits.Reader.int_gamma cur in
  if len > Bits.Reader.remaining cur then
    raise (Bits.Reader.Decode_error "inner proof overruns");
  let inner = Bits.of_bools (List.init len (fun _ -> Bits.Reader.bool cur)) in
  Bits.Reader.expect_end cur;
  (leader, cert, inner)

(** [m1_of_m2 inner] — [inner] expects instances whose node labels mark
    exactly one leader (bit 0). The result works on unmarked instances
    of the same property over connected graphs. *)
let m1_of_m2 (inner : Scheme.t) =
  let radius = max 1 inner.Scheme.radius in
  Scheme.make
    ~name:(Printf.sprintf "m1-of-m2-%s" inner.Scheme.name)
    ~radius
    ~size_bound:(fun n -> Tree_cert.size_bound n + inner.Scheme.size_bound n + (2 * Bits.int_width (max 2 n)) + 4)
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      if Graph.is_empty g || not (Traversal.is_connected g) then None
      else begin
        let leader = List.hd (Graph.nodes g) in
        let marked =
          Instance.with_node_labels inst
            (List.map (fun v -> (v, Bits.one_bit (v = leader))) (Graph.nodes g))
        in
        match inner.Scheme.prover marked with
        | None -> None
        | Some inner_proof ->
            let certs = Tree_cert.prove g ~root:leader in
            Some
              (List.fold_left
                 (fun p (v, cert) ->
                   Proof.set p v
                     (encode_m1 ~leader:(v = leader) ~cert
                        ~inner:(Proof.get inner_proof v)))
                 Proof.empty certs)
      end)
    ~verifier:(fun view ->
      let m1 = View.decoded m1_codec view in
      let cert_of u =
        let _, c, _ = m1 u in
        c
      in
      let v = View.centre view in
      let leader, cert, _ = m1 v in
      Tree_cert.check_at view ~cert_of
      && Bool.equal leader (Tree_cert.is_root cert)
      &&
      (* Re-run the inner verifier with leader marks and inner proof
         taken from the outer proof. *)
      let ball = Graph.nodes (View.graph view) in
      let marked_inst =
        Instance.with_node_labels (View.instance view)
          (List.map
             (fun u ->
               let l, _, _ = m1 u in
               (u, Bits.one_bit l))
             ball)
      in
      let inner_proof =
        List.fold_left
          (fun p u ->
            let _, _, ib = m1 u in
            Proof.set p u ib)
          Proof.empty ball
      in
      let inner_view =
        View.make marked_inst inner_proof ~centre:v ~radius:inner.Scheme.radius
      in
      try inner.Scheme.verifier inner_view
      with Bits.Reader.Decode_error _ -> false)

(* --- M1 -> M2 ------------------------------------------------------ *)

(* Outer proof: DFS interval ++ gamma(len) ++ inner proof bits (the
   inner proof is for the graph relabelled with the interval-derived
   identifiers). Crucially there is NO true-identifier content: the
   spanning tree itself is recovered from interval containment, so the
   whole proof — like a genuine M2 object — survives renaming the
   nodes. *)
let encode_m2 ~interval ~inner =
  let buf = Bits.Writer.create () in
  Dfs_labels.write buf interval;
  Bits.Writer.int_gamma buf (Bits.length inner);
  Bits.Writer.bits buf inner;
  Bits.Writer.contents buf

let m2_codec =
  View.codec @@ fun b ->
  let cur = Bits.Reader.of_bits b in
  let interval = Dfs_labels.read cur in
  let len = Bits.Reader.int_gamma cur in
  if len > Bits.Reader.remaining cur then
    raise (Bits.Reader.Decode_error "inner proof overruns");
  let inner = Bits.of_bools (List.init len (fun _ -> Bits.Reader.bool cur)) in
  Bits.Reader.expect_end cur;
  (interval, inner)

(* Interval relations. DFS times are globally unique in honest proofs,
   so any shared endpoint is an immediate rejection. *)
type relation = Disjoint | Contains_me | Inside_me | Overlap

let relate ~(mine : Dfs_labels.interval) (other : Dfs_labels.interval) =
  let d = mine.Dfs_labels.disc and f = mine.Dfs_labels.fin in
  let du = other.Dfs_labels.disc and fu = other.Dfs_labels.fin in
  if fu < d || f < du then Disjoint
  else if du < d && f < fu then Contains_me
  else if d < du && fu < f then Inside_me
  else Overlap

(* The chain rule: the intervals of the contained neighbours must tile
   (disc, fin) exactly — first child at disc+1, each next at the
   previous fin + 1, last ending at fin - 1 — and every contained
   neighbour must be used. This forces the intervals to be the exact
   DFS numbering of the containment tree. *)
let chain_ok ~mine contained =
  let d = mine.Dfs_labels.disc and f = mine.Dfs_labels.fin in
  let rec walk needed remaining =
    if needed = f then remaining = []
    else
      match
        List.partition (fun (i : Dfs_labels.interval) -> i.Dfs_labels.disc = needed) remaining
      with
      | [ child ], rest ->
          child.Dfs_labels.fin < f && walk (child.Dfs_labels.fin + 1) rest
      | _ -> false
  in
  walk (d + 1) contained

(** [m2_of_m1 inner] — instances must mark a leader (bit 0 of the node
    label); the verifier uses real identifiers only to address proof
    strings, never as data: all identifier-dependent reasoning happens
    on the proof-supplied DFS identifiers. *)
let m2_of_m1 (inner : Scheme.t) =
  let radius = max 1 inner.Scheme.radius in
  Scheme.make
    ~name:(Printf.sprintf "m2-of-m1-%s" inner.Scheme.name)
    ~radius
    ~size_bound:(fun n -> Tree_cert.size_bound n + inner.Scheme.size_bound n + (8 * Bits.int_width (max 2 n)) + 8)
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      match Instance.marked_exactly_one inst with
      | None -> None
      | Some leader ->
          if not (Traversal.is_connected g) then None
          else begin
            (* BFS spanning tree rooted at the leader; DFS intervals on
               it. BFS matters for completeness: in a BFS tree the only
               graph-neighbour whose interval contains a node's is its
               parent (graph edges never skip BFS levels). *)
            let tree_pairs = Traversal.spanning_tree g leader in
            let tree =
              List.fold_left
                (fun acc (v, p) -> Graph.add_edge acc v p)
                (Graph.fold_nodes (fun v acc -> Graph.add_node acc v) g Graph.empty)
                tree_pairs
            in
            let intervals = Dfs_labels.assign tree ~root:leader in
            let id_of = Hashtbl.create 64 in
            List.iter
              (fun (v, i) -> Hashtbl.replace id_of v (Dfs_labels.to_id i))
              intervals;
            let relabelled = Instance.relabel inst (Hashtbl.find id_of) in
            match inner.Scheme.prover relabelled with
            | None -> None
            | Some inner_proof ->
                Some
                  (List.fold_left
                     (fun p (v, interval) ->
                       Proof.set p v
                         (encode_m2 ~interval
                            ~inner:(Proof.get inner_proof (Hashtbl.find id_of v))))
                     Proof.empty intervals)
          end)
    ~verifier:(fun view ->
      let v = View.centre view in
      let parse = View.decoded m2_codec view in
      let interval, _ = parse v in
      let leader_bit =
        let l = View.label_of view v in
        Bits.length l >= 1 && Bits.get l 0
      in
      let neighbours = View.neighbours view v in
      let relations =
        List.map (fun u -> relate ~mine:interval (fst (parse u))) neighbours
      in
      interval.Dfs_labels.disc >= 0
      && interval.Dfs_labels.fin > interval.Dfs_labels.disc
      (* the leader is exactly the time origin *)
      && Bool.equal leader_bit (interval.Dfs_labels.disc = 0)
      (* no partial interval overlaps *)
      && List.for_all (fun r -> r <> Overlap) relations
      (* exactly one parent (strict container), none at the root *)
      && List.length (List.filter (fun r -> r = Contains_me) relations)
         = (if interval.Dfs_labels.disc = 0 then 0 else 1)
      (* contained neighbours tile my interval exactly *)
      && chain_ok ~mine:interval
           (List.filter_map
              (fun u ->
                let i, _ = parse u in
                if relate ~mine:interval i = Inside_me then Some i else None)
              neighbours)
      &&
      (* Simulate the M1 verifier on the relabelled ball. *)
      let ball = Graph.nodes (View.graph view) in
      let id_of = Hashtbl.create 16 in
      List.iter
        (fun u ->
          let i, _ = parse u in
          Hashtbl.replace id_of u (Dfs_labels.to_id i))
        ball;
      match
        let relabelled =
          Instance.relabel (View.instance view) (Hashtbl.find id_of)
        in
        let inner_proof =
          List.fold_left
            (fun p u ->
              let _, ib = parse u in
              Proof.set p (Hashtbl.find id_of u) ib)
            Proof.empty ball
        in
        let inner_view =
          View.make relabelled inner_proof ~centre:(Hashtbl.find id_of v)
            ~radius:inner.Scheme.radius
        in
        inner.Scheme.verifier inner_view
      with
      | exception Invalid_argument _ ->
          false (* identifier collision inside the ball: reject *)
      | exception Bits.Reader.Decode_error _ -> false
      | ok -> ok)
