(* Degenerate instances, malformed proofs, and API invariants. A
   malformed proof must be *rejected*, never crash the verifier — the
   adversary controls every proof bit. *)

let check = Alcotest.(check bool)

let garbage_proofs_rejected_not_crashing () =
  let st = Random.State.make [| 99 |] in
  List.iter
    (fun (e : Registry.entry) ->
      match e.Registry.yes st 8 with
      | None -> ()
      | Some inst ->
          let g = Instance.graph inst in
          (* long random garbage at every node *)
          for trial = 1 to 5 do
            let proof =
              Graph.fold_nodes
                (fun v p -> Proof.set p v (Bits.random st (20 + trial)))
                g Proof.empty
            in
            (* must return a verdict (never raise) *)
            match Scheme.decide e.Registry.scheme inst proof with
            | Scheme.Accept | Scheme.Reject _ -> ()
          done)
    Registry.all;
  check "no verifier crashed on garbage" true true

let truncated_proofs_rejected () =
  (* cutting a valid proof mid-field must be caught by the decoder *)
  let inst = Instance.of_graph (Builders.cycle 9) in
  match Scheme.prove_and_check Counting.odd_n inst with
  | `Accepted proof ->
      let truncated = Proof.map (fun _ b -> Bits.take 3 b) proof in
      check "truncated proof rejected" false
        (Scheme.accepts Counting.odd_n inst truncated)
  | _ -> Alcotest.fail "prover failed"

let single_node () =
  let k1 = Instance.of_graph (Graph.add_node Graph.empty 5) in
  (* Eulerian: degree 0 is even *)
  check "K1 eulerian" true (Scheme.accepts Eulerian.scheme k1 Proof.empty);
  (* bipartite: trivially *)
  (match Scheme.prove_and_check Bipartite_scheme.scheme k1 with
  | `Accepted _ -> ()
  | _ -> Alcotest.fail "K1 should be bipartite");
  (* counting: n = 1 is odd *)
  (match Scheme.prove_and_check Counting.odd_n k1 with
  | `Accepted _ -> ()
  | _ -> Alcotest.fail "K1 has odd n");
  (* leader: the node itself *)
  match
    Scheme.prove_and_check Leader_election.strong (Leader_election.mark_leader k1 5)
  with
  | `Accepted _ -> ()
  | _ -> Alcotest.fail "K1 leader election"

let two_nodes () =
  let p2 = Instance.of_graph (Builders.path 2) in
  (match Scheme.prove_and_check Bipartite_scheme.scheme p2 with
  | `Accepted proof -> check "1 bit" true (Proof.size proof <= 1)
  | _ -> Alcotest.fail "P2 bipartite");
  (* P2 is a tree with a fixpoint-free swap *)
  match Scheme.prove_and_check Tree_universal.fixpoint_free_symmetry p2 with
  | `Accepted _ -> ()
  | _ -> Alcotest.fail "P2 has the swap"

let instance_invariants () =
  let g = Builders.path 3 in
  let inst = Instance.of_graph g in
  Alcotest.check_raises "unknown node label"
    (Invalid_argument "Instance.with_node_label: unknown node") (fun () ->
      ignore (Instance.with_node_label inst 99 (Bits.of_string "1")));
  Alcotest.check_raises "non-edge label"
    (Invalid_argument "Instance.with_edge_label: not an edge") (fun () ->
      ignore (Instance.with_edge_label inst 0 2 (Bits.of_string "1")));
  Alcotest.check_raises "flagging a non-edge"
    (Invalid_argument "Instance.flag_edges: not an edge") (fun () ->
      ignore (Instance.flag_edges inst [ (0, 2) ]))

let view_radius_zero () =
  let g = Builders.cycle 5 in
  let view = View.make (Instance.of_graph g) Proof.empty ~centre:2 ~radius:0 in
  check "alone" true (Graph.nodes (View.graph view) = [ 2 ]);
  check "no neighbours" true (View.neighbours view 2 = []);
  check "boundary" true (View.dist_to_centre view 2 = View.radius view)

let relabel_digraph_orientation () =
  (* relabelling must keep arc orientations straight even when the
     (min, max) normalisation flips *)
  let d = Digraph.of_arcs [ (1, 2) ] in
  let inst = Instance.of_digraph d in
  (* swap ids so 1 < 2 becomes 10 > 5 *)
  let inst' = Instance.relabel inst (fun v -> if v = 1 then 10 else 5) in
  check "arc follows relabelling" true (Instance.arc_exists inst' 10 5);
  check "no reverse arc" false (Instance.arc_exists inst' 5 10)

let empty_proof_is_total () =
  let g = Builders.cycle 4 in
  let view = View.make (Instance.of_graph g) Proof.empty ~centre:0 ~radius:1 in
  check "empty everywhere" true (Bits.equal (View.proof_of view 1) Bits.empty)

let gluing_guards () =
  Alcotest.check_raises "odd_cycles needs odd n"
    (Invalid_argument "Gluing.odd_cycles: need odd n >= 7") (fun () ->
      ignore (Gluing.odd_cycles ~n:8));
  Alcotest.check_raises "matching_cycles needs odd n"
    (Invalid_argument "Gluing.matching_cycles: need odd n >= 7") (fun () ->
      ignore (Gluing.matching_cycles ~n:8))

let scheme_guards () =
  Alcotest.check_raises "colcp0 wants LCP(0)"
    (Invalid_argument "Colcp0.complement: inner scheme must be LCP(0)") (fun () ->
      ignore (Colcp0.complement Bipartite_scheme.scheme));
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Scheme.make: negative radius") (fun () ->
      ignore
        (Scheme.make ~name:"x" ~radius:(-1)
           ~size_bound:(fun _ -> 0)
           ~prover:(fun _ -> None)
           ~verifier:(fun _ -> true)))

let suite =
  ( "edge-cases",
    [
      Alcotest.test_case "garbage proofs never crash" `Slow
        garbage_proofs_rejected_not_crashing;
      Alcotest.test_case "truncated proofs rejected" `Quick truncated_proofs_rejected;
      Alcotest.test_case "single node" `Quick single_node;
      Alcotest.test_case "two nodes" `Quick two_nodes;
      Alcotest.test_case "instance invariants" `Quick instance_invariants;
      Alcotest.test_case "radius-0 views" `Quick view_radius_zero;
      Alcotest.test_case "digraph relabelling" `Quick relabel_digraph_orientation;
      Alcotest.test_case "empty proof is total" `Quick empty_proof_is_total;
      Alcotest.test_case "gluing guards" `Quick gluing_guards;
      Alcotest.test_case "scheme guards" `Quick scheme_guards;
    ] )
