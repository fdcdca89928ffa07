let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let st seed = Random.State.make [| seed |]

let proof_basics () =
  let p = Proof.of_list [ (1, Bits.of_string "101"); (2, Bits.of_string "1") ] in
  check_int "size" 3 (Proof.size p);
  check "get" true (Bits.equal (Proof.get p 1) (Bits.of_string "101"));
  check "missing is empty" true (Bits.equal (Proof.get p 99) Bits.empty);
  check_int "map" 2 (Proof.size (Proof.map (fun _ b -> Bits.take 2 b) p))

let proof_union () =
  let p1 = Proof.of_list [ (1, Bits.of_string "1") ] in
  let p2 = Proof.of_list [ (2, Bits.of_string "0") ] in
  let u = Proof.union_disjoint p1 p2 in
  check_int "union size" 1 (Proof.size u);
  Alcotest.check_raises "conflict"
    (Invalid_argument "Proof.union_disjoint: node 1 assigned twice") (fun () ->
      ignore (Proof.union_disjoint p1 (Proof.of_list [ (1, Bits.of_string "0") ])))

let view_extraction () =
  let g = Builders.cycle 8 in
  let inst = Instance.of_graph g in
  let proof =
    Graph.fold_nodes (fun v p -> Proof.set p v (Bits.encode_int v)) g Proof.empty
  in
  let view = View.make inst proof ~centre:0 ~radius:2 in
  check_int "ball nodes" 5 (Graph.n (View.graph view));
  check_int "centre" 0 (View.centre view);
  check_int "dist to centre" 2 (View.dist_to_centre view 6);
  check "boundary" true (View.dist_to_centre view 2 = View.radius view);
  check "not boundary" false (View.dist_to_centre view 1 = View.radius view);
  check "proof visible" true (Bits.equal (View.proof_of view 7) (Bits.encode_int 7));
  (* nodes outside the ball are invisible *)
  check "outside invisible" false (Graph.mem_node (View.graph view) 4)

let view_sees_ball_edges () =
  (* An edge between two boundary nodes of the ball must be visible
     (G[v,r] is the induced subgraph). *)
  let g = Graph.of_edges [ (0, 1); (0, 2); (1, 2) ] in
  let view = View.make (Instance.of_graph g) Proof.empty ~centre:0 ~radius:1 in
  check "edge between boundary nodes" true (Graph.mem_edge (View.graph view) 1 2)

let simulator_agreement () =
  List.iter
    (fun (g, radius) ->
      let inst = Instance.of_graph g in
      let inst =
        (* decorate with labels to exercise label transport *)
        Instance.with_node_labels inst
          (List.map (fun v -> (v, Bits.encode_int (v mod 3))) (Graph.nodes g))
      in
      let proof =
        Graph.fold_nodes (fun v p -> Proof.set p v (Bits.encode_int (v * 7))) g
          Proof.empty
      in
      check
        (Printf.sprintf "simulator = direct (n=%d, r=%d)" (Graph.n g) radius)
        true
        (Simulator.agrees_with_direct inst proof ~radius))
    [
      (Builders.cycle 9, 2);
      (Builders.grid 3 4, 1);
      (Builders.grid 3 4, 3);
      (Random_graphs.connected_gnp (st 4) 15 0.2, 2);
      (Builders.star 5, 1);
      (Random_graphs.tree (st 8) 12, 4);
    ]

let simulator_transcript () =
  let g = Builders.cycle 6 in
  let _, tr = Simulator.gather (Instance.of_graph g) Proof.empty ~radius:2 in
  check_int "rounds" 2 tr.Simulator.rounds;
  (* 6 nodes, degree 2, 2 rounds: 24 messages *)
  check_int "messages" 24 tr.Simulator.messages_sent

let qcheck_simulator =
  QCheck.Test.make ~name:"simulator equals direct extraction" ~count:25
    QCheck.(triple (int_range 2 10) (int_range 1 3) (int_bound 1_000_000))
    (fun (n, radius, seed) ->
      let rnd = Random.State.make [| seed |] in
      let g = Random_graphs.connected_gnp rnd n 0.3 in
      let proof =
        Graph.fold_nodes
          (fun v p -> Proof.set p v (Bits.random rnd (Random.State.int rnd 5)))
          g Proof.empty
      in
      Simulator.agrees_with_direct (Instance.of_graph g) proof ~radius)

(* View.make's BFS stops at the radius. What a view sees must be what
   an unbounded BFS filtered to the radius sees: the same distances,
   the same in-ball neighbours and induced subgraph, nothing beyond. *)
let qcheck_view_bounded =
  QCheck.Test.make ~name:"bounded view = unbounded BFS filtered" ~count:100
    QCheck.(triple (int_range 1 30) (int_range 0 3) (int_bound 1_000_000))
    (fun (n, radius, seed) ->
      let rnd = Random.State.make [| seed |] in
      let g = Random_graphs.gnp rnd n (Random.State.float rnd 0.4) in
      let inst = Instance.of_graph g in
      List.for_all
        (fun v ->
          let view = View.make inst Proof.empty ~centre:v ~radius in
          let dist = Traversal.bfs_distances g v in
          let in_ball u =
            match List.assoc_opt u dist with Some d -> d <= radius | None -> false
          in
          Graph.equal (View.graph view) (Graph.induced g (List.filter in_ball (Graph.nodes g)))
          && Graph.fold_nodes
               (fun u ok ->
                 ok
                 &&
                 if in_ball u then
                   View.dist_to_centre view u = List.assoc u dist
                   && View.neighbours view u = List.filter in_ball (Graph.neighbours g u)
                 else
                   match View.dist_to_centre view u with
                   | _ -> false
                   | exception Invalid_argument _ -> true)
               g true)
        (Graph.nodes g))

let scheme_machinery () =
  let inst = Instance.of_graph (Builders.cycle 6) in
  match Scheme.prove_and_check Bipartite_scheme.scheme inst with
  | `Accepted proof ->
      check_int "1 bit" 1 (Proof.size proof);
      (* decide with an adversarial proof: flipping one bit must be
         detected by one of the endpoints *)
      let bad = Proof.set proof 0 (Bits.one_bit (not (Bits.get (Proof.get proof 0) 0))) in
      (match Scheme.decide Bipartite_scheme.scheme inst bad with
      | Scheme.Accept -> Alcotest.fail "tampering undetected"
      | Scheme.Reject vs -> check "neighbours reject" true (List.length vs >= 1))
  | _ -> Alcotest.fail "bipartite prover failed on C6"

let checker_completeness () =
  let instances =
    List.map (fun n -> Instance.of_graph (Builders.cycle n)) [ 4; 6; 8; 10 ]
  in
  let report = Checker.completeness Bipartite_scheme.scheme instances in
  check "all accepted" true report.Checker.all_accepted;
  check "bound" true report.Checker.bound_respected;
  check_int "max bits" 1 report.Checker.max_proof_bits;
  check_int "instances" 4 report.Checker.instances_checked

let checker_soundness_exhaustive () =
  (* C5 is not bipartite: no proof of <= 2 bits/node convinces all. *)
  let inst = Instance.of_graph (Builders.cycle 5) in
  check "prover refuses" true (Checker.prover_refuses Bipartite_scheme.scheme inst);
  check "exhaustively sound at 1 bit" true
    (Checker.soundness_exhaustive Bipartite_scheme.scheme inst ~max_bits:1);
  check "exhaustively sound at 2 bits" true
    (Checker.soundness_exhaustive Bipartite_scheme.scheme inst ~max_bits:2)

let checker_soundness_random () =
  let inst = Instance.of_graph (Builders.cycle 7) in
  check "random proofs rejected" true
    (Checker.soundness_random Bipartite_scheme.scheme inst ~samples:300 ~max_bits:3)

let checker_catches_bad_scheme () =
  (* A verifier that accepts everything is caught by exhaustive
     soundness on a no-instance. *)
  let bogus =
    Scheme.make ~name:"bogus" ~radius:1
      ~size_bound:(fun _ -> 0)
      ~prover:(fun _ -> Some Proof.empty)
      ~verifier:(fun _ -> true)
  in
  let inst = Instance.of_graph (Builders.cycle 5) in
  check "bogus scheme exposed" false
    (Checker.soundness_exhaustive bogus inst ~max_bits:0)

let adversary_forges_against_bogus () =
  (* The all-ones verifier is trivially fooled. *)
  let accept_iff_one =
    Scheme.make ~name:"needs-one" ~radius:1
      ~size_bound:(fun _ -> 1)
      ~prover:(fun _ -> None)
      ~verifier:(fun view ->
        let b = View.proof_of view (View.centre view) in
        Bits.length b >= 1 && Bits.get b 0)
  in
  let inst = Instance.of_graph (Builders.cycle 6) in
  match Adversary.forge accept_iff_one inst ~max_bits:1 with
  | Adversary.Fooled proof ->
      check "forged proof accepted" true (Scheme.accepts accept_iff_one inst proof)
  | Adversary.Resisted _ -> Alcotest.fail "hill climbing should fool the trivial scheme"

let adversary_resists_sound_scheme () =
  let inst = Instance.of_graph (Builders.cycle 7) in
  match Adversary.forge ~restarts:6 ~steps:150 Bipartite_scheme.scheme inst ~max_bits:2 with
  | Adversary.Fooled _ -> Alcotest.fail "soundness violated!"
  | Adversary.Resisted { attempts; _ } -> check "tried" true (attempts > 0)

let adversary_tamper () =
  let inst = Instance.of_graph (Builders.grid 3 3) in
  match Scheme.prove_and_check Bipartite_scheme.scheme inst with
  | `Accepted proof ->
      let results = Adversary.tamper Bipartite_scheme.scheme inst proof ~trials:20 in
      check_int "trials" 20 (List.length results);
      (* On a connected bipartite graph with >= 2 nodes every single
         bit flip breaks the 2-colouring locally. *)
      List.iter
        (fun (_, rejecting) -> check "detected" true (rejecting <> []))
        results
  | _ -> Alcotest.fail "prover failed"

let complexity_classification () =
  let series f = List.map (fun n -> (n, f n)) [ 16; 32; 64; 128; 256; 512 ] in
  let open Complexity in
  check "zero" true (classify (series (fun _ -> 0)) = Zero);
  check "constant" true (classify (series (fun _ -> 3)) = Constant);
  check "log" true (classify (series (fun n -> 2 * Bits.int_width n)) = Logarithmic);
  check "linear" true (classify (series (fun n -> (3 * n) + 2)) = Linear);
  check "quadratic" true (classify (series (fun n -> n * n / 2)) = Quadratic);
  check "labels" true (label Logarithmic = "Θ(log n)")

let suite =
  ( "core",
    [
      Alcotest.test_case "proof basics" `Quick proof_basics;
      Alcotest.test_case "proof union" `Quick proof_union;
      Alcotest.test_case "view extraction" `Quick view_extraction;
      Alcotest.test_case "view sees ball edges" `Quick view_sees_ball_edges;
      Alcotest.test_case "simulator agreement" `Quick simulator_agreement;
      Alcotest.test_case "simulator transcript" `Quick simulator_transcript;
      QCheck_alcotest.to_alcotest qcheck_simulator;
      QCheck_alcotest.to_alcotest qcheck_view_bounded;
      Alcotest.test_case "scheme machinery" `Quick scheme_machinery;
      Alcotest.test_case "checker completeness" `Quick checker_completeness;
      Alcotest.test_case "checker exhaustive soundness" `Slow checker_soundness_exhaustive;
      Alcotest.test_case "checker random soundness" `Quick checker_soundness_random;
      Alcotest.test_case "checker catches bogus scheme" `Quick checker_catches_bad_scheme;
      Alcotest.test_case "adversary forges vs weak scheme" `Quick adversary_forges_against_bogus;
      Alcotest.test_case "adversary resists sound scheme" `Quick adversary_resists_sound_scheme;
      Alcotest.test_case "adversary tamper detection" `Quick adversary_tamper;
      Alcotest.test_case "complexity classification" `Quick complexity_classification;
    ] )
