(* Every fast-path verification entry point against the reference
   simulator, on generated inputs. A verifier's outcome is its set of
   rejecting nodes; plain, arena, multicore, split-shard, early-exit and
   sampled+escalate verification must all report exactly the set
   [Simulator.run_verifier_reference] reports, valid or tampered proof
   alike. Plus layer coverage: the one sweep records the per-node spans
   on every path. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let sorted l = List.sort compare l
let scheme name = (Option.get (Registry.find name)).Registry.scheme

(* [t] plus up to [extra] random chords. *)
let with_chords rs t extra =
  let n = Graph.n t in
  let rec go g k =
    if k = 0 || n < 2 then g
    else
      let u = Random.State.int rs n and v = Random.State.int rs n in
      go (if u = v then g else Graph.add_edge g u v) (k - 1)
  in
  go t extra

(* Catalog schemes, each with an instance family where its prover
   usually succeeds (and sometimes, deliberately, does not). The
   tree-certificate rows are the codecs a warm sweep shares across
   views; the relabelled row has identifiers that are not 0..n-1, so
   the CSR answers identifier lookups by binary search. *)
let connected rs n = Random_graphs.connected_gnp rs n (4.0 /. float (max 4 n))

let cases =
  [|
    ( "bipartite",
      fun rs n ->
        Instance.of_graph
          (if Random.State.bool rs then Random_graphs.tree rs n
           else Random_graphs.gnp rs n 0.15) );
    ( "spanning-tree",
      fun rs n ->
        let t = Random_graphs.tree rs n in
        Instance.flag_edges
          (Instance.of_graph (with_chords rs t (n / 3)))
          (Graph.edges t) );
    ( "st-unreach",
      fun rs n ->
        let h = max 1 (n / 2) in
        let g =
          Graph.union_disjoint (Random_graphs.tree rs h)
            (Canonical.shifted (Random_graphs.tree rs h) h)
        in
        St.of_graph
          (if Random.State.int rs 4 = 0 then Graph.add_edge g 0 h else g)
          ~s:0 ~t:h );
    ("acyclic", fun rs n -> Instance.of_graph (Random_graphs.tree rs n));
    ( "leader",
      fun rs n ->
        Leader_election.mark_leader
          (Instance.of_graph (Random_graphs.connected_gnp rs n 0.1))
          0 );
    ( "eulerian",
      fun rs n -> Instance.of_graph (Random_graphs.gnp rs n 0.3) );
    ("odd-n", fun rs n -> Instance.of_graph (connected rs n));
    ("even-n", fun rs n -> Instance.of_graph (connected rs n));
    ("non-bipartite", fun rs n -> Instance.of_graph (connected rs n));
    ( "non-bipartite",
      fun rs n ->
        Instance.of_graph
          (Random_graphs.permuted_ids rs ~factor:5 (connected rs n)) );
  |]

(* The prover's proof (random strings when it refuses), then, two
   times in three, a flipped bit, a truncated string or an empty string
   at 1–3 random nodes — truncation drives the decode-error path, and
   an empty string is what the base verifiers read outside a ball. *)
let proof_for rs sch inst =
  let g = Instance.graph inst in
  let proved = sch.Scheme.prover inst in
  let base =
    match proved with
    | Some p -> p
    | None ->
        Graph.fold_nodes
          (fun v p -> Proof.set p v (Bits.random rs (Random.State.int rs 6)))
          g Proof.empty
  in
  if Random.State.int rs 3 = 0 then base
  else
    let nodes = Array.of_list (Graph.nodes g) in
    let rec tamper p k =
      if k = 0 then p
      else
        let v = nodes.(Random.State.int rs (Array.length nodes)) in
        let b = Proof.get p v in
        let len = Bits.length b in
        let b' =
          if len = 0 then Bits.random rs (1 + Random.State.int rs 4)
          else
            match Random.State.int rs 3 with
            | 0 -> Bits.flip b (Random.State.int rs len)
            | 1 -> Bits.take (Random.State.int rs len) b
            | _ -> Bits.empty
        in
        tamper (Proof.set p v b') (k - 1)
    in
    tamper base (1 + Random.State.int rs 3)

(* Shared across every generated case, so warm reuse over graphs of
   different sizes is exercised too. *)
let arena = Simulator.arena ()

let differential (case, seed, n) =
  let name, make = cases.(case) in
  let sch = scheme name in
  let rs = Random.State.make [| seed |] in
  let inst = make rs n in
  let proof = proof_for rs sch inst in
  let radius = sch.Scheme.radius and verifier = sch.Scheme.verifier in
  let expected =
    sorted
      (Simulator.rejecting
         (fst (Simulator.run_verifier_reference inst proof ~radius verifier)))
  in
  let show l = String.concat ";" (List.map string_of_int l) in
  let same what got =
    if sorted got <> expected then
      QCheck.Test.fail_reportf "%s n=%d seed=%d %s: [%s], reference [%s]" name
        n seed what (show (sorted got)) (show expected)
  in
  let c = Simulator.compile inst in
  List.iter
    (fun jobs ->
      List.iter
        (fun arena ->
          same
            (Printf.sprintf "run_verifier jobs=%d arena=%b" jobs (arena <> None))
            (Simulator.rejecting
               (fst
                  (Simulator.run_verifier ~jobs ~compiled:c ?arena inst proof
                     ~radius verifier))))
        [ None; Some arena ])
    [ 1; 2 ];
  (* a random split of the nodes into shards, each swept on its own *)
  let k = 1 + Random.State.int rs 3 in
  let shards = Array.make k [] in
  Graph.iter_nodes
    (fun v ->
      let b = Random.State.int rs k in
      shards.(b) <- v :: shards.(b))
    (Instance.graph inst);
  same "run_verifier_on split"
    (List.concat_map
       (fun vs ->
         let nodes = Array.of_list (Random_graphs.shuffle rs vs) in
         let verdicts =
           Simulator.run_verifier_on
             ~jobs:(1 + Random.State.int rs 2)
             ~arena c proof ~radius ~nodes verifier
         in
         if List.map fst verdicts <> Array.to_list nodes then
           QCheck.Test.fail_reportf "%s: run_verifier_on reordered its nodes"
             name;
         Simulator.rejecting verdicts)
       (Array.to_list shards));
  if Simulator.all_accept c proof ~radius verifier <> (expected = []) then
    QCheck.Test.fail_reportf "%s n=%d seed=%d: all_accept disagrees" name n
      seed;
  (* sampled+escalate: an escalation reports the full rejecting set and
     a sampled accept stands. The sampled verifiers check a subset of
     the base verifier's conditions, so a proof the reference accepts
     (the prover's, or a tampered one that still passes) never
     escalates. *)
  (match Sampled.find name with
  | None -> ()
  | Some rsch ->
      let v =
        Randomized_scheme.verify ~arena rsch c proof ~seed
          ~queries:rsch.Randomized_scheme.queries
      in
      let escalated = Option.is_some v.Randomized_scheme.final in
      if escalated = v.Randomized_scheme.probe.Randomized_scheme.accepted then
        QCheck.Test.fail_reportf "%s: escalation disagrees with the probe" name;
      Option.iter (same "sampled, escalated") v.Randomized_scheme.final;
      if expected = [] && escalated then
        QCheck.Test.fail_reportf
          "%s n=%d seed=%d: a proof the reference accepts escalated" name n
          seed);
  true

let qcheck_differential =
  QCheck.Test.make ~count:150
    ~name:"every verify path = reference rejecting set"
    (QCheck.make
       ~print:(fun (case, seed, n) ->
         Printf.sprintf "case %d (%s) seed=%d n=%d" case (fst cases.(case)) seed n)
       QCheck.Gen.(
         triple
           (int_bound (Array.length cases - 1))
           (int_bound 1_000_000) (int_range 1 40)))
    differential

(* The sampled bipartite check reads a missing colour bit as the base
   verifier does, as colour 0. Every node of a 32-cycle is probed:
   emptying a colour-0 string leaves a proof both accept, so nothing
   escalates; emptying a colour-1 string makes three nodes reject, and
   the escalation reports exactly them. *)
let sampled_empty_string () =
  let b = Option.get (Sampled.find "bipartite") in
  let rsch =
    Randomized_scheme.make ~base:b.Randomized_scheme.base
      ~epsilon:b.Randomized_scheme.epsilon ~queries:b.Randomized_scheme.queries
      ~probes:0 ~sampled_verifier:b.Randomized_scheme.sampled_verifier
  in
  let n = 32 in
  let inst = Instance.of_graph (Builders.cycle n) in
  let c = Simulator.compile inst in
  let proof = Option.get (Bipartite_scheme.scheme.Scheme.prover inst) in
  let verify proof =
    Randomized_scheme.verify rsch c proof ~seed:5
      ~queries:rsch.Randomized_scheme.queries
  in
  List.iter
    (fun (v, expected) ->
      let tampered = Proof.set proof v Bits.empty in
      let reference =
        sorted
          (Simulator.rejecting
             (fst
                (Simulator.run_verifier_reference inst tampered ~radius:1
                   Bipartite_scheme.scheme.Scheme.verifier)))
      in
      check (Printf.sprintf "node %d emptied: reference" v) true
        (reference = expected);
      let r = verify tampered in
      check (Printf.sprintf "node %d emptied: escalated iff rejected" v) true
        (Option.map sorted r.Randomized_scheme.final
        = if expected = [] then None else Some expected))
    [ (10, []); (11, [ 10; 11; 12 ]) ]

(* A sampled run keeps every rejecting probe; only a wire reply (and
   [lcp verify --sampled]'s line) cuts to the first 64 through
   [Wire.rejecting_sample]. Every node is probed and every node
   rejects a one-colour proof of a 200-cycle. *)
let rejecting_sample_cap () =
  let b = Option.get (Sampled.find "bipartite") in
  let rsch =
    Randomized_scheme.make ~base:b.Randomized_scheme.base
      ~epsilon:b.Randomized_scheme.epsilon ~queries:b.Randomized_scheme.queries
      ~probes:0 ~sampled_verifier:b.Randomized_scheme.sampled_verifier
  in
  let n = 200 in
  let c = Simulator.compile (Instance.of_graph (Builders.cycle n)) in
  let proof = Proof.of_list (List.init n (fun v -> (v, Bits.of_string "0"))) in
  let v =
    Randomized_scheme.verify rsch c proof ~seed:3
      ~queries:rsch.Randomized_scheme.queries
  in
  let every = List.init n Fun.id in
  check "every probe rejects, all kept" true
    (sorted v.Randomized_scheme.probe.Randomized_scheme.rejecting = every);
  check "escalation rejects everywhere" true
    (v.Randomized_scheme.final = Some every);
  let sample = Wire.rejecting_sample every in
  check_int "the reply sample holds 64 ids" 64 (List.length sample);
  check "the first 64, in order" true (sample = List.filteri (fun i _ -> i < 64) every)

(* --- layer coverage ----------------------------------------------------- *)

let with_obs_reset f =
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.Trace.stacks_on := false;
      Obs.Trace.set_capacity 65536)
    f

let events name =
  match Obs.Json.parse (Obs.Trace.export_string ()) with
  | Error m -> Alcotest.failf "trace export unparseable: %s" m
  | Ok doc ->
      Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list
      |> Option.value ~default:[]
      |> List.filter (fun e ->
             Option.bind (Obs.Json.member "name" e) Obs.Json.to_string_opt
             = Some name)
      |> List.length

(* A shard sweep over k owned nodes and a sampled run over m probes
   record one ball and one eval span per node, as the full sweep
   does. *)
let per_node_spans () =
  with_obs_reset @@ fun () ->
  Obs.enable ~metrics:false ~trace:true ();
  let sch = Bipartite_scheme.scheme in
  let inst = Instance.of_graph (Builders.cycle 200) in
  let c = Simulator.compile inst in
  let proof = Option.get (sch.Scheme.prover inst) in
  let nodes = Array.init 30 (fun i -> 3 * i) in
  ignore
    (Simulator.run_verifier_on c proof ~radius:1 ~nodes sch.Scheme.verifier);
  check_int "shard: one eval span per owned node" 30 (events "simulator.eval");
  check_int "shard: one ball span per owned node" 30 (events "simulator.ball");
  check_int "shard: one sweep span" 1 (events "simulator.run_verifier_on");
  Obs.Trace.clear ();
  let rsch = Option.get (Sampled.find "bipartite") in
  let o = Randomized_scheme.run rsch c proof ~seed:7 ~queries:4 in
  check "sampled run probes a strict subset" true
    (o.Randomized_scheme.nodes_checked < 200);
  check_int "sampled: one eval span per probe" o.Randomized_scheme.nodes_checked
    (events "simulator.eval")

(* With only the profiler's stacks on, the shard sweep still opens its
   span, so samples taken inside a shard's verifier attribute there. *)
let shard_span_under_profiler () =
  with_obs_reset @@ fun () ->
  Obs.Trace.stacks_on := true;
  check "tracing is off" false !Obs.Trace.enabled;
  let inst = Instance.of_graph (Builders.cycle 12) in
  let c = Simulator.compile inst in
  let seen = ref [] in
  let verifier _ =
    seen := Obs.Trace.stack_snapshot (Domain.self () :> int) :: !seen;
    true
  in
  ignore
    (Simulator.run_verifier_on c Proof.empty ~radius:1 ~nodes:[| 0; 5 |]
       verifier);
  check_int "verifier ran twice" 2 (List.length !seen);
  List.iter
    (fun stack ->
      check "inside the shard sweep's span" true
        (Array.mem "simulator.run_verifier_on" stack);
      check "inside the node's eval span" true
        (Array.mem "simulator.eval" stack))
    !seen

let suite =
  ( "verify-paths",
    [
      QCheck_alcotest.to_alcotest qcheck_differential;
      Alcotest.test_case "sampled run keeps every rejecting probe" `Quick
        rejecting_sample_cap;
      Alcotest.test_case "sampled bipartite reads an empty string as colour 0"
        `Quick sampled_empty_string;
      Alcotest.test_case "per-node spans on shard and sampled sweeps" `Quick
        per_node_spans;
      Alcotest.test_case "shard sweep span under the profiler alone" `Quick
        shard_span_under_profiler;
    ] )
