(* Every fast-path verification entry point against the reference
   simulator, on generated inputs for every registry entry. A
   verifier's outcome is its set of
   rejecting nodes; plain, arena, multicore, split-shard, early-exit and
   sampled+escalate verification must all report exactly the set
   [Simulator.run_verifier_reference] reports, valid or tampered proof
   alike. Plus layer coverage: the one sweep records the per-node spans
   on every path. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let sorted l = List.sort compare l

(* The instances an entry is checked on at size [n]: its yes and no
   generators' outputs, or — for an entry whose generators give none
   there — its Table 1 row's yes-instance at the row's two smallest
   sizes. *)
let registry_instances (e : Registry.entry) rs n =
  match List.filter_map (fun gen -> gen rs n) [ e.Registry.yes; e.Registry.no ] with
  | _ :: _ as l -> l
  | [] -> (
      match e.Registry.row with
      | Some r ->
          List.map r.Registry.make (List.filteri (fun i _ -> i < 2) r.Registry.sizes)
      | None -> [])

(* Beside them, an unlabelled random graph of the kind the generators
   (mostly cycles and paths) do not make: a random tree, or a graph of
   mean degree about 4, connected or — often disconnected, with
   isolated nodes — not. The prover usually refuses one, and
   [proof_for] then checks random strings. *)
let random_instance rs n =
  let p = 4.0 /. float (max 5 n) in
  Instance.of_graph
    (match Random.State.int rs 3 with
    | 0 -> Random_graphs.tree rs n
    | 1 -> Random_graphs.connected_gnp rs n p
    | _ -> Random_graphs.gnp rs n p)

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

exception Mismatch of string

(* One case of one entry: an instance drawn from [registry_instances]
   and [random_instance], half the time relabelled by an injective map
   into 0 .. 5n-1 (identifiers that are not 0..n-1, so the CSR answers
   identifier lookups by binary search); raises [Mismatch] naming the entry on any
   disagreement with the reference, and when the entry yields no
   instance at all. *)
let check_entry (e : Registry.entry) seed n =
  let name = e.Registry.name and sch = e.Registry.scheme in
  let rs = Random.State.make [| seed |] in
  let inst =
    match registry_instances e rs n with
    | [] -> raise (Mismatch (name ^ ": no case at n=" ^ string_of_int n))
    | l ->
        (* no larger than the entry's own instances, so a brute-force
           prover (the Σ¹₁ ones) stays at sizes its generators allow *)
        let cap = List.fold_left (fun m i -> max m (Instance.n i)) 1 l in
        let l = random_instance rs (min n cap) :: l in
        List.nth l (Random.State.int rs (List.length l))
  in
  let inst =
    if Random.State.bool rs then
      Instance.relabel inst
        (Random_graphs.id_map rs ~factor:5 (Instance.graph inst))
    else inst
  in
  let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt in
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
      fail "%s n=%d seed=%d %s: [%s], reference [%s]" name n seed what
        (show (sorted got)) (show expected)
  in
  let c = Simulator.compile inst in
  (* run_verifier ignores the arena when jobs > 1 *)
  List.iter
    (fun (jobs, arena) ->
      same
        (Printf.sprintf "run_verifier jobs=%d arena=%b" jobs (arena <> None))
        (Simulator.rejecting
           (fst
              (Simulator.run_verifier ~jobs ~compiled:c ?arena inst proof
                 ~radius verifier))))
    [ (1, None); (1, Some arena); (2, None) ];
  (* a random split of the nodes into shards, each swept on its own in
     a random order (by a random bijection onto 0..n-1) *)
  let rank = Random_graphs.id_map rs ~factor:1 (Instance.graph inst) in
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
         let nodes = Array.of_list (List.sort (fun a b -> compare (rank a) (rank b)) vs) in
         let verdicts =
           Simulator.run_verifier_on
             ~jobs:(1 + Random.State.int rs 2)
             ~arena c proof ~radius ~nodes verifier
         in
         if List.map fst verdicts <> Array.to_list nodes then
           fail "%s: run_verifier_on reordered its nodes" name;
         Simulator.rejecting verdicts)
       (Array.to_list shards));
  if Simulator.all_accept c proof ~radius verifier <> (expected = []) then
    fail "%s n=%d seed=%d: all_accept disagrees" name n seed;
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
        fail "%s: escalation disagrees with the probe" name;
      Option.iter (same "sampled, escalated") v.Randomized_scheme.final;
      if expected = [] && escalated then
        fail "%s n=%d seed=%d: a proof the reference accepts escalated" name n
          seed)

(* Each sample checks every registry entry, so a scheme is on every
   path the day it is registered; the report lists every entry that
   disagreed, not only the first. *)
let differential (seed, n) =
  match
    List.filter_map
      (fun e ->
        match check_entry e seed n with
        | () -> None
        | exception Mismatch m -> Some m)
      Registry.all
  with
  | [] -> true
  | failures -> QCheck.Test.fail_reportf "%s" (String.concat "\n" failures)

let qcheck_differential =
  QCheck.Test.make ~count:15
    ~name:"every verify path = reference rejecting set, every registry entry"
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       QCheck.Gen.(pair (int_bound 1_000_000) (int_range 1 40)))
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
