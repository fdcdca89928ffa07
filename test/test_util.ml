(* Shared helpers for scheme tests: completeness, soundness, and size
   measurement, with readable failure messages. *)

let check = Alcotest.(check bool)

let assert_complete ?(sizes_ok = true) scheme instances =
  let report = Checker.completeness scheme instances in
  List.iter (fun msg -> Alcotest.fail msg) report.Checker.failures;
  check (scheme.Scheme.name ^ ": all accepted") true report.Checker.all_accepted;
  if sizes_ok then
    check (scheme.Scheme.name ^ ": size bound") true report.Checker.bound_respected

let assert_refuses scheme instances =
  List.iter
    (fun inst ->
      check
        (Printf.sprintf "%s: prover refuses (n=%d)" scheme.Scheme.name
           (Instance.n inst))
        true
        (Checker.prover_refuses scheme inst))
    instances

let assert_sound_random ?(samples = 200) ?(max_bits = 4) scheme instances =
  List.iter
    (fun inst ->
      check
        (Printf.sprintf "%s: random soundness (n=%d)" scheme.Scheme.name
           (Instance.n inst))
        true
        (Checker.soundness_random scheme inst ~samples ~max_bits))
    instances

let assert_sound_adversarial ?(max_bits = 4) ?(restarts = 4) ?(steps = 120) scheme
    instances =
  List.iter
    (fun inst ->
      match Adversary.forge ~restarts ~steps scheme inst ~max_bits with
      | Adversary.Fooled proof ->
          Alcotest.fail
            (Format.asprintf "%s: adversary forged a proof on n=%d!@ %a"
               scheme.Scheme.name (Instance.n inst) Proof.pp proof)
      | Adversary.Resisted _ -> ())
    instances

let assert_sound_exhaustive ~max_bits scheme instances =
  List.iter
    (fun inst ->
      check
        (Printf.sprintf "%s: exhaustive soundness (n=%d, b=%d)" scheme.Scheme.name
           (Instance.n inst) max_bits)
        true
        (Checker.soundness_exhaustive scheme inst ~max_bits))
    instances

let proof_size scheme inst =
  match Scheme.prove_and_check scheme inst with
  | `Accepted proof -> Proof.size proof
  | `No_proof -> Alcotest.fail (scheme.Scheme.name ^ ": prover refused a yes-instance")
  | `Rejected (_, vs) ->
      Alcotest.fail
        (Printf.sprintf "%s: rejected own proof at [%s]" scheme.Scheme.name
           (String.concat "," (List.map string_of_int vs)))

(* Corrupting a valid proof at random; at least [frac] of single-bit
   corruptions should be caught (cheap regression guard against
   verifiers that ignore their proofs). *)
let assert_tamper_sensitive ?(trials = 30) ?(min_detected = 1) scheme inst =
  match Scheme.prove_and_check scheme inst with
  | `Accepted proof ->
      let results = Adversary.tamper scheme inst proof ~trials in
      let detected = List.length (List.filter (fun (_, r) -> r <> []) results) in
      check
        (Printf.sprintf "%s: tampering detected (%d/%d)" scheme.Scheme.name detected
           trials)
        true (detected >= min_detected)
  | _ -> Alcotest.fail (scheme.Scheme.name ^ ": prover failed")

let st seed = Random.State.make [| seed |]

(* The profiler's export document, as lcp and the wire reply see it:
   its per-scheme rows [(scheme, cpu_ns, alloc_bytes, requests)] and
   its collapsed-stack lines. *)
let profile_doc () =
  match Obs.Json.parse (Obs.Profile.export_string ()) with
  | Ok d -> d
  | Error m -> Alcotest.failf "profile export unparseable: %s" m

let profile_schemes () =
  let field k conv r =
    match Option.bind (Obs.Json.member k r) conv with
    | Some v -> v
    | None -> Alcotest.failf "scheme row without %s" k
  in
  let int_field k r = int_of_float (field k Obs.Json.to_float_opt r) in
  match Option.bind (Obs.Json.member "schemes" (profile_doc ())) Obs.Json.to_list with
  | Some rows ->
      List.map
        (fun r ->
          ( field "scheme" Obs.Json.to_string_opt r,
            int_field "cpu_ns" r,
            field "alloc_bytes" Obs.Json.to_float_opt r,
            int_field "requests" r ))
        rows
  | None -> Alcotest.fail "profile export without schemes"

let profile_collapsed () =
  match Option.bind (Obs.Json.member "collapsed" (profile_doc ())) Obs.Json.to_string_opt with
  | Some c -> String.split_on_char '\n' c
  | None -> Alcotest.fail "profile export without collapsed stacks"

(* Test-only graph families. *)

(* K_{a,b}: side A is [0..a-1], side B is [a..a+b-1] *)
let complete_bipartite a b =
  let left = List.init a Fun.id in
  let right = List.init b (fun i -> a + i) in
  let edges = List.concat_map (fun u -> List.map (fun v -> (u, v)) right) left in
  Graph.create ~nodes:(left @ right) ~edges

(* the d-dimensional cube on 2^d nodes *)
let hypercube d =
  let nodes = List.init (1 lsl d) Fun.id in
  let edges =
    List.concat_map
      (fun v ->
        List.filter_map
          (fun b -> if v < v lxor (1 lsl b) then Some (v, v lxor (1 lsl b)) else None)
          (List.init d Fun.id))
      nodes
  in
  Graph.create ~nodes ~edges

(* 3-regular, non-planar, chromatic number 3, no Hamiltonian cycle *)
let petersen =
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  let spokes = List.init 5 (fun i -> (i, 5 + i)) in
  Graph.create ~nodes:(List.init 10 Fun.id) ~edges:(outer @ inner @ spokes)
