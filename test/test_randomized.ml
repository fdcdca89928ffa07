(* The randomized verification subsystem: wire totality for the
   Verify_sampled / Sampled_verified frames, determinism of the sampled read set across worker
   counts, the query-budget hard failure, exact completeness of every
   catalog sampled variant, the measured error budget, the daemon's
   escalation path with its counters, and the BENCH_lcp.json section
   merge. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let sampled_bipartite = Option.get (Sampled.find "bipartite")

(* ------------------------------------------------------------------ *)
(* Shared fixtures *)

let sampled_request ?(seed = 7) ?(queries = 4) ?(budget_id = "") () =
  Wire.Verify_sampled
    {
      scheme = "bipartite";
      graph6 = Graph6.encode (Builders.cycle 8);
      proof = Proof.of_list [ (0, Bits.of_bools [ true ]) ];
      seed;
      queries;
      budget_id;
    }

let accept_reply =
  Wire.Sampled_verified
    {
      sampled_accept = true;
      escalated = false;
      accepted = true;
      bits_read = 72;
      nodes = 24;
      rejecting = [];
    }

let escalated_reply =
  Wire.Sampled_verified
    {
      sampled_accept = false;
      escalated = true;
      accepted = false;
      bits_read = 9;
      nodes = 3;
      rejecting = [ 2; 5 ];
    }

(* yes-instances per catalog sampled variant, mirroring the scheme
   test suites: an even cycle is bipartite, a BFS tree of its edges is
   a spanning tree, and s/t in different components are unreachable *)
let instance_for name =
  match name with
  | "bipartite" -> Instance.of_graph (Builders.cycle 12)
  | "spanning-tree" ->
      let g = Builders.cycle 12 in
      let pairs = Traversal.spanning_tree g (List.hd (Graph.nodes g)) in
      Instance.flag_edges (Instance.of_graph g)
        (List.map (fun (v, p) -> (min v p, max v p)) pairs)
  | "st-unreach" ->
      let g =
        Graph.union_disjoint (Builders.cycle 6)
          (Canonical.shifted (Builders.cycle 6) 6)
      in
      St.of_graph g ~s:0 ~t:7
  | _ -> Alcotest.failf "no fixture for sampled scheme %s" name

let proof_for (rs : Randomized_scheme.t) inst =
  match rs.Randomized_scheme.base.Scheme.prover inst with
  | Some p -> p
  | None -> Alcotest.fail "prover refused a yes-instance"

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let wire_sampled_roundtrip () =
  (match
     Wire.decode_request
       (Wire.encode_request ~id:41 (sampled_request ()))
   with
  | Ok (id, _, req') ->
      check_int "rid echoed" 41 id;
      check "request roundtrips" true
        (Wire.equal_request (sampled_request ()) req')
  | Error m -> Alcotest.failf "request decode: %s" m);
  List.iter
    (fun resp ->
      match Wire.decode_response (Wire.encode_response resp) with
      | Ok (_, _, resp') ->
          check "response roundtrips" true
            (Wire.equal_response resp resp')
      | Error m -> Alcotest.failf "response decode: %s" m)
    [ accept_reply; escalated_reply ]

let wire_sampled_truncation () =
  let sweep what decode frame =
    for i = 0 to String.length frame - 1 do
      match decode (String.sub frame 0 i) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: truncation at %d bytes accepted" what i
    done;
    check (what ^ ": trailing byte rejected") true
      (Result.is_error (decode (frame ^ "\x00")))
  in
  sweep "request" Wire.decode_request
    (Wire.encode_request ~id:3 (sampled_request ()));
  sweep "response" Wire.decode_response
    (Wire.encode_response escalated_reply)

(* Locate a field inside an encoded frame by diffing two encodings
   that differ only in that field, then corrupt it in place. *)
let first_diff a b =
  let rec go i =
    if i >= String.length a then Alcotest.fail "encodings identical"
    else if a.[i] <> b.[i] then i
    else go (i + 1)
  in
  go 0

let wire_sampled_bad_fields () =
  (* encoding guards are caller bugs: they raise *)
  check "negative seed raises" true
    (match
       Wire.encode_request (sampled_request ~seed:(-1) ())
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "zero queries raises" true
    (match
       Wire.encode_request (sampled_request ~queries:0 ())
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "oversized queries raises" true
    (match
       Wire.encode_request (sampled_request ~queries:0x10000 ())
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* wire input with the seed's sign bit set is a typed error: the
     seed is a u64 whose top bit cannot land in a 63-bit OCaml int *)
  let f0 = Wire.encode_request ~id:1 (sampled_request ~seed:0 ()) in
  let f1 = Wire.encode_request ~id:1 (sampled_request ~seed:1 ()) in
  let last = first_diff f0 f1 in
  (* seeds 0 and 1 differ exactly in the final byte of the big-endian
     u64, so the field starts 7 bytes earlier *)
  let evil = Bytes.of_string f0 in
  Bytes.set evil (last - 7) '\xff';
  (match Wire.decode_request (Bytes.to_string evil) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sign-bit seed decoded");
  (* a zero query bound coming *from* the wire is also typed *)
  let q1 = Wire.encode_request ~id:1 (sampled_request ~queries:1 ()) in
  let q2 = Wire.encode_request ~id:1 (sampled_request ~queries:2 ()) in
  let qlast = first_diff q1 q2 in
  let zeroed = Bytes.of_string q1 in
  Bytes.set zeroed qlast '\x00';
  match Wire.decode_request (Bytes.to_string zeroed) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero query bound decoded"

let wire_sampled_reply_invariants () =
  (* the decoder refuses replies whose flags contradict the escalation
     protocol; bool bytes live right after the 8-byte id *)
  let corrupt frame i v =
    let b = Bytes.of_string frame in
    Bytes.set b (8 + 8 + i) v;
    Bytes.to_string b
  in
  let expect_reject what frame =
    match Wire.decode_response frame with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: contradictory reply decoded" what
  in
  let accept_frame = Wire.encode_response ~id:0 accept_reply in
  let escalated_frame =
    Wire.encode_response ~id:0 escalated_reply
  in
  expect_reject "escalation on a sampled accept" (corrupt accept_frame 1 '\x01');
  expect_reject "sampled accept downgraded without escalation"
    (corrupt accept_frame 2 '\x00');
  expect_reject "accepted verdict with rejecting ids"
    (corrupt escalated_frame 2 '\x01');
  expect_reject "rejecting sample over the 64-id cap"
    (Wire.encode_response
       (Wire.Sampled_verified
          {
            sampled_accept = false;
            escalated = true;
            accepted = false;
            bits_read = 1;
            nodes = 65;
            rejecting = List.init 65 Fun.id;
          }))

(* ------------------------------------------------------------------ *)
(* Determinism and the query budget *)

let sampled_run_deterministic_across_jobs () =
  List.iter
    (fun (name, rs) ->
      let inst = instance_for name in
      let compiled = Simulator.compile inst in
      let honest = proof_for rs inst in
      let corrupt =
        Proof.map
          (fun _ b -> Bits.of_bools (List.init (Bits.length b) (fun _ -> true)))
          honest
      in
      List.iter
        (fun proof ->
          let run jobs =
            Randomized_scheme.run ~jobs ~collect_reads:true rs compiled proof
              ~seed:0xBEEF ~queries:rs.Randomized_scheme.queries
          in
          let a = run 1 and b = run 4 in
          check (name ^ ": verdict independent of jobs") true
            (a.Randomized_scheme.accepted = b.Randomized_scheme.accepted);
          check (name ^ ": rejecting set independent of jobs") true
            (a.Randomized_scheme.rejecting = b.Randomized_scheme.rejecting);
          check_int
            (name ^ ": bits read independent of jobs")
            a.Randomized_scheme.bits_read b.Randomized_scheme.bits_read;
          check (name ^ ": identical charged-read log") true
            (a.Randomized_scheme.reads = b.Randomized_scheme.reads))
        [ honest; corrupt ])
    Sampled.all

let probe_nodes_deterministic () =
  let rs = sampled_bipartite in
  let compiled = Simulator.compile (Instance.of_graph (Builders.cycle 120)) in
  let p1 = Randomized_scheme.probe_nodes rs compiled ~seed:5 in
  let p2 = Randomized_scheme.probe_nodes rs compiled ~seed:5 in
  check "probe set is a pure function of the seed" true (p1 = p2);
  let p3 = Randomized_scheme.probe_nodes rs compiled ~seed:6 in
  check "different seeds draw different probe sets" true (p1 <> p3);
  check_int "probe width honoured" rs.Randomized_scheme.probes
    (Array.length p1);
  (* a graph at most twice the probe width is checked exhaustively *)
  let small = Simulator.compile (Instance.of_graph (Builders.cycle 8)) in
  check_int "small graphs probe every node" 8
    (Array.length (Randomized_scheme.probe_nodes rs small ~seed:5))

let budget_exceeded_is_hard () =
  (* a verifier spending past its declared bound is a scheme bug: the
     counting view raises instead of returning a verdict *)
  let greedy =
    Randomized_scheme.make ~base:Bipartite_scheme.scheme ~epsilon:0.5
      ~queries:1 ~probes:0 ~sampled_verifier:(fun qv ->
        let c = Qview.centre qv in
        ignore (Qview.proof_cell qv c);
        ignore (Qview.proof_cell qv c);
        true)
  in
  let inst = Instance.of_graph (Builders.cycle 6) in
  let compiled = Simulator.compile inst in
  let proof = proof_for sampled_bipartite inst in
  check "over-budget read raises" true
    (match
       Randomized_scheme.run greedy compiled proof ~seed:1 ~queries:1
     with
    | exception Qview.Budget_exceeded _ -> true
    | _ -> false)

let qview_accounting () =
  let inst = Instance.of_graph (Builders.cycle 6) in
  let compiled = Simulator.compile inst in
  let proof = proof_for sampled_bipartite inst in
  let view = Simulator.view_at compiled proof ~radius:1 0 in
  let qv = Qview.make view ~seed:3 ~queries:4 in
  check_int "fresh view spent nothing" 4 (Qview.units_left qv);
  ignore (Qview.proof_bit qv 0 0);
  check_int "one unit per bit read" 3 (Qview.units_left qv);
  check_int "one bit obtained" 1 (Qview.bits_read qv);
  let cell = Qview.proof_cell qv 1 in
  check_int "two units after a cell" 2 (Qview.units_left qv);
  check_int "cells add their length" (1 + Bits.length cell)
    (Qview.bits_read qv);
  check_int "read log has both entries" 2 (List.length (Qview.reads qv));
  (* structure stays free *)
  ignore (Qview.neighbours qv);
  ignore (Qview.my_label qv);
  check_int "structural reads cost nothing" 2 (Qview.units_left qv)

(* ------------------------------------------------------------------ *)
(* Completeness and the error budget *)

let sampled_variants_complete () =
  List.iter
    (fun (name, rs) ->
      let inst = instance_for name in
      let compiled = Simulator.compile inst in
      let proof = proof_for rs inst in
      List.iter
        (fun seed ->
          let o =
            Randomized_scheme.run rs compiled proof ~seed
              ~queries:rs.Randomized_scheme.queries
          in
          check (name ^ ": valid proofs always accepted") true
            o.Randomized_scheme.accepted;
          check (name ^ ": accepted runs report no rejectors") true
            (o.Randomized_scheme.rejecting = []);
          check (name ^ ": probed nodes counted") true
            (o.Randomized_scheme.nodes_checked > 0);
          check (name ^ ": charged bits counted") true
            (o.Randomized_scheme.bits_read > 0))
        [ 0; 1; 0xDEAD; max_int / 3 ])
    Sampled.all

let sampled_variants_within_budget () =
  List.iter
    (fun (name, rs) ->
      let e =
        Randomized_scheme.soundness rs (instance_for name) ~samples:200
          ~max_bits:4
      in
      check (name ^ ": forgeries were generated") true (e.Checker.trials = 200);
      check (name ^ ": most forgeries are invalid") true
        (e.Checker.invalid > 100);
      check
        (Printf.sprintf "%s: wilson lower bound %.4f within ε %g" name
           e.Checker.wilson_low rs.Randomized_scheme.epsilon)
        true
        (e.Checker.wilson_low <= rs.Randomized_scheme.epsilon))
    Sampled.all

let empirical_counts_job_independent () =
  let rs = sampled_bipartite in
  let inst = instance_for "bipartite" in
  let measure jobs =
    Checker.soundness_empirical ~jobs rs.Randomized_scheme.base inst
      ~samples:120 ~max_bits:3
      ~sampled:(fun ~seed compiled proof ->
        (Randomized_scheme.run rs compiled proof ~seed
           ~queries:rs.Randomized_scheme.queries)
          .Randomized_scheme.accepted)
  in
  let a = measure 1 and b = measure 3 in
  check_int "trials independent of jobs" a.Checker.trials b.Checker.trials;
  check_int "invalid independent of jobs" a.Checker.invalid b.Checker.invalid;
  check_int "fooled independent of jobs" a.Checker.fooled b.Checker.fooled

let wilson_interval () =
  (* the interval as soundness_empirical reports it: on an odd cycle
     every forged 2-colouring is invalid, and the sampled closure
     accepts every [fool_every]-th one it is shown *)
  let inst = Instance.of_graph (Builders.cycle 5) in
  let wilson ~fooled ~invalid =
    let calls = ref 0 in
    let fool_every = if fooled = 0 then 0 else invalid / fooled in
    let e =
      Checker.soundness_empirical Bipartite_scheme.scheme inst ~samples:invalid
        ~max_bits:2 ~sampled:(fun ~seed:_ _ _ ->
          incr calls;
          fool_every > 0 && !calls mod fool_every = 0)
    in
    check_int "every forgery invalid" invalid e.Checker.invalid;
    check_int "fooled as told" fooled e.Checker.fooled;
    (e.Checker.wilson_low, e.Checker.wilson_high)
  in
  let low0, high0 = wilson ~fooled:0 ~invalid:0 in
  check "no data: vacuous interval" true (low0 = 0.0 && high0 = 1.0);
  let low, high = wilson ~fooled:0 ~invalid:400 in
  check "0/400: lower bound at zero" true (low = 0.0);
  check "0/400: upper bound is tight but positive" true
    (high > 0.0 && high < 0.02);
  let low1, high1 = wilson ~fooled:400 ~invalid:400 in
  check "400/400: upper bound at one" true (high1 > 0.98 && high1 <= 1.0);
  check "400/400: lower bound close to one" true (low1 > 0.95);
  let low_a, _ = wilson ~fooled:10 ~invalid:100 in
  let low_b, _ = wilson ~fooled:20 ~invalid:100 in
  check "interval moves with the rate" true (low_a < low_b);
  let l, h = wilson ~fooled:5 ~invalid:50 in
  check "interval brackets the point estimate" true (l < 0.1 && h > 0.1)

(* ------------------------------------------------------------------ *)
(* Daemon escalation path *)

let with_server config f =
  let t = Server.create { config with Server.port = 0 } in
  let th = Server.start t in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Thread.join th)
    (fun () -> f t (Server.port t))

let with_client port f =
  match Client.connect ~port () with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let call c req =
  match Client.call c req with
  | Ok resp -> resp
  | Error m -> Alcotest.failf "call: transport error %s" m

let server_sampled_fast_path () =
  with_server { Server.default_config with jobs = 2; cache_size = 8 }
  @@ fun t port ->
  let g = Builders.cycle 16 in
  let g6 = Graph6.encode g in
  let inst = Instance.of_graph g in
  let rs = sampled_bipartite in
  let honest = proof_for rs inst in
  let corrupt =
    Proof.map
      (fun _ b -> Bits.of_bools (List.init (Bits.length b) (fun _ -> true)))
      honest
  in
  let sampled ?(budget_id = "") proof =
    Wire.Verify_sampled
      { scheme = "bipartite"; graph6 = g6; proof; seed = 11; queries = 4;
        budget_id }
  in
  with_client port @@ fun c ->
  (* a valid proof rides the fast path: no escalation *)
  (match call c (sampled honest) with
  | Wire.Sampled_verified
      { sampled_accept; escalated; accepted; bits_read; nodes; rejecting } ->
      check "valid proof sampled-accepts" true sampled_accept;
      check "no escalation on accept" false escalated;
      check "final verdict accepts" true accepted;
      check "rejecting empty" true (rejecting = []);
      check "bits charged" true (bits_read > 0);
      check "nodes probed" true (nodes > 0)
  | Wire.Error_reply { message; _ } -> Alcotest.failf "fast path: %s" message
  | _ -> Alcotest.fail "fast path: unexpected reply");
  (* an all-ones corruption rejects at every node, so the sampled run
     must catch it and the escalation produce the exact verdict *)
  (match call c (sampled corrupt) with
  | Wire.Sampled_verified { sampled_accept; escalated; accepted; rejecting; _ }
    ->
      check "corruption sampled-rejects" false sampled_accept;
      check "rejection escalates" true escalated;
      check "full verdict rejects" false accepted;
      check "rejectors reported" true (rejecting <> [])
  | _ -> Alcotest.fail "escalation: unexpected reply");
  (* pinning the server's exact budget id is accepted; any other is a
     typed refusal *)
  (match call c (sampled ~budget_id:rs.Randomized_scheme.budget honest) with
  | Wire.Sampled_verified { accepted = true; _ } -> ()
  | _ -> Alcotest.fail "matching budget id refused");
  (match call c (sampled ~budget_id:"eps0.5:q9:m1" honest) with
  | Wire.Error_reply { code = Wire.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "budget mismatch must be Bad_request");
  (* a registered scheme without a sampled variant is Bad_request; an
     unknown scheme stays Unknown_scheme *)
  (match
     call c
       (Wire.Verify_sampled
          { scheme = "eulerian"; graph6 = g6; proof = Proof.empty; seed = 1;
            queries = 4; budget_id = "" })
   with
  | Wire.Error_reply { code = Wire.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "unsampled scheme must be Bad_request");
  (match
     call c
       (Wire.Verify_sampled
          { scheme = "no-such"; graph6 = g6; proof = Proof.empty; seed = 1;
            queries = 4; budget_id = "" })
   with
  | Wire.Error_reply { code = Wire.Unknown_scheme; _ } -> ()
  | _ -> Alcotest.fail "unknown scheme must stay typed");
  (* counters: 3 served sampled verifications (the two typed refusals
     never reached the verifier), exactly 1 escalation *)
  let st = Server.stats t in
  check_int "sampled requests counted" 3 st.Server.sampled_requests;
  check_int "escalations counted" 1 st.Server.sampled_escalations;
  check "bits accounted" true (st.Server.sampled_bits_read > 0);
  (* the same counters are on the exposition the CI scraper checks *)
  match call c Wire.Metrics_text with
  | Wire.Metrics_text_reply text ->
      List.iter
        (fun family ->
          check (family ^ " exported") true
            (let re = family in
             let found = ref false in
             List.iter
               (fun line ->
                 if
                   String.length line >= String.length re
                   && String.sub line 0 (String.length re) = re
                 then found := true)
               (String.split_on_char '\n' text);
             !found))
        [
          "lcp_sampled_requests_total";
          "lcp_sampled_escalations_total";
          "lcp_sampled_bits_read_total";
          "lcp_sampled_error_budget";
        ]
  | _ -> Alcotest.fail "metrics scrape failed"

(* ------------------------------------------------------------------ *)
(* BENCH_lcp.json section merge *)

let json_merge_objects () =
  let parse s =
    match Obs.Json.parse s with
    | Ok v -> v
    | Error m -> Alcotest.failf "fixture parse: %s" m
  in
  let old =
    parse "{\"bench\":\"lcp\",\"partition\":{\"rows\":[1,2]},\"smoke\":true}"
  in
  let fresh = parse "{\"bench\":\"lcp\",\"randomized\":{\"ok\":true},\"smoke\":false}" in
  let merged = Obs.Json.merge_objects ~old ~fresh in
  (match merged with
  | Obs.Json.Obj kvs ->
      check "fresh keys first, old-only appended" true
        (List.map fst kvs = [ "bench"; "randomized"; "smoke"; "partition" ]);
      check "fresh wins on conflict" true
        (List.assoc "smoke" kvs = Obs.Json.Bool false);
      check "old-only section preserved" true
        (List.mem_assoc "partition" kvs)
  | _ -> Alcotest.fail "merge of two objects is an object");
  (* replacement is wholesale, never recursive *)
  let old2 = parse "{\"partition\":{\"rows\":[1,2],\"old\":1}}" in
  let fresh2 = parse "{\"partition\":{\"rows\":[3]}}" in
  (match Obs.Json.merge_objects ~old:old2 ~fresh:fresh2 with
  | Obs.Json.Obj [ ("partition", p) ] ->
      check "section replaced wholesale" true (p = parse "{\"rows\":[3]}")
  | _ -> Alcotest.fail "wholesale replacement");
  (* a corrupt old document degrades to the fresh one *)
  check "non-object old yields fresh" true
    (Obs.Json.merge_objects ~old:(Obs.Json.Str "junk") ~fresh = fresh);
  check "non-object fresh yields fresh" true
    (Obs.Json.merge_objects ~old ~fresh:Obs.Json.Null = Obs.Json.Null);
  (* round trip through the writer stays parseable and keeps values *)
  match Obs.Json.parse (Obs.Json.to_string merged) with
  | Ok reread -> check "merged document round-trips" true (reread = merged)
  | Error m -> Alcotest.failf "merged document unparseable: %s" m

let suite =
  ( "randomized",
    [
      Alcotest.test_case "wire: sampled frames roundtrip" `Quick
        wire_sampled_roundtrip;
      Alcotest.test_case "wire: truncation and trailing bytes" `Quick
        wire_sampled_truncation;
      Alcotest.test_case "wire: seed and query field validation" `Quick
        wire_sampled_bad_fields;
      Alcotest.test_case "wire: reply invariants enforced" `Quick
        wire_sampled_reply_invariants;
      Alcotest.test_case "sampled run deterministic across jobs" `Quick
        sampled_run_deterministic_across_jobs;
      Alcotest.test_case "probe set pure in the seed" `Quick
        probe_nodes_deterministic;
      Alcotest.test_case "query budget is a hard failure" `Quick
        budget_exceeded_is_hard;
      Alcotest.test_case "qview charges reads, structure free" `Quick
        qview_accounting;
      Alcotest.test_case "catalog variants: exact completeness" `Quick
        sampled_variants_complete;
      Alcotest.test_case "catalog variants: within error budget" `Quick
        sampled_variants_within_budget;
      Alcotest.test_case "empirical counts independent of jobs" `Quick
        empirical_counts_job_independent;
      Alcotest.test_case "wilson score interval" `Quick wilson_interval;
      Alcotest.test_case "server: fast path, escalation, counters" `Quick
        server_sampled_fast_path;
      Alcotest.test_case "json: section merge for BENCH_lcp" `Quick
        json_merge_objects;
    ] )
