(* Partition-parallel verification, bottom-up: the region-growth
   partitioner's structural invariants (exact ownership cover, the
   ⌈n/k⌉ balance cap, ghost-closure exactness), the central
   bit-identity property — merged shard verdicts equal a whole-graph
   {!Simulator.run_verifier} for k ∈ {2,4} and radius ∈ {1,2}, pinned
   with a verifier that fingerprints the entire view so any halo
   corruption flips a verdict — the shard file and wire codecs with
   their validation, the daemon's shard execution path (verdicts,
   counters, caching), the oversized-frame guardrail, and the full
   scatter-gather: Fanout through a router over two backends, both of
   which must see work. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let st seed = Random.State.make [| seed |]

let family =
  [
    ("C9", Builders.cycle 9);
    ("C48", Builders.cycle 48);
    ("path17", Builders.path 17);
    ("star9", Builders.star 9);
    ("grid5x6", Builders.grid 5 6);
    ("tree80", Random_graphs.tree (st 11) 80);
    ("gnp60", Random_graphs.connected_gnp (st 12) 60 0.06);
    ("sparse-ids",
     Random_graphs.permuted_ids (st 13) ~factor:7
       (Random_graphs.gnp (st 14) 40 0.1));
    ("two-cycles",
     Graph.union_disjoint (Builders.cycle 7)
       (Canonical.shifted (Builders.cycle 9) 20));
  ]

(* ------------------------------------------------------------------ *)
(* Partitioner invariants *)

let partition_structure () =
  List.iter
    (fun (name, g) ->
      let c = Csr.of_graph g in
      let n = Csr.n c in
      List.iter
        (fun k ->
          List.iter
            (fun radius ->
              let tag = Printf.sprintf "%s k=%d r=%d" name k radius in
              let shards = Partition.make c ~k ~radius in
              (match Partition.check c shards with
              | Ok () -> ()
              | Error m -> Alcotest.failf "%s: check: %s" tag m);
              let count = Array.length shards in
              check_int (tag ^ " clamped shard count") (min k (max 1 n)) count;
              let cap = (n + count - 1) / count in
              let total = ref 0 in
              Array.iter
                (fun s ->
                  let o = Partition.owned_count s in
                  total := !total + o;
                  check (tag ^ " balance cap") true (o <= cap);
                  check_int
                    (tag ^ " local graph size")
                    (Partition.shard_n s)
                    (Graph.n s.Partition.graph);
                  Array.iteri
                    (fun i v ->
                      if i > 0 then
                        check (tag ^ " ids increasing") true
                          (v > s.Partition.ids.(i - 1)))
                    s.Partition.ids)
                shards;
              check_int (tag ^ " every node owned once") n !total)
            [ 0; 1; 2 ])
        [ 1; 2; 3; 5 ])
    family

let closure_tamper_detected () =
  (* closure_ok must be a real check, not a tautology: pretend a shard
     was cut for a larger radius than its halo actually covers and it
     has to fail (on a cycle every radius-2 ball leaves a radius-1
     halo) *)
  let c = Csr.of_graph (Builders.cycle 24) in
  let shards = Partition.make c ~k:2 ~radius:1 in
  Array.iter
    (fun s ->
      check "honest shard closes" true (Partition.closure_ok c s);
      check "deeper radius does not" false
        (Partition.closure_ok c { s with Partition.radius = 2 }))
    shards

(* ------------------------------------------------------------------ *)
(* Bit-identity: merged shard verdicts = whole-graph run_verifier.
   The verifier fingerprints everything it can see — node ids, degrees
   and proof bits across the whole view — so a single wrong or missing
   halo node, edge or proof bit flips some owned verdict. *)

let fingerprint_verifier view =
  let g = View.graph view in
  let acc = ref (View.centre view + (31 * View.radius view)) in
  Graph.iter_nodes
    (fun v ->
      acc :=
        (!acc * 1_000_003)
        + v
        + (17 * Graph.degree g v)
        + Hashtbl.hash (Bits.to_bools (View.proof_of view v)))
    g;
  !acc land 7 <> 0

let random_proof rng g =
  Graph.nodes g
  |> List.fold_left
       (fun p v ->
         Proof.set p v
           (Bits.of_bools
              (List.init
                 (1 + Random.State.int rng 6)
                 (fun _ -> Random.State.bool rng))))
       Proof.empty

let shard_verdicts c proof ~k ~radius =
  let shards = Partition.make c ~k ~radius in
  (match Partition.check c shards with
  | Ok () -> ()
  | Error m -> Alcotest.failf "check: %s" m);
  Array.to_list shards
  |> List.concat_map (fun s ->
         (* mirror the daemon: relabel the local shard graph back to
            original identifiers, rekey the sliced proof, verify the
            owned nodes only *)
         let g = Graph.relabel s.Partition.graph (fun i -> s.Partition.ids.(i)) in
         let compiled = Simulator.compile (Instance.of_graph g) in
         let proof' =
           Proof.of_list
             (List.map
                (fun (v, b) -> (s.Partition.ids.(v), b))
                (Proof.bindings (Partition.proof_slice s proof)))
         in
         Simulator.run_verifier_on compiled proof' ~radius
           ~nodes:
             (Array.of_list
                (List.filteri
                   (fun i _ -> s.Partition.owned.(i))
                   (Array.to_list s.Partition.ids)))
           fingerprint_verifier)

let verdict_bit_identity () =
  let rng = st 42 in
  List.iter
    (fun (name, g) ->
      let inst = Instance.of_graph g in
      let c = Csr.of_graph g in
      let proof = random_proof rng g in
      List.iter
        (fun radius ->
          let whole, _ =
            Simulator.run_verifier inst proof ~radius fingerprint_verifier
          in
          let whole = List.sort compare whole in
          List.iter
            (fun k ->
              let merged =
                List.sort compare (shard_verdicts c proof ~k ~radius)
              in
              check
                (Printf.sprintf "%s k=%d r=%d verdicts bit-identical" name k
                   radius)
                true (merged = whole))
            [ 2; 4 ])
        [ 1; 2 ])
    family

(* ------------------------------------------------------------------ *)
(* Shard files *)

let shard_file_roundtrip () =
  let c = Csr.of_graph (Random_graphs.connected_gnp (st 21) 40 0.08) in
  let shards = Partition.make c ~k:3 ~radius:2 in
  Array.iter
    (fun s ->
      match Partition.of_string (Partition.to_string s) with
      | Error m -> Alcotest.failf "roundtrip: %s" m
      | Ok s' ->
          check_int "index" s.Partition.index s'.Partition.index;
          check_int "count" s.Partition.count s'.Partition.count;
          check_int "radius" s.Partition.radius s'.Partition.radius;
          check "ids" true (s.Partition.ids = s'.Partition.ids);
          check "owned" true (s.Partition.owned = s'.Partition.owned);
          check "graph" true (Graph.equal s.Partition.graph s'.Partition.graph))
    shards

let shard_file_malformed () =
  let c = Csr.of_graph (Builders.cycle 12) in
  let good = Partition.to_string (Partition.make c ~k:2 ~radius:1).(0) in
  let expect_err what text =
    match Partition.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed shard file parsed" what
  in
  expect_err "empty" "";
  expect_err "bad magic" ("lcp-shard 9\n" ^ good);
  expect_err "truncated"
    (String.concat "\n"
       (List.filteri (fun i _ -> i < 3) (String.split_on_char '\n' good)));
  (* surgically corrupt single fields of the good file *)
  let swap ~from ~to_ =
    let re_lines = String.split_on_char '\n' good in
    String.concat "\n"
      (List.map
         (fun l ->
           if String.length l >= String.length from
              && String.sub l 0 (String.length from) = from
           then to_
           else l)
         re_lines)
  in
  expect_err "ids not increasing" (swap ~from:"ids" ~to_:"ids 3 2 1");
  expect_err "owned length" (swap ~from:"owned" ~to_:"owned 1");
  expect_err "owned alphabet" (swap ~from:"owned" ~to_:"owned 10xx011011");
  expect_err "index range" (swap ~from:"shard" ~to_:"shard 5/2");
  expect_err "negative radius" (swap ~from:"radius" ~to_:"radius -1");
  expect_err "graph size" (swap ~from:"graph6" ~to_:"graph6 C~")

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let wire_shard_request c =
  let s = (Partition.make c ~k:2 ~radius:1).(0) in
  Wire.Verify_partition
    {
      scheme = "eulerian";
      graph6 = Graph6.encode s.Partition.graph;
      ids = s.Partition.ids;
      owned = Bits.of_bools (Array.to_list s.Partition.owned);
      proof = Proof.set Proof.empty 0 (Bits.of_bools [ true; false ]);
      radius = 1;
      shard_index = 0;
      shard_count = 2;
    }

let wire_partition_roundtrip () =
  let req = wire_shard_request (Csr.of_graph (Builders.cycle 20)) in
  (match Wire.decode_request (Wire.encode_request ~id:77 req) with
  | Ok (id, _, req') ->
      check_int "rid echoed" 77 id;
      check "request roundtrips" true (Wire.equal_request req req')
  | Error m -> Alcotest.failf "request decode: %s" m);
  let resp =
    Wire.Partition_verified
      { all_accept = false; owned = 10; rejected = 2; rejecting = [ 3; 17 ] }
  in
  match Wire.decode_response (Wire.encode_response resp) with
  | Ok (_, _, resp') ->
      check "response roundtrips" true (Wire.equal_response resp resp')
  | Error m -> Alcotest.failf "response decode: %s" m

let wire_partition_validation () =
  let encode_with ~ids ~owned =
    Wire.encode_request
      (Wire.Verify_partition
         {
           scheme = "eulerian";
           graph6 = Graph6.encode (Builders.cycle 3);
           ids;
           owned;
           proof = Proof.empty;
           radius = 1;
           shard_index = 0;
           shard_count = 1;
         })
  in
  let expect_reject what frame =
    match Wire.decode_request frame with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: invalid shard frame decoded" what
  in
  expect_reject "non-increasing ids"
    (encode_with ~ids:[| 4; 2; 7 |]
       ~owned:(Bits.of_bools [ true; true; true ]));
  expect_reject "owned bitmap length"
    (encode_with ~ids:[| 1; 2; 3 |] ~owned:(Bits.of_bools [ true ]))

(* ------------------------------------------------------------------ *)
(* Daemon execution path *)

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

(* a cycle accepts eulerian everywhere; adding one chord leaves
   exactly two odd-degree nodes that must reject, in both paths *)
let chorded n = Graph.add_edge (Builders.cycle n) 2 (n / 2)

let send_shards port scheme proof shards =
  Array.to_list shards
  |> List.concat_map (fun s ->
         let req =
           Wire.Verify_partition
             {
               scheme;
               graph6 = Graph6.encode s.Partition.graph;
               ids = s.Partition.ids;
               owned = Bits.of_bools (Array.to_list s.Partition.owned);
               proof = Partition.proof_slice s proof;
               radius = 1;
               shard_index = s.Partition.index;
               shard_count = s.Partition.count;
             }
         in
         with_client port @@ fun c ->
         match call c req with
         | Wire.Partition_verified { rejecting; _ } -> rejecting
         | Wire.Error_reply { message; _ } ->
             Alcotest.failf "shard reply: %s" message
         | _ -> Alcotest.fail "shard reply: unexpected response")

let server_shard_execution () =
  with_server { Server.default_config with jobs = 2; cache_size = 8 }
  @@ fun t port ->
  let g = chorded 30 in
  let c = Csr.of_graph g in
  let shards = Partition.make c ~k:3 ~radius:1 in
  let whole =
    with_client port @@ fun cl ->
    match
      call cl
        (Wire.Verify
           { scheme = "eulerian"; graph6 = Graph6.encode g; proof = Proof.empty })
    with
    | Wire.Verified { rejecting; _ } -> rejecting
    | _ -> Alcotest.fail "whole verify"
  in
  let merged =
    List.sort_uniq compare (send_shards port "eulerian" Proof.empty shards)
  in
  check "sharded rejects = whole rejects" true
    (merged = List.sort compare whole);
  check_int "exactly the two chord endpoints reject" 2 (List.length merged);
  let stats = Server.stats t in
  check_int "shards counted" 3 stats.Server.partition_shards;
  check_int "rejects counted" 2 stats.Server.partition_reject;
  (* a second pass hits the compiled-shard cache: identical verdicts,
     no new compiles *)
  let misses = stats.Server.cache_misses in
  let again =
    List.sort_uniq compare (send_shards port "eulerian" Proof.empty shards)
  in
  check "cached pass agrees" true (again = merged);
  check_int "shard cache reused" misses (Server.stats t).Server.cache_misses;
  (* shard/scheme mismatches answer typed errors, not drops *)
  with_client port @@ fun cl ->
  let s = shards.(0) in
  (match
     call cl
       (Wire.Verify_partition
          {
            scheme = "eulerian";
            graph6 = Graph6.encode s.Partition.graph;
            ids = s.Partition.ids;
            owned = Bits.of_bools (Array.to_list s.Partition.owned);
            proof = Proof.empty;
            radius = 2;
            shard_index = 0;
            shard_count = 3;
          })
   with
  | Wire.Error_reply { code = Wire.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "radius mismatch must be Bad_request");
  match
    call cl
      (Wire.Verify_partition
         {
           scheme = "no-such-scheme";
           graph6 = Graph6.encode s.Partition.graph;
           ids = s.Partition.ids;
           owned = Bits.of_bools (Array.to_list s.Partition.owned);
           proof = Proof.empty;
           radius = 1;
           shard_index = 0;
           shard_count = 3;
         })
  with
  | Wire.Error_reply { code = Wire.Unknown_scheme; _ } -> ()
  | _ -> Alcotest.fail "unknown scheme must be typed"

(* ------------------------------------------------------------------ *)
(* Oversized frames: a header whose length exceeds the 16 MiB cap gets
   a typed error naming the size, the payload is drained, and the
   connection keeps working — on the daemon and on a router. *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let oversized_frame_is_survivable () =
  Test_server.on_each_endpoint @@ fun ~port ~bad_frames ->
  Test_server.with_raw_socket port @@ fun fd ->
  let len = Wire.max_payload + 1 in
  let header = Bytes.create Wire.header_bytes in
  Bytes.blit_string "LC" 0 header 0 2;
  Bytes.set header 2 (Char.chr Wire.protocol_version);
  Bytes.set header 3 '\x0B';
  Bytes.set header 4 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set header 5 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set header 6 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set header 7 (Char.chr (len land 0xff));
  write_all fd (Bytes.to_string header);
  (* the endpoint answers from the header alone and then drains; stream
     the bogus payload in chunks while it does *)
  let chunk = String.make 65536 '\x00' in
  let rec flood sent =
    if sent < len then begin
      let k = min (String.length chunk) (len - sent) in
      write_all fd (String.sub chunk 0 k);
      flood (sent + k)
    end
  in
  flood 0;
  (match Test_server.read_response fd with
  | Wire.Error_reply { code = Wire.Bad_request; message } ->
      check "error names the offending size" true
        (Test_server.contains ~sub:(string_of_int len) message)
  | Wire.Error_reply { code; _ } ->
      Alcotest.failf "oversized frame: expected Bad_request, got %s"
        (Wire.error_code_to_string code)
  | _ -> Alcotest.fail "oversized frame: expected Bad_request, got success");
  (* same connection, next frame: still alive and well *)
  write_all fd (Wire.encode_request Wire.Stats);
  (match Test_server.read_response fd with
  | Wire.Stats_reply _ -> ()
  | _ -> Alcotest.fail "connection did not survive the oversized frame");
  check_int "oversized frame counted" 1 (bad_frames ())

(* ------------------------------------------------------------------ *)
(* Scatter-gather end to end: Fanout through a router over two
   backends — verdicts equal the whole-graph path, every backend sees
   at least one shard, and rejects land on the right daemons. *)

let fanout_through_router () =
  let mk () =
    Server.create { Server.default_config with port = 0; jobs = 2 }
  in
  let s1 = mk () in
  let th1 = Server.start s1 in
  let s2 = mk () in
  let th2 = Server.start s2 in
  let r =
    Router.create
      {
        Router.default_config with
        port = 0;
        backends =
          [ ("127.0.0.1", Server.port s1); ("127.0.0.1", Server.port s2) ];
        probe_interval_ms = 0;
      }
  in
  let rth = Router.start r in
  Fun.protect
    ~finally:(fun () ->
      Router.stop r;
      Thread.join rth;
      Server.stop s1;
      Thread.join th1;
      Server.stop s2;
      Thread.join th2)
  @@ fun () ->
  let g = chorded 40 in
  let run k =
    match
      Fanout.verify ~port:(Router.port r) ~scheme:"eulerian"
        ~csr:(Csr.of_graph g) ~proof:Proof.empty ~radius:1 ~k ()
    with
    | Ok v -> v
    | Error m -> Alcotest.failf "fanout: %s" m
  in
  List.iter
    (fun k ->
      let v = run k in
      check_int (Printf.sprintf "k=%d shards sent" k) k v.Fanout.shards;
      check_int (Printf.sprintf "k=%d all nodes verified" k) (Graph.n g)
        v.Fanout.owned;
      check (Printf.sprintf "k=%d rejects at the chord" k) true
        (v.Fanout.rejecting = [ 2; 20 ] && v.Fanout.rejected = 2);
      check (Printf.sprintf "k=%d not all-accept" k) false v.Fanout.all_accept)
    [ 2; 4 ];
  (* an accepting instance through the same cluster *)
  let ok =
    match
      Fanout.verify ~port:(Router.port r) ~scheme:"eulerian"
        ~csr:(Csr.of_graph (Builders.cycle 40)) ~proof:Proof.empty ~radius:1
        ~k:2 ()
    with
    | Ok v -> v
    | Error m -> Alcotest.failf "fanout accept: %s" m
  in
  check "accepting instance accepts" true
    (ok.Fanout.all_accept && ok.Fanout.rejecting = []);
  (* the router spread siblings: both backends executed shards *)
  let sh1 = (Server.stats s1).Server.partition_shards
  and sh2 = (Server.stats s2).Server.partition_shards in
  check_int "every shard landed on a backend" 8 (sh1 + sh2);
  check "both backends saw work" true (sh1 >= 1 && sh2 >= 1);
  (* direct multi-endpoint scatter, no router: same verdict *)
  match
    Fanout.verify ~port:(Server.port s1)
      ~endpoints:
        [ ("127.0.0.1", Server.port s1); ("127.0.0.1", Server.port s2) ]
      ~scheme:"eulerian" ~csr:(Csr.of_graph g) ~proof:Proof.empty ~radius:1
      ~k:2 ()
  with
  | Ok v ->
      check "direct scatter agrees" true
        (v.Fanout.rejecting = [ 2; 20 ] && not v.Fanout.all_accept)
  | Error m -> Alcotest.failf "direct fanout: %s" m

let suite =
  ( "partition",
    [
      Alcotest.test_case "partitioner invariants" `Quick partition_structure;
      Alcotest.test_case "closure check detects tampering" `Quick
        closure_tamper_detected;
      Alcotest.test_case "merged verdicts bit-identical (k ∈ {2,4}, r ∈ {1,2})"
        `Quick verdict_bit_identity;
      Alcotest.test_case "shard file roundtrip" `Quick shard_file_roundtrip;
      Alcotest.test_case "shard file rejects malformed input" `Quick
        shard_file_malformed;
      Alcotest.test_case "wire roundtrip (v2)" `Quick wire_partition_roundtrip;
      Alcotest.test_case "wire validates shard frames" `Quick
        wire_partition_validation;
      Alcotest.test_case "daemon executes shards" `Quick server_shard_execution;
      Alcotest.test_case "oversized frame: typed error, link survives" `Quick
        oversized_frame_is_survivable;
      Alcotest.test_case "fanout through a router (2 backends)" `Quick
        fanout_through_router;
    ] )
