(* The wire layer is the service's trust boundary, so the tests come
   in two flavours: round-trip properties (decode (encode m) = m over
   random messages, and graph6 across the multi-byte size-header
   boundary) and adversarial totality (truncated, oversized and
   garbage bytes must come back as [Error _], never as an
   exception). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: unexpected Error %S" what msg

(* ------------------------------------------------------------------ *)
(* graph6: the multi-byte size header (satellite: bench graphs have
   n up to 4096, far past the 62-node single-byte form). *)

let graph6_known_vectors () =
  (* the n <= 62 fast path must stay byte-identical to the original
     single-byte implementation *)
  let k2 = Graph.create ~nodes:[ 0; 1 ] ~edges:[ (0, 1) ] in
  check_str "K2" "A_" (Graph6.encode k2);
  let k3 = Graph.create ~nodes:[ 0; 1; 2 ] ~edges:[ (0, 1); (0, 2); (1, 2) ] in
  check_str "K3" "Bw" (Graph6.encode k3);
  (* first multi-byte n: header is '~' + 18 bits of n *)
  let g63 = Graph.create ~nodes:(List.init 63 Fun.id) ~edges:[] in
  let s = Graph6.encode g63 in
  check_str "n=63 header" "~??~" (String.sub s 0 4);
  check_int "n=63 length" (4 + (((63 * 62 / 2) + 5) / 6)) (String.length s)

let graph6_roundtrip_sizes () =
  (* straddle the single-byte / 3-byte header boundary, then go well
     past it with a wire-sized graph *)
  List.iter
    (fun n ->
      let g = Builders.cycle n in
      let g' = ok_or_fail "decode" (Graph6.decode_res (Graph6.encode g)) in
      check (Printf.sprintf "cycle %d roundtrips" n) true (Graph.equal g g'))
    [ 3; 61; 62; 63; 64; 100; 1024 ]

let graph6_roundtrip_prop =
  QCheck.Test.make ~name:"graph6 roundtrip across header boundary" ~count:60
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 80 in
          let* edges =
            list_size (int_bound 120)
              (let* i = int_bound (n - 1) in
               let* j = int_bound (n - 1) in
               return (i, j))
          in
          return (n, List.filter (fun (i, j) -> i <> j) edges)))
    (fun (n, edges) ->
      let g = Graph.create ~nodes:(List.init n Fun.id) ~edges in
      match Graph6.decode_res (Graph6.encode g) with
      | Ok g' -> Graph.equal g g'
      | Error _ -> false)

let graph6_rejects () =
  let reject what s =
    match Graph6.decode_res s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected rejection of %S" what s
  in
  reject "empty" "";
  reject "truncated 3-byte header" "~?";
  reject "truncated data" "D";
  reject "trailing data" "A_?";
  reject "byte below alphabet" "B\x01\x02";
  reject "non-minimal 3-byte header" "~??A";
  (* a 9-byte header announcing a graph too large to allocate must be
     rejected before any O(n^2) work *)
  reject "n over cap" "~~??~?????"

let graph6_total_prop =
  QCheck.Test.make ~name:"graph6 decode_res never raises" ~count:300
    QCheck.(string_of_size (Gen.int_bound 40))
    (fun s ->
      match Graph6.decode_res s with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "decode_res raised %s on %S"
            (Printexc.to_string e) s)

(* The padding bits after the last edge bit must be zero, so each
   graph has one accepted string: "A`" and "Bx"/"B~" once decoded to
   K2 and K3 beside their canonical "A_" and "Bw". *)
let graph6_padding () =
  List.iter
    (fun s ->
      match Graph6.decode_res s with
      | Error msg ->
          check (s ^ ": error names the padding") true
            (String.starts_with ~prefix:"Graph6: padding" msg)
      | Ok _ -> Alcotest.failf "expected rejection of %S" s)
    [ "A`"; "Bx"; "B~" ];
  List.iter
    (fun s ->
      let g = ok_or_fail s (Graph6.decode_res s) in
      check_str (s ^ " is canonical") s (Graph6.encode g))
    [ "?"; "@"; "A?"; "A_"; "Bw"; "B?"; "Dhc" ]

(* The quadratic decoder that preceded the sparse one, kept verbatim as
   the oracle: it walks every bit position and builds through
   [Graph.create], and it ignores the padding bits. *)
module Oracle = struct
  let ( let* ) = Result.bind
  let max_nodes = 1 lsl 20

  let group s k =
    let c = Char.code s.[k] - 63 in
    if c < 0 || c > 63 then
      Error (Printf.sprintf "Graph6: byte %d is not a graph6 character" k)
    else Ok c

  let decode_size s =
    let len = String.length s in
    if len = 0 then Error "Graph6: empty string"
    else if s.[0] <> '~' then
      let* n = group s 0 in
      Ok (n, 1)
    else if len >= 2 && s.[1] <> '~' then
      if len < 4 then Error "Graph6: truncated 3-byte size header"
      else
        let* b1 = group s 1 in
        let* b2 = group s 2 in
        let* b3 = group s 3 in
        let n = (b1 lsl 12) lor (b2 lsl 6) lor b3 in
        if n < 63 then Error "Graph6: non-minimal 3-byte size header"
        else Ok (n, 4)
    else if len < 8 then Error "Graph6: truncated 6-byte size header"
    else
      let rec go k acc =
        if k = 8 then Ok acc
        else
          let* b = group s k in
          go (k + 1) ((acc lsl 6) lor b)
      in
      let* n = go 2 0 in
      if n < 258048 then Error "Graph6: non-minimal 6-byte size header"
      else Ok (n, 8)

  let decode_res s =
    let* n, off = decode_size s in
    if n > max_nodes then
      Error (Printf.sprintf "Graph6: n = %d exceeds the %d-node cap" n max_nodes)
    else
      let need = ((n * (n - 1) / 2) + 5) / 6 in
      if String.length s <> off + need then
        Error
          (Printf.sprintf "Graph6: expected %d data bytes, got %d" need
             (String.length s - off))
      else
        let rec check k =
          if k = String.length s then Ok ()
          else
            let* _ = group s k in
            check (k + 1)
        in
        let* () = check off in
        let bit idx =
          (Char.code s.[off + (idx / 6)] - 63) lsr (5 - (idx mod 6)) land 1 = 1
        in
        let edges = ref [] in
        let idx = ref 0 in
        for j = 1 to n - 1 do
          for i = 0 to j - 1 do
            if bit !idx then edges := (i, j) :: !edges;
            incr idx
          done
        done;
        Ok (Graph.create ~nodes:(List.init n Fun.id) ~edges:!edges)
end

(* Random graphs on 0..200 nodes (crossing the 62/63 header boundary),
   from empty to complete, as their encodings and as 1-3 byte edits of
   them: substitutions inside and outside the 63..126 alphabet (often
   on the last byte, where the padding lives), deletions and
   insertions. *)
let gen_graph6_input =
  QCheck.Gen.(
    let* n = oneof [ int_range 0 200; int_range 58 68; int_range 0 8 ] in
    let* p = oneofl [ 0.; 0.005; 0.02; 0.1; 0.5; 0.9; 1. ] in
    let* g =
      fun st ->
        let edges = ref [] in
        for j = 1 to n - 1 do
          for i = 0 to j - 1 do
            if Random.State.float st 1. < p then edges := (i, j) :: !edges
          done
        done;
        Graph.create ~nodes:(List.init n Fun.id) ~edges:!edges
    in
    let edit s =
      let len = String.length s in
      let* pos =
        if len = 0 then return 0
        else frequency [ (3, int_bound (len - 1)); (1, return (len - 1)) ]
      in
      let* c =
        frequency
          [
            (4, map Char.chr (int_range 63 126)); (1, map Char.chr (int_bound 255));
          ]
      in
      frequency
        [
          ( 6,
            return
              (if len = 0 then s
               else String.mapi (fun k x -> if k = pos then c else x) s) );
          ( 1,
            return
              (if len = 0 then s
               else String.sub s 0 pos ^ String.sub s (pos + 1) (len - pos - 1))
          );
          ( 1,
            return
              (String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (len - pos))
          );
        ]
    in
    let s = Graph6.encode g in
    let* edits = int_range 1 3 in
    let rec apply k s = if k = 0 then return s else edit s >>= apply (k - 1) in
    let* mutated = apply edits s in
    return (s, mutated))

(* Equal graphs or identical errors, except where the oracle ignored
   set padding bits: there the string is the oracle's graph's encoding
   with bits added to the last byte. Every accepted string is the
   encoding of what it decodes to. *)
let graph6_differential_prop =
  QCheck.Test.make ~name:"graph6 decode_res = quadratic oracle" ~count:400
    (QCheck.make
       ~print:(fun (s, m) -> Printf.sprintf "%S / %S" s m)
       gen_graph6_input)
    (fun (s, mutated) ->
      List.for_all
        (fun s ->
          match (Oracle.decode_res s, Graph6.decode_res s) with
          | Ok g, Ok g' -> Graph.equal g g' && Graph6.encode g' = s
          | Error e, Error e' -> e = e'
          | Ok g, Error e when String.starts_with ~prefix:"Graph6: padding" e ->
              let canon = Graph6.encode g and last = String.length s - 1 in
              String.length canon = String.length s
              && String.sub canon 0 last = String.sub s 0 last
              && canon <> s
          | Ok _, Error e -> QCheck.Test.fail_reportf "new decoder: %s" e
          | Error e, Ok _ -> QCheck.Test.fail_reportf "oracle only: %s" e)
        [ s; mutated ])

(* Registry entries whose yes-instances are bare graphs — no labels,
   no globals — so a daemon serves them from the graph6 bytes alone. *)
let bare_entries =
  lazy
    (List.filter
       (fun (e : Registry.entry) ->
         match e.yes (Random.State.make [| 7 |]) 8 with
         | Some i -> Instance.equal i (Instance.of_graph (Instance.graph i))
         | None -> false)
       Registry.all)

(* The daemon's miss path against the instance path, on the same
   bytes: [decode_csr] + [compile_csr] must give what [decode_res] +
   [Instance.of_graph] + [compile] gives — the same CSR arrays, the
   same radius-2 transcript (which sums every node's record size), and
   (up to 128 edges) the same radius-2 views, sub-instances included,
   and under every bare-graph scheme the same verdicts and transcript
   on a seeded random proof — or both decoders must fail with the same
   error. *)
let graph6_csr_differential_prop =
  QCheck.Test.make ~name:"graph6 CSR miss path = instance path" ~count:150
    (QCheck.make
       ~print:(fun (s, m) -> Printf.sprintf "%S / %S" s m)
       gen_graph6_input)
    (fun (s, mutated) ->
      let entries = Lazy.force bare_entries in
      if entries = [] then QCheck.Test.fail_report "no bare-graph scheme";
      List.for_all
        (fun s ->
          match (Graph6.decode_csr s, Graph6.decode_res s) with
          | Error e, Error e' -> e = e'
          | Ok csr, Ok g ->
              let inst = Instance.of_graph g in
              let bare = Simulator.compile_csr csr
              and full = Simulator.compile inst in
              let st = Random.State.make [| Hashtbl.hash s |] in
              let proof =
                Proof.of_list
                  (List.map
                     (fun v ->
                       ( v,
                         Bits.of_bools
                           (List.init (Random.State.int st 9) (fun _ ->
                                Random.State.bool st)) ))
                     (Graph.nodes g))
              in
              let run compiled ~radius verifier =
                Simulator.run_verifier ~compiled inst proof ~radius verifier
              in
              Csr.export csr = Csr.export (Instance.csr full)
              && run bare ~radius:2 (fun _ -> true)
                 = run full ~radius:2 (fun _ -> true)
              (* verdicts only where the radius-5 line-graph sweep stays
                 cheap; the arrays and transcripts on every input *)
              && (Csr.m csr > 128
                 || List.for_all
                      (fun v ->
                        View.equal
                          (Simulator.view_at bare proof ~radius:2 v)
                          (Simulator.view_at full proof ~radius:2 v))
                      (Graph.nodes g)
                    && List.for_all
                   (fun (e : Registry.entry) ->
                     let radius = e.scheme.Scheme.radius
                     and verifier = e.scheme.Scheme.verifier in
                     run bare ~radius verifier = run full ~radius verifier)
                   entries)
          | Ok _, Error e -> QCheck.Test.fail_reportf "decode_res only: %s" e
          | Error e, Ok _ -> QCheck.Test.fail_reportf "decode_csr only: %s" e)
        [ s; mutated ])

(* Provers on rows against provers on a graph: for every bare-graph
   scheme, an [Instance.of_csr] over the decoded rows, also with the
   ids spread out as a shard's are ([Csr.of_rows]), proves exactly what
   [Instance.of_graph] over the same graph proves, or both refuse. The
   exponential provers, the Θ(n)- and Θ(n²)-bit ones and line-graph's
   (a search for six-node induced subgraphs, which stalls on dense
   graphs of 60 nodes) run on graphs of at most 8 nodes only. *)
let prover_rows_differential_prop =
  let cheap =
    [ "eulerian"; "bipartite"; "even-cycle"; "non-eulerian"; "odd-n"; "even-n";
      "non-bipartite"; "leader-weak"; "acyclic" ]
  in
  QCheck.Test.make ~name:"provers on CSR rows = provers on the graph" ~count:150
    (QCheck.make
       ~print:(fun (s, m) -> Printf.sprintf "%S / %S" s m)
       gen_graph6_input)
    (fun (s, mutated) ->
      let entries = Lazy.force bare_entries in
      List.for_all
        (fun s ->
          match Graph6.decode_csr s with
          | Error _ -> true
          | Ok csr ->
              let offsets, targets, ids = Csr.export csr in
              let spread = Array.map (fun v -> (3 * v) + 1) ids in
              let shard =
                match Csr.of_rows ~ids:spread ~offsets ~targets with
                | Ok c -> c
                | Error e -> QCheck.Test.fail_reportf "spread ids: %s" e
              in
              let g = Graph.of_rows ~ids ~offsets ~targets in
              let pairs =
                [
                  (Instance.of_csr csr, Instance.of_graph g);
                  ( Instance.of_csr shard,
                    Instance.of_graph (Graph.relabel g (fun v -> (3 * v) + 1)) );
                ]
              in
              List.for_all
                (fun (e : Registry.entry) ->
                  (Csr.n csr > 8 && not (List.mem e.name cheap))
                  || List.for_all
                       (fun (rows, graph) ->
                         match (e.scheme.Scheme.prover rows, e.scheme.Scheme.prover graph) with
                         | None, None -> true
                         | Some p, Some q -> Proof.equal p q
                         | _ -> QCheck.Test.fail_reportf "%s: one side refused" e.name)
                       pairs)
                entries)
        [ s; mutated ])

(* ------------------------------------------------------------------ *)
(* Frame round-trips over random messages. *)

let gen_bits =
  QCheck.Gen.(
    let* bools = list_size (int_bound 24) bool in
    return (Bits.of_bools bools))

let gen_proof =
  QCheck.Gen.(
    let* bindings =
      list_size (int_bound 8)
        (let* v = int_bound 1000 in
         let* b = gen_bits in
         return (v, b))
    in
    return (Proof.of_list bindings))

let gen_name = QCheck.Gen.(string_size ~gen:printable (int_bound 16))

(* payload strings are raw bytes on the wire — use the full char
   range, not just printables *)
let gen_blob = QCheck.Gen.(string_size ~gen:char (int_bound 32))

(* batch ops must reference graph- and proof-table slots — the
   decoder rejects out-of-range indices, so the generator keeps them
   in range *)
let gen_batch_op n_graphs n_proofs =
  QCheck.Gen.(
    let* graph = int_bound (n_graphs - 1) in
    oneof
      [
        (let* scheme = gen_name in
         return (Wire.Op_prove { scheme; graph }));
        (let* scheme = gen_name in
         let* proof = int_bound (n_proofs - 1) in
         return (Wire.Op_verify { scheme; graph; proof }));
      ])

let gen_batch =
  QCheck.Gen.(
    let* graphs = list_size (int_range 1 4) gen_blob in
    let* proofs = list_size (int_range 1 3) gen_proof in
    let* ops =
      list_size (int_bound 6)
        (gen_batch_op (List.length graphs) (List.length proofs))
    in
    return (Wire.Batch { graphs; proofs; ops }))

let gen_batch_item =
  QCheck.Gen.(
    oneof
      [
        (let* p = opt gen_proof in
         return (Wire.Item_proved p));
        (let* accepted = bool in
         let* rejecting = list_size (int_bound 6) (int_bound 5000) in
         return (Wire.Item_verified { accepted; rejecting }));
        (let* code =
           oneofl [ Wire.Unknown_scheme; Wire.Deadline_exceeded; Wire.Internal ]
         in
         let* message = gen_blob in
         return (Wire.Item_error { code; message }));
      ])

let gen_request =
  QCheck.Gen.(
    oneof
      [
        gen_batch;
        (let* scheme = gen_name in
         let* graph6 = gen_blob in
         return (Wire.Prove { scheme; graph6 }));
        (let* scheme = gen_name in
         let* graph6 = gen_blob in
         let* proof = gen_proof in
         return (Wire.Verify { scheme; graph6; proof }));
        return Wire.Stats;
        return Wire.Metrics_text;
        return Wire.Health;
        return Wire.Trace_export;
        return Wire.Profile_export;
        (let* enable = bool in
         return (Wire.Drain { enable }));
      ])

let gen_response =
  QCheck.Gen.(
    oneof
      [
        (let* p = opt gen_proof in
         return (Wire.Proved p));
        (let* accepted = bool in
         let* rejecting = list_size (int_bound 10) (int_bound 5000) in
         return (Wire.Verified { accepted; rejecting }));
        (let* requests = int_bound 1_000_000 in
         let* cache_hits = int_bound 1_000_000 in
         let* cache_misses = int_bound 1_000_000 in
         let* cache_entries = int_bound 4096 in
         let* overloaded = int_bound 1_000_000 in
         let* deadline_exceeded = int_bound 1_000_000 in
         let* uptime_ms = int_bound 1_000_000 in
         let* metrics_json = gen_blob in
         return
           (Wire.Stats_reply
              {
                Wire.requests;
                cache_hits;
                cache_misses;
                cache_entries;
                overloaded;
                deadline_exceeded;
                uptime_ms;
                metrics_json;
              }));
        (let* text = gen_blob in
         return (Wire.Metrics_text_reply text));
        (let* ready = bool in
         let* pending = int_bound 10_000 in
         let* max_queue = int_bound 10_000 in
         let* uptime_ms = int_bound 1_000_000 in
         return (Wire.Health_reply { Wire.ready; pending; max_queue; uptime_ms }));
        (let* draining = bool in
         let* pending = int_bound 10_000 in
         return (Wire.Drain_reply { draining; pending }));
        (let* json = gen_blob in
         return (Wire.Trace_export_reply json));
        (let* json = gen_blob in
         return (Wire.Profile_export_reply json));
        (let* items = list_size (int_bound 6) gen_batch_item in
         return (Wire.Batch_reply items));
        (let* code =
           oneofl
             [
               Wire.Bad_frame;
               Wire.Unsupported_version;
               Wire.Unknown_scheme;
               Wire.Bad_graph;
               Wire.Bad_request;
               Wire.Overloaded;
               Wire.Deadline_exceeded;
               Wire.Internal;
               Wire.Unavailable;
             ]
         in
         let* message = gen_blob in
         return (Wire.Error_reply { code; message }));
      ])

(* every message round-trips with its correlation id and, when one is
   attached, its trace context *)
let gen_trace =
  QCheck.Gen.(
    let* trace_hi = int_bound 0x3FFF_FFFF_FFFF in
    let* trace_lo = int_bound 0x3FFF_FFFF_FFFF in
    let* parent_span = int_bound 0x3FFF_FFFF_FFFF in
    return { Wire.trace_hi; trace_lo; parent_span })

let gen_id_trace = QCheck.Gen.(pair (int_bound 0x3FFF_FFFF) (opt gen_trace))

let same_trace trace trace' =
  match (trace, trace') with
  | None, None -> true
  | Some t, Some t' -> t = t'
  | _ -> false

let request_roundtrip_prop =
  QCheck.Test.make ~name:"request roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_id_trace gen_request))
    (fun ((id, trace), r) ->
      match Wire.decode_request (Wire.encode_request ~id ?trace r) with
      | Ok (id', trace', r') ->
          id' = id && same_trace trace trace' && Wire.equal_request r r'
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let response_roundtrip_prop =
  QCheck.Test.make ~name:"response roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_id_trace gen_response))
    (fun ((id, trace), r) ->
      match Wire.decode_response (Wire.encode_response ~id ?trace r) with
      | Ok (id', trace', r') ->
          id' = id && same_trace trace trace' && Wire.equal_response r r'
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

(* ------------------------------------------------------------------ *)
(* Adversarial frames. *)

let header_rejects () =
  let reject what s =
    match Wire.decode_header s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: header accepted" what
  in
  let frame = Wire.encode_request Wire.Stats in
  check "sanity: real frame parses" true
    (Result.is_ok (Wire.decode_header frame));
  reject "short" (String.sub frame 0 (Wire.header_bytes - 1));
  reject "bad magic" ("XC" ^ String.sub frame 2 (Wire.header_bytes - 2));
  List.iter
    (fun v ->
      let bad_version = Bytes.of_string (String.sub frame 0 Wire.header_bytes) in
      Bytes.set bad_version 2 v;
      reject "unsupported version" (Bytes.to_string bad_version))
    [ '\x01'; '\x02'; '\x63' ];
  (* length field claiming more than max_payload: must die at the
     header, before anyone allocates the payload *)
  let huge = Bytes.of_string (String.sub frame 0 Wire.header_bytes) in
  Bytes.set huge 4 '\xff';
  Bytes.set huge 5 '\xff';
  Bytes.set huge 6 '\xff';
  Bytes.set huge 7 '\xff';
  reject "oversized length" (Bytes.to_string huge)

let truncated_frames () =
  let frame =
    Wire.encode_request
      (Wire.Verify
         {
           scheme = "eulerian";
           graph6 = Graph6.encode (Builders.cycle 8);
           proof = Proof.of_list [ (0, Bits.of_bools [ true; false ]) ];
         })
  in
  for i = 0 to String.length frame - 1 do
    match Wire.decode_request (String.sub frame 0 i) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d bytes accepted" i
  done;
  (* trailing garbage after a complete frame must also be rejected *)
  check "trailing byte rejected" true
    (Result.is_error (Wire.decode_request (frame ^ "\x00")))

let payload_garbage_total_prop =
  QCheck.Test.make ~name:"payload decoders never raise" ~count:300
    QCheck.(pair (int_range 0 255) (string_of_size (Gen.int_bound 64)))
    (fun (tag, payload) ->
      let no_raise what f =
        match f () with
        | (_ : (_, string) result) -> true
        | exception e ->
            QCheck.Test.fail_reportf "%s raised %s on tag %d payload %S" what
              (Printexc.to_string e) tag payload
      in
      no_raise "request" (fun () -> Wire.decode_request_payload ~tag payload)
      && no_raise "response" (fun () -> Wire.decode_response_payload ~tag payload))

(* hand-rolled frame: 'L' 'C' version tag u32-length payload *)
let raw_frame ?(version = Wire.protocol_version) ~tag payload =
  let b = Buffer.create (Wire.header_bytes + String.length payload) in
  Buffer.add_char b 'L';
  Buffer.add_char b 'C';
  Buffer.add_char b (Char.chr version);
  Buffer.add_char b (Char.chr tag);
  let len = String.length payload in
  Buffer.add_char b (Char.chr ((len lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((len lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((len lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (len land 0xff));
  Buffer.add_string b payload;
  Buffer.contents b

let id_codec_edges () =
  let tag = Wire.request_tag Wire.Stats in
  let expect_error what frame =
    match Wire.decode_request frame with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | exception e ->
        Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  (* a payload shorter than the 8-byte id is a typed error *)
  expect_error "truncated request id" (raw_frame ~tag "\x00\x00\x01");
  (* the sign bit is not representable in a 63-bit OCaml int: reject *)
  expect_error "id out of the 63-bit range"
    (raw_frame ~tag "\xff\xff\xff\xff\xff\xff\xff\xff");
  (* unknown tags stay typed errors *)
  expect_error "unknown tag"
    (raw_frame ~tag:0x55 "\x00\x00\x00\x00\x00\x00\x00\x01");
  (* encoding guards are caller bugs, not wire input: they raise *)
  check "negative id raises" true
    (match Wire.encode_request ~id:(-1) Wire.Stats with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* the largest representable id survives a round trip *)
  let big = max_int in
  match Wire.decode_request (Wire.encode_request ~id:big Wire.Stats) with
  | Ok (id, _, Wire.Stats) -> check_int "max_int id" big id
  | Ok _ -> Alcotest.fail "wrong request back"
  | Error m -> Alcotest.failf "max_int id rejected: %s" m

let trace_context_edges () =
  let ctx =
    {
      Wire.trace_hi = 0x0123_4567_89ab;
      trace_lo = 0x0fed_cba9_8765;
      parent_span = 42;
    }
  in
  (* the context survives a round trip in both directions *)
  (match Wire.decode_request (Wire.encode_request ~id:9 ~trace:ctx Wire.Stats) with
  | Ok (id, Some ctx', Wire.Stats) ->
      check_int "traced request id" 9 id;
      check "request context survives" true (ctx = ctx')
  | Ok _ -> Alcotest.fail "request trace context lost"
  | Error m -> Alcotest.failf "traced request rejected: %s" m);
  (match
     Wire.decode_response
       (Wire.encode_response ~id:9 ~trace:ctx
          (Wire.Trace_export_reply "{}"))
   with
  | Ok (id, Some ctx', Wire.Trace_export_reply "{}") ->
      check_int "traced response id" 9 id;
      check "response context survives" true (ctx = ctx')
  | Ok _ -> Alcotest.fail "response trace context lost"
  | Error m -> Alcotest.failf "traced response rejected: %s" m);
  (* the context costs exactly 24 payload bytes *)
  let plain = Wire.encode_request ~id:9 Wire.Stats in
  let traced = Wire.encode_request ~id:9 ~trace:ctx Wire.Stats in
  check_int "context adds 24 bytes" (String.length plain + 24)
    (String.length traced);
  (* adversarial frames: a flagged id word promising a context that is
     truncated, absent or out of range is a typed error, never a raise *)
  let tag = Wire.request_tag Wire.Stats in
  let expect_error what frame =
    match Wire.decode_request frame with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | exception e ->
        Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  let flagged_id = "\x80\x00\x00\x00\x00\x00\x00\x07" in
  expect_error "flag set with no context bytes" (raw_frame ~tag flagged_id);
  expect_error "truncated trace context"
    (raw_frame ~tag (flagged_id ^ "\x00\x01"));
  expect_error "trace field with the sign bit set"
    (raw_frame ~tag
       (flagged_id ^ "\xff\xff\xff\xff\xff\xff\xff\xff"
      ^ String.make 16 '\x00'));
  (* encoder guard: negative trace fields are caller bugs and raise *)
  check "negative trace field raises" true
    (match
       Wire.encode_request ~id:1
         ~trace:{ Wire.trace_hi = -1; trace_lo = 0; parent_span = 0 }
         Wire.Stats
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Batch frames. *)

let c8 = lazy (Graph6.encode (Builders.cycle 8))

let mixed_batch () =
  Wire.Batch
    {
      graphs = [ Lazy.force c8; "A_" ];
      proofs = [ Proof.of_list [ (0, Bits.of_bools [ true; false ]) ] ];
      ops =
        [
          Wire.Op_prove { scheme = "eulerian"; graph = 0 };
          Wire.Op_verify { scheme = "eulerian"; graph = 1; proof = 0 };
          Wire.Op_verify { scheme = "bipartite"; graph = 0; proof = 0 };
          Wire.Op_prove { scheme = "eulerian"; graph = 0 };
        ];
    }

let batch_roundtrip () =
  let req = mixed_batch () in
  (match Wire.decode_request (Wire.encode_request ~id:42 req) with
  | Error m -> Alcotest.failf "batch decode failed: %s" m
  | Ok (id', _, req') ->
      check_int "batch id" 42 id';
      check "batch survives" true (Wire.equal_request req req'));
  (* an empty batch is legal: zero graphs, zero ops *)
  let empty = Wire.Batch { graphs = []; proofs = []; ops = [] } in
  check "empty batch roundtrips" true
    (match Wire.decode_request (Wire.encode_request empty) with
    | Ok (_, _, r) -> Wire.equal_request empty r
    | Error _ -> false);
  (* and the reply side, one item of each kind *)
  let reply =
    Wire.Batch_reply
      [
        Wire.Item_proved (Some (Proof.of_list [ (3, Bits.of_bools [ true ]) ]));
        Wire.Item_verified { accepted = false; rejecting = [ 1; 4 ] };
        Wire.Item_verified { accepted = true; rejecting = [] };
        Wire.Item_error { code = Wire.Deadline_exceeded; message = "late" };
      ]
  in
  check "batch reply roundtrips" true
    (match Wire.decode_response (Wire.encode_response reply) with
    | Ok (_, _, r) -> Wire.equal_response reply r
    | Error _ -> false)

let batch_truncations () =
  let frame = Wire.encode_request (mixed_batch ()) in
  for i = 0 to String.length frame - 1 do
    match Wire.decode_request (String.sub frame 0 i) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "batch truncation at %d bytes accepted" i
  done;
  check "batch trailing byte rejected" true
    (Result.is_error (Wire.decode_request (frame ^ "\x00")))

let batch_rejects () =
  let reject what frame =
    match Wire.decode_request frame with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  (* an op pointing past the graph table must die in the decoder, not
     reach dispatch *)
  reject "graph index out of range"
    (Wire.encode_request
       (Wire.Batch
          {
            graphs = [ "A_" ];
            proofs = [];
            ops = [ Wire.Op_prove { scheme = "eulerian"; graph = 1 } ];
          }));
  (* likewise an op pointing past the proof table *)
  reject "proof index out of range"
    (Wire.encode_request
       (Wire.Batch
          {
            graphs = [ "A_" ];
            proofs = [];
            ops = [ Wire.Op_verify { scheme = "eulerian"; graph = 0; proof = 0 } ];
          }));
  let tag = Wire.request_tag (Wire.Batch { graphs = []; proofs = []; ops = [] }) in
  (* bodies after an 8-byte zero id *)
  let id = String.make Wire.id_bytes '\x00' in
  (* unknown op kind byte: 1 graph "A_", 0 proofs, 1 op of kind 9 *)
  reject "unknown op kind"
    (raw_frame ~tag
       (id
      ^ "\x00\x01\x00\x00\x00\x02A_\x00\x00\x00\x01\x09\x00\x00\x00\x01x\x00\x00"));
  (* inflated op count with no op bytes: the count guard must reject
     before any allocation *)
  reject "inflated op count" (raw_frame ~tag (id ^ "\x00\x00\x00\x00\xff\xff"));
  (* inflated proof count likewise *)
  reject "inflated proof count" (raw_frame ~tag (id ^ "\x00\x00\xff\xff"));
  (* and the graph count *)
  reject "inflated graph count" (raw_frame ~tag (id ^ "\xff\xff"));
  (* reply side: unknown per-op status byte *)
  let rtag = Wire.response_tag (Wire.Batch_reply []) in
  check "unknown item status rejected" true
    (Result.is_error
       (Wire.decode_response (raw_frame ~tag:rtag (id ^ "\x00\x01\x09"))))

(* The retired forge (0x03 / reply 0x83, batch op kind 3) and catalog
   (0x05 / reply 0x85) frames: a payload shaped exactly as they were
   sent is now an unknown tag or kind, a typed error like any other.
   The same bytes under a live tag or kind still decode, so each
   rejection is the tag's doing. *)
let retired_tags () =
  let id = String.make Wire.id_bytes '\x00' in
  let str s = Printf.sprintf "\x00\x00\x00%c%s" (Char.chr (String.length s)) s in
  let reject what decode frame =
    match decode frame with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  let accept what decode frame =
    check what true (Result.is_ok (decode frame))
  in
  let instance = str "bipartite" ^ str "A_" in
  accept "prove request" Wire.decode_request (raw_frame ~tag:0x01 (id ^ instance));
  reject "forge request" Wire.decode_request
    (raw_frame ~tag:0x03 (id ^ instance ^ "\x00\x04"));
  accept "stats request" Wire.decode_request (raw_frame ~tag:0x04 id);
  reject "catalog request" Wire.decode_request (raw_frame ~tag:0x05 id);
  reject "forged reply" Wire.decode_response
    (raw_frame ~tag:0x83 (id ^ "\x00" ^ "\x00\x00\x00\x07\x00\x00\x00\x02"));
  reject "catalog reply" Wire.decode_response
    (raw_frame ~tag:0x85 (id ^ "\x00\x00\x00\x00"));
  let batch = Wire.request_tag (Wire.Batch { graphs = []; proofs = []; ops = [] }) in
  (* 1 graph "A_", 0 proofs, 1 op of kind 1 (prove) or 3 (forge, with
     max_bits 4) on graph 0 *)
  let op_frame kind tail =
    raw_frame ~tag:batch
      (id ^ "\x00\x01" ^ str "A_" ^ "\x00\x00\x00\x01" ^ kind ^ str "x"
     ^ "\x00\x00" ^ tail)
  in
  accept "prove batch op" Wire.decode_request (op_frame "\x01" "");
  reject "forge batch op" Wire.decode_request (op_frame "\x03" "\x00\x04");
  (* one reply slot: status 2 with a verified body, or status 3 with a
     forged one *)
  let item_frame slot =
    raw_frame ~tag:(Wire.response_tag (Wire.Batch_reply [])) (id ^ "\x00\x01" ^ slot)
  in
  accept "verified batch item" Wire.decode_response
    (item_frame "\x02\x01\x00\x00\x00\x00");
  reject "forged batch item" Wire.decode_response
    (item_frame "\x03\x00\x00\x00\x00\x07\x00\x00\x00\x02")

(* Pin the profile-export frames deterministically (the QCheck
   roundtrips also draw them, but a shrunk seed could skip the arm):
   request 0x0C carries no body, the reply carries one JSON blob. *)
let profile_export_roundtrip () =
  (match Wire.decode_request (Wire.encode_request ~id:7 Wire.Profile_export) with
  | Ok (_, _, Wire.Profile_export) -> ()
  | Ok _ -> Alcotest.fail "decoded to a different request"
  | Error m -> Alcotest.failf "decode failed: %s" m);
  let json = {|{"samples":3,"collapsed":"a;b 3\n"}|} in
  match
    Wire.decode_response
      (Wire.encode_response ~id:7 (Wire.Profile_export_reply json))
  with
  | Ok (_, _, Wire.Profile_export_reply j) -> check_str "reply json survives" json j
  | Ok _ -> Alcotest.fail "decoded to a different response"
  | Error m -> Alcotest.failf "reply decode failed: %s" m

let count_mismatch () =
  (* a Verify payload whose binding count claims more entries than the
     payload can hold must be rejected by the count guard, not by
     attempting a giant allocation *)
  let frame =
    Wire.encode_request
      (Wire.Verify
         { scheme = "x"; graph6 = "A_"; proof = Proof.of_list [] })
  in
  let b = Bytes.of_string frame in
  (* the binding count is the last u32 of this payload; inflate it *)
  Bytes.set b (Bytes.length b - 4) '\xff';
  Bytes.set b (Bytes.length b - 3) '\xff';
  check "inflated count rejected" true
    (Result.is_error (Wire.decode_request (Bytes.to_string b)))

(* ------------------------------------------------------------------ *)
(* Proof tables (v3): the dense by-id form behind Proof.t. *)

(* Bindings with gaps and explicit ε entries, plus [set]s to apply
   after decoding (some shadow decoded entries, some land past them). *)
let gen_proof_model =
  QCheck.Gen.(
    let gen_entry =
      pair (int_bound 40) (frequency [ (1, return Bits.empty); (4, gen_bits) ])
    in
    let* bindings = list_size (int_bound 12) gen_entry in
    let* sets = list_size (int_bound 4) (pair (int_bound 50) gen_bits) in
    return (bindings, sets))

let print_proof_model (bindings, sets) =
  let show l =
    String.concat "; "
      (List.map (fun (v, b) -> Printf.sprintf "%d:%S" v (Bits.to_string b)) l)
  in
  Printf.sprintf "bindings [%s] sets [%s]" (show bindings) (show sets)

let via_wire proof =
  match
    Wire.decode_request
      (Wire.encode_request (Wire.Verify { scheme = "s"; graph6 = "A_"; proof }))
  with
  | Ok (_, _, Wire.Verify { proof; _ }) -> proof
  | Ok _ -> Alcotest.fail "decoded to a different request"
  | Error m -> Alcotest.failf "proof table rejected: %s" m

let same_bindings a b =
  List.equal (fun (v, x) (u, y) -> v = u && Bits.equal x y) a b

let get_equal p q =
  List.for_all
    (fun v -> Bits.equal (Proof.get p v) (Proof.get q v))
    (List.init 62 (fun v -> v - 2))

let proof_table_roundtrip_prop =
  QCheck.Test.make ~name:"proof table roundtrip" ~count:300
    (QCheck.make ~print:print_proof_model gen_proof_model)
    (fun (bindings, _) ->
      let p = Proof.of_list bindings in
      let d = via_wire p in
      Proof.equal p d && Proof.equal d p && get_equal p d)

(* The decoded proof binds exactly what the table lists — every id
   below k, gaps as ε — so the model is [of_list] over those ids. Every
   operation must agree between the two, also after [set]s. *)
let proof_dense_model_prop =
  QCheck.Test.make ~name:"dense proof agrees with the of_list model"
    ~count:300
    (QCheck.make ~print:print_proof_model gen_proof_model)
    (fun (bindings, sets) ->
      let p = Proof.of_list bindings in
      let listed = List.init (Proof.extent p) (fun v -> (v, Proof.get p v)) in
      let apply p = List.fold_left (fun p (v, b) -> Proof.set p v b) p sets in
      let d = apply (via_wire p) and m = apply (Proof.of_list listed) in
      let agree d m =
        same_bindings (Proof.bindings d) (Proof.bindings m)
        && Proof.size d = Proof.size m
        && Proof.extent d = Proof.extent m
        && get_equal d m && Proof.equal d m && Proof.equal m d
      in
      let grow v b = if v mod 2 = 0 then Bits.append b (Bits.one_bit true) else b in
      let far = Proof.of_list [ (100, Bits.of_string "1"); (-3, Bits.empty) ] in
      let clash = Proof.of_list [ (0, Bits.of_string "0110011") ] in
      let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
      agree d m
      && agree (Proof.map grow d) (Proof.map grow m)
      && agree (Proof.union_disjoint d far) (Proof.union_disjoint m far)
      && agree (Proof.union_disjoint far d) (Proof.union_disjoint far m)
      && raises (fun () -> Proof.union_disjoint d clash)
         = raises (fun () -> Proof.union_disjoint m clash)
      && Proof.equal d p = Proof.equal m p
      && Proof.equal d far = Proof.equal m far)

let proof_node_range () =
  let raises what v =
    let proof = Proof.of_list [ (v, Bits.of_string "1") ] in
    check (what ^ " raises on encode") true
      (match
         Wire.encode_request (Wire.Verify { scheme = "s"; graph6 = "A_"; proof })
       with
      | exception Invalid_argument _ -> true
      | _ -> false);
    check (what ^ " raises in a response") true
      (match Wire.encode_response (Wire.Proved (Some proof)) with
      | exception Invalid_argument _ -> true
      | _ -> false)
  in
  (* a u32 would wrap node -1 to 4294967295, a different node *)
  raises "node -1" (-1);
  raises "node min_int" min_int;
  raises "node past the table bound" (Wire.max_payload / 4);
  (* the largest listable node still encodes *)
  let p = Proof.of_list [ (5, Bits.of_string "101") ] in
  check "sparse proof survives" true (Proof.equal p (via_wire p))

(* Words allocated by [f ()], minor and major heap alike. [Gc.minor_words]
   is exact; [Gc.allocated_bytes] can lag behind the minor heap. *)
let allocated_words f =
  let total () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = total () in
  ignore (Sys.opaque_identity (f ()));
  total () -. before

let proof_table_rejects () =
  let id = String.make Wire.id_bytes '\x00' in
  let tag = Wire.request_tag (Wire.Verify { scheme = ""; graph6 = ""; proof = Proof.empty }) in
  (* scheme "s", graph6 "A_", then the proof table *)
  let verify table = raw_frame ~tag (id ^ "\x00\x00\x00\x01s\x00\x00\x00\x02A_" ^ table) in
  let reject what frame =
    match Wire.decode_request frame with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  check "sanity: a well-formed table decodes" true
    (Result.is_ok (Wire.decode_request (verify "\x00\x00\x00\x01\x00\x00\x00\x03\xa0")));
  reject "count larger than the bytes present"
    (verify "\x00\x00\x00\x03\x00\x00\x00\x01\x80");
  reject "bit length past the end" (verify "\x00\x00\x00\x01\x00\x00\x00\x11\xff\xff");
  reject "bit length past the end, second entry"
    (verify "\x00\x00\x00\x02\x00\x00\x00\x01\x80\x00\x00\x01\x00");
  reject "k = 2^32-1" (verify "\xff\xff\xff\xff");
  (* the count guard runs before Array.make: a claim allocates nothing
     that grows with it *)
  List.iter
    (fun (what, table) ->
      let words = allocated_words (fun () -> Wire.decode_request (verify table)) in
      if words > 256. then
        Alcotest.failf "a claimed %s entry table allocated %.0f words" what words)
    [ ("2^32-1", "\xff\xff\xff\xff"); ("2^20", "\x00\x10\x00\x00\x00\x00\x00\x00") ]

(* Allocation pins for the codec on a hot-verify sized frame: n = 1024,
   8 proof bits per node. Measured on OCaml 5.1, 64-bit: decoding
   allocates the graph6 copy, 4 words per proof node (the 8-bit string
   is 3 words, its array slot 1) and 48 words of fixed cost; encoding
   allocates the frame and 72 words besides. The pins allow 5 words per
   node and 128 fixed words. *)
let codec_allocation_pins () =
  let n = 1024 in
  let st = Random.State.make [| 16 |] in
  let graph6 = Graph6.encode (Random_graphs.connected_gnp st n (6.0 /. float n)) in
  let proof = Proof.of_list (List.init n (fun v -> (v, Bits.random st 8))) in
  let req = Wire.Verify { scheme = "bipartite"; graph6; proof } in
  let frame = Wire.encode_request req in
  let word = float_of_int (Sys.word_size / 8) in
  let encode_words = allocated_words (fun () -> Wire.encode_request req) in
  let frame_words = float_of_int (String.length frame) /. word in
  if encode_words > frame_words +. 128. then
    Alcotest.failf "encode_request allocates %.0f words for a %.0f-word frame"
      encode_words frame_words;
  let decoded = via_wire proof in
  check "pinned frame decodes" true (Proof.equal proof decoded);
  let decode_words = allocated_words (fun () -> Wire.decode_request frame) in
  let graph6_words = float_of_int (String.length graph6) /. word in
  let per_node = (decode_words -. graph6_words -. 128.) /. float n in
  if per_node > 5. then
    Alcotest.failf "decoding a Verify frame allocates %.1f words per proof node (> 5)"
      per_node

(* ------------------------------------------------------------------ *)
(* Golden frames: one fixed value of every request and response
   constructor, encoded and compared with the bytes the protocol put on
   the wire when this table was written. A change made to the writer
   and the reader together survives every round trip; it cannot
   survive this table. Each literal is also decoded and re-encoded, so
   the reader is pinned to the same bytes. *)

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let unhex h =
  String.init
    (String.length h / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* node 1 unbound: it travels as the empty string *)
let golden_proof =
  Proof.of_list [ (0, Bits.of_string "10"); (2, Bits.of_string "1") ]

let golden_requests =
  [
    ("prove", Wire.encode_request ~id:1 (Wire.Prove { scheme = "bipartite"; graph6 = "Bw" }), "4c4303010000001b000000000000000100000009626970617274697465000000024277");
    ( "verify",
      Wire.encode_request ~id:2 (Wire.Verify { scheme = "bipartite"; graph6 = "Bw"; proof = golden_proof }),
      "4c4303020000002d000000000000000200000009626970617274697465000000024277000000030000000280000000000000000180" );
    ( "verify with trace context",
      Wire.encode_request ~id:3
        ~trace:{ Wire.trace_hi = 0x0102_0304_0506; trace_lo = 0x0708; parent_span = 0x090A }
        (Wire.Verify { scheme = "bipartite"; graph6 = "Bw"; proof = golden_proof }),
      "4c43030200000045800000000000000300000102030405060000000000000708000000000000090a00000009626970617274697465000000024277000000030000000280000000000000000180" );
    ( "mixed batch",
      Wire.encode_request ~id:4
        (Wire.Batch
           {
             graphs = [ "A_"; "Bw" ];
             proofs = [ golden_proof ];
             ops =
               [
                 Wire.Op_prove { scheme = "eulerian"; graph = 0 };
                 Wire.Op_verify { scheme = "bipartite"; graph = 1; proof = 0 };
               ];
           }),
      "4c4303090000004d0000000000000004000200000002415f00000002427700010000000300000002800000000000000001800002010000000865756c657269616e0000020000000962697061727469746500010000" );
    ( "verify partition",
      Wire.encode_request ~id:5
        (Wire.Verify_partition
           {
             scheme = "bipartite";
             graph6 = "A_";
             ids = [| 3; 7 |];
             owned = Bits.of_bools [ true; false ];
             proof = Proof.of_list [ (0, Bits.of_string "1") ];
             radius = 1;
             shard_index = 1;
             shard_count = 2;
           }),
      "4c43030b0000003b00000000000000050000000962697061727469746500000002415f0000000200000003000000070000000280000000010000000180000100010002" );
    ( "verify sampled",
      Wire.encode_request ~id:6
        (Wire.Verify_sampled
           {
             scheme = "bipartite";
             graph6 = "Bw";
             proof = golden_proof;
             seed = 12345;
             queries = 4;
             budget_id = "eps0.02:q4:m24";
           }),
      "4c43030d00000049000000000000000600000009626970617274697465000000024277000000030000000280000000000000000180000000000000303900040000000e657073302e30323a71343a6d3234" );
    ("stats", Wire.encode_request ~id:7 Wire.Stats, "4c430304000000080000000000000007");
    ("metrics text", Wire.encode_request ~id:8 Wire.Metrics_text, "4c430306000000080000000000000008");
    ("health", Wire.encode_request ~id:9 Wire.Health, "4c430307000000080000000000000009");
    ("drain", Wire.encode_request ~id:10 (Wire.Drain { enable = true }), "4c43030800000009000000000000000a01");
    ("trace export", Wire.encode_request ~id:11 Wire.Trace_export, "4c43030a00000008000000000000000b");
    ("profile export", Wire.encode_request ~id:12 Wire.Profile_export, "4c43030c00000008000000000000000c");
  ]

let golden_responses =
  [
    ("proved", Wire.encode_response ~id:1 (Wire.Proved (Some golden_proof)), "4c4303810000001b000000000000000101000000030000000280000000000000000180");
    ("proved none", Wire.encode_response ~id:1 (Wire.Proved None), "4c43038100000009000000000000000100");
    ("verified", Wire.encode_response ~id:2 (Wire.Verified { accepted = false; rejecting = [ 1; 2 ] }), "4c43038200000015000000000000000200000000020000000100000002");
    ( "partition verified",
      Wire.encode_response ~id:5
        (Wire.Partition_verified { all_accept = false; owned = 2; rejected = 1; rejecting = [ 7 ] }),
      "4c43038b0000001900000000000000050000000002000000010000000100000007" );
    ( "sampled verified",
      Wire.encode_response ~id:6
        (Wire.Sampled_verified
           { sampled_accept = false; escalated = true; accepted = false; bits_read = 17; nodes = 3; rejecting = [ 0 ] }),
      "4c43038d0000001b000000000000000600010000000011000000030000000100000000" );
    ( "batch reply",
      Wire.encode_response ~id:4
        (Wire.Batch_reply
           [
             Wire.Item_proved (Some golden_proof);
             Wire.Item_proved None;
             Wire.Item_verified { accepted = false; rejecting = [ 1 ] };
             Wire.Item_error { code = Wire.Unknown_scheme; message = "no" };
           ]),
      "4c430389000000320000000000000004000401010000000300000002800000000000000001800100020000000001000000010003000000026e6f" );
    ( "stats reply",
      Wire.encode_response ~id:7
        (Wire.Stats_reply
           {
             Wire.requests = 10;
             cache_hits = 6;
             cache_misses = 4;
             cache_entries = 3;
             overloaded = 1;
             deadline_exceeded = 2;
             uptime_ms = 1500;
             metrics_json = "{}";
           }),
      "4c4303840000002a00000000000000070000000a0000000600000004000000030000000100000002000005dc000000027b7d" );
    ("metrics text reply", Wire.encode_response ~id:8 (Wire.Metrics_text_reply "up 1\n"), "4c43038600000011000000000000000800000005757020310a");
    ( "health reply",
      Wire.encode_response ~id:9 (Wire.Health_reply { Wire.ready = true; pending = 3; max_queue = 256; uptime_ms = 1000 }),
      "4c430387000000150000000000000009010000000300000100000003e8" );
    ("drain reply", Wire.encode_response ~id:10 (Wire.Drain_reply { draining = true; pending = 2 }), "4c4303880000000d000000000000000a0100000002");
    ("trace export reply", Wire.encode_response ~id:11 (Wire.Trace_export_reply "{\"traceEvents\":[]}"), "4c43038a0000001e000000000000000b000000127b2274726163654576656e7473223a5b5d7d");
    ("profile export reply", Wire.encode_response ~id:12 (Wire.Profile_export_reply "{}"), "4c43038c0000000e000000000000000c000000027b7d");
    ( "error reply",
      Wire.encode_response ~id:13
        ~trace:{ Wire.trace_hi = 1; trace_lo = 2; parent_span = 3 }
        (Wire.Error_reply { code = Wire.Overloaded; message = "busy" }),
      "4c4303e000000029800000000000000d000000000000000100000000000000020000000000000003060000000462757379" );
  ]

(* Prove replies as the daemon serves them: graph6 bytes decoded to
   rows, compiled, and proved on the compiled image's instance. Each
   hex was recorded from the hashtable-BFS provers these replaced, so
   a prover reading the rows must keep every byte. *)
let golden_proved () =
  let served scheme graph6 =
    match (Registry.find scheme, Graph6.decode_csr graph6) with
    | Some e, Ok csr ->
        Wire.encode_response ~id:1
          (Wire.Proved
             (e.Registry.scheme.Scheme.prover (Simulator.compile_csr csr)))
    | _ -> Alcotest.failf "cannot serve %s on %S" scheme graph6
  in
  [
    ( "proved bipartite, two components",
      served "bipartite" "J?@?_AGc@O?",
      "4c430381000000440000000000000001010000000b00000001000000000100000000010000000001000000000100000000018000000001800000000100000000018000000001800000000180" );
    ( "proved non-bipartite",
      served "non-bipartite" "KK?KB?UFEEDO",
      "4c430381000000550000000000000001010000000c0000000ad9c00000000db8b00000000b928000000007ac0000000f92280000000f922400000011ae85800000000db8b00000000bb9000000000bb9000000000baee00000000bb9c0" );
    ( "proved odd-n",
      served "odd-n" "HhgLmAb",
      "4c43038100000043000000000000000101000000090000000ac28000000009ad800000000bba400000000db9d000000009ad800000000db95000000009ad8000000009ad0000000009ad00" );
    ( "proved even-n",
      served "even-n" "KK?KB?UFEEDO",
      "4c430381000000570000000000000001010000000c0000000ac3400000000fb8b60000000d92900000000bacc0000000119229000000001192250000000009ad800000000fb8b40000000db9180000000db9180000000baca00000000db9d0" );
    ( "proved eulerian",
      served "eulerian" "HhCGGE@",
      "4c4303810000000d00000000000000010100000000" );
  ]

let golden_frames () =
  let pin reencode (name, frame, expected) =
    check_str (name ^ " bytes") expected (hex frame);
    check_str
      (name ^ " decodes to the same bytes")
      expected
      (hex (reencode (unhex expected)))
  in
  let reencode_request s =
    match Wire.decode_request s with
    | Ok (id, trace, r) -> Wire.encode_request ~id ?trace r
    | Error m -> Alcotest.failf "golden request rejected: %s" m
  in
  let reencode_response s =
    match Wire.decode_response s with
    | Ok (id, trace, r) -> Wire.encode_response ~id ?trace r
    | Error m -> Alcotest.failf "golden response rejected: %s" m
  in
  List.iter (pin reencode_request) golden_requests;
  List.iter (pin reencode_response) (golden_responses @ golden_proved ())

let suite =
  ( "wire",
    [
      Alcotest.test_case "graph6 known vectors" `Quick graph6_known_vectors;
      Alcotest.test_case "graph6 roundtrip sizes" `Quick graph6_roundtrip_sizes;
      QCheck_alcotest.to_alcotest graph6_roundtrip_prop;
      Alcotest.test_case "graph6 rejects malformed" `Quick graph6_rejects;
      QCheck_alcotest.to_alcotest graph6_total_prop;
      Alcotest.test_case "graph6 rejects set padding bits" `Quick graph6_padding;
      QCheck_alcotest.to_alcotest graph6_differential_prop;
      QCheck_alcotest.to_alcotest graph6_csr_differential_prop;
      QCheck_alcotest.to_alcotest prover_rows_differential_prop;
      QCheck_alcotest.to_alcotest request_roundtrip_prop;
      QCheck_alcotest.to_alcotest response_roundtrip_prop;
      Alcotest.test_case "header rejects malformed" `Quick header_rejects;
      Alcotest.test_case "truncated frames rejected" `Quick truncated_frames;
      QCheck_alcotest.to_alcotest payload_garbage_total_prop;
      Alcotest.test_case "correlation id edge cases" `Quick id_codec_edges;
      Alcotest.test_case "trace context edge cases" `Quick trace_context_edges;
      Alcotest.test_case "batch roundtrip" `Quick batch_roundtrip;
      Alcotest.test_case "batch truncations rejected" `Quick batch_truncations;
      Alcotest.test_case "batch rejects malformed" `Quick batch_rejects;
      Alcotest.test_case "retired forge and catalog tags rejected" `Quick
        retired_tags;
      Alcotest.test_case "inflated count rejected" `Quick count_mismatch;
      Alcotest.test_case "profile export roundtrip" `Quick
        profile_export_roundtrip;
      QCheck_alcotest.to_alcotest proof_table_roundtrip_prop;
      QCheck_alcotest.to_alcotest proof_dense_model_prop;
      Alcotest.test_case "proof node ids range-checked" `Quick proof_node_range;
      Alcotest.test_case "hostile proof tables rejected" `Quick proof_table_rejects;
      Alcotest.test_case "codec allocation pins" `Quick codec_allocation_pins;
      Alcotest.test_case "golden frames" `Quick golden_frames;
    ] )
