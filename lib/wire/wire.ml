(* Codecs for the verification-service protocol. Two halves:

   - writers put fixed-width big-endian fields into a [sink] — the
     encoder can assume well-typed OCaml values and fails only on a
     caller bug (a negative id, a proof node no table can list);
   - readers walk a cursor over the received payload. Internally they
     raise a private [Fail] exception for brevity, but every public
     decoder catches it at the boundary and returns [Error reason]:
     no exception escapes towards the accept loop, whatever the bytes.

   Counts are validated against the number of bytes actually present
   before anything is allocated, so a tiny hostile frame cannot demand
   a gigabyte list.

   Every payload starts with a u64 correlation id (0 = unassigned; the
   server allocates one) echoed verbatim on the response. It may carry
   a trace context: bit 63 of the correlation-id word flags its
   presence, and 24 context bytes follow the id — trace id high half,
   trace id low half, parent span id, each a 63-bit non-negative int
   in a u64. *)

let protocol_version = 3
let header_bytes = 8
let id_bytes = 8
let max_payload = 16 * 1024 * 1024
let magic0 = 'L'
let magic1 = 'C'

(* Shard and sampled replies carry at most this many rejecting ids;
   [r_sample] refuses more. *)
let rejecting_cap = 64
let rejecting_sample l = List.filteri (fun i _ -> i < rejecting_cap) l

type header = { tag : int; length : int }

(* Distributed-tracing context rides the id prefix: a 126-bit trace
   id split across two 63-bit halves plus the sender's span id, which
   becomes the receiver's parent. All-zero means "unsampled" and is
   never encoded — senders pass [None] instead. *)
type trace_context = { trace_hi : int; trace_lo : int; parent_span : int }

(* A batch sub-operation names its graph by index into the batch's
   shared graph table, so a frame carrying 64 ops over 3 distinct
   graphs ships each graph6 payload exactly once. *)
type batch_op =
  | Op_prove of { scheme : string; graph : int }
  | Op_verify of { scheme : string; graph : int; proof : int }

type request =
  | Prove of { scheme : string; graph6 : string }
  | Verify of { scheme : string; graph6 : string; proof : Proof.t }
  | Batch of { graphs : string list; proofs : Proof.t list; ops : batch_op list }
  | Verify_partition of {
      scheme : string;
      graph6 : string;  (** Shard graph on local ids [0 .. ns-1]. *)
      ids : int array;  (** Local id → original id; strictly increasing. *)
      owned : Bits.t;  (** One bit per local id; 1 = owned, 0 = ghost. *)
      proof : Proof.t;  (** Keyed by local ids. *)
      radius : int;
      shard_index : int;
      shard_count : int;
    }
  | Verify_sampled of {
      scheme : string;
      graph6 : string;
      proof : Proof.t;
      seed : int;  (** PRG seed, 63-bit non-negative (carried as a u64). *)
      queries : int;  (** Per-node query bound, u16, ≥ 1. *)
      budget_id : string;
          (** The client's idea of the scheme's error budget
              ("eps0.02:q4:m24"); empty accepts the server's default,
              any other mismatch is a typed [Bad_request]. *)
    }
  | Stats
  | Metrics_text
  | Health
  | Drain of { enable : bool }
  | Trace_export
  | Profile_export

type error_code =
  | Bad_frame
  | Unsupported_version
  | Unknown_scheme
  | Bad_graph
  | Bad_request
  | Overloaded
  | Deadline_exceeded
  | Internal
  | Unavailable

type server_stats = {
  requests : int;
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  overloaded : int;
  deadline_exceeded : int;
  uptime_ms : int;
  metrics_json : string;
}

type health = { ready : bool; pending : int; max_queue : int; uptime_ms : int }

(* Each batch op gets its own reply slot: a success of the matching
   kind, or an error that poisons only that slot — one bad op never
   fails the frame. *)
type batch_item =
  | Item_proved of Proof.t option
  | Item_verified of { accepted : bool; rejecting : int list }
  | Item_error of { code : error_code; message : string }

type response =
  | Proved of Proof.t option
  | Verified of { accepted : bool; rejecting : int list }
  | Partition_verified of {
      all_accept : bool;
      owned : int;  (** Owned nodes verified. *)
      rejected : int;  (** Owned nodes that rejected (full count). *)
      rejecting : int list;  (** First ≤64 rejecting original ids. *)
    }
  | Sampled_verified of {
      sampled_accept : bool;  (** The q-bounded probe run's verdict. *)
      escalated : bool;  (** Full verify ran; always [not sampled_accept]. *)
      accepted : bool;  (** Final verdict (sampled, or full if escalated). *)
      bits_read : int;  (** Proof/label bits the sampled run consumed. *)
      nodes : int;  (** Nodes the sampled run probed. *)
      rejecting : int list;  (** First ≤64 rejecting nodes; [] if accepted. *)
    }
  | Batch_reply of batch_item list
  | Stats_reply of server_stats
  | Metrics_text_reply of string
  | Health_reply of health
  | Drain_reply of { draining : bool; pending : int }
  | Trace_export_reply of string
  | Profile_export_reply of string
  | Error_reply of { code : error_code; message : string }

let error_code_to_int = function
  | Bad_frame -> 1
  | Unsupported_version -> 2
  | Unknown_scheme -> 3
  | Bad_graph -> 4
  | Bad_request -> 5
  | Overloaded -> 6
  | Deadline_exceeded -> 7
  | Internal -> 8
  | Unavailable -> 9

let error_code_of_int = function
  | 1 -> Some Bad_frame
  | 2 -> Some Unsupported_version
  | 3 -> Some Unknown_scheme
  | 4 -> Some Bad_graph
  | 5 -> Some Bad_request
  | 6 -> Some Overloaded
  | 7 -> Some Deadline_exceeded
  | 8 -> Some Internal
  | 9 -> Some Unavailable
  | _ -> None

let error_code_to_string = function
  | Bad_frame -> "bad-frame"
  | Unsupported_version -> "unsupported-version"
  | Unknown_scheme -> "unknown-scheme"
  | Bad_graph -> "bad-graph"
  | Bad_request -> "bad-request"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline-exceeded"
  | Internal -> "internal"
  | Unavailable -> "unavailable"

(* A request's tag and its name in logs and metrics, from one match. *)
let request_tag_kind = function
  | Prove _ -> (0x01, "prove")
  | Verify _ -> (0x02, "verify")
  | Stats -> (0x04, "stats")
  | Metrics_text -> (0x06, "metrics")
  | Health -> (0x07, "health")
  | Drain _ -> (0x08, "drain")
  | Batch _ -> (0x09, "batch")
  | Trace_export -> (0x0A, "trace")
  | Verify_partition _ -> (0x0B, "verify_partition")
  | Profile_export -> (0x0C, "profile")
  | Verify_sampled _ -> (0x0D, "verify_sampled")

let request_tag r = fst (request_tag_kind r)
let request_kind r = snd (request_tag_kind r)

let response_tag = function
  | Proved _ -> 0x81
  | Verified _ -> 0x82
  | Stats_reply _ -> 0x84
  | Metrics_text_reply _ -> 0x86
  | Health_reply _ -> 0x87
  | Drain_reply _ -> 0x88
  | Batch_reply _ -> 0x89
  | Trace_export_reply _ -> 0x8A
  | Partition_verified _ -> 0x8B
  | Profile_export_reply _ -> 0x8C
  | Sampled_verified _ -> 0x8D
  | Error_reply _ -> 0xE0

(* --- compute identity ------------------------------------------------- *)

(* What a compute request runs: its scheme and the bytes that name the
   compiled image. The daemon caches compiled verifiers under
   [cache_key] of it and the router places requests by the same string:
   content-addressed placement is what gives the cluster its cache
   affinity, and both read it from here. *)
type identity = { scheme : string; image : string }

let cache_key { scheme; image } =
  scheme ^ "/" ^ Digest.to_hex (Digest.string image)

(* '\n' never occurs in graph6 (printable columns 63..126 only), so a
   shard identity cannot collide with a plain graph's, and distinct id
   tables yield distinct identities. *)
let shard_image graph6 ids =
  let b = Buffer.create (String.length graph6 + (4 * Array.length ids)) in
  Buffer.add_string b graph6;
  Array.iter (fun v -> Printf.bprintf b "\n%x" v) ids;
  Buffer.contents b

(* A batch op runs as the plain request over its graph. A hand-built op
   with a stray graph index gets an empty image; the daemon answers it
   with a per-op Bad_request. *)
let op_identity graphs = function
  | Op_prove { scheme; graph } | Op_verify { scheme; graph; _ } ->
      let image =
        if graph >= 0 && graph < Array.length graphs then graphs.(graph) else ""
      in
      { scheme; image }

let op_key graphs op = cache_key (op_identity graphs op)

let identity = function
  (* a sampled verify runs on the same compiled image as a plain one *)
  | Prove { scheme; graph6 }
  | Verify { scheme; graph6; _ }
  | Verify_sampled { scheme; graph6; _ } ->
      Some { scheme; image = graph6 }
  | Verify_partition { scheme; graph6; ids; _ } ->
      Some { scheme; image = shard_image graph6 ids }
  | Batch { graphs; ops = op :: _; _ } ->
      Some (op_identity (Array.of_list graphs) op)
  | Batch { ops = []; _ }
  | Stats | Metrics_text | Health | Drain _ | Trace_export | Profile_export ->
      None

let request_key req =
  match identity req with Some id -> cache_key id | None -> ""

(* --- writers ---------------------------------------------------------- *)

(* The same writer code runs twice per frame: into a counting sink
   ([write = false]) that only advances [pos], then into a [Bytes] of
   exactly the size counted. Encoding thus allocates the frame once and
   nothing that grows with it. *)
type sink = { buf : Bytes.t; mutable pos : int; write : bool }

let w_u8 b v =
  if b.write then Bytes.set b.buf b.pos (Char.unsafe_chr (v land 0xff));
  b.pos <- b.pos + 1

let w_u16 b v =
  w_u8 b (v lsr 8);
  w_u8 b v

let w_u32 b v =
  w_u8 b (v lsr 24);
  w_u8 b (v lsr 16);
  w_u8 b (v lsr 8);
  w_u8 b v

let w_string b s =
  let len = String.length s in
  w_u32 b len;
  if b.write then Bytes.blit_string s 0 b.buf b.pos len;
  b.pos <- b.pos + len

(* Correlation ids are 63-bit non-negative ints carried as a u64; the
   encoder owns the range check so hostile values cannot be ours. Bit
   63 of the word is the trace-context flag, never part of the id. *)
let trace_flag_bit = 0x8000_0000

let w_id ?(flag = false) b id =
  w_u32 b ((id lsr 32) lor (if flag then trace_flag_bit else 0));
  w_u32 b id

let w_trace b { trace_hi; trace_lo; parent_span } =
  w_id b trace_hi;
  w_id b trace_lo;
  w_id b parent_span

let w_bits b bits =
  let len = Bits.length bits in
  w_u32 b len;
  if b.write then Bits.pack bits b.buf b.pos;
  b.pos <- b.pos + Bits.packed_bytes len

(* A proof table lists node ids 0 .. k-1 in order, each as a bit
   string, with no ids on the wire: graph6 nodes are already 0..n-1. A
   node the proof leaves unbound travels as ε. Node ids are range
   checked here, like correlation ids: a negative one would otherwise
   wrap to a different node, and a table past [max_payload / 4]
   entries cannot fit any frame. *)
let w_proof b proof =
  let k = Proof.extent proof in
  if k > max_payload / 4 then
    invalid_arg (Printf.sprintf "Wire: proof node %d does not fit a frame" (k - 1));
  w_u32 b k;
  let next = ref 0 in
  Proof.iter
    (fun v bits ->
      if v < 0 then invalid_arg "Wire: proof node ids are non-negative";
      while !next < v do
        w_u32 b 0;
        incr next
      done;
      w_bits b bits;
      incr next)
    proof

let w_int_list b l =
  w_u32 b (List.length l);
  List.iter (w_u32 b) l

(* Batch sub-ops carry a u8 kind, the scheme, and u16 indices into the
   frame's shared graph and proof tables; only the kind-specific tail
   differs. Hoisting both payloads into tables is what makes a frame
   of repeated ops cheap: 64 verifies of one (graph, proof) pair carry
   the bytes once and 64 eleven-byte ops. *)
let w_batch_op b = function
  | Op_prove { scheme; graph } ->
      w_u8 b 1;
      w_string b scheme;
      w_u16 b graph
  | Op_verify { scheme; graph; proof } ->
      w_u8 b 2;
      w_string b scheme;
      w_u16 b graph;
      w_u16 b proof

(* --- readers ---------------------------------------------------------- *)

exception Fail of string

let fail fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

type cursor = { s : string; mutable pos : int }

let remaining c = String.length c.s - c.pos

let r_u8 c =
  if remaining c < 1 then fail "truncated payload (wanted 1 byte)";
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r_u16 c =
  let hi = r_u8 c in
  (hi lsl 8) lor r_u8 c

let r_u32 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    v := (!v lsl 8) lor r_u8 c
  done;
  !v

let r_bool c =
  match r_u8 c with
  | 0 -> false
  | 1 -> true
  | v -> fail "invalid boolean byte %d" v

(* The two halves of a u64 id word; bit 63 is the trace-context flag. *)
let r_word what c =
  if remaining c < id_bytes then
    fail "truncated %s (wanted %d bytes, got %d)" what id_bytes (remaining c);
  let hi = r_u32 c in
  (hi, r_u32 c)

let r_id ?(what = "request id") c =
  let hi, lo = r_word what c in
  if hi land trace_flag_bit <> 0 then fail "%s out of the 63-bit range" what;
  (hi lsl 32) lor lo

(* The id word, plus the 24-byte trace context when the flag bit is
   set. Every failure mode of the context — truncation, a sign bit in
   any field — lands in [Fail] and therefore in [Error], never in an
   exception at the accept loop. *)
let r_id_trace c =
  let hi, lo = r_word "request id" c in
  let id = ((hi land lnot trace_flag_bit) lsl 32) lor lo in
  if hi land trace_flag_bit = 0 then (id, None)
  else
    let trace_hi = r_id ~what:"trace id (high half)" c in
    let trace_lo = r_id ~what:"trace id (low half)" c in
    let parent_span = r_id ~what:"parent span id" c in
    (id, Some { trace_hi; trace_lo; parent_span })

let r_string c =
  let len = r_u32 c in
  if len > remaining c then
    fail "string length %d exceeds the %d bytes present" len (remaining c);
  let s = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  s

let r_bits c =
  let len = r_u32 c in
  let bytes = Bits.packed_bytes len in
  if bytes > remaining c then
    fail "bit-string length %d exceeds the %d bytes present" len (remaining c);
  let bits = Bits.unpack c.s c.pos len in
  c.pos <- c.pos + bytes;
  bits

(* [r_list c ~min_entry_bytes f]: a count — u32, or u16 for the batch
   tables, which cap at 65535 entries — whose minimum encoded size is
   checked against the bytes actually left, then that many elements. *)
let r_list ?(count = r_u32) c ~min_entry_bytes f =
  let count = count c in
  if count * min_entry_bytes > remaining c then
    fail "list count %d exceeds the %d bytes present" count (remaining c);
  List.init count (fun _ -> f c)

(* One pass straight into the dense by-id array. Every entry costs at
   least its u32 length, so the count is checked against the bytes
   present before [Array.make]: a claimed count never allocates. *)
let r_proof c =
  let k = r_u32 c in
  if k * 4 > remaining c then
    fail "proof table of %d entries exceeds the %d bytes present" k (remaining c);
  let dense = Array.make k Bits.empty in
  for v = 0 to k - 1 do
    dense.(v) <- r_bits c
  done;
  Proof.of_dense dense

let r_batch_op c ~n_graphs ~n_proofs =
  let kind = r_u8 c in
  let scheme = r_string c in
  let graph = r_u16 c in
  if graph >= n_graphs then
    fail "batch op references graph %d but the frame carries %d" graph n_graphs;
  match kind with
  | 1 -> Op_prove { scheme; graph }
  | 2 ->
      let proof = r_u16 c in
      if proof >= n_proofs then
        fail "batch op references proof %d but the frame carries %d" proof
          n_proofs;
      Op_verify { scheme; graph; proof }
  | k -> fail "unknown batch op kind %d" k

let expect_end c =
  if remaining c > 0 then fail "%d trailing bytes after the payload" (remaining c)

(* Decode [s] from byte [pos] to its end, in place. *)
let decoding s pos f =
  let c = { s; pos } in
  match
    let v = f c in
    expect_end c;
    v
  with
  | v -> Ok v
  | exception Fail m -> Error m

(* --- frames ----------------------------------------------------------- *)

let check_id id =
  if id < 0 then invalid_arg "Wire: request ids are non-negative"

let check_trace { trace_hi; trace_lo; parent_span } =
  if trace_hi < 0 || trace_lo < 0 || parent_span < 0 then
    invalid_arg "Wire: trace context fields are non-negative"

(* The payload is the u64 correlation id, then the 24 trace-context
   bytes when a context rides along (flagged in the id word), then the
   message body that [body] writes: once to size the frame, once into
   it. *)
let frame ~id ?trace tag body =
  check_id id;
  Option.iter check_trace trace;
  let counted = { buf = Bytes.empty; pos = 0; write = false } in
  body counted;
  let context_bytes = if trace = None then 0 else 3 * id_bytes in
  let length = id_bytes + context_bytes + counted.pos in
  let b = { buf = Bytes.create (header_bytes + length); pos = 0; write = true } in
  w_u8 b (Char.code magic0);
  w_u8 b (Char.code magic1);
  w_u8 b protocol_version;
  w_u8 b tag;
  w_u32 b length;
  (match trace with
  | None -> w_id b id
  | Some t ->
      w_id ~flag:true b id;
      w_trace b t);
  body b;
  assert (b.pos = Bytes.length b.buf);
  Bytes.unsafe_to_string b.buf

(* Header failures split in two: [Bad_header] means the framing itself
   cannot be trusted (wrong magic, unsupported version, truncation) and
   the connection must drop; [Oversized] means the frame is well-formed
   but its payload exceeds the cap — the length field is trustworthy,
   so a peer can drain exactly that many bytes, answer with a typed
   error, and keep the connection. Partition shards are the first
   frames big enough to trip the cap in normal operation. *)
type header_error =
  | Bad_header of string
  | Oversized of { tag : int; length : int }

let decode_header s =
  if String.length s < header_bytes then
    Error
      (Bad_header
         (Printf.sprintf "frame header needs %d bytes, got %d" header_bytes
            (String.length s)))
  else if s.[0] <> magic0 || s.[1] <> magic1 then
    Error (Bad_header "bad magic bytes")
  else if Char.code s.[2] <> protocol_version then
    Error
      (Bad_header
         (Printf.sprintf "unsupported protocol version %d" (Char.code s.[2])))
  else
    let tag = Char.code s.[3] in
    let length =
      (Char.code s.[4] lsl 24)
      lor (Char.code s.[5] lsl 16)
      lor (Char.code s.[6] lsl 8)
      lor Char.code s.[7]
    in
    if length > max_payload then Error (Oversized { tag; length })
    else Ok { tag; length }

let header_error_to_string = function
  | Bad_header m -> m
  | Oversized { length; _ } ->
      Printf.sprintf "payload length %d exceeds the %d cap" length max_payload


(* --- requests --------------------------------------------------------- *)

let w_request b req =
  match req with
  | Prove { scheme; graph6 } ->
      w_string b scheme;
      w_string b graph6
  | Verify { scheme; graph6; proof } ->
      w_string b scheme;
      w_string b graph6;
      w_proof b proof
  | Batch { graphs; proofs; ops } ->
      w_u16 b (List.length graphs);
      List.iter (w_string b) graphs;
      w_u16 b (List.length proofs);
      List.iter (w_proof b) proofs;
      w_u16 b (List.length ops);
      List.iter (w_batch_op b) ops
  | Verify_partition
      { scheme; graph6; ids; owned; proof; radius; shard_index; shard_count } ->
      w_string b scheme;
      w_string b graph6;
      w_u32 b (Array.length ids);
      Array.iter (w_u32 b) ids;
      w_bits b owned;
      w_proof b proof;
      w_u16 b radius;
      w_u16 b shard_index;
      w_u16 b shard_count
  | Verify_sampled { scheme; graph6; proof; seed; queries; budget_id } ->
      if seed < 0 then invalid_arg "Wire: sampled seeds are non-negative";
      if queries < 1 || queries > 0xffff then
        invalid_arg "Wire: sampled query bound out of the u16 range";
      w_string b scheme;
      w_string b graph6;
      w_proof b proof;
      w_id b seed;
      w_u16 b queries;
      w_string b budget_id
  | Drain { enable } -> w_u8 b (if enable then 1 else 0)
  | Stats | Metrics_text | Health | Trace_export | Profile_export -> ()

let encode_request ?(id = 0) ?trace req =
  frame ~id ?trace (request_tag req) (fun b -> w_request b req)

let request_from ~tag s pos =
  decoding s pos @@ fun c ->
  let id, trace = r_id_trace c in
  let req =
    match tag with
    | 0x01 ->
        let scheme = r_string c in
        Prove { scheme; graph6 = r_string c }
    | 0x02 ->
        let scheme = r_string c in
        let graph6 = r_string c in
        Verify { scheme; graph6; proof = r_proof c }
    | 0x04 -> Stats
    | 0x06 -> Metrics_text
    | 0x07 -> Health
    | 0x08 -> Drain { enable = r_bool c }
    | 0x09 ->
        let graphs = r_list ~count:r_u16 c ~min_entry_bytes:4 r_string in
        let n_graphs = List.length graphs in
        let proofs = r_list ~count:r_u16 c ~min_entry_bytes:4 r_proof in
        let n_proofs = List.length proofs in
        let op = r_batch_op ~n_graphs ~n_proofs in
        let ops = r_list ~count:r_u16 c ~min_entry_bytes:7 op in
        Batch { graphs; proofs; ops }
    | 0x0A -> Trace_export
    | 0x0C -> Profile_export
    | 0x0B ->
        let scheme = r_string c in
        let graph6 = r_string c in
        let ids = Array.of_list (r_list c ~min_entry_bytes:4 r_u32) in
        Array.iteri
          (fun i v ->
            if i > 0 && v <= ids.(i - 1) then
              fail "shard id table not strictly increasing at entry %d" i)
          ids;
        let owned = r_bits c in
        if Bits.length owned <> Array.length ids then
          fail "owned bitmap carries %d bits for %d shard nodes"
            (Bits.length owned) (Array.length ids);
        let proof = r_proof c in
        let radius = r_u16 c in
        let shard_index = r_u16 c in
        let shard_count = r_u16 c in
        if shard_count < 1 then fail "shard count must be positive";
        if shard_index >= shard_count then
          fail "shard index %d out of range for %d shards" shard_index
            shard_count;
        Verify_partition
          { scheme; graph6; ids; owned; proof; radius; shard_index; shard_count }
    | 0x0D ->
        let scheme = r_string c in
        let graph6 = r_string c in
        let proof = r_proof c in
        let seed = r_id ~what:"sampled seed" c in
        let queries = r_u16 c in
        if queries < 1 then fail "sampled query bound must be positive";
        Verify_sampled { scheme; graph6; proof; seed; queries; budget_id = r_string c }
    | t -> fail "unknown request tag 0x%02x" t
  in
  (id, trace, req)

let decode_request_payload ~tag payload = request_from ~tag payload 0

(* --- responses -------------------------------------------------------- *)

let w_bool b v = w_u8 b (if v then 1 else 0)

let w_proof_opt b = function
  | None -> w_u8 b 0
  | Some proof ->
      w_u8 b 1;
      w_proof b proof

(* A batch reply slot is a status byte — 0 = per-op error, 1..2 = the
   op kind — followed by exactly the body of the matching plain
   response. *)
let item_response = function
  | Item_error { code; message } -> (0, Error_reply { code; message })
  | Item_proved p -> (1, Proved p)
  | Item_verified { accepted; rejecting } ->
      (2, Verified { accepted; rejecting })

let item_of_response = function
  | Error_reply { code; message } -> Item_error { code; message }
  | Proved p -> Item_proved p
  | Verified { accepted; rejecting } -> Item_verified { accepted; rejecting }
  | _ -> Item_error { code = Internal; message = "non-op response" }

let rec w_response b = function
  | Proved p -> w_proof_opt b p
  | Verified { accepted; rejecting } ->
      w_bool b accepted;
      w_int_list b rejecting
  | Batch_reply items ->
      w_u16 b (List.length items);
      List.iter
        (fun item ->
          let status, resp = item_response item in
          w_u8 b status;
          w_response b resp)
        items
  | Stats_reply st ->
      w_u32 b st.requests;
      w_u32 b st.cache_hits;
      w_u32 b st.cache_misses;
      w_u32 b st.cache_entries;
      w_u32 b st.overloaded;
      w_u32 b st.deadline_exceeded;
      w_u32 b st.uptime_ms;
      w_string b st.metrics_json
  | Partition_verified { all_accept; owned; rejected; rejecting } ->
      w_bool b all_accept;
      w_u32 b owned;
      w_u32 b rejected;
      w_int_list b rejecting
  | Sampled_verified { sampled_accept; escalated; accepted; bits_read; nodes; rejecting }
    ->
      w_bool b sampled_accept;
      w_bool b escalated;
      w_bool b accepted;
      w_u32 b bits_read;
      w_u32 b nodes;
      w_int_list b rejecting
  | Metrics_text_reply text -> w_string b text
  | Health_reply { ready; pending; max_queue; uptime_ms } ->
      w_bool b ready;
      w_u32 b pending;
      w_u32 b max_queue;
      w_u32 b uptime_ms
  | Drain_reply { draining; pending } ->
      w_bool b draining;
      w_u32 b pending
  | Trace_export_reply json -> w_string b json
  | Profile_export_reply json -> w_string b json
  | Error_reply { code; message } ->
      w_u8 b (error_code_to_int code);
      w_string b message

let encode_response ?(id = 0) ?trace resp =
  frame ~id ?trace (response_tag resp) (fun b -> w_response b resp)

let r_proof_opt c = if r_bool c then Some (r_proof c) else None

let r_sample c =
  let l = r_list c ~min_entry_bytes:4 r_u32 in
  if List.length l > rejecting_cap then
    fail "rejecting sample carries %d ids (cap %d)" (List.length l)
      rejecting_cap;
  l

let rec r_response ~tag c =
  match tag with
  | 0x81 -> Proved (r_proof_opt c)
  | 0x82 ->
      let accepted = r_bool c in
      Verified { accepted; rejecting = r_list c ~min_entry_bytes:4 r_u32 }
  | 0x84 ->
      let requests = r_u32 c in
      let cache_hits = r_u32 c in
      let cache_misses = r_u32 c in
      let cache_entries = r_u32 c in
      let overloaded = r_u32 c in
      let deadline_exceeded = r_u32 c in
      let uptime_ms = r_u32 c in
      Stats_reply
        {
          requests;
          cache_hits;
          cache_misses;
          cache_entries;
          overloaded;
          deadline_exceeded;
          uptime_ms;
          metrics_json = r_string c;
        }
  | 0x86 -> Metrics_text_reply (r_string c)
  | 0x87 ->
      let ready = r_bool c in
      let pending = r_u32 c in
      let max_queue = r_u32 c in
      Health_reply { ready; pending; max_queue; uptime_ms = r_u32 c }
  | 0x88 ->
      let draining = r_bool c in
      Drain_reply { draining; pending = r_u32 c }
  | 0x89 -> Batch_reply (r_list ~count:r_u16 c ~min_entry_bytes:2 r_batch_item)
  | 0x8A -> Trace_export_reply (r_string c)
  | 0x8C -> Profile_export_reply (r_string c)
  | 0x8B ->
      let all_accept = r_bool c in
      let owned = r_u32 c in
      let rejected = r_u32 c in
      let rejecting = r_sample c in
      if all_accept <> (rejected = 0) then
        fail "all-accept flag disagrees with %d rejections" rejected;
      if rejected > owned then
        fail "%d rejections among %d owned nodes" rejected owned;
      if List.length rejecting > rejected then
        fail "rejecting sample larger than the rejection count";
      Partition_verified { all_accept; owned; rejected; rejecting }
  | 0x8D ->
      let sampled_accept = r_bool c in
      let escalated = r_bool c in
      let accepted = r_bool c in
      let bits_read = r_u32 c in
      let nodes = r_u32 c in
      let rejecting = r_sample c in
      if escalated = sampled_accept then
        fail "escalation flag disagrees with the sampled verdict";
      if sampled_accept && not accepted then
        fail "sampled accept downgraded without escalation";
      if accepted && rejecting <> [] then
        fail "accepted verdict carries %d rejecting nodes"
          (List.length rejecting);
      Sampled_verified
        { sampled_accept; escalated; accepted; bits_read; nodes; rejecting }
  | 0xE0 ->
      let code_byte = r_u8 c in
      let code =
        match error_code_of_int code_byte with
        | Some code -> code
        | None -> fail "unknown error code %d" code_byte
      in
      Error_reply { code; message = r_string c }
  | t -> fail "unknown response tag 0x%02x" t

and r_batch_item c =
  let tag =
    match r_u8 c with
    | 0 -> 0xE0 (* an Error_reply body *)
    | (1 | 2) as kind -> 0x80 + kind
    | s -> fail "unknown batch item status %d" s
  in
  item_of_response (r_response ~tag c)

let response_from ~tag s pos =
  decoding s pos @@ fun c ->
  let id, trace = r_id_trace c in
  (id, trace, r_response ~tag c)

let decode_response_payload ~tag payload = response_from ~tag payload 0

(* --- whole-frame convenience ------------------------------------------ *)

(* The payload is decoded in place from [header_bytes]: no copy of it. *)
let split_frame decode_from s =
  match decode_header s with
  | Error e -> Error (header_error_to_string e)
  | Ok { tag; length } ->
      if String.length s <> header_bytes + length then
        Error
          (Printf.sprintf "frame announces %d payload bytes but carries %d"
             length
             (String.length s - header_bytes))
      else decode_from ~tag s header_bytes

let decode_request s = split_frame request_from s
let decode_response s = split_frame response_from s

(* --- equality ---------------------------------------------------------- *)

(* The encoding is canonical, so two messages are equal exactly when
   they put the same bytes on the wire: the writer's own walk, not a
   third one beside it and the reader. *)
let equal_request a b = encode_request a = encode_request b
let equal_response a b = encode_response a = encode_response b
