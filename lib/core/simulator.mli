(** Synchronous LOCAL-model simulator (Peleg). A local verifier with
    horizon [r] "can be implemented as a distributed algorithm that
    completes in r synchronous communication rounds" (Section 2.1); this
    module implements that claim executably.

    Every node starts knowing its own identity, label, proof string,
    the global input, and its incident edges; in each round all nodes
    exchange their entire knowledge with their neighbours. After [r]
    rounds each node reconstructs its radius-[r] view, which tests
    compare against {!View.make}'s direct extraction.

    Two implementations coexist:
    - {!gather} / {!run_verifier_reference} — the persistent-map
      round-by-round exchange, kept verbatim as the semantic reference;
    - the compiled fast path — {!run_compiled}, {!run_verifier_on}
      and {!all_accept} — which reads the instance's {!Csr.t} rows
      and runs one private sweep: a bounded scratch BFS per node and
      the verifier on a window over it. The three differ only in
      which nodes the sweep visits and whether it stops at the first
      rejection, and all three return verdicts alone.
      {!run_verifier} adds the reference transcript, in closed form, in
      a pass of its own after the sweep. The sweep is the one place a
      [Bits.Reader.Decode_error] raised by a verifier is caught — it
      rejects at that node, as in {!Scheme.decide} — and it owns the
      metrics, the per-node [simulator.ball] / [simulator.eval] spans,
      the arena and the split over a {!Pool} of domains. The test
      suite asserts verdict- and transcript-identity with the
      reference on sampled graphs.

    A proof is accepted exactly when no node rejects: {!rejecting}
    turns verdicts into that set. *)

type transcript = {
  rounds : int;
  messages_sent : int;  (** Total knowledge records transmitted. *)
  max_message_bits : int;
      (** Upper bound on the largest single message, counting label,
          proof and adjacency payloads. *)
}

val gather : Instance.t -> Proof.t -> radius:int -> (Graph.node * View.t) list * transcript
(** Run [radius] rounds of full-knowledge exchange and build each
    node's view from what it has learnt. Reference implementation:
    cost grows like [n · ball · radius] persistent-map unions. *)

val run_verifier_reference :
  Instance.t -> Proof.t -> radius:int -> (View.t -> bool) -> (Graph.node * bool) list * transcript
(** {!gather}, then apply the verifier at every node — the seed
    implementation of [run_verifier], kept for cross-checking. *)

(** {1 Compiled fast path} *)

type compiled = Instance.t
(** A graph compiled for repeated verification is the instance itself,
    with its {!Instance.csr} rows built: the sweep reads the rows, and
    every view reads labels and globals from the instance. Its graph
    and rows are {!Instance}'s once-cells, so an image is safe to share
    across domains and reuse for any number of proofs, and a prover
    takes it as it is.

    {!compile} starts from an instance and {!compile_csr} from a bare
    graph's CSR image, the daemon's whole miss path, which is an
    {!Instance.of_csr}: every label and the globals read empty, and no
    {!Graph.t} exists unless something asks for one. Neither a verifier
    sweep nor a bare-graph prover asks. *)

val compile : Instance.t -> compiled
(** The instance, its {!Instance.csr} forced: O(n + m) on a first
    call. Build once per instance, reuse across all nodes, proofs and
    samples. Counted and traced as a compile. *)

val compile_csr : Csr.t -> compiled
(** {!Instance.of_csr}, in O(1): the same verdicts and transcripts as
    [compile (Instance.of_graph g)] on the graph the rows describe.
    Counted and traced as a compile. *)

val compiled_instance : compiled -> Instance.t
(** The identity, kept for perfbench's callers. *)

val compiled_csr : compiled -> Csr.t
(** {!Instance.csr}, kept for perfbench's callers. *)

(** {1 Arenas}

    {!Csr.scratch}'s reuse discipline extended to the whole
    verification sweep: an arena owns every buffer a sequential sweep
    needs — its BFS scratch and verdict array — grown monotonically to
    the largest graph seen and reused across runs.

    Lifetime rule: the fast path's views are windows that read the BFS
    scratch in place (see {!View.window}) — the arena's when one is in
    play, the sweep's own otherwise. A view is valid only for the
    duration of the verifier call it was handed to: a view kept past
    that call, or a later [View.graph] / [View.instance] on it, would
    read another node's ball. Like a scratch, an arena belongs to
    exactly one domain. *)

type arena

val arena : unit -> arena
(** An empty arena; buffers are sized on first use. *)

val view_at : compiled -> Proof.t -> radius:int -> Graph.node -> View.t
(** Direct radius-r view extraction via bounded CSR BFS. Equal to
    {!View.make} on the same arguments, accessor by accessor. Unlike the
    sweep's views it stays valid indefinitely: it reads its own copy of
    the ball's CSR rows, so it holds memory in the ball's size, not
    the graph's. *)

val run_verifier :
  ?jobs:int ->
  ?compiled:compiled ->
  ?arena:arena ->
  Instance.t ->
  Proof.t ->
  radius:int ->
  (View.t -> bool) ->
  (Graph.node * bool) list * transcript
(** Gather, then apply the verifier at every node. Equivalent to
    {!run_verifier_reference} — same verdicts, same transcript — but
    runs {!run_compiled}'s sweep, then one bounded BFS of radius
    [radius - 1] per node of positive degree that sums the record
    sizes read from the image's labels and the proof. [?jobs]
    (default 1) chunks the sweep across that many worker domains;
    verdicts are independent of [jobs]. Pass [?compiled] to reuse a
    prior {!compile} of the same instance (whose labels the transcript
    then reads), and [?arena] (sequential runs only — ignored when
    [jobs > 1]) to reuse the sweep's buffers across calls; verdicts
    are also independent of the arena. A caller that needs only
    verdicts calls {!run_compiled}. *)

val run_compiled :
  ?jobs:int ->
  ?arena:arena ->
  compiled ->
  Proof.t ->
  radius:int ->
  (View.t -> bool) ->
  (Graph.node * bool) list
(** The verdicts of {!run_verifier}, from the same sweep, without the
    transcript pass: what the daemon serves. *)

val run_verifier_on :
  ?jobs:int ->
  ?arena:arena ->
  compiled ->
  Proof.t ->
  radius:int ->
  nodes:Graph.node array ->
  (View.t -> bool) ->
  (Graph.node * bool) list
(** The fast-path sweep over the given identifier subset — the
    partition-shard sweep: a backend holding a shard verifies exactly
    its owned nodes against views cut from the shard's graph, and the
    sampled verifier checks exactly its probes. Verdicts are returned
    in the order of [nodes]; each equals what {!run_verifier} would
    report for that node on the same compiled instance, decode errors
    included. Raises [Invalid_argument] on identifiers outside the
    compiled graph. *)

val all_accept :
  compiled -> Proof.t -> radius:int -> (View.t -> bool) -> bool
(** True when the verifier accepts at every node: the same sweep as
    {!run_compiled}, sequential, stopping at the first rejecting node
    (a decode error rejects there too). Agrees with {!Scheme.accepts}
    — the soundness samplers use it to probe thousands of proofs
    against one compiled instance. *)

val rejecting : (Graph.node * bool) list -> Graph.node list
(** The rejecting nodes of a verdict list, in sweep order — the
    verifier's outcome; the proof is accepted exactly when it is
    empty. Every caller that turns verdicts into a rejecting set goes
    through this. *)

val agrees_with_direct : Instance.t -> Proof.t -> radius:int -> bool
(** True when every simulated view equals the directly extracted one —
    the executable form of the LOCAL-equivalence claim. Checks the
    round-based views against both {!View.make} and the CSR fast
    path's {!view_at}. *)
