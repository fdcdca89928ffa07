(** Randomized verification schemes: a deterministic {!Scheme.t}
    wrapped with an explicit one-sided error budget ε, a per-node
    query bound [q], and a node-sampling width [probes].

    Semantics (after "Distributed Local Verification using Proofs
    with(out) Errors" and the distributed-PCP line of PAPERS.md): a
    sampled run draws [probes] nodes from the seeded PRG and runs the
    query-bounded [sampled_verifier] — reading at most [q] proof
    bits / neighbour-label cells through a {!Qview.t} — at exactly
    those nodes.

    - {e Completeness is exact}: the sampled verifier checks a subset
      of the base verifier's conditions, so a valid proof is accepted
      with probability 1.
    - {e Soundness is empirical}: an invalid proof may slip through
      when every probed node happens to accept; ε bounds the observed
      one-sided error over the checker's forgery distribution, and
      {!soundness} (via {!Checker.soundness_empirical}) measures it
      with a Wilson interval — the declared budget is a tested claim,
      not a worst-case theorem.

    The serving fast path builds on this: sampled-accept answers
    immediately, sampled-reject escalates to a full verification, so
    client-visible REJECT verdicts are always exact. *)

type t = {
  base : Scheme.t;
  epsilon : float;  (** Declared one-sided error budget. *)
  queries : int;  (** Default per-node query-unit bound [q] ≥ 1. *)
  probes : int;  (** Nodes sampled per run; [0] = every node. *)
  budget : string;
      (** Stable budget identifier, e.g. ["eps0.02:q4:m24"] — what the
          wire frame's [budget_id] field names and the Prometheus
          budget gauge labels. *)
  sampled_verifier : Qview.t -> bool;
}

val make :
  base:Scheme.t ->
  epsilon:float ->
  queries:int ->
  probes:int ->
  sampled_verifier:(Qview.t -> bool) ->
  t
(** Builds the budget id from the three parameters. Raises
    [Invalid_argument] on [queries < 1], [probes < 0] or an ε outside
    (0, 1). *)

type outcome = {
  accepted : bool;  (** Sampled-ACCEPT: every probed node accepted. *)
  rejecting : Graph.node list;  (** Rejecting probes, in probe order. *)
  nodes_checked : int;
  bits_read : int;  (** Summed over probed nodes (jobs-independent). *)
  reads : (Graph.node * (Graph.node * int * int) list) list;
      (** Per-probe charged-read logs, sorted by node — populated only
          under [~collect_reads:true]. *)
}

val probe_nodes : t -> Simulator.compiled -> seed:int -> Graph.node array
(** The probe set a run with this seed will check: a pure function of
    [(seed, graph, probes)], independent of jobs — exposed so tests
    can pin it. All nodes when [probes = 0] or the graph is at most
    twice the probe width. *)

val run :
  ?jobs:int ->
  ?arena:Simulator.arena ->
  ?collect_reads:bool ->
  t ->
  Simulator.compiled ->
  Proof.t ->
  seed:int ->
  queries:int ->
  outcome
(** One sampled verification. [queries] overrides the scheme's
    default bound (the wire frame carries the client's choice); it
    must be ≥ 1. A [Bits.Reader.Decode_error] from the verifier
    rejects that node; {!Qview.Budget_exceeded} propagates — it means
    the sampled verifier itself is broken. *)

type verdict = {
  probe : outcome;  (** The sampled pass. *)
  final : Graph.node list option;
      (** [None] when the sampled pass accepted (no escalation; the
          verdict accepts). Otherwise [Some] of the base verifier's
          full rejecting set, in node order; the verdict accepts
          exactly when it is empty. *)
}

val verify :
  ?jobs:int ->
  ?arena:Simulator.arena ->
  t ->
  Simulator.compiled ->
  Proof.t ->
  seed:int ->
  queries:int ->
  verdict
(** Sampled verification with escalation — the one place the rule
    lives that the daemon's [Verify_sampled] and [lcp verify
    --sampled] both follow: {!run}, and on a sampled reject only, the
    base scheme's verifier at every node ({!Simulator.run_verifier})
    on the same compiled instance and arena. A sampled accept is
    final, so a rejecting verdict is always exact. *)

val soundness :
  ?seed:int ->
  ?jobs:int ->
  ?queries:int ->
  t ->
  Instance.t ->
  samples:int ->
  max_bits:int ->
  Checker.empirical
(** {!Checker.soundness_empirical} specialised to this scheme: forge
    proofs, keep the ones the base verifier rejects, and count how
    often a sampled run accepts them anyway. The declared ε is met
    when the interval's lower bound stays at or below it. *)
