(** Scheme validation harness: executable completeness and soundness.

    Completeness is checked directly from the definition. Soundness
    ("for a no-instance, {e every} proof has a rejecting node") is
    checked three ways, in increasing strength and cost:
    random proofs, adversarial hill-climbing proof forging, and — for
    tiny instances — exhaustive enumeration of all proofs up to a bit
    budget, which is a genuine proof of soundness at that budget. *)

type completeness_report = {
  instances_checked : int;
  all_accepted : bool;
  max_proof_bits : int;
  bound_respected : bool;
  failures : string list;
}

val completeness :
  Scheme.t -> Instance.t list -> completeness_report
(** Every listed instance must be a yes-instance: the prover must
    return a proof, within the size bound, accepted by all nodes. *)

val soundness_random :
  ?seed:int ->
  ?jobs:int ->
  Scheme.t ->
  Instance.t ->
  samples:int ->
  max_bits:int ->
  bool
(** True when every sampled random proof is rejected somewhere. The
    instance is compiled to CSR once and probed via
    {!Simulator.all_accept}, stopping at the first accepted forgery.
    Sample [i] draws from its own [(seed, i)]-keyed stream, so the
    sampled proofs, and with them the verdict, are the same at every
    [jobs]; with [jobs > 1] the sample range is fanned out over that
    many domains. *)

type empirical = {
  trials : int;  (** Forgery trials attempted. *)
  invalid : int;  (** Trials whose proof the {e full} verifier rejected. *)
  fooled : int;  (** Invalid proofs the sampled verifier accepted. *)
  rate : float;  (** [fooled / invalid]; 0 when nothing was invalid. *)
  wilson_low : float;  (** 95% Wilson score interval on [rate]. *)
  wilson_high : float;
}

val soundness_empirical :
  ?seed:int ->
  ?jobs:int ->
  Scheme.t ->
  Instance.t ->
  samples:int ->
  max_bits:int ->
  sampled:(seed:int -> Simulator.compiled -> Proof.t -> bool) ->
  empirical
(** Measure a sampled verifier's observed one-sided error: forge
    [samples] random proofs exactly as {!soundness_random} does, keep
    the ones the scheme's full verifier rejects, and count how many of
    those the [sampled] closure (a seeded sampled-verification run —
    see [Randomized_scheme.run]; the closure receives a per-trial
    seed) accepts anyway. The declared error budget ε is violated when
    [wilson_low] exceeds it; with nothing invalid the interval is the
    vacuous [(0, 1)]. Trial proofs and sampled-run seeds derive
    from [(seed, index)] only, so the counts are independent of
    [jobs]. *)

val soundness_exhaustive :
  Scheme.t -> Instance.t -> max_bits:int -> bool
(** Enumerates {e all} proofs assigning each node a string of length
    [0..max_bits] — exponential, intended for [n·max_bits ≲ 16]. *)

val prover_refuses : Scheme.t -> Instance.t -> bool
(** The prover returns [None] (it recognises a no-instance). *)

