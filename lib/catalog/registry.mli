(** The one list of schemes. Every tool that names a scheme resolves it
    here: the CLI's [-s] argument, the daemon's wire requests and cache
    keys, the sampled variants ({!Sampled}), the metatests' yes/no
    generators and the Table 1 rows the bench measures — and the one
    prove-and-check by which a row's bits are measured. *)

type row = {
  id : string;
      (** Table 1 row, e.g. "T1a-7": "T1a-*" rows are properties,
          "T1b-*" rows problems. *)
  what : string;  (** The property or problem, as the table prints it. *)
  family : string;  (** The graph family the row is claimed on. *)
  paper : string;  (** The paper's proof-size class. *)
  fits : Complexity.growth list;  (** Growth fits that match the paper. *)
  param : string;  (** What the sizes are: "n", "k" or "W". *)
  sizes : int list;  (** The full sweep, strictly increasing. *)
  smoke : int list;  (** The smoke sweep; empty when the row is not in it. *)
  make : int -> Instance.t;  (** The yes-instance at one size. *)
}

type entry = {
  name : string;
  doc : string;
  scheme : Scheme.t;
  yes : Random.State.t -> int -> Instance.t option;
      (** A yes-instance of roughly the given size, for the metatests;
          [None] when the entry has no generator at that size. *)
  no : Random.State.t -> int -> Instance.t option;
      (** A no-instance — for problems, usually a broken solution. *)
  row : row option;  (** The Table 1 row this scheme reproduces. *)
}

val all : entry list
(** In display order (the order [lcp schemes] lists), which puts the
    rows in Table 1 order. Names and row ids are unique. *)

val find : string -> entry option

(** {1 Measuring a row}

    A row's bits count only for a proof every node accepts, so [bench],
    [lcp table] and [lcp prove] measure through this one pass: prove,
    compile once, verify on the compiled sweep the daemon serves (with
    an arena at jobs 1). {!Scheme.prove_and_check} stays the reference
    path. *)

type checked =
  | No_proof  (** The prover refused: a no-instance. *)
  | Rejected of Graph.node list
      (** The prover's own proof, rejected at these nodes: a bug. *)
  | Accepted of Proof.t

val prove_and_check : ?jobs:int -> Scheme.t -> Instance.t -> checked
(** Verify over [?jobs] domains (default 1). *)

type cost = {
  prove_s : float;  (** One prover run. *)
  compile_s : float;  (** One {!Simulator.compile}. *)
  verify_ns_per_node : float;
      (** Jobs 1, warm arena: the best of as many sweeps as fit in 20 ms. *)
  minor_words_per_node : float;  (** One warm sweep. *)
}

val prove_and_cost :
  ?jobs:int -> Scheme.t -> Instance.t -> checked * cost option
(** {!prove_and_check}, then, on [Accepted], that pass's cost. The warm
    sweeps run with metrics and tracing off. *)
