(** The one list of schemes. Every tool that names a scheme resolves it
    here: the CLI's [-s] argument, the daemon's wire requests and cache
    keys, the sampled variants ({!Sampled}), the metatests' yes/no
    generators and the Table 1 rows the bench measures. *)

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
  prover_only : bool;
      (** Measure the prover alone: at Θ(n²) bits, verifying every node
          of every sweep point would dominate the sweep. *)
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
