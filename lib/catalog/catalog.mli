(** A machine-readable catalogue of every scheme in Table 1: the
    scheme, the paper's claimed size class, and sized random generators
    of yes- and no-instances. The metatest sweeps the whole catalogue
    (completeness on yes, prover refusal plus randomised soundness on
    no), and downstream tools get one place to enumerate the
    repertoire. *)

type entry = {
  id : string;  (** Table row, e.g. "T1a-7". *)
  scheme : Scheme.t;
  paper_class : string;
  yes : Random.State.t -> int -> Instance.t option;
      (** A yes-instance of roughly the given size, when the generator
          can build one at that size. *)
  no : Random.State.t -> int -> Instance.t option;
      (** A no-instance — for problems, usually a broken solution. *)
}

val all : entry list
(** Every row of Table 1(a) and (b) that has an executable scheme. *)

