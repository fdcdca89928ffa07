(** Section 7.4, made executable: for pure properties of bounded-degree
    graphs, a LogLCP verifier reads only O(log n) bits of input in
    total, so it "can be encoded as a lookup table of size 2^O(log n)",
    i.e. polynomial — the heart of the containment in NP/poly.

    We expose the two executable halves of that observation:
    - {!fingerprint}: a canonical, self-delimiting serialisation of a
      view — exactly "the bits the verifier reads"; its length is the
      quantity the paper bounds by O(log n);
    - {!tabulate}: a table-driven clone of a verifier, memoised on
      fingerprints. Running it over instance sets shows the table stays
      polynomial while agreeing with the direct verifier everywhere. *)

val fingerprint : View.t -> Bits.t
(** Canonical encoding of (ball graph, centre, labels, proof, globals).
    Two views receive equal fingerprints iff they are equal in the
    sense of {!View.equal}. *)

val fingerprint_bits : View.t -> int

type table

val tabulate : Scheme.t -> table
(** A fresh memoised clone; entries are added on first use. *)

val decide : table -> Instance.t -> Proof.t -> Scheme.verdict

val entries : table -> int
(** Current table size — the paper's 2^O(log n) bound in the flesh. *)

