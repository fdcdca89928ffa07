(** Section 5.3 / Figure 1 — gluing cycles together.

    Colour each edge {a, b} of K_{n,n} by the signature c(a, b) of the
    proved yes-instance C(a, b) (labels + proof bits within distance
    2r+1 of a or b); find a monochromatic 4-cycle (the k = 2 case of
    Bondy–Simonovits); glue the two corresponding n-cycles into a
    2n-cycle inheriting labels and proofs. Every node's view in the
    glued cycle matches a view of an accepted yes-instance, so
    acceptance is unanimous; if the glued instance is a no-instance the
    scheme was unsound. Undersized schemes collide immediately; honest
    Θ(log n) schemes keep all signatures distinct. *)

val cycle_ids : n:int -> a:int -> b:int -> int list
(** The paper's identifier pattern for C(a, b): disjoint across
    different rows and columns, cyclically ordered, closed by the
    {a, b} edge. *)

type family = {
  n : int;
  make : a:Graph.node -> b:Graph.node -> Instance.t;
  is_yes : Instance.t -> bool;
}

val signature :
  radius:int -> Instance.t -> Proof.t -> a:int -> b:int -> ids:int list -> string
(** c(a, b): all auxiliary labels and proof bits within the window. *)

type outcome =
  | Fooled of {
      instance : Instance.t;
      proof : Proof.t;
      quad : (int * int) * (int * int);
      genuinely_no : bool;
    }
  | Resisted of { pairs : int; distinct_signatures : int }
  | Prover_failed of int * int

val pp_outcome : Format.formatter -> outcome -> unit
(** One line, no newline: FOOLED (with the glued instance's size),
    resisted (distinct signatures) or prover failed. *)

val attack : ?rows:int -> Scheme.t -> family -> outcome
(** Run the whole construction at k = 2. [rows] bounds |A| = |B| (the
    tests use 3–4; the paper's asymptotic argument takes the full n). *)

(** The general-k construction (the paper fixes an arbitrary constant
    k ≥ 2): a monochromatic 2k-cycle in the signature-coloured K_{n,n}
    lets k compatible n-cycles glue into a kn-cycle. Parameter choice
    matters and the outcome reports it honestly: gluing an odd number
    of odd cycles yields a yes-instance ([genuinely_no = false]). *)
type outcome_k =
  | Fooled_k of {
      instance : Instance.t;
      proof : Proof.t;
      cycle : (int * int) list;
      genuinely_no : bool;
    }
  | Resisted_k of { pairs : int; distinct_signatures : int }
  | Prover_failed_k of int * int

val find_2k_cycle :
  k:int -> ((int * int) * string) list -> (int * int) list option
(** A monochromatic 2k-cycle among the signature-coloured pairs. *)

val glue_many :
  family -> ((int * int) * Proof.t) list -> (int * int) list -> Instance.t * Proof.t
(** Glue the listed cycles (remove {aᵢ,bᵢ}, add {bᵢ₋₁,aᵢ}), inheriting
    labels and proofs per node. *)

val attack_k : ?rows:int -> k:int -> Scheme.t -> family -> outcome_k

val odd_cycles : n:int -> family
(** Odd n-cycles, no labels — for "odd n(G)" and "chromatic > 2"
    (two odd cycles glue into an even one). *)

val leader_cycles : n:int -> family
(** Node [a] marked leader — the glued cycle has two leaders. *)

val matching_cycles : n:int -> family
(** Maximum matchings of odd cycles leaving [a] unmatched — the glued
    solution has two unmatched nodes. *)
