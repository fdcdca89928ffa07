(** Sections 6.1/6.2 — counting lower bounds via the ⊙ construction:
    canonical copies of two seeds joined by a k-node path. For
    asymmetric connected seeds, G₁ ⊙ G₂ is symmetric iff G₁ ≅ G₂; for
    rooted trees (k even, copies attached at the roots), it has a
    fixpoint-free symmetry iff the trees are isomorphic as rooted
    trees. Proofs of G ⊙ G are compared on the window U = {1..2r+1};
    a collision lets us splice two proofs onto the asymmetric G₁ ⊙ G₂
    and fool the verifier. *)

val odot : Graph.t -> Graph.t -> Graph.t
(** [odot g1 g2] on equal-sized seeds: C(G₁, k) on {k+1..2k},
    C(G₂, 2k) on {2k+1..3k}, path (k+1, 1, 2, …, k, 2k+1). *)

val odot_rooted : Tree_enum.rooted -> Tree_enum.rooted -> Graph.t
(** Root-respecting variant for trees. *)

type outcome =
  | Fooled of {
      glued : Graph.t;
      instance : Instance.t;
      proof : Proof.t;
      genuinely_no : bool;
    }
  | Resisted of { family_size : int; distinct_windows : int }
  | Prover_failed of Graph.t

val pp_outcome : Format.formatter -> outcome -> unit
(** One line, no newline: FOOLED (with the spliced graph's size),
    resisted (distinct windows) or prover failed. *)

val attack_symmetric : Scheme.t -> family:Graph.t list -> outcome
(** Section 6.1; seeds from {!Enumerate.asymmetric_connected}. *)

val attack_trees : Scheme.t -> family:Tree_enum.rooted list -> outcome
(** Section 6.2; seeds from {!Tree_enum.rooted_trees} with even size. *)

val forced_collision_bound : bits:int -> radius:int -> int
(** The pigeonhole threshold: at most [2^(bits·(2r+1))] distinct
    windows exist, so any larger family must collide — the paper's
    counting argument, explicit. *)
