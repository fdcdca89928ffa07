(** Monadic Σ¹₁ sentences in Schwentick–Barthelmann local normal form
    (Section 7.5):

    {v ϑ = ∃X₁ … ∃X_k ∃x ∀y φ(X₁, …, X_k, x, y) v}

    where φ is first order and local around [y]: every quantifier in φ
    ranges over the radius-[r] ball around [y] for a fixed [r]. The
    designated first-order variables are ["x"] (the existential
    centre) and ["y"] (the universal node). *)

type var = string

type t =
  | True
  | False
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Adj of var * var  (** The two nodes are adjacent. *)
  | Eq of var * var
  | In_set of int * var  (** X_i(z), [i] is 0-based, [i < k]. *)
  | Exists_near of var * int * t
      (** [Exists_near (z, d, φ)]: ∃z with dist(z, y) ≤ d such that φ.
          Distances are measured from the universal variable [y]. *)
  | Forall_near of var * int * t

type sentence = {
  name : string;
  k : int;  (** Number of monadic relations X₁ … X_k. *)
  locality : int;  (** The radius r that bounds every quantifier. *)
  uses_x : bool;
      (** Whether φ mentions [x]; when false the compiled scheme skips
          the spanning-tree certificate for the ∃x witness. *)
  phi : t;
}

val well_formed : sentence -> bool
(** Checks: free vars of φ are within {"x", "y"} (minus "x" when
    [uses_x] is false), every [In_set] index is < k, every quantifier
    bound is ≤ locality, and bound variables do not shadow x or y. *)

val pp : Format.formatter -> t -> unit
