(** Section 6.3 — the fooling set for non-3-colourability.

    Yes-instances G_{A,Ā} for A ⊆ I×I are proved; proofs are compared
    on the wire window W (whose identifiers are uniform across A). Two
    sets with colliding windows yield a spliced proof for the
    3-colourable no-instance G_{A,B̄} (or G_{B,Ā} — whichever
    intersection is non-empty), accepted everywhere. Since 2^(2^{2k})
    sets must share 2^(|W|·bits) windows, any scheme with
    o(n²/log n) bits per node collides. *)

type outcome =
  | Fooled of {
      a_set : (int * int) list;
      b_set : (int * int) list;
      instance : Instance.t;
      proof : Proof.t;
      genuinely_no : bool;
    }
  | Resisted of { family_size : int; distinct_windows : int }
  | Prover_failed of (int * int) list

val complement : k:int -> (int * int) list -> (int * int) list

val attack :
  ?k:int -> ?r:int -> ?sets:(int * int) list list option -> Scheme.t -> outcome
(** Defaults: k = 1 (16 subsets), r = 1; [sets] restricts the family
    (tests use 3–4 sets to keep the solver work small). *)
