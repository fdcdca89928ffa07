(** Section 7.3: coLCP(0) ⊆ LogLCP on connected graphs — reversing the
    decision of a proof-less verifier by certifying a spanning tree
    rooted at a rejecting node. *)

val complement : Scheme.t -> Scheme.t
(** [complement inner] proves that [inner]'s verifier — which must be
    an LCP(0) scheme — rejects the input somewhere. Raises
    [Invalid_argument] if [inner] claims a non-zero proof size. *)

val non_eulerian : Scheme.t
(** [complement Eulerian.scheme] — Table 1(a)'s "coLCP(0) properties"
    representative. *)

