(** The universal O(n²)-bit scheme (Section 6): on connected graphs any
    computable pure property is provable by handing every node the
    complete encoded graph; local agreement + neighbourhood-match +
    connectivity of the decoding force the encoding to be exactly G. *)

val of_predicate : name:string -> (Graph.t -> bool) -> Scheme.t
(** Alias of {!scheme}. *)

val symmetric : Scheme.t
(** Table 1(a): symmetric graphs — Θ(n²), tight by Section 6.1. *)

val non_3_colourable : Scheme.t
(** Table 1(a): chromatic number > 3 — O(n²), nearly tight by the
    Ω(n²/log n) fooling set of Section 6.3. *)

