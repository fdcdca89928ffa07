(** Θ(log n): verifying that the flagged edges form a spanning tree
    (Korman–Kutten–Peleg; Table 1(b)). A strong scheme: any spanning
    tree chosen by the adversary is certifiable. *)

val scheme : Scheme.t
