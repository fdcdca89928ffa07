(** Consistent-hash ring over backend {e indices} [0 .. n-1].

    Placement is deterministic (MD5 of ["backend:<i>:vnode:<v>"], no
    seed), so two processes building a ring over the same backend
    count agree on every assignment — the property the tests use to
    predict which backend a key lands on.

    The ring is immutable and knows nothing about liveness: callers
    walk {!order} and skip backends their health view rejects. That
    makes "removing" a backend a filter, not a rebuild, and gives the
    classic consistent-hashing stability: only the removed backend's
    keys move (in expectation [1/n] of all keys). *)

type t

val create : ?vnodes:int -> int -> t
(** [create ~vnodes n] places [vnodes] points (default 64) for each of
    [n] backends. Raises [Invalid_argument] when [n < 1] or
    [vnodes < 1]. *)

val backends : t -> int

val order : t -> string -> int list
(** All [n] backend indices in the key's clockwise walk order — each
    exactly once, the owner first. The routing rule is "first usable
    backend in this list". *)

