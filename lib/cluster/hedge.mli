(** First-wins cell: the synchronisation point of a hedged request.

    One cell per routed request, keyed by its correlation id. Legs
    racing on different backends call {!offer} when they have a reply
    and {!fail} when they do not; the router {!await}s with the hedge
    delay, spawns a second leg on [Timeout] (after {!add_leg}), and
    awaits again. Exactly one offer ever wins — the first one carrying
    the right rid — so a reply is never double-counted: the losing
    leg sees [offer = false] and discards its result itself.

    The timed wait is a pipe + [Unix.select] (stdlib [Condition] has
    no timed wait); {!dispose} closes the pipe under the cell's mutex,
    making late [offer] / [fail] calls from an abandoned leg safe
    no-ops. *)

type 'a outcome = Winner of 'a | All_failed | Timeout

type 'a t

val create : rid:int -> legs:int -> 'a t
(** A cell expecting [legs] racing legs (>= 1 or [Invalid_argument];
    the router starts with 1 and {!add_leg}s when it hedges). *)

val offer : 'a t -> rid:int -> 'a -> bool
(** [true] iff this offer won: the rid matches, nothing won before,
    and the cell is not disposed. A [false] return obliges the caller
    to discard [v] (release its balancer slot, return its
    connection). *)

val fail : 'a t -> unit
(** This leg finished without a usable reply. When every expected leg
    has failed, {!await} returns [All_failed]. *)

val add_leg : 'a t -> unit
(** Another leg is about to race — call before spawning it, so a
    burst of failures cannot produce a premature [All_failed]. *)

val await : 'a t -> timeout_ms:int -> 'a outcome
(** Block until a winner, all legs failed, or [timeout_ms] elapsed
    (negative = wait forever). May be called repeatedly — the router
    awaits the hedge delay, then awaits again after adding the hedge
    leg. *)

val dispose : 'a t -> unit
(** Close the cell's pipe. Late offers and fails become no-ops;
    idempotent. Call exactly when the routed request is decided. *)
