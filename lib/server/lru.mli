(** Capacity-bounded least-recently-used cache with string keys, used
    for the server's compiled-verifier cache. Lookups and inserts are
    O(1); evicting from a full cache scans the table (O(capacity)),
    which is deliberate — capacities are small and the scan is noise
    next to the compile a hit avoids. A hit counter rides along for
    the [stats] endpoint.

    Not thread-safe; callers sharing a cache across domains or threads
    must serialise access (see {!Server}). *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity = 0] is a valid always-miss cache (caching disabled);
    negative capacities raise [Invalid_argument]. *)

val find : 'a t -> string -> 'a option
(** Refreshes the entry's recency and counts a hit. *)

val put : 'a t -> string -> 'a -> unit
(** Insert or overwrite; evicts the least recently used entry when the
    cache is full. A no-op at capacity 0. *)

val length : 'a t -> int
val hits : 'a t -> int
