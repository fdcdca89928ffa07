(** A small total JSON codec — just enough to read the trace spools
    {!Trace} writes (and hand-written fixtures) back without an
    external dependency. Numbers are floats; strings understand the
    standard escapes and [\uXXXX] (decoded to UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Total: malformed input (including trailing bytes) is an [Error]
    with a byte offset, never an exception. *)

val member : string -> t -> t option
(** Object field lookup; [None] on a non-object. *)

val merge_objects : old:t -> fresh:t -> t
(** Shallow object merge: every key of [fresh] wins (in [fresh]'s
    order), then keys only [old] has follow in their original order.
    Values are {e not} merged recursively — a section is replaced
    wholesale. Either argument that is not an [Obj] yields [fresh]
    unchanged, so a corrupt or missing old document degrades to a
    plain overwrite. This is how the bench merges its [partition] /
    [randomized] / [profile] sections into an existing
    [BENCH_lcp.json] instead of clobbering the other sections. *)

val to_list : t -> t list option
val to_string_opt : t -> string option
val to_float_opt : t -> float option

val escape : string -> string
(** JSON string-body escaping (quotes, backslashes, control bytes). *)

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string
(** Serialize. Integral numbers print without a decimal point;
    everything else with 12 significant digits — enough that a
    parse/merge/write round trip (the bench's [BENCH_lcp.json]
    section merge) preserves every value it read. *)
