(** Bit strings for locally checkable proofs.

    A proof assigns a bit string to every node; the size of a proof is
    the number of bits in the longest string. This module provides an
    immutable bit-string type together with structured readers and
    writers (fixed-width integers, Elias-gamma self-delimiting
    integers, lists), so that schemes can build proofs out of typed
    fields and verifiers can parse them back without ambiguity. *)

type t
(** An immutable string of bits. *)

val empty : t
(** The empty bit string, the proof of the [LCP(0)] schemes. *)

val length : t -> int
(** [length b] is the number of bits in [b]. *)

val of_bools : bool list -> t
val to_bools : t -> bool list

val of_string : string -> t
(** [of_string s] parses a literal such as ["01101"]. Raises
    [Invalid_argument] on characters other than ['0'] and ['1']. *)

val to_string : t -> string
(** [to_string b] renders [b] as a literal such as ["01101"]. *)

val get : t -> int -> bool
(** [get b i] is bit [i] (0-based). Raises [Invalid_argument] when out
    of range. *)

val append : t -> t -> t

val sub : t -> int -> int -> t
(** [sub b pos len] is the [len]-bit substring starting at [pos]. *)

val take : int -> t -> t
(** [take k b] is the first [min k (length b)] bits of [b]; used to
    truncate proofs to an adversarial bit budget. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Packed form}

    The byte layout the wire protocol carries: 8 bits per byte, the
    first bit in the most significant position, the last byte padded
    with zeros. *)

val packed_bytes : int -> int
(** [packed_bytes len] is the number of bytes [len] packed bits
    occupy: [(len + 7) / 8]. *)

val pack : t -> Bytes.t -> int -> unit
(** [pack b buf off] writes [b] into the [packed_bytes (length b)]
    bytes of [buf] starting at [off]. Raises [Invalid_argument] when
    they do not fit. *)

val unpack : string -> int -> int -> t
(** [unpack s off len] is the [len]-bit string packed in [s] from
    byte [off]; padding bits are ignored. Raises [Invalid_argument]
    when [s] holds fewer than [packed_bytes len] bytes from [off]. *)

val one_bit : bool -> t
(** [one_bit b] is the single-bit string [b]. *)

val random : Random.State.t -> int -> t
(** [random st k] is a uniformly random [k]-bit string. *)

val flip : t -> int -> t
(** [flip b i] is [b] with bit [i] inverted; used for tamper tests. *)

val int_width : int -> int
(** [int_width n] is the number of bits needed to write any integer in
    [0, n]] in binary, i.e. [max 1 (bits of n)]. *)

(** Appending typed fields to a bit string. *)
module Writer : sig
  type buf

  val create : unit -> buf
  val contents : buf -> t
  val bits : buf -> t -> unit
  val bool : buf -> bool -> unit

  val int_fixed : buf -> width:int -> int -> unit
  (** [int_fixed buf ~width v] writes [v >= 0] as exactly [width] bits,
      most significant first. Raises [Invalid_argument] when [v] does
      not fit. *)

  val int_gamma : buf -> int -> unit
  (** [int_gamma buf v] writes [v >= 0] in Elias-gamma code (of
      [v + 1]), a self-delimiting variable-length code using
      [2 * floor(log2 (v+1)) + 1] bits. *)

  val list : buf -> (buf -> 'a -> unit) -> 'a list -> unit
  (** [list buf f xs] writes a gamma-coded length then each element. *)
end

(** Consuming typed fields from a bit string. The reader raises
    [Decode_error] on truncated or malformed input, which verifiers
    treat as "reject". *)
module Reader : sig
  type cursor

  exception Decode_error of string

  val of_bits : t -> cursor
  val bool : cursor -> bool
  val int_fixed : cursor -> width:int -> int
  val int_gamma : cursor -> int
  val list : cursor -> (cursor -> 'a) -> 'a list
  val remaining : cursor -> int
  val at_end : cursor -> bool
  val expect_end : cursor -> unit
  (** Raises [Decode_error] unless the whole string was consumed. *)
end

val encode_int : int -> t
(** [encode_int v] is a standalone gamma encoding of [v]. *)

val decode_int : t -> int
(** Inverse of {!encode_int}; raises [Reader.Decode_error] on junk. *)
