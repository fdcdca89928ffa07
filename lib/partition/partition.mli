(** Graph partitioning for cluster-parallel verification.

    LCP verification is node-local: a radius-r verifier's verdict at
    [v] depends only on the r-ball around [v] (PAPER.md §2.1). So a
    graph can be carved into [k] {e shards} — disjoint owned-node sets
    plus a radius-r {e ghost halo} (every node within distance r of an
    owned node that is not itself owned) — and each shard verified by
    an independent backend. The induced subgraph on owned ∪ ghost
    contains every owned node's full r-ball, and shortest paths inside
    an r-ball never leave it, so the per-owned-node views (and hence
    verdicts) are bit-identical to a whole-graph run. Merging the
    owned verdicts of all shards reproduces {!Simulator.run_verifier}
    exactly; the test suite pins this property.

    Shards are wire-ready: the shard graph is relabelled to local ids
    [0 .. ns-1] (so {!Graph6.encode} accepts it) and the [ids] table
    maps local ids back to original identifiers. *)

type shard = {
  index : int;  (** Shard number, [0 .. count-1]. *)
  count : int;  (** Total shards in this partitioning. *)
  radius : int;  (** Halo radius the shard was cut for. *)
  graph : Graph.t;
      (** Induced subgraph on owned ∪ ghost, relabelled to local ids
          [0 .. ns-1] in increasing original-identifier order. *)
  ids : int array;
      (** Local id → original identifier; strictly increasing. *)
  owned : bool array;
      (** Local id → does this shard own the node (vs. ghost)? *)
}

val shard_n : shard -> int
(** Nodes in the shard (owned + ghost). *)

val owned_count : shard -> int

val make : Csr.t -> k:int -> radius:int -> shard array
(** Partition a compiled graph into [k] balanced shards by
    round-robin multi-source BFS region growth (k spread seeds, each
    region claiming one frontier node per turn under a ⌈n/k⌉ cap;
    leftover components seed the smallest region), then grow each
    shard's radius-[radius] ghost halo by multi-source BFS from its
    owned set. Every node is owned by exactly one shard. [k] is
    clamped to [1 .. max 1 n]; [radius < 0] raises
    [Invalid_argument]. *)

val closure_ok : Csr.t -> shard -> bool
(** Ghost-closure exactness: every owned node's radius-[radius] ball
    in the {e original} graph is contained in the shard's node set.
    [make] guarantees this by construction; the property test and
    [lcp partition] re-check it independently via {!Csr.ball}. *)

val check : Csr.t -> shard array -> (unit, string) result
(** Full partitioning validation: shards agree on [count]/[radius],
    every original node is owned by exactly one shard, and every shard
    passes {!closure_ok}. *)

val proof_slice : shard -> Proof.t -> Proof.t
(** Restrict a whole-graph proof (original identifiers) to the shard
    and rekey it to local ids — what rides the wire next to the shard
    graph. Ghost nodes keep their proof bits: owned views reach into
    the halo. *)

(** {1 Shard files}

    [lcp partition] writes one small text file per shard; the format
    round-trips through {!to_string}/{!of_string} and is validated on
    parse like every wire decoder. *)

val to_string : shard -> string

val of_string : string -> (shard, string) result
(** Total: malformed input yields [Error], never an exception. All
    structural invariants (ids strictly increasing, array lengths
    matching the graph, index/count/radius ranges) are re-checked. *)
