(** The partitioning function [H : V -> PartId] of the partitioned stateful
    graph model. One partition per worker. *)

type strategy =
  | Hash (** mixed hash of the id — the paper's scheme *)
  | Mod (** [v mod n_parts] — ablation; clusters generator hubs *)
  | Block (** contiguous ranges — ablation *)

type t

val create : ?strategy:strategy -> n_parts:int -> n_vertices:int -> unit -> t
val n_parts : t -> int

(** Owning partition of a vertex. *)
val owner : t -> int -> int

(** Vertices owned by a partition, ascending. *)
val members : t -> int -> int array

(** Max partition size over mean size; 1.0 is perfect balance. Defined as
    1.0 when there are no vertices or more partitions than vertices. *)
val imbalance : t -> float
