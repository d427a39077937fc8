(** Per-partition query memoranda (§III-B).

    Records are scoped to the creating query and dropped wholesale when it
    terminates. Only the owning worker accesses a memo, so operations are
    synchronization-free. *)

type t

val create : unit -> t

(** Cumulative probe/update count (for CPU-time accounting). *)
val ops : t -> int

val peak_entries : t -> int
val live_entries : t -> int

(** Deduplication test-and-set: [true] iff the key was absent. *)
val add_if_absent : t -> qid:int -> label:int -> Value.t -> bool

type visit_outcome =
  | First_visit
  | Improved
  | Not_improved

(** Record [d] as the distance of [key] if it improves the stored one. *)
val min_int_update : t -> qid:int -> label:int -> Value.t -> int -> visit_outcome

(** Fetch-or-create the partial aggregate stored under [label]. *)
val partial : t -> qid:int -> label:int -> Step.agg -> Aggregate.t

val partial_opt : t -> qid:int -> label:int -> Aggregate.t option

(** Double-pipelined join buckets. *)
val rows_add : t -> qid:int -> label:int -> Value.t -> Value.t array -> unit

val rows_get : t -> qid:int -> label:int -> Value.t -> Value.t array list

(** Drop every record of a terminated query. *)
val clear_query : t -> int -> unit
