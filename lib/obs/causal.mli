(** Causal DAG over sim-time hand-offs, with critical-path latency
    attribution (EXPLAIN LATENCY).

    The async engine registers a node per hand-off instant and edges from
    the events that caused it; each edge covers exactly the sim-time
    interval between its endpoints and carries a category. The engine
    adds incoming edges so the *last* one added is the binding cause, so
    walking binding edges from the tracker-release node back to the
    submit node yields abutting segments whose durations telescope to the
    end-to-end query latency exactly. *)

type category =
  | Compute  (** worker CPU executing steps and flushes *)
  | Queue  (** hand-off waited in a worker queue *)
  | Network  (** buffer dwell, combining window, NIC, wire, shm hop *)
  | Retransmit  (** delivery completed by a retransmitted copy *)
  | Barrier  (** waiting for a collective (aggregation partials, setup acks) *)
  | Tracker  (** progress-tracker coordination *)

(** Fixed presentation order. *)
val categories : category list

val category_name : category -> string

type t

(** The inert instance: every entry point returns immediately. *)
val disabled : t

(** [capacity] bounds the node store; past it, new nodes are refused (not
    wrapped) and counted in {!dropped}, so a truncated DAG reports itself
    instead of yielding a corrupted path. *)
val create : ?capacity:int -> unit -> t

val enabled : t -> bool
val n_nodes : t -> int
val n_edges : t -> int
val dropped : t -> int

(** [node t ~qid ~name ~ts] registers a hand-off instant and returns its
    id, or [-1] when disabled or truncated. [qid] is the query that owns
    the hand-off. *)
val node : t -> qid:int -> name:string -> ts:Sim_time.t -> int

(** [edge t ~src ~dst cat] — caller must add the binding cause *last*.
    Ignored when either endpoint is [-1]. *)
val edge : t -> src:int -> dst:int -> category -> unit

(** [hop t ~src ~qid ~name ~ts cat] is {!node} followed by
    [edge ~src ~dst:node cat]; the edge is binding unless the caller adds
    another edge into the returned node. Returns the new node, or [-1]
    when disabled or truncated. *)
val hop : t -> src:int -> qid:int -> name:string -> ts:Sim_time.t -> category -> int

(** Mark the query's root (submission instant) and terminal (tracker
    release) nodes. *)
val set_submit : t -> qid:int -> int -> unit

val set_release : t -> qid:int -> int -> unit

(** Queries with a registered release node, ascending. *)
val queries : t -> int list

type seg = {
  seg_cat : category;
  seg_src : string;  (** site label of the causing node *)
  seg_dst : string;
  seg_t0 : Sim_time.t;
  seg_t1 : Sim_time.t;
}

val seg_dur : seg -> Sim_time.t

(** Binding-edge chain from submit to release in time order, or [None]
    when the query never released, the store was truncated, or the chain
    does not reach the submit node. *)
val critical_path : t -> qid:int -> seg list option

(** Per-category critical-path time in {!categories} order; the sums
    partition the end-to-end latency exactly. *)
val attribution : t -> qid:int -> (category * Sim_time.t) list option

val attribution_total : (category * Sim_time.t) list -> Sim_time.t

(** Category with the largest share (ties keep the earlier category). *)
val dominant : (category * Sim_time.t) list -> category * Sim_time.t

(** The EXPLAIN LATENCY table for one query. *)
val pp_explain : Format.formatter -> t -> qid:int -> unit

(** Deterministic JSON: store totals plus one attribution object per
    released query. *)
val query_json : t -> qid:int -> Json.t

val to_json : t -> Json.t
