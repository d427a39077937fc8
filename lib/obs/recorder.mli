(** Per-run observability bundle: trace + operator stats + causal DAG,
    passed to engines as one optional argument. *)

type t

(** Shared no-op bundle; safe to thread everywhere by default. *)
val disabled : t

(** [causal] (default false) additionally threads causal contexts through
    every engine hand-off into a {!Causal.t} DAG for EXPLAIN LATENCY. *)
val create : ?trace_capacity:int -> ?causal:bool -> ?causal_capacity:int -> unit -> t

val enabled : t -> bool
val trace : t -> Trace.t
val opstats : t -> Opstats.t
val causal : t -> Causal.t
