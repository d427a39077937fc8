(** The asynchronous PSTM runtime (GraphDance's engine), plus the paper's
    comparison systems implemented on the same codebase:

    - {!Banyan_like}: dataflow with per-operator instantiation in every
      worker (scheduling overhead grows with live operators).
    - {!Gaia_like}: the same, plus centralized stateful operators.
    - [shared_state]: the non-partitioned graph model of Figure 8.
    - [weight_coalescing = false]: the Figure 10/11 ablation. *)

type flavor =
  | Graphdance
  | Banyan_like
  | Gaia_like

val flavor_name : flavor -> string

type options = {
  flavor : flavor;
  weight_coalescing : bool;
  shared_state : bool;
  memory_capacity : int option;
      (** per-node memory budget; a graph exceeding the cluster total
          makes every data access 60x slower (the single-node study) *)
  partition : Partition.strategy; (** the H of the partitioned graph model *)
}

val default_options : options

(** Run the submissions to completion (or until [common.deadline]) on a
    simulated cluster; returns latencies, rows, and channel metrics.

    [common] carries the cross-cutting knobs shared by every engine
    ({!Engine.Common}): recorder, sanitizer mode, deadline, placement
    seed and an optional fault schedule.

    [common.check] enables the runtime sanitizer: per-exec weight
    conservation, tracker overshoot detection, and (when neither a
    deadline nor an abandoned packet cut delivery short) termination of
    every query plus memo emptiness at the end; the first violated
    invariant raises {!Engine.Check_violation}.

    [common.faults] attaches a deterministic fault plane: packets can
    drop, duplicate or take delay spikes, nodes can run slow or pause —
    and the channel switches to sequence-numbered reliable delivery so
    completed queries still return exact results. Queries that cannot
    finish (a partition paused past the deadline, a packet abandoned
    after max retries) degrade to TIMEOUT with their memos reclaimed
    rather than wedging the tracker. *)
val run :
  ?options:options ->
  ?common:Engine.Common.t ->
  cluster_config:Cluster.config ->
  channel_config:Channel.config ->
  graph:Graph.t ->
  Engine.submission array ->
  Engine.report

(** Open a service session on the engine (see {!Engine.service_handle}):
    the query service layer submits, cancels and observes completions
    while the simulation runs, instead of handing over a closed array.
    [run] is [create] + submit-all + drive-to-completion + finish, so the
    two entry points cannot drift. *)
val create :
  ?options:options ->
  ?common:Engine.Common.t ->
  cluster_config:Cluster.config ->
  channel_config:Channel.config ->
  graph:Graph.t ->
  unit ->
  Engine.service_handle
