(** Model-checking harness: canonical engine workloads wired to
    {!Pstm_analysis.Explore}.

    A {!scenario} packages a cluster shape, a fault plane and a
    submission batch together with the sequential oracle's expected rows.
    {!runner} turns one into the [Explore.runner] the schedule explorer
    drives: each schedule runs the async engine under
    [~check:true] (sanitizers + protocol monitors live), then the harness
    additionally asserts termination and oracle-equal rows. The optional
    [mutation] seeds a protocol mutant ({!Pstm_sim.Mutation}) so tests and
    the CLI can demonstrate that the checkers catch each one. *)

type scenario

val scenarios : scenario list
val name : scenario -> string
val describe : scenario -> string
val find : string -> scenario option

(** Single k-hop query on the tiny dataset, no faults. *)
val default : scenario

(** The scenario whose workload provokes the given mutant's protocol
    machinery (dedup and retransmit need faults). *)
val for_mutation : Mutation.t -> scenario

(** Canonical result digest: per query, name + completion status + sorted
    rows. Deliberately excludes timing and traffic counters — those may
    legitimately differ across schedules; results may not. *)
val fingerprint : Pstm_engine.Engine.report -> string

(** Explorer entry point over the async engine. *)
val runner : ?mutation:Mutation.t -> scenario -> Pstm_analysis.Explore.runner

(** Same, for an arbitrary registry engine (the scenario contributes its
    workload and oracle; the engine brings its own cluster). Engines
    without an event queue simply expose zero choice points. *)
val engine_runner :
  ?mutation:Mutation.t -> (module Pstm_engine.Engine.S) -> scenario -> Pstm_analysis.Explore.runner
