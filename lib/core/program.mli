(** Compiled PSTM programs with validated control flow and phase analysis.

    Aggregate steps are the only phase boundaries: each phase is the
    subquery feeding one aggregation (§III-C) and is termination-tracked
    independently by the engines. *)

type t

exception Invalid of string

(** Most phases a program may have (aggregate steps + 1). *)
val max_phases : int

(** [phase_key ~qid ~phase] packs a query id and one of its phases into
    one int, [qid * max_phases + phase]: the key of per-(query, phase)
    engine state. Distinct pairs give distinct keys for [qid >= 0] and
    [0 <= phase < max_phases], and key order is (qid, phase) order. *)
val phase_key : qid:int -> phase:int -> int

(** Validate and analyze a program; raises {!Invalid} with a description
    on malformed control flow, out-of-range registers, unpaired join
    sides, phase conflicts, or more than {!max_phases} phases. *)
val make : name:string -> steps:Step.t array -> n_registers:int -> entries:int array -> t

val name : t -> string
val steps : t -> Step.t array
val step : t -> int -> Step.t
val n_steps : t -> int
val n_registers : t -> int

(** Indices of source steps; each spawns an initial traverser stream. *)
val entries : t -> int array

val n_phases : t -> int
val phase_of_step : t -> int -> int

(** The Aggregate step closing a phase, or [None] for the final phase. *)
val agg_of_phase : t -> int -> int option

(** The opposite side of a Join step; raises on non-join steps. *)
val join_partner : t -> int -> int

val pp : Format.formatter -> t -> unit
