(** Reference interpreter defining query semantics; the oracle that every
    distributed engine is tested against. *)

(** Execute a program and return its result rows in emission order.
    [common.check] enables the sanitizer: per-step weight conservation
    and a per-phase weight ledger, raising {!Engine.Check_violation} on
    the first broken invariant. [common.obs] records per-step operator
    stats (the oracle has no clock, so the trace stays empty);
    deadline, seed and faults do not apply to the oracle. *)
val run : ?common:Engine.Common.t -> Graph.t -> Program.t -> Value.t array list
