(** Seeded protocol mutants used to validate the conformance monitors and
    the schedule explorer. Installing one deliberately breaks a protocol
    safety mechanism; the analysis layer must catch each within a bounded
    schedule budget. *)

type t =
  | Skip_dedup  (** channel receiver treats every packet as fresh *)
  | No_retransmit  (** retransmit timers fire but send nothing *)
  | Early_tracker_release  (** coordinator completes a phase after 2 receipts *)

val all : t list

val name : t -> string

val of_string : string -> t option

(** One-line human description of what the mutant breaks. *)
val describe : t -> string
