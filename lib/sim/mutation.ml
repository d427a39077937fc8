(* Seeded protocol mutants.

   Each constructor disables exactly one safety mechanism of a distributed
   protocol. They exist to validate the conformance monitors and the
   schedule explorer: a checker that cannot catch these
   within a bounded schedule budget is not checking anything. The gates
   are threaded through [Engine.Common] so production paths never branch
   on them unless a mutant is explicitly installed. *)

type t =
  | Skip_dedup  (** channel receiver treats every packet as fresh *)
  | No_retransmit  (** retransmit timers fire but send nothing *)
  | Early_tracker_release  (** coordinator completes a phase after 2 receipts *)

let all = [ Skip_dedup; No_retransmit; Early_tracker_release ]

let name = function
  | Skip_dedup -> "skip-dedup"
  | No_retransmit -> "no-retransmit"
  | Early_tracker_release -> "early-tracker-release"

let of_string s =
  match List.find_opt (fun m -> String.equal (name m) s) all with
  | Some m -> Some m
  | None -> None

let describe = function
  | Skip_dedup -> "receiver dedup window bypassed: retransmitted packets are applied twice"
  | No_retransmit -> "retransmit timer disabled: a dropped packet is lost forever"
  | Early_tracker_release -> "progress tracker force-completed after two receipts"
