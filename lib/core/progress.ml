(* Distributed progress tracking (§IV-A).

   Two halves: the per-phase [tracker] living on the query coordinator,
   which accumulates finished weights and fires exactly when they sum back
   to the root weight; and the per-worker [coalescer], which implements
   weight coalescing — finished weights are merged locally (one integer
   addition each) and shipped to the tracker only when the worker flushes
   its message buffers, slashing the tracker's message load (Figure 11). *)

type tracker = {
  target : Weight.t;
  mutable acc : Weight.t;
  mutable receipts : int;
  mutable complete : bool;
}

let tracker ~target = { target; acc = Weight.zero; receipts = 0; complete = false }

type receipt =
  | Complete
  | Pending

(* Accumulate one (possibly coalesced) finished weight. Returns [Complete]
   exactly once, on the receipt that closes the phase. *)
let receive t w =
  if t.complete then Pending
  else begin
    t.acc <- Weight.add t.acc w;
    t.receipts <- t.receipts + 1;
    if Weight.equal t.acc t.target then begin
      t.complete <- true;
      Complete
    end
    else Pending
  end

(* Mark the tracker complete regardless of the accumulated weight. Only
   the Early_tracker_release protocol mutant calls this; it exists so the
   checker layer can prove it would notice a tracker that stops counting
   before Theorem 1's conservation sum closes. *)
let force_complete t = t.complete <- true

let is_complete t = t.complete
let receipts t = t.receipts
let accumulated t = t.acc
let target t = t.target

(* --- Worker-local weight coalescing --- *)

(* Keyed by [Program.phase_key ~qid ~phase]: one int, so a merge hashes
   no tuple and reads back no option. *)
type coalescer = {
  pending : Weight.t Int_table.t; (* packed (query, phase) -> merged weight *)
  mutable additions : int; (* total weight additions performed locally *)
  mutable pending_adds : int; (* additions since the last drain *)
}

let coalescer () = { pending = Int_table.create 8; additions = 0; pending_adds = 0 }

let coalesce c ~qid ~phase w =
  if qid < 0 || phase < 0 || phase >= Program.max_phases then
    invalid_arg "Progress.coalesce: (qid, phase) out of range";
  c.additions <- c.additions + 1;
  c.pending_adds <- c.pending_adds + 1;
  let key = Program.phase_key ~qid ~phase in
  match Int_table.find c.pending key with
  | acc -> Int_table.replace c.pending key (Weight.add acc w)
  | exception Not_found -> Int_table.add c.pending key w

let is_empty c = Int_table.length c.pending = 0

(* How many finished weights are merged but not yet shipped; workers flush
   when idle or when this passes their batching threshold, mirroring the
   "ship with the next buffer flush" rule of §IV-A. *)
let pending_additions c = c.pending_adds

(* Remove and return all merged weights, ready to be sent to trackers. *)
let drain c =
  (* det-ok: the collected pairs are sorted below before shipping *)
  let out = Int_table.fold (fun key w acc -> (key, w) :: acc) c.pending [] in
  Int_table.reset c.pending;
  c.pending_adds <- 0;
  (* Deterministic shipping order: keys are unique and their order is
     (qid, phase) order, so the weight never participates. *)
  List.map
    (fun (key, w) -> (key / Program.max_phases, key mod Program.max_phases, w))
    (List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) out)

let additions c = c.additions

(* Drop any weight still parked for [qid]: the query was cancelled or
   timed out, so the weight will never reach a tracker and must not
   linger as keyed state for the rest of the run. [pending_adds] is left
   alone — it is only a flush heuristic, and resetting it here would
   change when unrelated queries flush. *)
let discard_query c ~qid =
  let doomed =
    (* det-ok: removal order cannot change what is left in the table *)
    Int_table.fold
      (fun key _ acc -> if key / Program.max_phases = qid then key :: acc else acc)
      c.pending []
  in
  List.iter (Int_table.remove c.pending) doomed
