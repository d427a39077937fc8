(* Discrete-event scheduler.

   A binary heap of (time, sequence, thunk); the insertion sequence number
   is the explicit tie-break key: events scheduled at equal times fire in
   schedule order, which makes whole-cluster simulations fully
   deterministic. Engines drive the simulation by scheduling closures and
   calling [run_to_completion].

   Same-timestamp ties are the only scheduling freedom a real asynchronous
   cluster has that the DES normally collapses; [set_chooser] re-opens it.
   When a chooser is installed, [step] gathers every entry sharing the
   minimum timestamp (in insertion order), presents their (seq, tag) pairs
   and lets the chooser pick which fires first. The rest are pushed back
   untouched — their sequence numbers are preserved, so declining to
   reorder reproduces the default schedule exactly. *)

type entry = {
  time : Sim_time.t;
  seq : int;
  tag : int;
  action : unit -> unit;
}

type choice = {
  c_seq : int;
  c_tag : int;
}

type chooser = choice array -> int

(* The heap is inline rather than a generic [Heap.t]: the (time, seq)
   order is a direct int comparison instead of a closure call, and the
   pop path hands back the entry itself, never an option. *)
type t = {
  mutable heap : entry array; (* binary min-heap in [heap.(0 .. len-1)] *)
  mutable len : int;
  mutable now : Sim_time.t;
  mutable next_seq : int;
  mutable executed : int;
  mutable chooser : chooser option;
}

let dummy_entry = { time = 0; seq = 0; tag = 0; action = ignore }

(* (time, seq) order; seqs are unique, so this is total. *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let create () = { heap = [||]; len = 0; now = 0; next_seq = 0; executed = 0; chooser = None }

let now t = t.now

let executed t = t.executed

let pending t = t.len

let next_seq t = t.next_seq

let set_chooser t chooser = t.chooser <- chooser

let push t e =
  if t.len = Array.length t.heap then begin
    let heap = Array.make (max 8 (2 * t.len)) dummy_entry in
    Array.blit t.heap 0 heap 0 t.len;
    t.heap <- heap
  end;
  let heap = t.heap in
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && before e heap.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    heap.(!i) <- heap.(parent);
    i := parent
  done;
  heap.(!i) <- e

(* Remove and return the minimum; the caller checks [len > 0]. *)
let pop_min t =
  let heap = t.heap in
  let top = heap.(0) in
  let n = t.len - 1 in
  t.len <- n;
  let last = heap.(n) in
  heap.(n) <- dummy_entry;
  if n > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c = if r < n && before heap.(r) heap.(l) then r else l in
        if before heap.(c) last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- last
  end;
  top

let schedule_at ?(tag = 0) t ~time action =
  if Sim_time.compare time t.now < 0 then
    invalid_arg
      (Fmt.str "Event_queue.schedule_at: time %a is in the past (now %a)" Sim_time.pp time
         Sim_time.pp t.now);
  push t { time; seq = t.next_seq; tag; action };
  t.next_seq <- t.next_seq + 1

let schedule_after ?tag t ~delay action = schedule_at ?tag t ~time:(Sim_time.add t.now delay) action

let exec t entry =
  t.now <- entry.time;
  t.executed <- t.executed + 1;
  entry.action ()

let step t =
  if t.len = 0 then false
  else begin
    let entry = pop_min t in
    match t.chooser with
    | None ->
      exec t entry;
      true
    | Some choose ->
      (* Successive pops at one timestamp arrive in ascending seq, so the
         tied batch is already in insertion order. *)
      let tied = ref [ entry ] in
      let n = ref 1 in
      while t.len > 0 && t.heap.(0).time = entry.time do
        tied := pop_min t :: !tied;
        incr n
      done;
      if !n = 1 then begin
        exec t entry;
        true
      end
      else begin
        let batch = Array.make !n dummy_entry in
        List.iteri (fun i e -> batch.(!n - 1 - i) <- e) !tied;
        let choices = Array.map (fun e -> { c_seq = e.seq; c_tag = e.tag }) batch in
        let pick = choose choices in
        let pick = if pick < 0 || pick >= !n then 0 else pick in
        Array.iteri (fun i e -> if i <> pick then push t e) batch;
        exec t batch.(pick);
        true
      end
  end

(* Runs until the queue drains. [max_events] guards against engines that
   accidentally schedule forever. *)
let run_to_completion ?(max_events = 2_000_000_000) t =
  let budget = ref max_events in
  while step t do
    decr budget;
    if !budget <= 0 then failwith "Event_queue.run_to_completion: event budget exhausted"
  done

let run_until t ~time =
  let continue = ref true in
  while !continue && t.len > 0 && Sim_time.compare t.heap.(0).time time <= 0 do
    continue := step t
  done;
  if Sim_time.compare t.now time < 0 then t.now <- time
