(* The asynchronous PSTM runtime — GraphDance's execution engine (§IV).

   One single-threaded worker per graph partition, each with its own memo
   and weight coalescer. Traversers route to the worker that owns their
   next step's partition key (the h_psi of §III-A), execute there through
   the shared step interpreter, and spawn children asynchronously — no
   global barriers. Termination per phase is detected by the weight
   tracker on the query's coordinator worker; aggregation phases combine
   per-partition partials on demand (§III-C).

   The same runtime also hosts the paper's comparison systems, exactly the
   way the paper itself implemented Banyan "on GraphDance's codebase":

   - [Banyan_like]: per-operator instantiation in every worker, charged as
     a scheduling overhead per quantum proportional to the number of live
     operators (the cause of its limited scaling in Fig. 9), with no
     per-traverser progress cost.
   - [Gaia_like]: the same dataflow overhead plus centralized execution of
     the stateful operators (dedup / join / aggregation run on worker 0),
     GAIA's scalability ceiling in Fig. 9.
   - [shared_state]: the non-partitioned graph model of Fig. 8 — memos are
     shared per node, so every access pays a latch whose cost grows with
     the number of contending workers, and data access loses locality.
   - [weight_coalescing = false]: the Fig. 10/11 ablation — every finished
     weight becomes its own message to the tracker. *)

module Protocol = Pstm_analysis.Protocol
module Causal = Pstm_obs.Causal

type flavor =
  | Graphdance
  | Banyan_like
  | Gaia_like

let flavor_name = function
  | Graphdance -> "graphdance"
  | Banyan_like -> "banyan-like"
  | Gaia_like -> "gaia-like"

type options = {
  flavor : flavor;
  weight_coalescing : bool;
  shared_state : bool;
  memory_capacity : int option; (* per-node memory, for the single-node study *)
  partition : Partition.strategy; (* the H of the partitioned graph model *)
}

(* Tasks per worker scheduling quantum. *)
let quantum_tasks = 64

(* Data-access multiplier once the graph exceeds [memory_capacity]. *)
let swap_penalty = 60

let default_options =
  {
    flavor = Graphdance;
    weight_coalescing = true;
    shared_state = false;
    memory_capacity = None;
    partition = Partition.Hash;
  }

(* Every payload that can sit on a query's causal chain carries a causal
   context [cz]: the id of the {!Pstm_obs.Causal} DAG node that produced
   it (-1 when causal tracing is off). The field is mutable because
   delivery rewrites it to the arrival node, so the consumer's edge
   covers only the queue wait, not the network hop again. [cz] is pure
   metadata: [payload_bytes] ignores it, so the simulated byte counts
   and costs are untouched whether tracing is on or off. *)
type payload =
  | P_trav of { qid : int; trav : Traverser.t; mutable cz : int }
  | P_progress of { qid : int; phase : int; weight : Weight.t; mutable cz : int }
  | P_agg_flush of { qid : int; agg_step : int; mutable cz : int }
  | P_agg_partial of { qid : int; agg_step : int; partial : Aggregate.t option; mutable cz : int }
  | P_cleanup of { qid : int }
  | P_setup of { qid : int; mutable cz : int } (* dataflow flavors: instantiate operators *)
  | P_setup_ack of { qid : int; mutable cz : int }

let payload_bytes = function
  | P_trav { trav; _ } -> 8 + Traverser.bytes trav
  | P_progress _ -> 8 + Weight.bytes + 8
  | P_agg_flush _ -> 16
  | P_agg_partial { partial; _ } ->
    16 + (match partial with None -> 0 | Some p -> Aggregate.bytes p)
  | P_cleanup _ -> 8
  | P_setup _ | P_setup_ack _ -> 16

type query_state = {
  qid : int;
  program : Program.t;
  coordinator : int;
  tenant : int;
  priority : int;
  submitted : Sim_time.t;
  mutable outcome : Engine.outcome option; (* None while still live *)
  mutable launched : bool; (* the submit event ran (trackers registered) *)
  trackers : Progress.tracker array; (* one per phase *)
  touched : Bitset.t; (* workers that executed a traverser (first-touch) *)
  mutable combine_step : int; (* aggregate step being combined, or -1 *)
  mutable combine_expected : int;
  mutable combine_received : int;
  mutable combine_acc : Aggregate.t option;
  rows : Value.t array Vec.t;
  mutable active : bool;
  mutable setup_acks : int; (* dataflow deployment acks outstanding *)
}

type worker = {
  id : int;
  memo : Memo.t; (* private, or node-shared under [shared_state] *)
  tasks : payload Queue.t;
  coalescer : Progress.coalescer;
  prng : Prng.t;
  mutable busy_until : Sim_time.t;
  mutable busy_total : Sim_time.t; (* accumulated CPU time *)
  mutable awake : bool; (* a quantum event is scheduled *)
  scan : int option -> int array; (* Scan sources: owned vertices, by label *)
  (* Causal worker chain: the last execution node on this worker and its
     query, valid only while the worker has been continuously busy since
     (invalidated at every idle gap). When the chain is live and owned by
     the same query, the next execution's binding cause is the previous
     execution — worker occupancy — rather than its own queue wait. *)
  mutable cz_last : int;
  mutable cz_last_qid : int;
  (* Per-(qid, phase) causal node of the last execution that contributed
     finished weight to the coalescer since its last drain; the flushed
     progress message inherits it, so coalescer dwell is attributable. *)
  cz_coalesce : int Int_table.t; (* keyed by [Program.phase_key] *)
}

(* Build an open engine session ({!Engine.service_handle}): all state is
   captured in the returned closures, so [run] below is a thin
   submit-all/drive/finish wrapper and the service layer can drive the
   same machinery with feedback (incremental submission, scoped
   cancellation) instead of a closed submission array. *)
let create ?(options = default_options) ?(common = Engine.Common.default) ~cluster_config
    ~channel_config ~graph () =
  let obs = common.Engine.Common.obs in
  let check = common.Engine.Common.check in
  let deadline = common.Engine.Common.deadline in
  let mutation = common.Engine.Common.mutation in
  let cluster = Cluster.create cluster_config in
  (* Fault plane (if any) attaches before the channel is created, so the
     channel sees it and switches to reliable delivery. *)
  let faults = Option.map Faults.create common.Engine.Common.faults in
  Cluster.set_faults cluster faults;
  Cluster.set_mutation cluster mutation;
  let events = Cluster.events cluster in
  (* Schedule exploration: an installed chooser permutes same-timestamp
     ties; [None] (the default) keeps canonical insertion order. *)
  Event_queue.set_chooser events common.Engine.Common.chooser;
  let metrics = Cluster.metrics cluster in
  let costs = Cluster.costs cluster in
  let n_workers = Cluster.n_workers cluster in
  (* Straggler injection: scale a worker's CPU costs by its node's factor.
     Pause injection: defer a worker's quanta past the window's end. Both
     are identity when no fault plane is attached. *)
  let fault_scale w cost =
    match faults with
    | None -> cost
    | Some f -> Faults.scale f ~node:(Cluster.node_of_worker cluster w) cost
  in
  let fault_release w time =
    match faults with
    | None -> time
    | Some f -> Faults.release f ~node:(Cluster.node_of_worker cluster w) ~at:time
  in
  (* Protocol conformance monitors: compiled from the declarative state
     machines in [Pstm_analysis.Protocol] and fed from the channel's
     protocol hook (reliable delivery) and the tracker lifecycle. They
     exist only under [check]; otherwise every hook stays [None] and the
     production path is untouched. *)
  let mon_channel, mon_tracker =
    if check then
      ( Some (Protocol.monitor (Lazy.force Protocol.channel)),
        Some (Protocol.monitor (Lazy.force Protocol.tracker)) )
    else (None, None)
  in
  (match mon_channel with
  | None -> ()
  | Some mon ->
    let compiled = Lazy.force Protocol.channel in
    let m_send = Protocol.msg compiled "send" in
    let m_retransmit = Protocol.msg compiled "retransmit" in
    let m_deliver = Protocol.msg compiled "deliver" in
    let m_dup = Protocol.msg compiled "dup" in
    let m_ack = Protocol.msg compiled "ack" in
    let m_abandon = Protocol.msg compiled "abandon" in
    let n_nodes = Cluster.n_nodes cluster in
    Cluster.set_protocol_hook cluster
      (Some
         (fun ev ->
           let msg =
             match ev.Cluster.pkt_ev with
             | Cluster.Pkt_send -> m_send
             | Cluster.Pkt_retransmit -> m_retransmit
             | Cluster.Pkt_deliver -> m_deliver
             | Cluster.Pkt_dup -> m_dup
             | Cluster.Pkt_ack -> m_ack
             | Cluster.Pkt_abandon -> m_abandon
           in
           (* One instance per (link, seq); per-link sequence numbers stay
              far below 2^24 in any run we simulate. *)
           let key =
             (((ev.Cluster.ev_src * n_nodes) + ev.Cluster.ev_dst) lsl 24)
             lor (ev.Cluster.ev_seq land 0xFFFFFF)
           in
           match Protocol.step mon ~key ~msg with
           | None -> ()
           | Some why ->
             Engine.check_fail "async: link %d->%d seq %d: %s" ev.Cluster.ev_src
               ev.Cluster.ev_dst ev.Cluster.ev_seq why)));
  let tracker_event name ~qid ~phase =
    match mon_tracker with
    | None -> ()
    | Some mon -> begin
      match
        Protocol.step mon
          ~key:(Program.phase_key ~qid ~phase)
          ~msg:(Protocol.msg (Lazy.force Protocol.tracker) name)
      with
      | None -> ()
      | Some why -> Engine.check_fail "async: tracker of query %d phase %d: %s" qid phase why
    end
  in
  (* Observability: every emission site is guarded by [obs_on] (or the
     recorder's own enabled flag), so the disabled path costs one branch. *)
  let obs_on = Pstm_obs.Recorder.enabled obs in
  let trace = Pstm_obs.Recorder.trace obs in
  let opstats = Pstm_obs.Recorder.opstats obs in
  (* Causal tracing (EXPLAIN LATENCY): every hand-off registers a DAG
     node; the producing context rides the payload's [cz] field. The
     Causal calls are no-ops returning -1 when tracing is off; [cz_on]
     guards only the sites that would otherwise allocate or touch a
     table (arrival interception and the [cz_coalesce] entries). *)
  let causal = Pstm_obs.Recorder.causal obs in
  let cz_on = Causal.enabled causal in
  (* Service callback: fired once per query at its terminal transition
     (completion, per-query timeout, or scoped cancellation). *)
  let on_terminal : (int -> Engine.outcome -> unit) ref = ref (fun _ _ -> ()) in
  if obs_on then
    Cluster.set_packet_hook cluster
      (Some
         (fun (p : Cluster.packet_info) ->
           (* Span covers NIC serialization only (packets on one NIC are
              disjoint by construction); arrival is carried as an arg. *)
           let occupancy_end =
             Sim_time.diff p.Cluster.arrival (Cluster.net cluster).Netmodel.wire_latency
           in
           Pstm_obs.Trace.span trace ~cat:"net"
             ~tid:(Engine.nic_track p.Cluster.src_node)
             ~name:"packet" ~ts:p.Cluster.nic_start
             ~dur:(Sim_time.diff occupancy_end p.Cluster.nic_start)
             ~args:
               [
                 ("dst_node", Pstm_obs.Trace.I p.Cluster.dst_node);
                 ("bytes", Pstm_obs.Trace.I p.Cluster.bytes);
                 ("arrival_ns", Pstm_obs.Trace.I (Sim_time.to_ns p.Cluster.arrival));
               ]
             ()));
  let workers_per_node = cluster_config.Cluster.workers_per_node in
  let partition =
    Partition.create ~strategy:options.partition ~n_parts:n_workers
      ~n_vertices:(Graph.n_vertices graph) ()
  in
  let seed_prng = Prng.create common.Engine.Common.seed in
  (* Node-shared memos for the non-partitioned ablation. *)
  let node_memos = Array.init (Cluster.n_nodes cluster) (fun _ -> Memo.create ()) in
  let workers =
    Array.init n_workers (fun id ->
        let members = lazy (Partition.members partition id) in
        {
          id;
          memo =
            (if options.shared_state then node_memos.(Cluster.node_of_worker cluster id)
             else Memo.create ());
          tasks = Queue.create ();
          coalescer = Progress.coalescer ();
          prng = Prng.split seed_prng;
          busy_until = Sim_time.zero;
          busy_total = Sim_time.zero;
          awake = false;
          cz_last = -1;
          cz_last_qid = -1;
          cz_coalesce = Int_table.create 4;
          scan =
            (fun label ->
              let mine = Lazy.force members in
              match label with
              | None -> mine
              | Some l ->
                Array.of_seq (Seq.filter (Graph.has_vertex_label graph ~label:l) (Array.to_seq mine)));
        })
  in
  (* Indexed by qid: qids are dense from 0, one per submission. Each
     slot's [Some] is built once, at submission, and [live] hands that
     same block back, so a lookup allocates nothing. *)
  let queries : query_state option Vec.t = Vec.create ~dummy:None in
  let query qid =
    match Vec.get queries qid with
    | Some q -> q
    | None | (exception Invalid_argument _) ->
      invalid_arg (Fmt.str "Async_engine: unknown query %d" qid)
  in
  (* The query if it is still live. A cancelled or timed-out query's
     stragglers (traversers, weights, partials, acks) are dropped: its
     trackers are already released, so feeding them would re-trigger
     completion machinery on a dead query. *)
  let live qid =
    match Vec.get queries qid with
    | Some q as found when q.active -> found
    | _ -> None
  in
  (* Total live operator instances; the dataflow flavors pay a scheduling
     tax proportional to this every quantum. *)
  let active_op_count = ref 0 in
  (* Queries concurrently resident (launched, not yet completed): the
     contention axis of the non-partitioned ablation's latch model. *)
  let n_active = ref 0 in
  (* Route a traverser about to execute its step (the h_psi of §III-A).
     The answer is one int, so the dispatch path allocates nothing: a
     non-negative result is the vertex whose owner receives the
     traverser (By_vertex, or a By_key that evaluates to a vertex); a
     negative one is [-1 - worker] for a fixed destination (the
     coordinator, a hashed non-vertex key, or worker 0 for Gaia's
     centralized stateful ops). *)
  let route q (trav : Traverser.t) =
    let step = Program.step q.program trav.step in
    let centralized =
      match (options.flavor, step.Step.op) with
      | Gaia_like, (Step.Dedup _ | Step.Visit _ | Step.Join _ | Step.Aggregate _) -> true
      | _ -> false
    in
    if centralized then -1
    else begin
      match Step.routing step.Step.op with
      | Step.By_coordinator -> -1 - q.coordinator
      | Step.By_vertex -> trav.vertex
      | Step.By_key e -> begin
        match Step.eval_expr graph ~vertex:trav.vertex ~regs:trav.regs e with
        | Value.Vertex v -> v
        | v -> -1 - (Value.hash v mod n_workers)
      end
    end
  in
  (* --- Cost model ----------------------------------------------------- *)
  let swapping =
    match options.memory_capacity with
    | Some capacity -> Graph.bytes graph > capacity * Cluster.n_nodes cluster
    | None -> false
  in
  (* Under the non-partitioned model every step touches node-shared
     state: the graph storage latch plus query-state synchronization.
     Contention has two axes — the worker fan-in per node (static,
     §V-A2) and the number of queries concurrently resident in the
     shared structures: a latch queue grows with every query whose
     state hangs off it, so the per-acquisition cost scales with live
     concurrency. With one resident query the factor is 1 and the model
     reduces to the uncontended latch. The partitioned model pays none
     of this — each worker owns its data. *)
  (* Latch contention grows with the number of concurrently resident
     queries, but sublinearly: colliding critical sections are short, so
     only a fraction of the other residents is ever queued on the same
     latch. A lone query pays exactly the uncontended cost, keeping
     single-query runs byte-identical to the static model. *)
  let contention () = 1 + (2 * (max 1 !n_active - 1) / 5) in
  let shared_step_penalty () =
    if options.shared_state then
      costs.Cluster.latch * (1 + ((workers_per_node - 1) / 5)) * contention ()
    else Sim_time.zero
  in
  let memo_op_cost () =
    if options.shared_state then
      Sim_time.add costs.Cluster.memo_op (costs.Cluster.latch * contention ())
    else costs.Cluster.memo_op
  in
  let exec_cost (o : Exec.outcome) =
    let data =
      (o.Exec.edges_scanned * costs.Cluster.per_edge)
      + (o.Exec.prop_reads * costs.Cluster.per_property)
    in
    let data = if options.shared_state then data + (data / 2) else data in
    let base =
      costs.Cluster.step_dispatch + shared_step_penalty () + data
      + (o.Exec.memo_ops * memo_op_cost ())
    in
    (* Memory thrashing faults the whole access path, not just the data
       columns (§V-A3: GraphScope on SF1000). *)
    if swapping then base * swap_penalty else base
  in
  (* --- Channel and routing -------------------------------------------- *)
  let channel_ref = ref None in
  let channel () = Option.get !channel_ref in
  (* Arrival interception: when a context-carrying payload lands on a
     worker's queue, register an arrival node at the delivery instant and
     rewrite the payload's [cz] to it, so the consumer's edge covers only
     the queue wait from here on. The hop edge is Network, or Retransmit
     when the reliable channel is delivering a retransmitted copy — that
     edge *is* the recovery stall. Same-worker sends bypass this (no hop:
     the consumer binds straight to the producer). *)
  let cz_arrive_payload p =
    let cat =
      match !channel_ref with
      | Some ch when Channel.delivering_retransmitted ch -> Causal.Retransmit
      | _ -> Causal.Network
    in
    let ts = Cluster.now cluster in
    let arrive ~qid ~name cz = if cz < 0 then -1 else Causal.hop causal ~src:cz ~qid ~name ~ts cat in
    match p with
    | P_trav ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive" r.cz
    | P_progress ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-progress" r.cz
    | P_agg_flush ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-agg" r.cz
    | P_agg_partial ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-partial" r.cz
    | P_setup ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-setup" r.cz
    | P_setup_ack ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-ack" r.cz
    | P_cleanup _ -> ()
  in
  let rec wake w =
    if not w.awake then begin
      w.awake <- true;
      let time = max (Cluster.now cluster) w.busy_until in
      let time = fault_release w.id time in
      Event_queue.schedule_at events ~time ~tag:(Cluster.worker_tag cluster w.id) (fun () ->
          quantum w)
    end
  (* ---- Message / task processing ------------------------------------- *)
  and deliver dst payload =
    if cz_on then cz_arrive_payload payload;
    let w = workers.(dst) in
    Queue.add payload w.tasks;
    wake w
  and send ~at ~src ~dst ~kind payload =
    if src = dst then begin
      (* Same worker: a plain queue push, no messaging machinery. The wake
         is a no-op while the worker's own quantum is running, but matters
         when the sender is the submission path or a network-thread
         event acting on the worker's behalf. *)
      Queue.add payload workers.(dst).tasks;
      wake workers.(dst);
      Sim_time.zero
    end
    else
      Channel.send (channel ()) ~at ~src_worker:src ~dst_worker:dst ~kind
        ~bytes:(payload_bytes payload) payload
  and dispatch_trav ~at ~src ~cz q trav =
    let target = route q trav in
    let dst = if target >= 0 then Partition.owner partition target else -1 - target in
    let step = Program.step q.program trav.step in
    let kind =
      match step.Step.op with
      | Step.Emit _ -> Metrics.Result_msg
      | _ -> Metrics.Traverser_msg
    in
    send ~at ~src ~dst ~kind (P_trav { qid = q.qid; trav; cz })
  (* ---- Progress tracking ---------------------------------------------- *)
  and tracker_receive ~at ~cz w q phase weight =
    Metrics.count_tracker_update metrics;
    let cz = Causal.hop causal ~src:cz ~qid:q.qid ~name:"tracker" ~ts:at Causal.Tracker in
    if not (Weight.is_zero weight) then tracker_event "receive" ~qid:q.qid ~phase;
    if obs_on then begin
      let acc = Weight.add (Progress.accumulated q.trackers.(phase)) weight in
      Pstm_obs.Trace.instant trace ~cat:"progress" ~tid:(Engine.query_track q.qid)
        ~name:"tracker_receive" ~ts:at
        ~args:
          [
            ("phase", Pstm_obs.Trace.I phase);
            ("receipts", Pstm_obs.Trace.I (Progress.receipts q.trackers.(phase) + 1));
            ("accumulated", Pstm_obs.Trace.I (acc :> int));
          ]
        ()
    end;
    (* Sanitizer: the tracker fires exactly when finished weights sum back
       to the root. Weight arriving afterwards means some share was
       counted twice — termination was detected early. *)
    if check && Progress.is_complete q.trackers.(phase) && not (Weight.is_zero weight) then
      Engine.check_fail "async: query %d phase %d received weight %a after completion" q.qid
        phase Weight.pp weight;
    match Progress.receive q.trackers.(phase) weight with
    | Progress.Complete ->
      tracker_event "complete" ~qid:q.qid ~phase;
      Sim_time.add costs.Cluster.progress_add (phase_complete ~at ~cz w q phase)
    | Progress.Pending ->
      if
        mutation = Some Mutation.Early_tracker_release
        && (not (Progress.is_complete q.trackers.(phase)))
        && Progress.receipts q.trackers.(phase) >= 2
      then begin
        (* Mutant: declare the phase done before Theorem 1's conservation
           sum closes. *)
        Progress.force_complete q.trackers.(phase);
        Sim_time.add costs.Cluster.progress_add (phase_complete ~at ~cz w q phase)
      end
      else costs.Cluster.progress_add
  and finish_weight ~at ~cz w q phase weight =
    if Weight.is_zero weight then Sim_time.zero
    else begin
      let coalescing = options.weight_coalescing || options.flavor <> Graphdance in
      if coalescing then begin
        Progress.coalesce w.coalescer ~qid:q.qid ~phase weight;
        (* The coalescer merges weights from many executions; the flushed
           message inherits the context of the *last* contributor, which
           is the one the tracker was actually waiting on. *)
        if cz_on then Int_table.replace w.cz_coalesce (Program.phase_key ~qid:q.qid ~phase) cz;
        (* The "slightly higher per-traverser progress tracking overhead"
           of §V-B: the weight addition plus the local hash merge. The
           dataflow flavors track progress per operator scope instead and
           pay nothing per traverser. *)
        if options.flavor = Graphdance then
          Sim_time.add costs.Cluster.progress_add costs.Cluster.progress_coalesce
        else Sim_time.zero
      end
      else if q.coordinator = w.id then tracker_receive ~at ~cz w q phase weight
      else
        send ~at ~src:w.id ~dst:q.coordinator ~kind:Metrics.Progress_msg
          (P_progress { qid = q.qid; phase; weight; cz })
    end
  and flush_progress ~at w =
    let cost = ref Sim_time.zero in
    if not (Progress.is_empty w.coalescer) then
      List.iter
        (fun (qid, phase, weight) ->
          match live qid with
          | None ->
            (* Cancelled: the weight is reclaimed, not tracked — and its
               parked causal entry goes with it, or the (qid, phase) key
               would outlive the query for the rest of the run. *)
            if cz_on then Int_table.remove w.cz_coalesce (Program.phase_key ~qid ~phase)
          | Some q ->
            (* Coalescer dwell shows up as a Tracker segment: the flush
               node sits between the last contributing execution and the
               tracker receive (local) or the progress message (remote). *)
            let cz =
              if not cz_on then -1
              else begin
                let key = Program.phase_key ~qid ~phase in
                match Int_table.find_opt w.cz_coalesce key with
                | None -> -1
                | Some src ->
                  Int_table.remove w.cz_coalesce key;
                  Causal.hop causal ~src ~qid ~name:"progress-flush" ~ts:at Causal.Tracker
              end
            in
            if q.coordinator = w.id then
              cost := Sim_time.add !cost (tracker_receive ~at ~cz w q phase weight)
            else
              cost :=
                Sim_time.add !cost
                  (send ~at ~src:w.id ~dst:q.coordinator ~kind:Metrics.Progress_msg
                     (P_progress { qid; phase; weight; cz })))
        (Progress.drain w.coalescer);
    !cost
  (* ---- Phase transitions ----------------------------------------------- *)
  and phase_complete ~at ~cz w q phase =
    tracker_event "release" ~qid:q.qid ~phase;
    if obs_on then
      Pstm_obs.Trace.instant trace ~tid:(Engine.query_track q.qid) ~name:"phase_complete" ~ts:at
        ~args:[ ("phase", Pstm_obs.Trace.I phase) ]
        ();
    match Program.agg_of_phase q.program phase with
    | Some agg_step ->
      (* Pull the per-partition partials in (§III-C). Under the shared
         (non-partitioned) model one worker per node answers for the
         node-wide memo. *)
      q.combine_step <- agg_step;
      q.combine_received <- 0;
      q.combine_acc <- None;
      let responders =
        if options.shared_state then
          Array.init (Cluster.n_nodes cluster) (fun node -> node * workers_per_node)
        else Array.init n_workers Fun.id
      in
      q.combine_expected <- Array.length responders;
      let cz = Causal.hop causal ~src:cz ~qid:q.qid ~name:"phase-complete" ~ts:at Causal.Tracker in
      let cost = ref Sim_time.zero in
      Array.iter
        (fun dst ->
          cost :=
            Sim_time.add !cost
              (send ~at ~src:w.id ~dst ~kind:Metrics.Control_msg
                 (P_agg_flush { qid = q.qid; agg_step; cz })))
        responders;
      !cost
    | None -> complete_query ~at ~cz w q
  and complete_query ~at ~cz w q =
    let released_at = max at (Cluster.now cluster) in
    q.outcome <- Some (Engine.Completed released_at);
    q.active <- false;
    (* Terminal node: the walk back from here along binding edges is the
       query's critical path, and its segments sum to the latency. *)
    Causal.set_release causal ~qid:q.qid
      (Causal.hop causal ~src:cz ~qid:q.qid ~name:"release" ~ts:released_at Causal.Tracker);
    if obs_on then
      Pstm_obs.Trace.instant trace ~tid:(Engine.query_track q.qid) ~name:"complete" ~ts:at
        ~args:
          [
            ("rows", Pstm_obs.Trace.I (Vec.length q.rows));
            ("workers_touched", Pstm_obs.Trace.I (Bitset.count q.touched));
          ]
        ();
    active_op_count := !active_op_count - Program.n_steps q.program;
    n_active := !n_active - 1;
    (* Memos are query-scoped: broadcast the automatic clear of §III-B. *)
    let cost = ref Sim_time.zero in
    for dst = 0 to n_workers - 1 do
      cost :=
        Sim_time.add !cost
          (send ~at ~src:w.id ~dst ~kind:Metrics.Control_msg (P_cleanup { qid = q.qid }))
    done;
    !on_terminal q.qid (Engine.Completed released_at);
    !cost
  (* ---- Task execution --------------------------------------------------- *)
  and process w ~at payload =
    match payload with
    | P_trav { qid; trav; cz } -> begin
      match live qid with
      | None -> Sim_time.zero
      | Some q ->
        if obs_on && Bitset.add_if_absent q.touched w.id then
          Pstm_obs.Trace.instant trace ~tid:(Engine.query_track qid) ~name:"first_touch" ~ts:at
            ~args:[ ("worker", Pstm_obs.Trace.I w.id) ]
            ();
        Metrics.count_step metrics;
        (* Execution node. Incoming edges, binding last: the arrival /
           producer context first (its span is the queue wait), then —
           when this worker has run continuously and its previous
           execution belonged to the same query — the worker chain
           (the span is serial compute occupancy). *)
        let op_name = Step.op_name (Program.step q.program trav.Traverser.step).Step.op in
        let cz_exec = Causal.hop causal ~src:cz ~qid ~name:op_name ~ts:at Causal.Queue in
        if w.cz_last_qid = qid then
          Causal.edge causal ~src:w.cz_last ~dst:cz_exec Causal.Compute;
        w.cz_last <- cz_exec;
        w.cz_last_qid <- qid;
        let outcome =
          Exec.exec ~graph ~memo:w.memo ~prng:w.prng ~qid ~program:q.program ~scan:w.scan trav
        in
        if check && not (Exec.conserves trav outcome) then
          Engine.check_fail "async: query %d step %d (%s) broke weight conservation" qid
            trav.Traverser.step op_name;
        Metrics.count_edges metrics outcome.Exec.edges_scanned;
        let base_cost = exec_cost outcome in
        if obs_on then
          Pstm_obs.Opstats.record opstats ~step:trav.Traverser.step
            ~out:(List.length outcome.Exec.spawns)
            ~rows:(List.length outcome.Exec.rows)
            ~finished:(not (Weight.is_zero outcome.Exec.finished))
            ~edges:outcome.Exec.edges_scanned ~memo_hits:outcome.Exec.memo_hits
            ~memo_misses:outcome.Exec.memo_misses ~busy_ns:(Sim_time.to_ns base_cost);
        let phase = Program.phase_of_step q.program trav.step in
        let cost = dispatch_all ~at ~cz:cz_exec w q base_cost outcome.Exec.spawns in
        let cost = receive_rows ~at ~cz:cz_exec w q phase cost outcome.Exec.rows in
        let cost =
          if Weight.is_zero outcome.Exec.finished then cost
          else
            Sim_time.add cost (finish_weight ~at ~cz:cz_exec w q phase outcome.Exec.finished)
        in
        if obs_on then
          Pstm_obs.Trace.span trace ~tid:w.id ~name:op_name ~ts:at ~dur:cost
            ~args:[ ("qid", Pstm_obs.Trace.I qid); ("step", Pstm_obs.Trace.I trav.Traverser.step) ]
            ();
        cost
    end
    | P_progress { qid; phase; weight; cz } -> begin
      match live qid with
      | None -> Sim_time.zero
      | Some q -> tracker_receive ~at ~cz w q phase weight
    end
    | P_agg_flush { qid; agg_step; cz } -> begin
      match live qid with
      | None -> Sim_time.zero
      | Some q ->
        let partial = Memo.partial_opt w.memo ~qid ~label:agg_step in
        (* Collective leg: the coordinator waits for every partial, so
           the flush and partial hops classify as Barrier. *)
        let cz = Causal.hop causal ~src:cz ~qid ~name:"agg-flush" ~ts:at Causal.Barrier in
        Sim_time.add (memo_op_cost ())
          (send ~at ~src:w.id ~dst:q.coordinator ~kind:Metrics.Control_msg
             (P_agg_partial { qid; agg_step; partial; cz }))
    end
    | P_agg_partial { qid; agg_step; partial; cz } -> begin
      match live qid with
      | None -> Sim_time.zero
      | Some q ->
        assert (q.combine_step = agg_step);
        (match partial, q.combine_acc with
        | None, _ -> ()
        | Some p, None -> q.combine_acc <- Some p
        | Some p, Some acc -> Aggregate.merge ~into:acc p);
        q.combine_received <- q.combine_received + 1;
        if q.combine_received < q.combine_expected then memo_op_cost ()
        else begin
          (* All partials in: finalize and start the next phase. *)
          let step = Program.step q.program agg_step in
          let agg, reg =
            match step.Step.op with
            | Step.Aggregate { agg; reg } -> (agg, reg)
            | _ -> assert false
          in
          let value =
            Aggregate.finalize
              (match q.combine_acc with Some acc -> acc | None -> Aggregate.create agg)
          in
          q.combine_step <- -1;
          let cont =
            Traverser.set_reg
              (Traverser.make ~vertex:0 ~step:step.Step.next ~weight:Weight.root
                 ~n_registers:(Program.n_registers q.program))
              reg value
          in
          Metrics.count_spawn metrics;
          (* The continuation enters the next phase from outside any step. *)
          Pstm_obs.Opstats.seed opstats 1;
          (* The combine binds to the last partial in: the barrier wait
             is exactly what the straggling responder cost. *)
          let cz = Causal.hop causal ~src:cz ~qid ~name:"agg-combine" ~ts:at Causal.Barrier in
          Sim_time.add (memo_op_cost ()) (dispatch_trav ~at ~src:w.id ~cz q cont)
        end
    end
    | P_cleanup { qid } ->
      Memo.clear_query w.memo qid;
      memo_op_cost ()
    | P_setup { qid; cz } -> begin
      (* Dataflow flavors instantiate every operator of the query's plan
         (plus its channels) in this worker before execution can start. *)
      match live qid with
      | None -> Sim_time.zero
      | Some q ->
        let instantiate = 8 * Program.n_steps q.program * costs.Cluster.operator_sched in
        let cz = Causal.hop causal ~src:cz ~qid ~name:"setup" ~ts:at Causal.Compute in
        Sim_time.add instantiate
          (send ~at ~src:w.id ~dst:q.coordinator ~kind:Metrics.Control_msg
             (P_setup_ack { qid; cz }))
    end
    | P_setup_ack { qid; cz } -> begin
      match live qid with
      | None -> Sim_time.zero
      | Some q ->
        q.setup_acks <- q.setup_acks - 1;
        if q.setup_acks = 0 then begin
          (* Deployment barrier: launch binds to the last ack in. *)
          launch_entries ~at q
            ~cz:(Causal.hop causal ~src:cz ~qid ~name:"launch" ~ts:at Causal.Barrier);
          costs.Cluster.operator_sched * Program.n_steps q.program
        end
        else costs.Cluster.operator_sched
    end
  (* [process]'s fan-out loops, written as direct recursion so a step
     allocates no iteration closure: route each child, adding its send
     cost to [cost]... *)
  and dispatch_all ~at ~cz w q cost = function
    | [] -> cost
    | child :: rest ->
      Metrics.count_spawn metrics;
      dispatch_all ~at ~cz w q (Sim_time.add cost (dispatch_trav ~at ~src:w.id ~cz q child)) rest
  (* ... and feed each emitted row's weight to the phase tracker. Rows are
     only produced by Emit, which routes to the coordinator first — so
     they land here, at the coordinator itself. *)
  and receive_rows ~at ~cz w q phase cost = function
    | [] -> cost
    | (row, weight) :: rest ->
      assert (w.id = q.coordinator);
      Vec.push q.rows row;
      receive_rows ~at ~cz w q phase
        (Sim_time.add cost (tracker_receive ~at ~cz w q phase weight))
        rest
  (* ---- Worker scheduling loop ------------------------------------------- *)
  and launch_entries ~at ~cz q =
    let entries = Program.entries q.program in
    let shares = Weight.split seed_prng Weight.root ~n:(Array.length entries) in
    Array.iteri
      (fun i entry ->
        let root =
          Traverser.make ~vertex:0 ~step:entry ~weight:shares.(i)
            ~n_registers:(Program.n_registers q.program)
        in
        match (Program.step q.program entry).Step.op with
        | Step.Scan _ ->
          (* Scans start everywhere: one seed per worker, each scanning
             its own partition. *)
          let seeds = Weight.split seed_prng shares.(i) ~n:n_workers in
          Pstm_obs.Opstats.seed opstats n_workers;
          Array.iteri
            (fun dst seed ->
              ignore
                (send ~at ~src:q.coordinator ~dst ~kind:Metrics.Control_msg
                   (P_trav { qid = q.qid; trav = Traverser.with_weight root seed; cz })))
            seeds
        | _ ->
          Pstm_obs.Opstats.seed opstats 1;
          deliver q.coordinator (P_trav { qid = q.qid; trav = root; cz }))
      entries
  and quantum w =
    (* [awake] stays true while the quantum runs: self-sends and deferred
       events need no extra wakeup, and the tail of this function either
       reschedules (staying awake) or goes to sleep explicitly. *)
    w.awake <- true;
    let quantum_start = max (Cluster.now cluster) w.busy_until in
    let released = fault_release w.id quantum_start in
    if Sim_time.compare released quantum_start > 0 then
      (* Paused node: the whole quantum defers to the window's end.
         [awake] stays true so no duplicate quantum gets scheduled. *)
      Event_queue.schedule_at events ~time:released ~tag:(Cluster.worker_tag cluster w.id)
        (fun () -> quantum w)
    else run_quantum w quantum_start
  and run_quantum w quantum_start =
    (* An idle gap breaks the worker chain: the next execution's wait is
       genuinely its own queue/arrival time, not serial occupancy. *)
    if Sim_time.compare quantum_start w.busy_until > 0 then begin
      w.cz_last <- -1;
      w.cz_last_qid <- -1
    end;
    let local = ref quantum_start in
    (* Dataflow flavors poll every live operator instance each quantum. *)
    if options.flavor <> Graphdance && !active_op_count > 0 then
      local :=
        Sim_time.add !local
          (fault_scale w.id (costs.Cluster.operator_sched * !active_op_count));
    let budget = ref quantum_tasks in
    while !budget > 0 && not (Queue.is_empty w.tasks) do
      decr budget;
      let payload = Queue.pop w.tasks in
      local := Sim_time.add !local (fault_scale w.id (process w ~at:!local payload))
    done;
    (* Coalesced weights ship when the worker idles or once enough have
       merged locally to justify a message (§IV-A: they ride along with
       buffer flushes, not with every death). *)
    if Queue.is_empty w.tasks || Progress.pending_additions w.coalescer >= 256 then begin
      let flush_at = !local in
      let flush_cost = fault_scale w.id (flush_progress ~at:flush_at w) in
      if obs_on && Sim_time.compare flush_cost Sim_time.zero > 0 then
        Pstm_obs.Trace.span trace ~tid:w.id ~name:"flush_progress" ~ts:flush_at ~dur:flush_cost ();
      local := Sim_time.add !local flush_cost
    end;
    if Queue.is_empty w.tasks then begin
      (* Out of work: flush the tier-1 buffers before sleeping (§IV-B). *)
      w.awake <- false;
      let flush_at = !local in
      let flush_cost = fault_scale w.id (Channel.flush_worker (channel ()) ~at:flush_at ~worker:w.id) in
      if obs_on && Sim_time.compare flush_cost Sim_time.zero > 0 then
        Pstm_obs.Trace.span trace ~tid:w.id ~name:"flush_channel" ~ts:flush_at ~dur:flush_cost ();
      local := Sim_time.add !local flush_cost
    end
    else begin
      w.awake <- true;
      Event_queue.schedule_at events ~time:!local ~tag:(Cluster.worker_tag cluster w.id)
        (fun () -> quantum w)
    end;
    let consumed = Sim_time.diff !local quantum_start in
    if obs_on && Sim_time.compare consumed Sim_time.zero > 0 then
      Pstm_obs.Trace.span trace ~cat:"sched" ~tid:w.id ~name:"quantum" ~ts:quantum_start
        ~dur:consumed ();
    Metrics.count_busy metrics consumed;
    w.busy_total <- Sim_time.add w.busy_total consumed;
    w.busy_until <- !local
  in
  channel_ref :=
    Some (Channel.create cluster channel_config ~dummy:(P_cleanup { qid = -1 }) ~deliver);
  (* --- Scoped cancellation ---------------------------------------------
     The per-query generalization of the PR 3 deadline path: instead of
     "the whole run hit its deadline", "this query is done now". The
     query flips inactive (in-flight traversers die on arrival, straggler
     weights drop at flush), incomplete phase trackers time out, and
     every worker's memo entries for the query are reclaimed — so the
     end-of-run sanitizer's memo-emptiness invariant holds through
     mid-flight cancellation. *)
  let terminate ~at qid outcome =
    let q = query qid in
    if q.outcome = None then begin
      q.outcome <- Some outcome;
      q.active <- false;
      if q.launched then begin
        active_op_count := !active_op_count - Program.n_steps q.program;
        n_active := !n_active - 1;
        Array.iteri
          (fun phase tr ->
            if not (Progress.is_complete tr) then tracker_event "timeout" ~qid ~phase)
          q.trackers
      end;
      Array.iter (fun w -> Memo.clear_query w.memo qid) workers;
      (* The scoped reclaim also covers progress bookkeeping: weight
         merged but not yet flushed will never reach a tracker, and the
         (qid, phase) causal entries parked beside it would otherwise
         strand in the worker hashtables for the rest of the run — the
         drain path only reclaims them when a flush happens to visit the
         dead query. *)
      Array.iter
        (fun w ->
          Progress.discard_query w.coalescer ~qid;
          if cz_on then
            for phase = 0 to Program.n_phases q.program - 1 do
              Int_table.remove w.cz_coalesce (Program.phase_key ~qid ~phase)
            done)
        workers;
      if obs_on then
        Pstm_obs.Trace.instant trace ~tid:(Engine.query_track qid)
          ~name:(Engine.outcome_name outcome) ~ts:at ();
      !on_terminal qid outcome
    end
  in
  (* --- Submission ------------------------------------------------------ *)
  let next_qid = ref 0 in
  let submit_sub (s : Engine.submission) =
    let qid = !next_qid in
    incr next_qid;
    let program = s.Engine.program in
    let q =
      {
        qid;
        program;
        coordinator = qid mod n_workers;
        tenant = s.Engine.tenant;
        priority = s.Engine.priority;
        submitted = s.Engine.at;
        outcome = None;
        launched = false;
        trackers =
          Array.init (Program.n_phases program) (fun _ -> Progress.tracker ~target:Weight.root);
        touched = Bitset.create n_workers;
        combine_step = -1;
        combine_expected = 0;
        combine_received = 0;
        combine_acc = None;
        rows = Vec.create ~dummy:[||];
        active = true;
        setup_acks = 0;
      }
    in
    Vec.push queries (Some q);
    (* A submission whose arrival is already in the past (a service
       dispatching a queued query) launches immediately; latency still
       measures from [s.at], so queue wait counts against the SLO. *)
    let launch_at = max (Event_queue.now events) s.Engine.at in
    Event_queue.schedule_at events ~time:launch_at (fun () ->
        if q.outcome <> None then () (* cancelled before it ever launched *)
        else begin
          q.launched <- true;
          if obs_on then
            Pstm_obs.Trace.instant trace ~tid:(Engine.query_track qid) ~name:"submit"
              ~ts:launch_at
              ~args:
                [
                  ("query", Pstm_obs.Trace.S (Program.name program));
                  ("coordinator", Pstm_obs.Trace.I q.coordinator);
                ]
              ();
          active_op_count := !active_op_count + Program.n_steps program;
          n_active := !n_active + 1;
          for phase = 0 to Program.n_phases program - 1 do
            tracker_event "register" ~qid ~phase
          done;
          let cz_sub = Causal.node causal ~qid ~name:"submit" ~ts:launch_at in
          Causal.set_submit causal ~qid cz_sub;
          match options.flavor with
          | Graphdance ->
            (* PSTM programs need no deployment: traversers carry their
               step index and workers interpret the shared plan. *)
            launch_entries ~at:launch_at ~cz:cz_sub q
          | Banyan_like | Gaia_like ->
            (* Dataflow engines deploy the operator graph to every worker
               and wait for acknowledgements before execution begins —
               the per-worker instantiation the paper blames for their
               limited scaling. *)
            q.setup_acks <- n_workers;
            for dst = 0 to n_workers - 1 do
              deliver dst (P_setup { qid; cz = cz_sub })
            done
        end);
    (match s.Engine.deadline with
    | None -> ()
    | Some d ->
      (* The query's own latency budget: past [at + d] it is cut off as
         Timed_out — the scoped form of the run-level deadline. *)
      let t = max launch_at (Sim_time.add s.Engine.at d) in
      Event_queue.schedule_at events ~time:t (fun () -> terminate ~at:t qid Engine.Timed_out));
    qid
  in
  (* --- Drive / finish --------------------------------------------------- *)
  let drive ~until =
    match (until, deadline) with
    | None, None -> Event_queue.run_to_completion events
    | None, Some t | Some t, None -> Event_queue.run_until events ~time:t
    | Some t, Some d -> Event_queue.run_until events ~time:(min t d)
  in
  let finish () =
    let n_queries = !next_qid in
    (* Graceful degradation: when delivery was cut short — a deadline
       truncated the run, or the reliable channel abandoned a packet after
       max retries — some queries end unfinished and some in-flight
       P_cleanup broadcasts never land. Those queries take the same
       terminal transition as a per-query timeout, and every query's memo
       entries are swept, so nothing wedges the tracker or leaks into the
       next run. The loop walks qids in order (not the hashtable) to stay
       deterministic. *)
    let abandoned = Metrics.abandoned metrics > 0 in
    if deadline <> None || abandoned then
      for qid = 0 to n_queries - 1 do
        terminate ~at:(Cluster.now cluster) qid Engine.Timed_out;
        Array.iter (fun w -> Memo.clear_query w.memo qid) workers
      done;
    (* Sanitizer post-conditions. Termination of every query only holds
       when delivery ran to completion (no deadline, nothing abandoned) —
       the reliable channel makes it hold even under drop/dup/delay
       faults; queries cancelled or timed out per-query are terminal by
       construction. Coalescer and memo emptiness hold always, thanks to
       the scoped reclaim at each terminal transition. *)
    if check then begin
      if deadline = None && not abandoned then begin
        for qid = 0 to n_queries - 1 do
          let q = query qid in
          if q.outcome = None then
            Engine.check_fail "async: query %d never terminated (weight lost or tracker wedged)"
              qid
        done;
        (* Every protocol-monitor instance must have reached a terminal
           state: packets acked, trackers released. *)
        List.iter
          (fun mon ->
            match mon with
            | None -> ()
            | Some mon -> begin
              match Protocol.finish mon with
              | None -> ()
              | Some why -> Engine.check_fail "async: %s" why
            end)
          [ mon_channel; mon_tracker ]
      end;
      (* No weight may be left unflushed and no causal bookkeeping may
         outlive its query: parked state here means some (qid, phase)
         escaped both the flush path and the scoped reclaim at its
         terminal transition. *)
      Array.iter
        (fun w ->
          if not (Progress.is_empty w.coalescer) then
            Engine.check_fail "async: worker %d holds unflushed coalesced weight at finish" w.id;
          let n = Int_table.length w.cz_coalesce in
          if n > 0 then
            Engine.check_fail "async: worker %d strands %d coalescer causal entries" w.id n)
        workers;
      Array.iter
        (fun w ->
          let n = Memo.live_entries w.memo in
          if n > 0 then
            Engine.check_fail
              "async: worker %d holds %d memo entries after all queries completed" w.id n)
        workers
    end;
    (* Surface ring truncation: a trace that silently dropped events would
       otherwise read as a complete record. *)
    if obs_on then Metrics.set_trace_dropped metrics (Pstm_obs.Trace.dropped trace);
    let reports =
      Array.init n_queries (fun qid ->
          let q = query qid in
          {
            Engine.qid;
            name = Program.name q.program;
            tenant = q.tenant;
            priority = q.priority;
            submitted = q.submitted;
            outcome = (match q.outcome with Some o -> o | None -> Engine.Timed_out);
            rows = Vec.to_list q.rows;
          })
    in
    {
      Engine.engine = flavor_name options.flavor;
      queries = reports;
      makespan = Cluster.now cluster;
      metrics;
      events = Event_queue.executed events;
      worker_busy = Array.map (fun w -> w.busy_total) workers;
    }
  in
  {
    Engine.sh_name = flavor_name options.flavor;
    sh_submit = submit_sub;
    sh_cancel =
      (fun ~qid ~at ->
        let t = max at (Event_queue.now events) in
        Event_queue.schedule_at events ~time:t (fun () -> terminate ~at:t qid Engine.Cancelled));
    sh_at =
      (fun t f -> Event_queue.schedule_at events ~time:(max t (Event_queue.now events)) f);
    sh_now = (fun () -> Event_queue.now events);
    sh_on_terminal = (fun f -> on_terminal := f);
    sh_drive = drive;
    sh_finish = finish;
  }

let run ?options ?common ~cluster_config ~channel_config ~graph
    (submissions : Engine.submission array) =
  Engine.run_via_start
    (fun ?common ~graph () -> create ?options ?common ~cluster_config ~channel_config ~graph ())
    ?common ~graph submissions
