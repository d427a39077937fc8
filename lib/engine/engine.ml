(* Common engine-facing types: query submissions and run reports.

   Every engine (asynchronous PSTM, BSP, dataflow flavors, single-node)
   consumes the same submissions and produces the same report shape, so
   the benchmark harness swaps engines freely. *)

(* Sanitizer mode: engines run with [~check:true] assert the verifier's
   dynamic counterparts (weight conservation per exec, tracker sanity,
   memo hygiene at termination) and raise on the first violation. *)
exception Check_violation of string

let check_fail fmt = Fmt.kstr (fun s -> raise (Check_violation s)) fmt

(* A submission carries per-query identity on top of the program: which
   tenant issued it, how urgent it is, and how long it is allowed to
   run. The smart constructor defaults every new field, so pre-service
   call sites stay one-line [Engine.submit program] calls. *)
type submission = {
  program : Program.t;
  at : Sim_time.t; (* arrival time of the query *)
  tenant : int; (* issuing tenant (service-layer identity; 0 = default) *)
  priority : int; (* scheduling urgency, higher first (service layer) *)
  deadline : Sim_time.t option;
      (* per-query latency budget, relative to [at]: the engine cancels
         the query with [Timed_out] once simulated time passes
         [at + deadline]. [None] = no per-query limit (the run-level
         [Common.deadline] may still cut the whole run short). *)
}

let submit ?(at = Sim_time.zero) ?(tenant = 0) ?(priority = 0) ?deadline program =
  { program; at; tenant; priority; deadline }

(* --- Common run options ------------------------------------------------

   Every engine takes the same cross-cutting knobs — tracing, sanitizer
   mode, simulated-time deadline, placement seed and (optionally) a fault
   schedule — so they live in one record passed as [?common] instead of
   a copy-pasted [?obs ?check ?deadline] triple per engine. *)

module Common = struct
  type t = {
    obs : Pstm_obs.Recorder.t; (* trace/opstats/causal sink *)
    check : bool; (* dynamic sanitizer (Check_violation on failure) *)
    deadline : Sim_time.t option; (* stop the run at this simulated time *)
    seed : int; (* placement / tie-break randomness *)
    faults : Faults.spec option; (* deterministic fault schedule *)
    chooser : Event_queue.chooser option;
        (* same-timestamp tie chooser installed on the engine's event
           queue; the schedule explorer's entry point *)
    mutation : Mutation.t option;
        (* seeded protocol mutant, for checker validation only *)
  }

  let default =
    {
      obs = Pstm_obs.Recorder.disabled;
      check = false;
      deadline = None;
      seed = 0x5157;
      faults = None;
      chooser = None;
      mutation = None;
    }

  let with_obs obs t = { t with obs }
  let with_check check t = { t with check }
  let with_deadline deadline t = { t with deadline }
end

(* How a query's life ended. This replaces the old
   [completed : Sim_time.t option] — a service distinguishes a query
   that ran out of time from one its client abandoned from one the
   admission controller refused, and the old encoding collapsed all
   three into [None]. *)
type outcome =
  | Completed of Sim_time.t (* finished; the time is the release instant *)
  | Timed_out (* run deadline or the query's own [deadline] hit mid-run *)
  | Cancelled (* scoped cancellation: client abandoned / service shut down *)
  | Shed (* refused at admission; never consumed an engine event *)

let outcome_name = function
  | Completed _ -> "completed"
  | Timed_out -> "timed_out"
  | Cancelled -> "cancelled"
  | Shed -> "shed"

type query_report = {
  qid : int;
  name : string;
  tenant : int;
  priority : int;
  submitted : Sim_time.t;
  outcome : outcome;
  rows : Value.t array list;
}

let completed_at q = match q.outcome with Completed c -> Some c | _ -> None
let is_completed q = match q.outcome with Completed _ -> true | _ -> false
let latency q = Option.map (fun c -> Sim_time.diff c q.submitted) (completed_at q)

let latency_ms q =
  match latency q with
  | Some l -> Sim_time.to_ms l
  | None -> Float.infinity

type report = {
  engine : string;
  queries : query_report array;
  makespan : Sim_time.t; (* last completion (or deadline) *)
  metrics : Metrics.t;
  events : int; (* simulator events executed *)
  worker_busy : Sim_time.t array; (* per-worker CPU time, for straggler analysis *)
}

let all_completed r = Array.for_all is_completed r.queries
let n_completed r = Array.fold_left (fun n q -> if is_completed q then n + 1 else n) 0 r.queries

(* Queries that never produced a result (timed out / cancelled / shed).
   Latency aggregates below skip these and report them separately —
   averaging [Float.infinity] into a mean silently poisons it. *)
let n_unfinished r = Array.length r.queries - n_completed r

let completed_latencies_ms r =
  let ls = Vec.create ~dummy:0.0 in
  Array.iter
    (fun q -> match latency q with Some l -> Vec.push ls (Sim_time.to_ms l) | None -> ())
    r.queries;
  Vec.to_array ls

let mean_latency_ms r = Stats.mean (completed_latencies_ms r)
let p50_latency_ms r = Stats.percentile (completed_latencies_ms r) 50.0
let p99_latency_ms r = Stats.percentile (completed_latencies_ms r) 99.0

(* Completed queries per simulated second. *)
let throughput_qps r =
  let completed = n_completed r in
  let span = Sim_time.to_s r.makespan in
  if span <= 0.0 then 0.0 else float_of_int completed /. span

(* Canonical row order, for comparing engines in tests. *)
let sorted_rows rows =
  List.sort (fun a b -> Value.compare (Value.List (Array.to_list a)) (Value.List (Array.to_list b))) rows

let pp_query ppf q =
  Fmt.pf ppf "%s: %s, %d rows" q.name
    (match q.outcome with
    | Completed _ -> Fmt.str "%a" Sim_time.pp (Option.get (latency q))
    | Timed_out -> "TIMEOUT"
    | Cancelled -> "CANCELLED"
    | Shed -> "SHED")
    (List.length q.rows)

(* --- Engine interface --------------------------------------------------

   The uniform surface every engine implements; {!Registry} wraps the
   concrete engines as first-class modules against this signature so the
   CLI and benchmarks dispatch by name instead of hand-written matches. *)

(* An open engine session, for callers that need feedback while the
   simulation runs — the query service layer (lib/service) schedules,
   sheds and cancels against this surface instead of the closed
   [run]-over-an-array call. All times are the engine's simulated time.

   Contract: [submit] may be called before or during [drive]; a
   submission whose [at] is already in the past launches immediately
   (latency still measures from [at], so queue wait counts). [cancel]
   schedules a scoped cancellation: if the query is still live at that
   instant the engine reclaims its trackers, memos and in-flight
   traversers and reports [Cancelled]. [at_time] schedules an arbitrary
   caller event in engine time (engines with coarse clocks — BSP — may
   fire it at the next barrier). [on_terminal] registers the completion
   callback: invoked once per query, with its final outcome, the moment
   it leaves the engine. [drive ~until:None] runs to the run-level
   deadline (if any) else to completion; [finish] runs the end-of-run
   reclaim + sanitizer and builds the report (call it exactly once). *)
type service_handle = {
  sh_name : string;
  sh_submit : submission -> int; (* returns the engine qid *)
  sh_cancel : qid:int -> at:Sim_time.t -> unit;
  sh_at : Sim_time.t -> (unit -> unit) -> unit;
  sh_now : unit -> Sim_time.t;
  sh_on_terminal : (int -> outcome -> unit) -> unit;
  sh_drive : until:Sim_time.t option -> unit;
  sh_finish : unit -> report;
}

module type S = sig
  val name : string
  val run : ?common:Common.t -> graph:Graph.t -> submission array -> report

  (** Open a service session on this engine (see {!service_handle}). *)
  val start : ?common:Common.t -> graph:Graph.t -> unit -> service_handle
end

(* [run] expressed over the service surface; engines whose [start] is
   primary use this to keep the two entry points semantically aligned. *)
let run_via_start start ?common ~graph (submissions : submission array) =
  let h = start ?common ~graph () in
  Array.iter (fun s -> ignore (h.sh_submit s)) submissions;
  h.sh_drive ~until:None;
  h.sh_finish ()

(* --- Observability ---------------------------------------------------- *)

(* Trace track (Chrome "tid") conventions shared by all engines: workers
   use their worker id; per-query events and NIC activity get synthetic
   tracks well above any plausible worker count. *)
let query_track qid = 1_000_000 + qid
let nic_track node = 900_000 + node
let superstep_track = 800_000

let report_json (r : report) =
  let module J = Pstm_obs.Json in
  let hist = Histogram.create () in
  Array.iter
    (fun q ->
      let l = latency_ms q in
      if Float.is_finite l then Histogram.add hist l)
    r.queries;
  let busy_ns = Array.map Sim_time.to_ns r.worker_busy in
  let busy_mean = Stats.mean (Array.map float_of_int busy_ns) in
  let busy_max = Array.fold_left max 0 busy_ns in
  let straggler = if busy_mean <= 0.0 then 1.0 else float_of_int busy_max /. busy_mean in
  let query_json q =
    J.Obj
      [
        ("qid", J.Int q.qid);
        ("name", J.Str q.name);
        ("tenant", J.Int q.tenant);
        ("priority", J.Int q.priority);
        ("submitted_ns", J.Int (Sim_time.to_ns q.submitted));
        ("outcome", J.Str (outcome_name q.outcome));
        ( "completed_ns",
          match completed_at q with None -> J.Null | Some c -> J.Int (Sim_time.to_ns c) );
        ( "latency_ms",
          let l = latency_ms q in
          if Float.is_finite l then J.Float l else J.Null );
        ("rows", J.Int (List.length q.rows));
      ]
  in
  let count_outcome pred =
    Array.fold_left (fun n q -> if pred q.outcome then n + 1 else n) 0 r.queries
  in
  J.Obj
    [
      ("engine", J.Str r.engine);
      ("makespan_ns", J.Int (Sim_time.to_ns r.makespan));
      ("events", J.Int r.events);
      ("completed", J.Int (n_completed r));
      ("unfinished", J.Int (n_unfinished r));
      ("timed_out", J.Int (count_outcome (fun o -> o = Timed_out)));
      ("cancelled", J.Int (count_outcome (fun o -> o = Cancelled)));
      ("shed", J.Int (count_outcome (fun o -> o = Shed)));
      ("queries", J.List (Array.to_list (Array.map query_json r.queries)));
      ("latency_ms", Pstm_obs.Export.histogram_json hist);
      ("throughput_qps", J.Float (throughput_qps r));
      ("metrics", Pstm_obs.Export.metrics_json r.metrics);
      ("worker_busy_ns", J.List (Array.to_list (Array.map (fun b -> J.Int b) busy_ns)));
      ("straggler_ratio", J.Float straggler);
    ]
