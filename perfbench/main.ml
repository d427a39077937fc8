(* Benchmark entry point: one workload, one seed, one process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0): set up repeatedly (median is [setup_s]), run
   one warm-up round, then repeat the workload's round for S seconds (at
   least two rounds), check every round against the first for
   determinism and the first round's completed queries against the
   [local] oracle, and print the end-to-end metrics.

   Traced (--trace 1): two untraced rounds as the base, one round with
   the outside-in host timers on, a slice of the workload with causal
   tracing on and off, then the layer kernel suite; prints the
   per-layer metrics.

   A human-readable table (metric, value, unit, clock) goes to stderr;
   the last line of stdout is the JSON result. *)

open Pstm_engine
module Causal = Pstm_obs.Causal

open Metric

let m = Metric.make
let fi = float_of_int

(* The highest percentile with at least ten samples beyond it, capped at
   p99 (reached from 1,000 samples on), at one-decimal resolution. *)
let tail_percentile n =
  if n <= 10 then 0.0 else Float.min 99.0 (Float.of_int (1000 * (n - 10) / n) /. 10.0)

(* --- Measured rounds ------------------------------------------------------ *)

type timed = {
  round : Workload.round;
  probe : Probe.t;
  cpu_s : float;
  alloc_words : float; (* minor + major - promoted *)
  minor_words : float;
  top_heap_words : int; (* process high-water mark after this round *)
  minor_gcs : int;
  major_gcs : int;
  promoted_words : float;
}

let timed_round env ~timing ~common =
  let probe = Probe.create ~timing in
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  let round = Workload.round env ~probe ~common in
  let cpu_s = Sys.time () -. t0 in
  let w1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  let promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words in
  {
    round;
    probe;
    cpu_s;
    alloc_words = w1 -. w0 +. (s1.Gc.major_words -. s0.Gc.major_words) -. promoted;
    minor_words = w1 -. w0;
    top_heap_words = s1.Gc.top_heap_words;
    minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
    promoted_words = promoted;
  }

(* Everything a round must repeat exactly: simulated outcomes, engine
   counters and minor-heap allocation. Words allocated directly in the
   major heap are left out: OCaml 5.1's [major_words - promoted_words]
   drifts by a few thousand words between identical rounds. *)
let fingerprint t =
  let r = t.round in
  Fmt.str "events=%d|minor_words=%.0f|%a|%a" r.Workload.report.Engine.events t.minor_words Metrics.pp
    r.Workload.report.Engine.metrics
    (Fmt.array ~sep:Fmt.semi (fun ppf (o : Workload.op) ->
         match o.Workload.latency_ms with
         | None -> Fmt.string ppf "-"
         | Some l -> Fmt.pf ppf "%.6f" l))
    r.Workload.ops

(* --- End-to-end metrics ----------------------------------------------------- *)

type outcome_counts = {
  ops : int;
  completed : int;
  slo_failed : int; (* not completed on time, or wrong rows *)
  latencies : float array;
}

let outcome_counts (r : Workload.round) ~mismatches =
  let ops = Array.length r.Workload.ops in
  let latencies =
    Array.of_list (List.filter_map (fun o -> o.Workload.latency_ms) (Array.to_list r.Workload.ops))
  in
  let on_time =
    Array.fold_left (fun n o -> if o.Workload.on_time then n + 1 else n) 0 r.Workload.ops
  in
  { ops; completed = Array.length latencies; slo_failed = min ops (ops - on_time + mismatches); latencies }

let end_to_end ~setup_s ~(rounds : timed list) ~counts ~tail_pct =
  let first = List.hd rounds in
  let r = first.round in
  let cpu = median (List.map (fun t -> t.cpu_s) rounds) in
  let span = r.Workload.span_s in
  [
    m "setup_s" "s" Host setup_s;
    m "host_cpu_s" "s" Host cpu;
    m "events_per_host_s" "1/s" Host (fi r.Workload.report.Engine.events /. cpu);
    m "host_alloc_mwords" "Mwords" Host (first.alloc_words /. 1e6);
    (* Read after the second measured round (every run has two), so the
       number of rounds the time budget allowed does not move it. *)
    m "peak_heap_mb" "MB" Host
      (fi ((List.nth rounds 1).top_heap_words * (Sys.word_size / 8)) /. 1e6);
    m "sim_p50_ms" "ms" Sim (Stats.percentile counts.latencies 50.0);
    m "sim_tail_ms" "ms" Sim (Stats.percentile counts.latencies tail_pct);
    m "sim_qps" "1/s" Sim (fi counts.completed /. span);
    m "sim_goodput_qps" "1/s" Sim (fi (counts.ops - counts.slo_failed) /. span);
    m "ok_share" "share" Count (fi (counts.ops - counts.slo_failed) /. fi counts.ops);
  ]

(* --- Per-layer metrics ------------------------------------------------------- *)

let causal_capacity = 1 lsl 26

(* Memo probes (hits + misses) per operator, summed. The async engine
   does not count memo operations in its run metrics, so they come from
   the recorder's operator statistics of the traced slice. *)
let memo_probes opstats =
  let module J = Pstm_obs.Json in
  let field k = function J.Obj kv -> List.assoc_opt k kv | _ -> None in
  let int = function Some (J.Int n) -> n | _ -> 0 in
  match field "steps" (Pstm_obs.Opstats.to_json opstats) with
  | Some (J.List steps) ->
    List.fold_left (fun n st -> n + int (field "memo_hits" st) + int (field "memo_misses" st)) 0 steps
  | _ -> 0

(* Sum causal attribution over every released query and check the exact
   partition: category sums equal the summed launch-to-release
   latencies. *)
let causal_layers ~causal ~(probe : Probe.t) ~(report : Engine.report) =
  let sums = Hashtbl.create 8 in
  let sum c = Option.value ~default:0 (Hashtbl.find_opt sums c) in
  let latency_ns = ref 0 in
  let attributed = ref 0 in
  let unattributed = ref 0 in
  Array.iter
    (fun q ->
      match (Engine.completed_at q, Hashtbl.find_opt probe.Probe.submitted q.Engine.qid) with
      | Some done_at, Some s -> begin
        match Causal.attribution causal ~qid:q.Engine.qid with
        | None -> incr unattributed
        | Some attr ->
          incr attributed;
          List.iter (fun (c, t) -> Hashtbl.replace sums c (sum c + Sim_time.to_ns t)) attr;
          latency_ns :=
            !latency_ns + Sim_time.to_ns (Sim_time.diff done_at (Probe.launch_at s))
      end
      | _ -> ())
    report.Engine.queries;
  let total = List.fold_left (fun n c -> n + sum c) 0 Causal.categories in
  let cat c = fi (sum c) /. 1e6 in
  let exact = total = !latency_ns && !unattributed = 0 in
  ( exact,
    [
      m "engine.compute_ms" "ms" Sim (cat Causal.Compute);
      m "engine.queue_ms" "ms" Sim (cat Causal.Queue);
      m "engine.barrier_ms" "ms" Sim (cat Causal.Barrier);
      m "channel.network_ms" "ms" Sim (cat Causal.Network);
      m "progress.tracker_ms" "ms" Sim (cat Causal.Tracker);
      m "trace.attributed_queries" "count" Count (fi !attributed);
      m "trace.unattributed_queries" "count" Count (fi !unattributed);
      m "trace.partition_exact" "bool" Count (if exact then 1.0 else 0.0);
      m "trace.causal_nodes" "count" Count (fi (Causal.n_nodes causal));
      m "trace.causal_dropped" "count" Count (fi (Causal.dropped causal));
    ] )

let engine_layers (t : timed) =
  let report = t.round.Workload.report in
  let mt = report.Engine.metrics in
  let busy = Array.map Sim_time.to_ns report.Engine.worker_busy in
  let busy_sum = Array.fold_left ( + ) 0 busy in
  let busy_max = Array.fold_left max 0 busy in
  let busy_mean = fi busy_sum /. fi (max 1 (Array.length busy)) in
  let msgs k = fi (Metrics.messages mt k) in
  [
    m "engine.steps" "count" Count (fi (Metrics.steps mt));
    m "engine.edges_scanned" "count" Count (fi (Metrics.edges_scanned mt));
    m "engine.spawned" "count" Count (fi (Metrics.spawned mt));
    m "engine.worker_busy_s" "s" Sim (fi busy_sum /. 1e9);
    m "engine.straggler_ratio" "ratio" Sim
      (if busy_mean <= 0.0 then 1.0 else fi busy_max /. busy_mean);
    m "sim.events" "count" Count (fi report.Engine.events);
    m "channel.msgs.traverser" "count" Count (msgs Metrics.Traverser_msg);
    m "channel.msgs.progress" "count" Count (msgs Metrics.Progress_msg);
    m "channel.msgs.control" "count" Count (msgs Metrics.Control_msg);
    m "channel.local_msgs" "count" Count (fi (Metrics.local_messages mt));
    m "channel.packets" "count" Count (fi (Metrics.packets mt));
    m "channel.packet_bytes" "bytes" Count (fi (Metrics.packet_bytes mt));
    m "channel.flushes" "count" Count (fi (Metrics.flushes mt));
    m "progress.tracker_updates" "count" Count (fi (Metrics.tracker_updates mt));
    m "gc.minor_collections" "count" Host (fi t.minor_gcs);
    m "gc.major_collections" "count" Host (fi t.major_gcs);
    m "gc.promoted_mwords" "Mwords" Host (t.promoted_words /. 1e6);
  ]

let service_layers (t : timed) ~slo_ms =
  let waits =
    Array.of_list
      (Hashtbl.fold (fun _ s acc -> Probe.admission_wait_ms s :: acc) t.probe.Probe.submitted [])
  in
  let count f = match t.round.Workload.service with Some r -> fi (f r) | None -> 0.0 in
  let late =
    match t.round.Workload.service with
    | None -> 0.0
    | Some r ->
      fi
        (Array.fold_left
           (fun n q ->
             match q.Pstm_service.Service.q_latency_ms with
             | Some l when l > slo_ms -> n + 1
             | _ -> n)
           0 r.Pstm_service.Service.r_queries)
  in
  [
    m "service.admission_wait_p50_ms" "ms" Sim (Stats.percentile waits 50.0);
    m "service.admission_wait_p99_ms" "ms" Sim (Stats.percentile waits 99.0);
    m "service.shed" "count" Count (count Pstm_service.Service.shed);
    m "service.cancelled" "count" Count (count Pstm_service.Service.cancelled);
    m "service.timed_out" "count" Count (count Pstm_service.Service.timed_out);
    m "service.late" "count" Count late;
  ]

(* Host split of the timer round, measured from outside the library. *)
let host_layers (t : timed) =
  let p = t.probe in
  [
    m "engine.host_s" "s" Host (Probe.engine_host_s p);
    m "service.host_s" "s" Host (Probe.service_host_s p);
    m "query.compile_host_s" "s" Host p.Probe.compile_s;
    m "query.compile_us_p50" "us" Host (Stats.percentile (Vec.to_array p.Probe.compile_us) 50.0);
    m "query.compiles" "count" Count (fi p.Probe.compiles);
  ]

(* --- Output ------------------------------------------------------------------ *)

let print_table ~title (metrics : Metric.t list) =
  Printf.eprintf "== %s ==\n" title;
  List.iter
    (fun x -> Printf.eprintf "  %-34s %18.6f  %-8s %s\n" x.name x.value x.unit_ (clock_name x.clock))
    metrics;
  flush stderr

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

(* --- Main -------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (khop-closed|khop-wide|ldbc-serve) --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let spec =
    match List.find_opt (fun (s : Workload.spec) -> s.Workload.name = !workload) Workload.all with
    | Some s -> s
    | None -> usage ()
  in
  let slo_ms =
    match spec.Workload.kind with
    | Workload.Serve { slo; _ } -> Sim_time.to_ms slo
    | Workload.Closed _ -> Float.infinity
  in
  (* Set-up: independent runs, at least five and at least 3 s of them
     (SNB-S sets up in well under 0.1 s), median. *)
  let wall0 = Unix.gettimeofday () in
  let rec set_up times =
    Gc.full_major ();
    let t0 = Sys.time () in
    let e = Workload.setup spec ~seed:!seed in
    let times = (Sys.time () -. t0) :: times in
    if List.length times >= 5 && List.fold_left ( +. ) 0.0 times >= 3.0 then (times, e)
    else set_up times
  in
  let setup_times, env = set_up [] in
  let setup_s = median setup_times in
  let env = Workload.warm_up (Workload.prepare env) in
  let common = Engine.Common.default in
  (* Measured phase: untraced rounds until the time budget is spent. *)
  let wall1 = Unix.gettimeofday () in
  let budget = if !trace = 0 then !seconds else 0.0 in
  (* Stop before a round that would overrun the budget. *)
  let rec loop acc =
    let acc = timed_round env ~timing:false ~common :: acc in
    let n = float_of_int (List.length acc) and spent = Unix.gettimeofday () -. wall1 in
    if n >= 2.0 && spent +. (spent /. n) > budget then List.rev acc else loop acc
  in
  let rounds = loop [] in
  let wall2 = Unix.gettimeofday () in
  let first = List.hd rounds in
  let fp = fingerprint first in
  let deterministic = List.for_all (fun t -> fingerprint t = fp) rounds in
  if not deterministic then
    prerr_endline
      "benchmark defect: repeated rounds of one seed disagree on simulated results, counts or \
       allocation";
  (* Oracle check, outside the timed phase. *)
  let mismatches = Workload.oracle_mismatches env first.probe first.round.Workload.report in
  if mismatches > 0 then
    Printf.eprintf "oracle: %d completed queries returned wrong rows\n%!" mismatches;
  let counts = outcome_counts first.round ~mismatches in
  let tail_pct = tail_percentile counts.completed in
  Printf.eprintf
    "%s seed=%d: %d rounds; ops=%d completed=%d failed=%d (failed_share %.4f) oracle_mismatches=%d; \
     tail is p%.1f of %d samples; wall: setup+warm-up %.1fs, rounds %.1fs, oracle %.1fs\n"
    spec.Workload.name !seed (List.length rounds) counts.ops counts.completed counts.slo_failed
    (fi counts.slo_failed /. fi counts.ops)
    mismatches tail_pct counts.completed (wall1 -. wall0) (wall2 -. wall1)
    (Unix.gettimeofday () -. wall2);
  let secs xs = String.concat " " (List.map (Printf.sprintf "%.3f") xs) in
  Printf.eprintf "set-up host s: %s\nround host_cpu_s: %s\n%!" (secs (List.rev setup_times))
    (secs (List.map (fun t -> t.cpu_s) rounds));
  if !trace = 0 then begin
    let metrics = end_to_end ~setup_s ~rounds ~counts ~tail_pct in
    print_table ~title:(spec.Workload.name ^ ": end to end") metrics;
    print_result ~correct:(deterministic && mismatches = 0) ~attempted:counts.ops ~failed:mismatches metrics
  end
  else begin
    let base_cpu = median (List.map (fun t -> t.cpu_s) rounds) in
    let timer = timed_round env ~timing:true ~common in
    let timer_same = fingerprint { timer with minor_words = first.minor_words } = fp in
    if not timer_same then
      prerr_endline "benchmark defect: the host-timer round changed the simulated outcome";
    let slice = Workload.trace_slice env in
    let untraced = timed_round slice ~timing:false ~common in
    let obs = Pstm_obs.Recorder.create ~causal:true ~causal_capacity () in
    let traced = timed_round slice ~timing:false ~common:(Engine.Common.with_obs obs common) in
    let causal = Pstm_obs.Recorder.causal obs in
    let exact, causal_metrics =
      causal_layers ~causal ~probe:traced.probe ~report:traced.round.Workload.report
    in
    if not exact then prerr_endline "benchmark defect: critical-path categories do not partition the latencies";
    let metrics =
      host_layers timer
      @ service_layers first ~slo_ms
      @ engine_layers first
      @ causal_metrics
      @ [
          m "memo.ops" "count" Count (fi (memo_probes (Pstm_obs.Recorder.opstats obs)));
          m "trace.overhead_ratio" "ratio" Host (traced.cpu_s /. untraced.cpu_s);
          m "trace.slice_ops" "count" Count (fi (Array.length traced.round.Workload.ops));
          m "trace.timer_overhead_ratio" "ratio" Host (timer.cpu_s /. base_cpu);
          m "tail.percentile" "pct" Count tail_pct;
          m "tail.samples" "count" Count (fi counts.completed);
          m "ops.offered" "count" Count (fi counts.ops);
          m "ops.failed" "count" Count (fi counts.slo_failed);
        ]
      @ Kernels.run env ~report:first.round.Workload.report ~ops:counts.ops
    in
    print_table ~title:(spec.Workload.name ^ ": per layer") metrics;
    print_result
      ~correct:(deterministic && timer_same && exact && mismatches = 0)
      ~attempted:counts.ops ~failed:mismatches metrics
  end
