(* Service-layer suite: open-loop arrivals, weighted-fair scheduling,
   admission control, and scoped cancellation.

   - same-seed arrival generation and whole-service runs replay
     byte-identically;
   - two continuously backlogged tenants split completions by their
     weighted-fair shares;
   - cancelling a query mid-flight leaves the sanitizer clean (trackers
     released, memos empty) and reports [Cancelled];
   - shed queries never consume engine events;
   - past saturation, admission control sheds while every admitted query
     stays within the SLO headroom — where the admission-off baseline's
     tail grows without bound. *)

open Pstm_engine
open Pstm_service
open Pstm_query

let small_cluster = { Cluster.default_config with Cluster.n_nodes = 3; workers_per_node = 3 }
let registry = Registry.make ~cluster_config:small_cluster ()
let graphdance () = Registry.find_exn ~registry "graphdance"
let fixture_graph () = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny

let khop graph hops =
  Compile.compile ~name:(Printf.sprintf "khop%d" hops) graph
    Dsl.(
      v_lookup ~key:"id" (int 1) |> repeat ~dir:Graph.Out ~times:hops () |> count |> build)

let checked = { Engine.Common.default with Engine.Common.check = true }

(* --- Arrival determinism ------------------------------------------------ *)

let test_arrival_determinism () =
  let take process seed =
    Arrival.take (Arrival.create ~seed process) ~horizon:(Sim_time.ms 100)
  in
  List.iter
    (fun (name, process) ->
      let a = take process 7 and b = take process 7 in
      Alcotest.(check (array int)) (name ^ ": same seed, same arrivals") a b;
      let c = take process 8 in
      if a = c then Alcotest.failf "%s: different seeds produced identical streams" name;
      Array.iteri
        (fun i at ->
          if i > 0 && Sim_time.compare at a.(i - 1) < 0 then
            Alcotest.failf "%s: arrivals not monotone at %d" name i)
        a;
      if Array.length a < 10 then Alcotest.failf "%s: expected a busy stream" name)
    [
      ("poisson", Arrival.Poisson { rate_qps = 1000.0 });
      ( "bursty",
        Arrival.Bursty
          { base_qps = 300.0; burst_qps = 3000.0; mean_dwell = Sim_time.ms 5 } );
    ]

(* --- Whole-run determinism ---------------------------------------------- *)

let service_config ?(admission = true) ?(seed = 11) ?patience ?(max_inflight = 2) ~rate () =
  Service.config ~max_inflight ~slo:(Sim_time.ms 1) ~admission ~seed
    ~horizon:(Sim_time.ms 2)
    [| Service.tenant ?patience (Arrival.Poisson { rate_qps = rate }) |]

let run_service ?(common = checked) config =
  let graph = fixture_graph () in
  Service.run (graphdance ()) ~common ~graph ~config
    ~program:(fun ~tenant:_ ~seq:_ -> khop graph 2)
    ()

let test_same_seed_identical () =
  let cfg = service_config ~rate:3000.0 ~patience:(Sim_time.ms 1) () in
  let a = Service.fingerprint (run_service cfg) in
  let b = Service.fingerprint (run_service cfg) in
  Alcotest.(check string) "same seed, same service run" a b

(* --- Weighted-fair share ------------------------------------------------ *)

let test_weighted_fair_share () =
  let graph = fixture_graph () in
  (* Both tenants continuously backlogged (offered load far beyond
     capacity), both impatient: completions then track dispatch rate,
     which WFQ sets by weight — 3x for the heavy tenant. *)
  let mk weight =
    Service.tenant ~weight ~patience:(Sim_time.ms 1)
      (Arrival.Poisson { rate_qps = 20_000.0 })
  in
  let config =
    Service.config ~max_inflight:1 ~slo:(Sim_time.ms 1) ~admission:false ~seed:5
      ~horizon:(Sim_time.ms 4)
      [| mk 1.0; mk 3.0 |]
  in
  let r =
    Service.run (graphdance ()) ~common:checked ~graph ~config
      ~program:(fun ~tenant:_ ~seq:_ -> khop graph 2)
      ()
  in
  let c0 = r.Service.r_per_tenant.(0).Service.ts_completed in
  let c1 = r.Service.r_per_tenant.(1).Service.ts_completed in
  if c0 = 0 then Alcotest.fail "light tenant starved outright";
  let ratio = float_of_int c1 /. float_of_int c0 in
  if ratio < 2.0 || ratio > 4.5 then
    Alcotest.failf "weighted share off: heavy/light = %d/%d = %.2f (want ~3)" c1 c0 ratio;
  (* Both tenants were overloaded, so both must have abandoned some. *)
  if r.Service.r_per_tenant.(0).Service.ts_cancelled = 0 then
    Alcotest.fail "expected abandonment under overload"

(* --- Priority classes --------------------------------------------------- *)

let test_priority_preemption () =
  let graph = fixture_graph () in
  let mk priority =
    Service.tenant ~priority ~patience:(Sim_time.ms 1)
      (Arrival.Poisson { rate_qps = 20_000.0 })
  in
  let config =
    Service.config ~max_inflight:1 ~slo:(Sim_time.ms 1) ~admission:false ~seed:6
      ~horizon:(Sim_time.ms 3)
      [| mk 0; mk 1 |]
  in
  let r =
    Service.run (graphdance ()) ~common:checked ~graph ~config
      ~program:(fun ~tenant:_ ~seq:_ -> khop graph 2)
      ()
  in
  let lo = r.Service.r_per_tenant.(0) and hi = r.Service.r_per_tenant.(1) in
  if hi.Service.ts_completed <= lo.Service.ts_completed then
    Alcotest.failf "priority ignored: high=%d low=%d" hi.Service.ts_completed
      lo.Service.ts_completed;
  (* The high-priority backlogged tenant should claim nearly everything. *)
  if lo.Service.ts_completed * 4 > hi.Service.ts_completed then
    Alcotest.failf "strict priority too soft: high=%d low=%d" hi.Service.ts_completed
      lo.Service.ts_completed

(* --- Scoped cancellation under the sanitizer ---------------------------- *)

let test_cancel_mid_flight_clean () =
  let graph = fixture_graph () in
  let program = khop graph 3 in
  (* Find the uncancelled latency first, then cancel halfway through. *)
  let full =
    Async_engine.run ~common:checked ~cluster_config:small_cluster
      ~channel_config:Channel.default_config ~graph
      [| Engine.submit program |]
  in
  let lat =
    match Engine.latency full.Engine.queries.(0) with
    | Some l -> l
    | None -> Alcotest.fail "fixture query did not complete"
  in
  let halfway = Sim_time.of_float_ns (float_of_int (Sim_time.to_ns lat) /. 2.0) in
  let h =
    Async_engine.create ~common:checked ~cluster_config:small_cluster
      ~channel_config:Channel.default_config ~graph ()
  in
  let terminal = ref [] in
  h.Engine.sh_on_terminal (fun qid o -> terminal := (qid, o) :: !terminal);
  let qid = h.Engine.sh_submit (Engine.submit program) in
  h.Engine.sh_cancel ~qid ~at:halfway;
  (* [sh_finish] runs the sanitizer: trackers must be released and every
     memo empty even though the query died mid-flight. *)
  h.Engine.sh_drive ~until:None;
  let report = h.Engine.sh_finish () in
  (match report.Engine.queries.(qid).Engine.outcome with
  | Engine.Cancelled -> ()
  | o -> Alcotest.failf "expected Cancelled, got %s" (Engine.outcome_name o));
  (match !terminal with
  | [ (q, Engine.Cancelled) ] when q = qid -> ()
  | _ -> Alcotest.fail "terminal callback did not fire exactly once with Cancelled")

(* Regression: a cancelled query used to strand its pending causal
   coalescer bindings in the per-worker [cz_coalesce] table. The
   sanitizer now asserts the table empty at finish, so this run — causal
   tracing on, cancellation landing mid-flight — fails loudly if the
   cleanup regresses. *)
let test_cancel_strands_no_causal_state () =
  let graph = fixture_graph () in
  let program = khop graph 3 in
  let full =
    Async_engine.run ~common:checked ~cluster_config:small_cluster
      ~channel_config:Channel.default_config ~graph
      [| Engine.submit program |]
  in
  let lat =
    match Engine.latency full.Engine.queries.(0) with
    | Some l -> l
    | None -> Alcotest.fail "fixture query did not complete"
  in
  let halfway = Sim_time.of_float_ns (float_of_int (Sim_time.to_ns lat) /. 2.0) in
  let obs = Pstm_obs.Recorder.create ~causal:true () in
  let h =
    Async_engine.create
      ~common:(Engine.Common.with_obs obs checked)
      ~cluster_config:small_cluster ~channel_config:Channel.default_config ~graph ()
  in
  let qid = h.Engine.sh_submit (Engine.submit program) in
  h.Engine.sh_cancel ~qid ~at:halfway;
  h.Engine.sh_drive ~until:None;
  match h.Engine.sh_finish () with
  | report -> (
    match report.Engine.queries.(qid).Engine.outcome with
    | Engine.Cancelled -> ()
    | o -> Alcotest.failf "expected Cancelled, got %s" (Engine.outcome_name o))
  | exception Engine.Check_violation why ->
    Alcotest.failf "stranded state after cancellation: %s" why

let test_per_query_deadline () =
  let graph = fixture_graph () in
  let program = khop graph 3 in
  let h =
    Async_engine.create ~common:checked ~cluster_config:small_cluster
      ~channel_config:Channel.default_config ~graph ()
  in
  let qid = h.Engine.sh_submit (Engine.submit ~deadline:(Sim_time.us 2) program) in
  h.Engine.sh_drive ~until:None;
  let report = h.Engine.sh_finish () in
  match report.Engine.queries.(qid).Engine.outcome with
  | Engine.Timed_out -> ()
  | o -> Alcotest.failf "expected Timed_out, got %s" (Engine.outcome_name o)

(* Cancellation through the service layer (patience), against every
   registry engine: the run must stay sanitizer-clean end to end. *)
let test_cancellation_all_engines () =
  let graph = fixture_graph () in
  let total_cancelled = ref 0 in
  List.iter
    (fun (name, engine) ->
      let config =
        Service.config ~max_inflight:1 ~slo:(Sim_time.ms 1) ~admission:false ~seed:9
          ~horizon:(Sim_time.ms 1)
          [| Service.tenant ~patience:(Sim_time.ms 1) (Arrival.Poisson { rate_qps = 40_000.0 }) |]
      in
      match
        Service.run engine ~common:checked ~graph ~config
          ~program:(fun ~tenant:_ ~seq:_ -> khop graph 2)
          ()
      with
      | r ->
        if Service.offered r = 0 then Alcotest.failf "%s: no arrivals" name;
        if Service.completed r = 0 then Alcotest.failf "%s: nothing completed" name;
        total_cancelled := !total_cancelled + Service.cancelled r
      | exception Engine.Check_violation why ->
        Alcotest.failf "%s: sanitizer violation under cancellation: %s" name why)
    registry;
  (* The local oracle completes instantly and can never be caught by a
     patience timer; the slower engines must have abandoned queries. *)
  if !total_cancelled = 0 then Alcotest.fail "no engine exercised abandonment"

(* --- Shedding ----------------------------------------------------------- *)

let test_shed_consumes_no_engine_events () =
  (* Headroom below the idle-service projection: everything is shed at
     the door. The engine then executes exactly one event per arrival
     timer and nothing else — no query ever launched. *)
  let graph = fixture_graph () in
  let config =
    Service.config ~max_inflight:1 ~slo:(Sim_time.ms 1) ~admission:true ~headroom:0.1
      ~seed:13 ~horizon:(Sim_time.ms 1)
      [| Service.tenant (Arrival.Poisson { rate_qps = 5000.0 }) |]
  in
  let r =
    Service.run (graphdance ()) ~common:checked ~graph ~config
      ~program:(fun ~tenant:_ ~seq:_ -> khop graph 2)
      ()
  in
  Alcotest.(check int) "every query shed" (Service.offered r) (Service.shed r);
  Alcotest.(check int) "engine saw no queries" 0 (Array.length r.Service.r_report.Engine.queries);
  Alcotest.(check int)
    "one engine event per arrival timer, none from queries" (Service.offered r)
    r.Service.r_report.Engine.events

(* --- Graceful degradation under overload -------------------------------- *)

let overload_config ~admission ~seed =
  Service.config ~max_inflight:2 ~slo:(Sim_time.ms 1) ~admission ~headroom:2.0 ~seed
    ~horizon:(Sim_time.ms 5)
    [| Service.tenant (Arrival.Poisson { rate_qps = 30_000.0 }) |]

let test_overload_admitted_meet_slo () =
  let graph = fixture_graph () in
  let run admission =
    Service.run (graphdance ()) ~common:checked ~graph
      ~config:(overload_config ~admission ~seed:17)
      ~program:(fun ~tenant:_ ~seq:_ -> khop graph 2)
      ()
  in
  let guarded = run true in
  if Service.shed guarded = 0 then Alcotest.fail "overload did not trigger shedding";
  if Service.completed guarded = 0 then Alcotest.fail "nothing admitted completed";
  let slo_ms = Sim_time.to_ms (Sim_time.ms 1) in
  let p99 = Service.p99_ms guarded in
  if p99 > 2.0 *. slo_ms then
    Alcotest.failf "admitted p99 %.3fms blew the 2x SLO bound (%.3fms)" p99 (2.0 *. slo_ms);
  (* The no-admission baseline queues unboundedly: its tail must be far
     worse than the guarded service's. *)
  let baseline = run false in
  Alcotest.(check int) "baseline sheds nothing" 0 (Service.shed baseline);
  let p99_base = Service.p99_ms baseline in
  if p99_base <= 2.0 *. p99 then
    Alcotest.failf "baseline p99 %.3fms did not collapse vs guarded %.3fms" p99_base p99

(* Regression: [observe_service] used to learn only from completions.
   Under a workload where every admitted query blows its engine deadline
   there are no completions, so the admission EWMA stayed frozen at its
   optimistic seed (slo/2) and the service kept admitting queries that
   were doomed to time out. Timeouts (and abandonments) now feed the
   EWMA at their elapsed time, so after a handful of timed-out queries
   the projected latency crosses the headroom and the service sheds at
   the door instead. *)
let test_timeouts_feed_admission () =
  let graph = fixture_graph () in
  (* Deadline = 2 x SLO, far below the query's real latency: nothing can
     complete, so timeouts are the only learning signal available. *)
  let config =
    Service.config ~max_inflight:2 ~slo:(Sim_time.us 10) ~admission:true ~headroom:2.0
      ~deadline_factor:2.0 ~seed:21 ~horizon:(Sim_time.ms 2)
      [| Service.tenant (Arrival.Poisson { rate_qps = 100_000.0 }) |]
  in
  let r =
    Service.run (graphdance ()) ~common:checked ~graph ~config
      ~program:(fun ~tenant:_ ~seq:_ -> khop graph 3)
      ()
  in
  Alcotest.(check int) "nothing can complete" 0 (Service.completed r);
  if Service.timed_out r = 0 then Alcotest.fail "no query timed out (fixture too easy)";
  if Service.shed r = 0 then
    Alcotest.fail "admission never learned from timeouts: no shedding";
  (* Once the EWMA has absorbed a few deadline-elapsed observations the
     projection stays above headroom x SLO, so shed queries must come to
     dominate admitted-and-doomed ones. *)
  if Service.shed r <= Service.timed_out r then
    Alcotest.failf "admission barely reacted: shed %d <= timed out %d" (Service.shed r)
      (Service.timed_out r)

let () =
  Alcotest.run "service"
    [
      ( "arrival",
        [ Alcotest.test_case "same seed, same stream" `Quick test_arrival_determinism ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, same run" `Quick test_same_seed_identical ] );
      ( "fairness",
        [
          Alcotest.test_case "weighted share ~3:1" `Quick test_weighted_fair_share;
          Alcotest.test_case "strict priority wins" `Quick test_priority_preemption;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "mid-flight, sanitizer clean" `Quick test_cancel_mid_flight_clean;
          Alcotest.test_case "no stranded causal state" `Quick
            test_cancel_strands_no_causal_state;
          Alcotest.test_case "per-query deadline" `Quick test_per_query_deadline;
          Alcotest.test_case "every engine, via patience" `Quick test_cancellation_all_engines;
        ] );
      ( "admission",
        [
          Alcotest.test_case "shed consumes no engine events" `Quick
            test_shed_consumes_no_engine_events;
          Alcotest.test_case "overload: admitted meet SLO" `Quick
            test_overload_admitted_meet_slo;
          Alcotest.test_case "timeouts feed the admission EWMA" `Quick
            test_timeouts_feed_admission;
        ] );
    ]
