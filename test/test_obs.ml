(* lib/obs unit tests: deterministic JSON, trace recorder semantics
   (disabled path, ring bounding, span nesting), byte-identical trace
   export across same-seed engine runs, operator-stats conservation
   (also under faults), tracing leaving engine output untouched, and
   histogram percentile edge cases. *)

open Pstm_engine
open Pstm_query
module Json = Pstm_obs.Json
module Trace = Pstm_obs.Trace
module Opstats = Pstm_obs.Opstats
module Recorder = Pstm_obs.Recorder

(* --- Json --- *)

let test_json_render () =
  let check name expected doc = Alcotest.(check string) name expected (Json.to_string doc) in
  check "escaping" {|"a\"b\\c\n\tx\u0001"|} (Json.Str "a\"b\\c\n\tx\001");
  check "null" "null" Json.Null;
  check "bools" "[true,false]" (Json.List [ Json.Bool true; Json.Bool false ]);
  check "int" "-42" (Json.Int (-42));
  check "non-finite floats are null" "[null,null,null]"
    (Json.List [ Json.Float nan; Json.Float infinity; Json.Float neg_infinity ]);
  check "integral float" "3" (Json.Float 3.0);
  check "fractional float" "0.25" (Json.Float 0.25);
  check "raw verbatim" "12.500" (Json.Raw "12.500");
  check "object field order preserved" {|{"b":1,"a":2}|}
    (Json.Obj [ ("b", Json.Int 1); ("a", Json.Int 2) ])

(* --- Trace recorder --- *)

let test_trace_disabled_noop () =
  let t = Trace.disabled in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  Trace.span t ~tid:0 ~name:"s" ~ts:0 ~dur:10 ();
  Trace.instant t ~tid:0 ~name:"i" ~ts:5 ();
  Alcotest.(check int) "no events retained" 0 (Trace.length t);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped t)

let test_trace_ring_bounds () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.instant t ~tid:0 ~name:(Printf.sprintf "e%d" i) ~ts:i ()
  done;
  Alcotest.(check int) "retains capacity" 4 (Trace.length t);
  Alcotest.(check int) "drops oldest" 6 (Trace.dropped t);
  let names = List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events t) in
  Alcotest.(check (list string)) "newest survive, oldest first" [ "e6"; "e7"; "e8"; "e9" ] names

let test_trace_nesting () =
  (* Proper nesting: parent [0,100), children [10,20) and [30,40). *)
  let good = Trace.create () in
  Trace.span good ~tid:1 ~name:"parent" ~ts:0 ~dur:100 ();
  Trace.span good ~tid:1 ~name:"child1" ~ts:10 ~dur:10 ();
  Trace.span good ~tid:1 ~name:"child2" ~ts:30 ~dur:10 ();
  (* A different track may overlap freely. *)
  Trace.span good ~tid:2 ~name:"other" ~ts:15 ~dur:200 ();
  Alcotest.(check bool) "nested spans ok" true (Trace.nesting_well_formed good);
  (* Partial overlap on one track: [0,50) vs [25,75). *)
  let bad = Trace.create () in
  Trace.span bad ~tid:1 ~name:"a" ~ts:0 ~dur:50 ();
  Trace.span bad ~tid:1 ~name:"b" ~ts:25 ~dur:50 ();
  Alcotest.(check bool) "partial overlap rejected" false (Trace.nesting_well_formed bad)

(* --- Trace through a real engine run --- *)

let small_cluster = { Cluster.default_config with Cluster.n_nodes = 3; workers_per_node = 3 }

let khop_program_at graph ~start hops =
  Compile.compile ~name:"khop" graph
    Dsl.(v_lookup ~key:"id" (int start) |> repeat ~dir:Graph.Out ~times:hops () |> count |> build)

let khop_program graph hops = khop_program_at graph ~start:0 hops

let traced_run () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 2 in
  let obs = Recorder.create () in
  let report =
    Async_engine.run
      ~common:(Engine.Common.with_obs obs Engine.Common.default)
      ~cluster_config:small_cluster
      ~channel_config:Channel.default_config ~graph
      [| Engine.submit program |]
  in
  (obs, report)

let test_trace_byte_identical () =
  let export () =
    let obs, report = traced_run () in
    Alcotest.(check bool) "query completed" true (Engine.all_completed report);
    Alcotest.(check bool) "events recorded" true (Trace.length (Recorder.trace obs) > 0);
    Json.to_string (Trace.to_chrome_json (Recorder.trace obs))
  in
  let a = export () and b = export () in
  Alcotest.(check string) "same-seed trace exports byte-identical" a b

let test_trace_engine_nesting () =
  let obs, _ = traced_run () in
  Alcotest.(check bool) "engine trace spans nest" true
    (Trace.nesting_well_formed (Recorder.trace obs))

(* --- Operator stats --- *)

let test_opstats_accounting () =
  let s = Opstats.create () in
  Opstats.seed s 2;
  (* Step 0 fans 2 seeds out into 3; step 1 retires all 3 with rows. *)
  Opstats.record s ~step:0 ~out:2 ~rows:0 ~finished:false ~edges:4 ~memo_hits:1
    ~memo_misses:0 ~busy_ns:100;
  Opstats.record s ~step:0 ~out:1 ~rows:0 ~finished:false ~edges:2 ~memo_hits:0
    ~memo_misses:1 ~busy_ns:50;
  for _ = 1 to 3 do
    Opstats.record s ~step:1 ~out:0 ~rows:1 ~finished:true ~edges:0 ~memo_hits:0
      ~memo_misses:0 ~busy_ns:10
  done;
  Alcotest.(check int) "steps" 2 (Opstats.n_steps s);
  Alcotest.(check int) "in" 5 (Opstats.total_in s);
  Alcotest.(check int) "out" 3 (Opstats.total_out s);
  Alcotest.(check int) "finished" 3 (Opstats.total_finished s);
  Alcotest.(check bool) "conserves" true (Opstats.conserves s);
  (* One unexplained traverser breaks conservation. *)
  Opstats.record s ~step:1 ~out:0 ~rows:0 ~finished:true ~edges:0 ~memo_hits:0
    ~memo_misses:0 ~busy_ns:1;
  Alcotest.(check bool) "extra input detected" false (Opstats.conserves s)

let test_opstats_engine_conservation () =
  let obs, _ = traced_run () in
  let s = Recorder.opstats obs in
  Alcotest.(check bool) "engine recorded steps" true (Opstats.total_in s > 0);
  Alcotest.(check bool) "total in = seeds + total out" true (Opstats.conserves s)

(* Operator counts through a hostile run: drop faults force retransmits,
   yet every traverser that entered a step must still be either spawned
   or retired (none lost or double-counted across a retransmitted
   delivery). *)
let test_opstats_faults () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let khop start = khop_program_at graph ~start 2 in
  let subs =
    Array.init 8 (fun i ->
        Engine.submit ~at:(Sim_time.us (i * 10)) (khop (1 + (i mod 4))))
  in
  let obs = Recorder.create () in
  let common =
    {
      (Engine.Common.with_obs obs Engine.Common.default) with
      Engine.Common.check = true;
      faults = Some { Faults.none with Faults.drop = 0.1 };
    }
  in
  let report =
    Async_engine.run ~common
      ~cluster_config:{ Cluster.default_config with Cluster.n_nodes = 2; workers_per_node = 4 }
      ~channel_config:Channel.default_config ~graph subs
  in
  Alcotest.(check bool) "all queries complete" true (Engine.all_completed report);
  let m = report.Engine.metrics in
  Alcotest.(check bool) "retransmits engaged" true (Metrics.retransmits m > 0);
  Alcotest.(check bool) "opstats conserve under faults" true
    (Opstats.conserves (Recorder.opstats obs))

(* A trace ring too small for the run must surface its drop count in the
   report's metrics, not lose it inside the recorder. *)
let test_trace_dropped_surfaced () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let obs = Recorder.create ~trace_capacity:8 () in
  let report =
    Async_engine.run
      ~common:(Engine.Common.with_obs obs Engine.Common.default)
      ~cluster_config:small_cluster ~channel_config:Channel.default_config ~graph
      [| Engine.submit (khop_program graph 2) |]
  in
  let dropped = Trace.dropped (Recorder.trace obs) in
  Alcotest.(check bool) "tiny ring dropped events" true (dropped > 0);
  Alcotest.(check int) "drop count mirrored into metrics" dropped
    (Metrics.trace_dropped report.Engine.metrics)

(* --- Tracing is inert --- *)

(* Recording must not perturb the run: the same workload under the
   disabled recorder and under a full recorder with causal tracing gives
   byte-identical reports on every distributed engine — including the
   terminal paths a quiet run never takes (a per-query deadline, a
   mid-flight cancellation) and retransmits under packet drops. *)
let test_tracing_inert () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let subs =
    Array.init 8 (fun i ->
        let deadline = if i = 2 then Some (Sim_time.ns 1) else None in
        Engine.submit ~at:(Sim_time.us (i * 10)) ?deadline
          (khop_program_at graph ~start:(1 + (i mod 4)) 2))
  in
  let run (module E : Engine.S) obs =
    let common =
      {
        (Engine.Common.with_obs obs Engine.Common.default) with
        Engine.Common.check = true;
        faults = Some { Faults.none with Faults.drop = 0.05 };
      }
    in
    let h = E.start ~common ~graph () in
    let qids = Array.map h.Engine.sh_submit subs in
    h.Engine.sh_cancel ~qid:qids.(5) ~at:(Sim_time.add subs.(5).Engine.at (Sim_time.us 1));
    h.Engine.sh_drive ~until:None;
    h.Engine.sh_finish ()
  in
  List.iter
    (fun (name, engine) ->
      if name <> "local" then begin
        let plain = run engine Recorder.disabled in
        let has o = Array.exists (fun q -> q.Engine.outcome = o) plain.Engine.queries in
        Alcotest.(check bool) (name ^ ": a query cancelled") true (has Engine.Cancelled);
        Alcotest.(check bool) (name ^ ": a query timed out") true (has Engine.Timed_out);
        let traced = run engine (Recorder.create ~causal:true ()) in
        Alcotest.(check string)
          (name ^ ": report unchanged by tracing")
          (Json.to_string (Engine.report_json plain))
          (Json.to_string (Engine.report_json traced))
      end)
    Registry.default

(* --- Histogram percentile edge cases --- *)

let test_histogram_edges () =
  let open Pstm_util in
  let h = Histogram.create () in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (Histogram.percentile h 99.0);
  (* The empty-histogram contract is a defined 0.0 at every entry point:
     quantile, the (p50, p95, p99) triple, and percentile — an idle
     engine's metrics must print as zeros, not bucket-walk garbage. *)
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Histogram.quantile h 0.5);
  Alcotest.(check bool) "empty quantile triple" true (Histogram.quantiles h = (0., 0., 0.));
  Alcotest.(check bool) "empty min" true (Histogram.min_seen h = None);
  Alcotest.(check bool) "empty max" true (Histogram.max_seen h = None);
  Histogram.add h 3.5;
  Alcotest.(check (float 0.0)) "single-sample p50 exact" 3.5 (Histogram.percentile h 50.0);
  Alcotest.(check (float 0.0)) "single-sample p99 exact" 3.5 (Histogram.percentile h 99.0);
  Alcotest.(check bool) "single min" true (Histogram.min_seen h = Some 3.5);
  Alcotest.(check bool) "single max" true (Histogram.max_seen h = Some 3.5);
  let eq = Histogram.create () in
  for _ = 1 to 100 do
    Histogram.add eq 7.25
  done;
  (* Extrema clamping makes every percentile exact when all samples equal. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "all-equal p%.0f exact" q)
        7.25 (Histogram.percentile eq q))
    [ 1.0; 50.0; 90.0; 99.9 ];
  Alcotest.(check (float 0.0)) "all-equal sum" 725.0 (Histogram.sum eq)

let () =
  Alcotest.run "obs"
    [
      ("json", [ Alcotest.test_case "render" `Quick test_json_render ]);
      ( "trace",
        [
          Alcotest.test_case "disabled no-op" `Quick test_trace_disabled_noop;
          Alcotest.test_case "ring bounds" `Quick test_trace_ring_bounds;
          Alcotest.test_case "nesting" `Quick test_trace_nesting;
          Alcotest.test_case "byte-identical export" `Quick test_trace_byte_identical;
          Alcotest.test_case "engine spans nest" `Quick test_trace_engine_nesting;
          Alcotest.test_case "dropped count surfaced" `Quick test_trace_dropped_surfaced;
        ] );
      ( "opstats",
        [
          Alcotest.test_case "accounting" `Quick test_opstats_accounting;
          Alcotest.test_case "engine conservation" `Quick test_opstats_engine_conservation;
          Alcotest.test_case "conserve under faults" `Quick test_opstats_faults;
        ] );
      ("recorder", [ Alcotest.test_case "tracing is inert" `Quick test_tracing_inert ]);
      ("histogram", [ Alcotest.test_case "percentile edges" `Quick test_histogram_edges ]);
    ]
