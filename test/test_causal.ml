(* Causal-tracing suite (EXPLAIN LATENCY):

   - the disabled instance is inert and the engine's disabled path stays
     on it;
   - binding-edge semantics on a hand-built DAG: the last-added incoming
     edge binds, segments abut, and the per-category attribution
     partitions the end-to-end span exactly;
   - a truncated store reports itself (dropped > 0, no path) instead of
     yielding a corrupted chain;
   - on real k-hop runs across every async flavor the critical-path
     segments sum to the measured latency exactly (integer equality);
   - the acceptance construction: one hot partition behind an injected
     straggler must be blamed on Compute for >= 80% of the critical
     path, again with the exact-partition equality;
   - under drop faults the exact-partition equality survives and the
     path can surface Retransmit segments. *)

open Pstm_engine
open Pstm_query
module Causal = Pstm_obs.Causal
module Recorder = Pstm_obs.Recorder

let ns = Sim_time.ns

let khop_program ?(start = 0) graph hops =
  Compile.compile ~name:"khop" graph
    Dsl.(
      v_lookup ~key:"id" (int start) |> repeat ~dir:Graph.Out ~times:hops () |> count |> build)

(* --- Disabled instance --- *)

let test_disabled_noop () =
  let c = Causal.disabled in
  Alcotest.(check bool) "disabled" false (Causal.enabled c);
  let a = Causal.node c ~qid:0 ~name:"submit" ~ts:(ns 0) in
  Alcotest.(check int) "node refused" (-1) a;
  Causal.edge c ~src:a ~dst:a Causal.Compute;
  Causal.set_submit c ~qid:0 a;
  Causal.set_release c ~qid:0 a;
  Alcotest.(check int) "no nodes" 0 (Causal.n_nodes c);
  Alcotest.(check int) "no edges" 0 (Causal.n_edges c);
  Alcotest.(check int) "nothing dropped" 0 (Causal.dropped c);
  Alcotest.(check bool) "no queries" true (Causal.queries c = []);
  Alcotest.(check bool) "no path" true (Causal.critical_path c ~qid:0 = None);
  Alcotest.(check bool) "no attribution" true (Causal.attribution c ~qid:0 = None)

let test_engine_disabled_records_nothing () =
  (* A run with observability off must leave the causal plane untouched. *)
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let obs = Recorder.create () in
  (* causal defaults off *)
  let report =
    Async_engine.run
      ~common:(Engine.Common.with_obs obs Engine.Common.default)
      ~cluster_config:
        { Cluster.default_config with Cluster.n_nodes = 2; workers_per_node = 4 }
      ~channel_config:Channel.default_config ~graph
      [| Engine.submit (khop_program graph 2) |]
  in
  Alcotest.(check bool) "query completed" true (Engine.all_completed report);
  let c = Recorder.causal obs in
  Alcotest.(check int) "no causal nodes" 0 (Causal.n_nodes c);
  Alcotest.(check int) "no causal edges" 0 (Causal.n_edges c)

(* --- Binding-edge semantics on a hand-built DAG --- *)

let test_binding_last_wins () =
  let c = Causal.create () in
  let submit = Causal.node c ~qid:7 ~name:"submit" ~ts:(ns 0) in
  let decoy = Causal.node c ~qid:7 ~name:"decoy" ~ts:(ns 5) in
  let exec = Causal.node c ~qid:7 ~name:"exec" ~ts:(ns 10) in
  (* The decoy edge arrives first; the binding cause is added last. *)
  Causal.edge c ~src:decoy ~dst:exec Causal.Queue;
  Causal.edge c ~src:submit ~dst:exec Causal.Network;
  let release = Causal.node c ~qid:7 ~name:"release" ~ts:(ns 40) in
  Causal.edge c ~src:exec ~dst:release Causal.Tracker;
  Causal.set_submit c ~qid:7 submit;
  Causal.set_release c ~qid:7 release;
  Alcotest.(check bool) "query listed" true (Causal.queries c = [ 7 ]);
  let path =
    match Causal.critical_path c ~qid:7 with
    | Some p -> p
    | None -> Alcotest.fail "no critical path"
  in
  Alcotest.(check int) "two segments" 2 (List.length path);
  let s0 = List.nth path 0 and s1 = List.nth path 1 in
  (* The last-added Network edge binds, not the decoy's Queue edge. *)
  Alcotest.(check bool) "binding edge wins" true (s0.Causal.seg_cat = Causal.Network);
  Alcotest.(check string) "first src" "submit" s0.Causal.seg_src;
  Alcotest.(check bool) "second is tracker" true (s1.Causal.seg_cat = Causal.Tracker);
  (* Segments abut: t1 of one is t0 of the next, spanning [0, 40]. *)
  Alcotest.(check int) "starts at submit" 0 (Sim_time.to_ns s0.Causal.seg_t0);
  Alcotest.(check int) "abuts" (Sim_time.to_ns s0.Causal.seg_t1) (Sim_time.to_ns s1.Causal.seg_t0);
  Alcotest.(check int) "ends at release" 40 (Sim_time.to_ns s1.Causal.seg_t1);
  let attr =
    match Causal.attribution c ~qid:7 with
    | Some a -> a
    | None -> Alcotest.fail "no attribution"
  in
  Alcotest.(check int) "network share" 10 (Sim_time.to_ns (List.assoc Causal.Network attr));
  Alcotest.(check int) "tracker share" 30 (Sim_time.to_ns (List.assoc Causal.Tracker attr));
  Alcotest.(check int) "partitions the span exactly" 40
    (Sim_time.to_ns (Causal.attribution_total attr));
  Alcotest.(check bool) "dominant is tracker" true (fst (Causal.dominant attr) = Causal.Tracker)

let test_truncation_reports_itself () =
  let c = Causal.create ~capacity:2 () in
  let submit = Causal.node c ~qid:0 ~name:"submit" ~ts:(ns 0) in
  let mid = Causal.node c ~qid:0 ~name:"mid" ~ts:(ns 10) in
  let release = Causal.node c ~qid:0 ~name:"release" ~ts:(ns 20) in
  Alcotest.(check int) "third node refused" (-1) release;
  Alcotest.(check int) "drop counted" 1 (Causal.dropped c);
  Causal.edge c ~src:submit ~dst:mid Causal.Compute;
  Causal.edge c ~src:mid ~dst:release Causal.Tracker;
  (* dst = -1: ignored *)
  Alcotest.(check int) "refused edge ignored" 1 (Causal.n_edges c);
  Causal.set_submit c ~qid:0 submit;
  Causal.set_release c ~qid:0 release;
  Alcotest.(check bool) "truncated DAG yields no path" true
    (Causal.critical_path c ~qid:0 = None);
  Alcotest.(check bool) "nor attribution" true (Causal.attribution c ~qid:0 = None)

(* --- Exact partition of the latency on real runs --- *)

let check_exact_partition ~label report causal =
  let attr =
    match Causal.attribution causal ~qid:0 with
    | Some a -> a
    | None -> Alcotest.fail (label ^ ": no complete causal path")
  in
  let total = Causal.attribution_total attr in
  let latency =
    match Engine.latency report.Engine.queries.(0) with
    | Some l -> l
    | None -> Alcotest.fail (label ^ ": query did not complete")
  in
  Alcotest.(check int)
    (label ^ ": segments partition the latency exactly")
    (Sim_time.to_ns latency) (Sim_time.to_ns total);
  attr

let run_traced ?(options = Async_engine.default_options) ?faults ?(nodes = 2) ?(workers = 4)
    ?(hops = 2) graph =
  let obs = Recorder.create ~causal:true () in
  let common =
    { (Engine.Common.with_obs obs Engine.Common.default) with Engine.Common.faults }
  in
  let report =
    Async_engine.run ~options ~common
      ~cluster_config:
        { Cluster.default_config with Cluster.n_nodes = nodes; workers_per_node = workers }
      ~channel_config:Channel.default_config ~graph
      [| Engine.submit (khop_program graph hops) |]
  in
  (report, Recorder.causal obs)

let test_exact_sum_all_flavors () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  List.iter
    (fun flavor ->
      let label = Async_engine.flavor_name flavor in
      let options = { Async_engine.default_options with Async_engine.flavor } in
      let report, causal = run_traced ~options graph in
      ignore (check_exact_partition ~label report causal))
    [ Async_engine.Graphdance; Async_engine.Banyan_like; Async_engine.Gaia_like ]

(* --- The acceptance construction: hot partition behind a straggler --- *)

let share attr cat =
  let total = Sim_time.to_s (Causal.attribution_total attr) in
  Sim_time.to_s (List.assoc cat attr) /. Float.max total 1e-12

let test_straggler_blamed () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  (* Run on a one-node cluster and make node 0 a 40x straggler. Every
     worker, the coordinator included, lives on that node, so the whole
     serial chain runs on the straggler: the critical path must blame
     Compute. *)
  let faults = { Faults.none with Faults.slow_nodes = [ (0, 40.0) ] } in
  let report, causal = run_traced ~nodes:1 ~faults graph in
  let attr = check_exact_partition ~label:"straggler" report causal in
  let compute = share attr Causal.Compute in
  Alcotest.(check bool)
    (Printf.sprintf "straggler category blamed for >= 80%% (got %.1f%%)" (100.0 *. compute))
    true (compute >= 0.8);
  Alcotest.(check bool) "dominant is compute" true
    (fst (Causal.dominant attr) = Causal.Compute);
  (* Control: the same one-node cluster without the straggler must not be
     compute-bound to the same degree — the blame tracks the fault. *)
  let report', causal' = run_traced ~nodes:1 graph in
  let attr' = check_exact_partition ~label:"control" report' causal' in
  Alcotest.(check bool) "blame tracks the injected fault" true
    (share attr' Causal.Compute < compute)

(* --- Faults: exact partition survives; retransmits are classified --- *)

let test_exact_sum_under_drops () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let saw_retransmit = ref false in
  List.iter
    (fun seed ->
      let faults = { Faults.none with Faults.drop = 0.15; seed } in
      let report, causal = run_traced ~faults graph in
      ignore (check_exact_partition ~label:(Printf.sprintf "drop seed %d" seed) report causal);
      match Causal.critical_path causal ~qid:0 with
      | Some path ->
        if List.exists (fun s -> s.Causal.seg_cat = Causal.Retransmit) path then
          saw_retransmit := true
      | None -> Alcotest.fail "path vanished after attribution succeeded")
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "some critical path crosses a retransmitted delivery" true
    !saw_retransmit

let () =
  Alcotest.run "causal"
    [
      ( "disabled",
        [
          Alcotest.test_case "inert instance" `Quick test_disabled_noop;
          Alcotest.test_case "engine records nothing" `Quick
            test_engine_disabled_records_nothing;
        ] );
      ( "dag",
        [
          Alcotest.test_case "binding edge wins" `Quick test_binding_last_wins;
          Alcotest.test_case "truncation reports itself" `Quick
            test_truncation_reports_itself;
        ] );
      ( "engine",
        [
          Alcotest.test_case "exact sum, all flavors" `Quick test_exact_sum_all_flavors;
          Alcotest.test_case "straggler blamed >= 80%" `Quick test_straggler_blamed;
          Alcotest.test_case "exact sum under drops" `Quick test_exact_sum_under_drops;
        ] );
    ]
