(* Cross-engine properties: every distributed engine must produce the
   reference interpreter's rows on randomly generated graphs and queries,
   weights must conserve through every step, runs must be deterministic,
   and deadlines must be honored. *)

open Pstm_engine
open Pstm_query

let qcheck = QCheck_alcotest.to_alcotest

(* --- Random fixtures --- *)

(* A random labeled property graph: n vertices with id/weight, random
   edges over two labels. *)
let graph_of ~n ~edges =
  let b = Builder.create () in
  for i = 0 to n - 1 do
    ignore
      (Builder.add_vertex b ~label:(if i mod 3 = 0 then "A" else "B")
         ~props:[ ("id", Value.Int i); ("weight", Value.Int ((i * 37) mod 100)) ]
         ())
  done;
  List.iter
    (fun (s, d, l) ->
      if s < n && d < n then
        ignore (Builder.add_edge b ~src:s ~label:(if l then "x" else "y") ~dst:d ()))
    edges;
  Builder.build b

let arb_graph =
  QCheck.make
    ~print:(fun (n, edges) -> Fmt.str "graph n=%d m=%d" n (List.length edges))
    QCheck.Gen.(
      let* n = int_range 4 24 in
      let* edges =
        list_size (int_range 0 60) (triple (int_range 0 23) (int_range 0 23) bool)
      in
      return (n, edges))

(* Random queries from the deterministic fragment: movement, filters,
   dedup, repeat, then an order-insensitive terminal. *)
let arb_query =
  let open QCheck.Gen in
  let movement =
    oneof
      [
        return (Ast.Out (Some "x"));
        return (Ast.Out (Some "y"));
        return (Ast.Out None);
        return (Ast.In (Some "x"));
        return (Ast.Both (Some "y"));
      ]
  in
  let filter =
    oneof
      [
        map (fun v -> Ast.Has ("weight", Ast.Ge (Value.Int v))) (int_range 0 100);
        map (fun v -> Ast.Has ("weight", Ast.Lt (Value.Int v))) (int_range 0 100);
        return (Ast.Has_label "A");
        return Ast.Dedup;
      ]
  in
  let middle = list_size (int_range 0 4) (oneof [ movement; filter ]) in
  let repeat = map (fun k -> Ast.Repeat { dir = Graph.Out; label = None; times = k }) (int_range 1 3) in
  let terminal =
    oneof
      [
        return [ Ast.Count ];
        return [ Ast.Sum_of "weight" ];
        return [ Ast.Max_of "weight" ];
        return [ Ast.Min_of "weight" ];
        return [ Ast.Group_count "weight" ];
        return [ Ast.Top_k { key = "weight"; k = 4 } ];
        return [ Ast.Dedup ] (* row stream *);
      ]
  in
  let gen =
    let* source =
      oneof
        [
          map (fun i -> Ast.Lookup { label = None; key = "id"; value = Value.Int i }) (int_range 0 23);
          return (Ast.Scan_all (Some "A"));
        ]
    in
    let* use_repeat = bool in
    let* mid = middle in
    let* rep = repeat in
    let* term = terminal in
    let steps = if use_repeat then (rep :: mid) @ term else mid @ term in
    return (Ast.Traversal { Ast.source; steps })
  in
  QCheck.make ~print:(Fmt.str "%a" Ast.pp) gen

let show_rows rows =
  Fmt.str "%a" (Fmt.list ~sep:(Fmt.any "@.") (Fmt.array ~sep:(Fmt.any "|") Value.pp))
    (Engine.sorted_rows rows)

let small_cluster = { Cluster.default_config with Cluster.n_nodes = 3; workers_per_node = 3 }

let run_async ?(options = Async_engine.default_options) ?(channel = Channel.default_config)
    ?(config = small_cluster) graph program =
  let report =
    Async_engine.run ~options ~cluster_config:config ~channel_config:channel ~graph
      [| Engine.submit program |]
  in
  report.Engine.queries.(0).Engine.rows

let engines_agree =
  QCheck.Test.make ~name:"async/bsp engines match the reference" ~count:120
    (QCheck.pair arb_graph arb_query)
    (fun ((n, edges), ast) ->
      let graph = graph_of ~n ~edges in
      match Compile.compile ~name:"prop" graph ast with
      | exception Compile.Error _ -> QCheck.assume_fail ()
      | program ->
        let expected = show_rows (Local_engine.run graph program) in
        let async_rows = show_rows (run_async graph program) in
        let bsp_report =
          Bsp_engine.run ~cluster_config:small_cluster ~graph [| Engine.submit program |]
        in
        let bsp_rows = show_rows bsp_report.Engine.queries.(0).Engine.rows in
        expected = async_rows && expected = bsp_rows)

let variants_agree =
  QCheck.Test.make ~name:"flavors, channels and partitions preserve answers" ~count:60
    (QCheck.pair arb_graph arb_query)
    (fun ((n, edges), ast) ->
      let graph = graph_of ~n ~edges in
      match Compile.compile ~name:"prop" graph ast with
      | exception Compile.Error _ -> QCheck.assume_fail ()
      | program ->
        let expected = show_rows (Local_engine.run graph program) in
        List.for_all
          (fun rows -> show_rows rows = expected)
          [
            run_async ~channel:Channel.no_batching graph program;
            run_async ~channel:Channel.tlc_only graph program;
            run_async
              ~options:{ Async_engine.default_options with Async_engine.weight_coalescing = false }
              graph program;
            run_async
              ~options:{ Async_engine.default_options with Async_engine.flavor = Async_engine.Banyan_like }
              graph program;
            run_async
              ~options:{ Async_engine.default_options with Async_engine.flavor = Async_engine.Gaia_like }
              graph program;
            run_async
              ~options:{ Async_engine.default_options with Async_engine.shared_state = true }
              graph program;
            run_async ~config:{ small_cluster with Cluster.n_nodes = 1; workers_per_node = 1 } graph
              program;
          ])

(* Weight conservation through every op (the Exec invariant). *)
let exec_conserves_weight =
  QCheck.Test.make ~name:"exec conserves weight on every step" ~count:150
    (QCheck.triple arb_graph arb_query QCheck.small_int)
    (fun ((n, edges), ast, seed) ->
      let graph = graph_of ~n ~edges in
      match Compile.compile ~name:"prop" graph ast with
      | exception Compile.Error _ -> QCheck.assume_fail ()
      | program ->
        (* Drive the program on a plain queue, checking the invariant on
           every single exec call. *)
        let memo = Memo.create () in
        let prng = Prng.create seed in
        let scan label =
          let out = ref [] in
          (match label with
          | None -> Graph.iter_vertices graph (fun v -> out := v :: !out)
          | Some l -> Graph.iter_vertices_with_label graph l (fun v -> out := v :: !out));
          Array.of_list !out
        in
        let queue = Queue.create () in
        Array.iter
          (fun e ->
            Queue.add
              (Traverser.make ~vertex:0 ~step:e ~weight:Weight.root
                 ~n_registers:(Program.n_registers program))
              queue)
          (Program.entries program);
        let ok = ref true in
        let budget = ref 50_000 in
        while (not (Queue.is_empty queue)) && !budget > 0 do
          decr budget;
          let t = Queue.pop queue in
          let o = Exec.exec ~graph ~memo ~prng ~qid:0 ~program ~scan t in
          let total =
            List.fold_left
              (fun acc (c : Traverser.t) -> Weight.add acc c.Traverser.weight)
              o.Exec.finished o.Exec.spawns
          in
          let total = List.fold_left (fun acc (_, w) -> Weight.add acc w) total o.Exec.rows in
          if not (Weight.equal total t.Traverser.weight) then ok := false;
          (* Only follow same-phase spawns; aggregates end phases. *)
          List.iter (fun c -> Queue.add c queue) o.Exec.spawns
        done;
        !ok)

(* Determinism: identical runs give identical reports. *)
let runs_deterministic =
  QCheck.Test.make ~name:"async engine is deterministic" ~count:40
    (QCheck.pair arb_graph arb_query)
    (fun ((n, edges), ast) ->
      let graph = graph_of ~n ~edges in
      match Compile.compile ~name:"prop" graph ast with
      | exception Compile.Error _ -> QCheck.assume_fail ()
      | program ->
        let run () =
          let r =
            Async_engine.run ~cluster_config:small_cluster ~channel_config:Channel.default_config
              ~graph [| Engine.submit program |]
          in
          (Engine.latency_ms r.Engine.queries.(0), show_rows r.Engine.queries.(0).Engine.rows)
        in
        run () = run ())

(* --- Directed scenario tests --- *)

let khop_program graph hops =
  Compile.compile ~name:"khop" graph
    Dsl.(v_lookup ~key:"id" (int 0) |> repeat ~dir:Graph.Out ~times:hops () |> count |> build)

let test_concurrent_queries_complete () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 2 in
  let expected = show_rows (Local_engine.run graph program) in
  let submissions =
    Array.init 20 (fun i -> Engine.submit ~at:(Sim_time.us (i * 7)) program)
  in
  let report =
    Async_engine.run ~cluster_config:small_cluster ~channel_config:Channel.default_config ~graph
      submissions
  in
  Alcotest.(check bool) "all complete" true (Engine.all_completed report);
  Array.iter
    (fun q -> Alcotest.(check string) "same rows under concurrency" expected (show_rows q.Engine.rows))
    report.Engine.queries;
  (* Latencies are sane: completion after submission. *)
  Array.iter
    (fun (q : Engine.query_report) ->
      Alcotest.(check bool) "positive latency" true (Engine.latency_ms q > 0.0))
    report.Engine.queries

let test_deadline_times_out () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.lj_like in
  let program =
    Compile.compile ~name:"big" graph
      Dsl.(v_lookup ~key:"id" (int 1) |> repeat_out "link" ~times:4 |> count |> build)
  in
  let report =
    Async_engine.run
      ~common:(Engine.Common.with_deadline (Some (Sim_time.us 10)) Engine.Common.default)
      ~cluster_config:small_cluster
      ~channel_config:Channel.default_config ~graph
      [| Engine.submit program |]
  in
  Alcotest.(check bool) "timed out" false (Engine.all_completed report);
  Alcotest.(check bool) "latency reported as infinite" true
    (Engine.latency_ms report.Engine.queries.(0) = Float.infinity)

let test_bsp_profiles_same_rows () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 3 in
  let expected = show_rows (Local_engine.run graph program) in
  List.iter
    (fun profile ->
      let report = Bsp_engine.run ~profile ~cluster_config:small_cluster ~graph [| Engine.submit program |] in
      Alcotest.(check string)
        (Bsp_engine.profile_name profile)
        expected
        (show_rows report.Engine.queries.(0).Engine.rows);
      (* The interpreted profile must be slower. *)
      ignore report)
    [ Bsp_engine.Ablation; Bsp_engine.Tigergraph_role ]

let test_tigergraph_profile_slower () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 3 in
  let latency profile =
    let r = Bsp_engine.run ~profile ~cluster_config:small_cluster ~graph [| Engine.submit program |] in
    Engine.latency_ms r.Engine.queries.(0)
  in
  Alcotest.(check bool) "interpretation costs" true
    (latency Bsp_engine.Tigergraph_role > latency Bsp_engine.Ablation)

let test_single_node_engine () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 2 in
  let expected = show_rows (Local_engine.run graph program) in
  let report =
    Single_node_engine.run ~workers:4 ~base_config:Cluster.default_config ~graph
      [| Engine.submit program |]
  in
  Alcotest.(check string) "rows" expected (show_rows report.Engine.queries.(0).Engine.rows);
  Alcotest.(check int) "no network packets on one node" 0
    (Metrics.packets report.Engine.metrics)

let test_worker_busy_reported () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 2 in
  let report =
    Async_engine.run ~cluster_config:small_cluster ~channel_config:Channel.default_config ~graph
      [| Engine.submit program |]
  in
  Alcotest.(check int) "one entry per worker" 9 (Array.length report.Engine.worker_busy);
  let total = Array.fold_left ( + ) 0 report.Engine.worker_busy in
  Alcotest.(check bool) "some work recorded" true (total > 0);
  Alcotest.(check bool) "max below makespan" true
    (Array.for_all (fun b -> b <= report.Engine.makespan) report.Engine.worker_busy)

let test_wc_off_sends_more_progress () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 3 in
  let progress wc =
    let r =
      Async_engine.run
        ~options:{ Async_engine.default_options with Async_engine.weight_coalescing = wc }
        ~cluster_config:small_cluster ~channel_config:Channel.default_config ~graph
        [| Engine.submit program |]
    in
    Metrics.messages r.Engine.metrics Metrics.Progress_msg
  in
  Alcotest.(check bool) "coalescing reduces tracker messages" true (progress false > progress true)

(* Allocation guard for the async engine's per-step path: minor-heap
   words per executed traverser step on a fixed workload (16 concurrent
   2-hop counts on tiny through the shipped graphdance engine, 3 x 3
   workers, warm second run). The count is deterministic for a given
   compiler; it was 48.6 words/step when the budget was set to that plus
   15%, so a regression cannot creep in unnoticed. The GC is read here,
   in the test; lib/ never reads it. *)
let words_per_step_budget = 56.0

let test_step_allocation_budget () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 2 in
  let (module E : Engine.S) =
    Registry.find_exn ~registry:(Registry.make ~cluster_config:small_cluster ()) "graphdance"
  in
  let submissions = Array.init 16 (fun i -> Engine.submit ~at:(Sim_time.us i) program) in
  ignore (E.run ~graph submissions);
  let before = Gc.minor_words () in
  let report = E.run ~graph submissions in
  let words = Gc.minor_words () -. before in
  let steps = Metrics.steps report.Engine.metrics in
  Alcotest.(check bool) "all complete" true (Engine.all_completed report);
  let per_step = words /. float_of_int steps in
  if per_step > words_per_step_budget then
    Alcotest.failf "%.1f minor words per step (%d steps) exceeds the budget of %.1f" per_step steps
      words_per_step_budget

let () =
  Alcotest.run "engines"
    [
      ( "properties",
        [
          qcheck engines_agree;
          qcheck variants_agree;
          qcheck exec_conserves_weight;
          qcheck runs_deterministic;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "concurrent queries" `Quick test_concurrent_queries_complete;
          Alcotest.test_case "deadline timeout" `Quick test_deadline_times_out;
          Alcotest.test_case "bsp profiles agree" `Quick test_bsp_profiles_same_rows;
          Alcotest.test_case "tigergraph profile slower" `Quick test_tigergraph_profile_slower;
          Alcotest.test_case "single node" `Quick test_single_node_engine;
          Alcotest.test_case "step allocation budget" `Quick test_step_allocation_budget;
          Alcotest.test_case "worker busy reported" `Quick test_worker_busy_reported;
          Alcotest.test_case "wc off sends more progress" `Quick test_wc_off_sends_more_progress;
        ] );
    ]
