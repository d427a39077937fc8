(* Flat progress tracking at scale (64 simulated nodes, 128 workers):

   - concurrent k-hop queries return exactly the [local] oracle's rows
     with the runtime sanitizer on (weight conservation per execution,
     tracker overshoot, coalescer emptiness at finish);
   - Theorem 1's sum closes at that worker count both with weight
     coalescing and with every finished weight shipped on its own. *)

open Pstm_engine
open Pstm_query

let sixty_four_nodes = { Cluster.default_config with Cluster.n_nodes = 64; workers_per_node = 2 }
let checked = { Engine.Common.default with Engine.Common.check = true }

let khop graph ~start hops =
  Compile.compile ~name:(Printf.sprintf "khop%d" hops) graph
    Dsl.(v_lookup ~key:"id" (int start) |> repeat ~dir:Graph.Out ~times:hops () |> count |> build)

let run_flat ?(options = Async_engine.default_options) graph subs =
  Async_engine.run ~options ~common:checked ~cluster_config:sixty_four_nodes
    ~channel_config:Channel.default_config ~graph subs

let show_rows rows = Fmt.str "%a" (Fmt.list (Fmt.array Value.pp)) (Engine.sorted_rows rows)

let test_flat_matches_oracle () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let programs = Array.map (fun start -> khop graph ~start 3) [| 1; 17; 63 |] in
  let report = run_flat graph (Array.map Engine.submit programs) in
  Alcotest.(check bool) "all completed" true (Engine.all_completed report);
  Array.iteri
    (fun i program ->
      Alcotest.(check string)
        (Printf.sprintf "query %d rows = oracle" i)
        (show_rows (Local_engine.run graph program))
        (show_rows report.Engine.queries.(i).Engine.rows))
    programs;
  if Metrics.tracker_updates report.Engine.metrics = 0 then
    Alcotest.fail "no finished weight ever reached a tracker"

(* A lost weight hangs the phase (caught by completion itself); a double
   count trips the sanitizer's post-completion receive check. *)
let test_conservation_at_64_nodes () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop graph ~start:1 4 in
  let expected = show_rows (Local_engine.run graph program) in
  List.iter
    (fun weight_coalescing ->
      let options = { Async_engine.default_options with Async_engine.weight_coalescing } in
      let report = run_flat ~options graph [| Engine.submit program |] in
      if not (Engine.all_completed report) then
        Alcotest.failf "coalescing=%b: query did not complete" weight_coalescing;
      Alcotest.(check string)
        (Printf.sprintf "coalescing=%b rows = oracle" weight_coalescing)
        expected
        (show_rows report.Engine.queries.(0).Engine.rows))
    [ true; false ]

let () =
  Alcotest.run "scale"
    [
      ( "flat-tracking",
        [
          Alcotest.test_case "matches the oracle at scale" `Quick test_flat_matches_oracle;
          Alcotest.test_case "conserves weight at scale" `Quick test_conservation_at_64_nodes;
        ] );
    ]
