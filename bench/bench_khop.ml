(* End-to-end k-hop throughput with frontier batching on and off: the
   Figure-1 query at 1 and 8 partitions, reported as traversers/sec of
   simulated time. *)

open Pstm_engine
open Pstm_query
open Harness

let common ~batched = Engine.Common.with_batched batched Engine.Common.default

(* One (partitions, batched) cell: mean k-hop latency and aggregate
   traverser throughput over a few start vertices. *)
let cell graph ~starts ~hops ~nodes ~batched =
  let steps = ref 0 in
  let sim_s = ref 0.0 in
  let batches = ref 0 in
  let coalesced = ref 0 in
  let lats =
    Array.map
      (fun start ->
        let report =
          khop_report
            ~run:(run_graphdance ~common:(common ~batched) ~config:(cluster ~nodes ~workers:8))
            graph ~hops ~start
        in
        let m = report.Engine.metrics in
        steps := !steps + Metrics.steps m;
        sim_s := !sim_s +. Sim_time.to_s report.Engine.makespan;
        batches := !batches + Metrics.batches m;
        coalesced := !coalesced + Metrics.coalesced_msgs m;
        Engine.latency_ms report.Engine.queries.(0))
      starts
  in
  (Pstm_util.Stats.mean lats, fi !steps /. !sim_s, !batches, !coalesced)

let throughput graph =
  let starts = khop_starts graph ~seed:7 ~n:3 in
  let hops = 3 in
  let rows =
    List.concat_map
      (fun nodes ->
        let lat_off, tps_off, _, _ = cell graph ~starts ~hops ~nodes ~batched:false in
        let lat_on, tps_on, batches, coalesced = cell graph ~starts ~hops ~nodes ~batched:true in
        let row batched lat tps b c speedup =
          [
            string_of_int nodes;
            batched;
            ms lat;
            Printf.sprintf "%.3e" tps;
            string_of_int b;
            string_of_int c;
            speedup;
          ]
        in
        [
          row "off" lat_off tps_off 0 0 "1.00x";
          row "on" lat_on tps_on batches coalesced (Printf.sprintf "%.2fx" (tps_on /. tps_off));
        ])
      [ 1; 8 ]
  in
  print_table ~title:"k-hop throughput: frontier batching (lj-like, 3-hop, 8 workers/node)"
    ~headers:[ "partitions"; "batching"; "latency (ms)"; "traversers/s"; "batches"; "coalesced"; "speedup" ]
    rows

let run () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.lj_like in
  throughput graph

(* The @batch-smoke alias: a batched sanitizer-on run on tiny whose rows
   must equal the unbatched run's. *)
let smoke () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let config = cluster ~nodes:2 ~workers:4 in
  let start = (khop_starts graph ~seed:11 ~n:1).(0) in
  let program =
    Compile.compile ~name:"2-hop" graph
      Dsl.(
        v_lookup ~key:"id" (int start)
        |> repeat_out "link" ~times:2
        |> has "id" (ne (int start))
        |> top_k "weight" 10
        |> build)
  in
  let run_with batched =
    run_graphdance
      ~common:{ (common ~batched) with Engine.Common.check = true }
      ~config graph
      [| Engine.submit program |]
  in
  let scalar = run_with false in
  let report = run_with true in
  let rows r = Fmt.str "%a" (Fmt.list (Fmt.array Value.pp)) (Engine.sorted_rows r) in
  if rows report.Engine.queries.(0).Engine.rows <> rows scalar.Engine.queries.(0).Engine.rows then
    failwith "batch smoke: batched rows diverge from scalar rows";
  let m = report.Engine.metrics in
  if Metrics.batches m = 0 then failwith "batch smoke: no batches recorded";
  print_table ~title:"Batch smoke: batched 2-hop on tiny (sanitizer on)"
    ~headers:[ "latency (ms)"; "batches"; "travs/batch"; "coalesced" ]
    [
      [
        ms (Engine.latency_ms report.Engine.queries.(0));
        string_of_int (Metrics.batches m);
        Printf.sprintf "%.1f" (fi (Metrics.batched_traversers m) /. fi (Metrics.batches m));
        string_of_int (Metrics.coalesced_msgs m);
      ];
    ];
  record_report ~label:"batch-smoke" report
