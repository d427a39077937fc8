(* Fig 9 extension: scaling past the paper's 8 nodes.

   The paper's evaluation stops at 8 nodes. The headline table sweeps a
   concurrent k-hop batch across 8-256 nodes under the paper's flat
   §IV-A termination design — every worker's progress flush lands on the
   query coordinator — reporting throughput, its linearity against the
   8-node run, and the tracker load (root receipts and progress
   messages) next to it.

   [smoke] runs a small 32-worker k-hop over every registry engine with
   the sanitizer on and asserts each engine's rows equal the [local]
   oracle's; it is wired into dune runtest via the @scale-smoke alias. *)

open Pstm_engine
open Harness
module J = Pstm_obs.Json

(* A batch of concurrent k-hop queries, the Fig 9 workload shape: enough
   resident queries that every worker contributes finished weight to
   many coordinators at once. *)
let batch graph ~starts ~hops =
  Array.map (fun start -> Engine.submit (khop_program graph ~start ~hops)) starts

type cell = {
  c_makespan_ms : float;
  c_tps : float; (* traverser steps per simulated second *)
  c_root_rx : int; (* weight receipts at root trackers *)
  c_progress_msgs : int;
}

let cell graph ~starts ~hops ~nodes ~workers =
  let report = run_graphdance ~config:(cluster ~nodes ~workers) graph (batch graph ~starts ~hops) in
  let m = report.Engine.metrics in
  let sim_s = Sim_time.to_s report.Engine.makespan in
  {
    c_makespan_ms = Sim_time.to_ms report.Engine.makespan;
    c_tps = fi (Metrics.steps m) /. sim_s;
    c_root_rx = Metrics.tracker_updates m;
    c_progress_msgs = Metrics.messages m Metrics.Progress_msg;
  }

let run () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.lj_like in
  let starts = khop_starts graph ~seed:23 ~n:8 in
  let hops = 4 in
  let workers = 4 in
  let base = ref None in
  let rows =
    List.map
      (fun nodes ->
        let c = cell graph ~starts ~hops ~nodes ~workers in
        if !base = None then base := Some (c, nodes);
        let base_cell, base_nodes = Option.get !base in
        (* Scaling relative to the smallest configuration, normalized by
           the node ratio: 1.0 = perfectly linear. *)
        let lin = c.c_tps /. base_cell.c_tps /. (fi nodes /. fi base_nodes) in
        record_json
          (J.Obj
             [
               ("kind", J.Str "scale");
               ("nodes", J.Int nodes);
               ("workers_per_node", J.Int workers);
               ("makespan_ms", J.Float c.c_makespan_ms);
               ("tps", J.Float c.c_tps);
               ("linearity", J.Float lin);
               ("root_rx", J.Int c.c_root_rx);
               ("progress_msgs", J.Int c.c_progress_msgs);
             ]);
        [
          string_of_int nodes;
          ms c.c_makespan_ms;
          Printf.sprintf "%.3e" c.c_tps;
          Printf.sprintf "%.2f" lin;
          string_of_int c.c_root_rx;
          string_of_int c.c_progress_msgs;
        ])
      [ 8; 64; 128; 256 ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "Fig 9 extension: %d concurrent %d-hop queries (lj-like, %d workers/node)"
         (Array.length starts) hops workers)
    ~headers:[ "nodes"; "makespan ms"; "traversers/s"; "lin"; "root rx"; "progress msgs" ]
    rows

(* --- Smoke: a 32-worker k-hop over every registry engine -------------- *)

let smoke () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let config = cluster ~nodes:8 ~workers:4 in
  let checked = { Engine.Common.default with Engine.Common.check = true } in
  let start = (khop_starts graph ~seed:11 ~n:1).(0) in
  let subs () = [| Engine.submit (khop_program graph ~start ~hops:2) |] in
  let rows r = Fmt.str "%a" (Fmt.list (Fmt.array Value.pp)) (Engine.sorted_rows r) in
  let reports =
    List.map
      (fun (name, (module E : Engine.S)) -> (name, E.run ~common:checked ~graph (subs ())))
      (Registry.make ~cluster_config:config ())
  in
  let rows_of name = rows (List.assoc name reports).Engine.queries.(0).Engine.rows in
  let oracle = rows_of "local" in
  List.iter
    (fun (name, _) ->
      if rows_of name <> oracle then
        failwith (Printf.sprintf "scale smoke: %s rows diverge from the local oracle" name))
    reports;
  print_table ~title:"Scale smoke: 2-hop on 8x4 workers, every engine (sanitizer on)"
    ~headers:[ "engine"; "rows == oracle"; "progress msgs" ]
    (List.map
       (fun (name, r) ->
         [ name; "yes"; string_of_int (Metrics.messages r.Engine.metrics Metrics.Progress_msg) ])
       reports);
  record_report ~label:"scale-smoke" (List.assoc "graphdance" reports)
