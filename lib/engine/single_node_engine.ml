(* Single-node engine — the GraphScope role of §V-A3.

   GraphScope's audited LDBC numbers come from hand-optimized single-node
   C++ plugins, so this configuration runs the asynchronous runtime on one
   node (no network at all: every message takes the shared-memory path)
   with a discounted CPU cost table standing in for the specialized
   plugins. The flip side the paper demonstrates on SF1000 — the dataset
   no longer fits one machine's DRAM — is modeled by the per-node memory
   capacity: once the graph exceeds it, data accesses pay the swap
   penalty, and queries blow through their deadline exactly as 9 of 14 IC
   queries did in the paper. *)

(* Hand-tuned plugins run leaner per-step code than a general engine. *)
let plugin_discount t = Sim_time.of_float_ns (float_of_int (Sim_time.to_ns t) *. 0.6)

let cluster_config ~workers ~(base : Cluster.config) =
  let c = base.Cluster.costs in
  {
    base with
    Cluster.n_nodes = 1;
    workers_per_node = workers;
    costs =
      {
        c with
        Cluster.step_dispatch = plugin_discount c.Cluster.step_dispatch;
        per_edge = plugin_discount c.Cluster.per_edge;
        per_property = plugin_discount c.Cluster.per_property;
        memo_op = plugin_discount c.Cluster.memo_op;
      };
  }

let options ~memory_capacity =
  {
    Async_engine.default_options with
    Async_engine.memory_capacity = Some memory_capacity;
  }

let run ?common ?(memory_capacity = 384 * 1024 * 1024) ~workers ~base_config ~graph
    submissions =
  let report =
    Async_engine.run ~options:(options ~memory_capacity) ?common
      ~cluster_config:(cluster_config ~workers ~base:base_config)
      ~channel_config:Channel.default_config ~graph submissions
  in
  { report with Engine.engine = "single-node" }

let start ?common ?(memory_capacity = 384 * 1024 * 1024) ~workers ~base_config ~graph () =
  let h =
    Async_engine.create ~options:(options ~memory_capacity) ?common
      ~cluster_config:(cluster_config ~workers ~base:base_config)
      ~channel_config:Channel.default_config ~graph ()
  in
  {
    h with
    Engine.sh_name = "single-node";
    sh_finish = (fun () -> { (h.Engine.sh_finish ()) with Engine.engine = "single-node" });
  }
