(* Layer kernel suite: host ns and words allocated per operation of each
   layer, driven through its public functions on inputs shaped like the
   workload (its cluster, graph, query, message size and frontier size,
   the latter two read from the workload's own untraced round).

   Each kernel is timed [reps] times after one warm call; the median is
   reported. Sys.time is the process CPU clock, so every timed call is
   sized to take several milliseconds. *)

open Pstm_engine

let reps = 5

(* [f] performs [ops] operations per call. *)
let measure ~ops f =
  f ();
  let samples =
    List.init reps (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Sys.time () in
        f ();
        let dt = Sys.time () -. t0 in
        (dt, Gc.minor_words () -. w0))
  in
  let per x = x /. float_of_int ops in
  ( per (Metric.median (List.map fst samples)) *. 1e9,
    per (Metric.median (List.map snd samples)) )

let pair ~layer ~op (ns, words) =
  [
    Metric.make (Printf.sprintf "%s.ns_per_%s" layer op) "ns" Metric.Host ns;
    Metric.make (Printf.sprintf "%s.words_per_%s" layer op) "words" Metric.Host words;
  ]

let cluster_config (env : Workload.env) =
  {
    Cluster.default_config with
    Cluster.n_nodes = env.Workload.spec.Workload.nodes;
    workers_per_node = env.Workload.spec.Workload.workers;
  }

(* Hold model: one pending event per worker; each op schedules one event
   a few microseconds ahead and runs the earliest. *)
let event_queue ~depth =
  let q = Event_queue.create () in
  let prng = Prng.create 1 in
  let noop () = () in
  for _ = 1 to depth do
    Event_queue.schedule_at q ~time:(Sim_time.ns (Prng.int prng 10_000)) noop
  done;
  let ops = 200_000 in
  measure ~ops (fun () ->
      for _ = 1 to ops do
        Event_queue.schedule_after q ~delay:(Sim_time.ns (1 + Prng.int prng 10_000)) noop;
        ignore (Event_queue.step q)
      done)

(* Traverser messages of the run's mean size between random workers,
   then every worker flushes and the network drains: append, combining,
   packet and delivery costs per message. *)
let channel env ~bytes =
  let cluster = Cluster.create (cluster_config env) in
  let ch = Channel.create cluster Channel.default_config ~dummy:0 ~deliver:(fun _ _ -> ()) in
  let workers = Cluster.n_workers cluster in
  let prng = Prng.create 2 in
  let ops = 50_000 in
  measure ~ops (fun () ->
      let at = Cluster.now cluster in
      for i = 1 to ops do
        ignore
          (Channel.send ch ~at ~src_worker:(Prng.int prng workers) ~dst_worker:(Prng.int prng workers)
             ~kind:Metrics.Traverser_msg ~bytes i)
      done;
      for w = 0 to workers - 1 do
        ignore (Channel.flush_worker ch ~at ~worker:w)
      done;
      Event_queue.run_to_completion (Cluster.events cluster))

(* Worker-local coalescing of finished weights over [queries] live
   queries, drained per flush epoch of [epoch] additions. *)
let coalesce ~queries =
  let c = Progress.coalescer () in
  let prng = Prng.create 3 in
  let ops = 200_000 and epoch = 64 in
  measure ~ops (fun () ->
      for i = 1 to ops do
        Progress.coalesce c ~qid:(Prng.int prng queries) ~phase:0 (Weight.random prng);
        if i mod epoch = 0 then ignore (Progress.drain c)
      done;
      ignore (Progress.drain c))

(* Root-tracker receipts until the phase completes. *)
let receive () =
  let prng = Prng.create 4 in
  let ops = 200_000 in
  let shares = Array.init ops (fun _ -> Weight.random prng) in
  let target = Array.fold_left Weight.add Weight.zero shares in
  measure ~ops (fun () ->
      let t = Progress.tracker ~target in
      Array.iter (fun w -> ignore (Progress.receive t w)) shares)

(* The workload's expansion chain over a frontier of [size] traversers:
   the step interpreter one traverser and step at a time, against the
   CSR-range batch kernel over the whole frontier. *)
let frontier_program (env : Workload.env) =
  let label = match env.Workload.snb with None -> "link" | Some _ -> "knows" in
  Pstm_query.Compile.compile ~name:"frontier" env.Workload.graph
    Pstm_query.Dsl.(
      v_lookup ~key:"id" (int 0) |> repeat_out label ~times:2 |> has "id" (ne (int 0)) |> count |> build)

let exec_kernels env ~size =
  let graph = env.Workload.graph in
  let program = frontier_program env in
  let start =
    let rec find i =
      if i >= Program.n_steps program then failwith "kernels: no fusable step"
      else if Batch_exec.fusable program i then i
      else find (i + 1)
    in
    find 0
  in
  let exit_step = snd (Batch_exec.chain program start) in
  let n_registers = Program.n_registers program in
  let prng = Prng.create 5 in
  let sources =
    match env.Workload.snb with
    | Some data -> data.Pstm_ldbc.Snb_gen.persons
    | None -> Array.init (Graph.n_vertices graph) Fun.id
  in
  let frontier =
    Array.init size (fun _ ->
        let rec pick () =
          let v = Prng.pick prng sources in
          if Graph.out_degree graph v > 0 then v else pick ()
        in
        Traverser.make ~vertex:(pick ()) ~step:start ~weight:Weight.root ~n_registers)
  in
  let memo = Memo.create () in
  let scan _ = [||] in
  let steps = ref 0 in
  let run_scalar () =
    let queue = Queue.create () in
    Array.iter (fun t -> Queue.add t queue) frontier;
    while not (Queue.is_empty queue) do
      let t = Queue.pop queue in
      incr steps;
      let o = Exec.exec ~graph ~memo ~prng ~qid:0 ~program ~scan t in
      List.iter
        (fun (c : Traverser.t) -> if c.Traverser.step <> exit_step then Queue.add c queue)
        o.Exec.spawns
    done
  in
  run_scalar ();
  let steps_per_call = !steps in
  let scratch = Batch_exec.scratch ~graph in
  let sink = ref 0 in
  let run_batched () =
    let o = Batch_exec.run ~graph ~scratch ~prng ~program ~step:start frontier in
    Batch_exec.iter_spawns o (fun ~parent:_ (c : Traverser.t) -> sink := !sink + c.Traverser.vertex)
  in
  let calls = max 1 (200_000 / max 1 steps_per_call) in
  let repeat f () =
    for _ = 1 to calls do
      f ()
    done
  in
  ( measure ~ops:(calls * steps_per_call) (repeat run_scalar),
    measure ~ops:(calls * size) (repeat run_batched) )

(* Compiling the workload's query shapes from their ASTs (LDBC: the 21
   IC/IS constructors, parameters drawn as in the workload). *)
let compile (env : Workload.env) =
  let prng = Prng.create 6 in
  match env.Workload.snb with
  | None ->
    let n = Graph.n_vertices env.Workload.graph in
    let ops = 2_000 in
    measure ~ops (fun () ->
        for _ = 1 to ops do
          ignore
            (Pstm_query.Compile.compile ~name:"2-hop" env.Workload.graph
               (Workload.khop_ast (Prng.int prng n)))
        done)
  | Some data ->
    let makers = Array.of_list Pstm_ldbc.Driver.workload_mix in
    let rounds = 50 in
    measure ~ops:(rounds * Array.length makers) (fun () ->
        for _ = 1 to rounds do
          Array.iter (fun (a : Pstm_ldbc.Driver.arrival) -> ignore (a.Pstm_ldbc.Driver.make data prng)) makers
        done)

let run (env : Workload.env) ~(report : Engine.report) ~ops =
  let m = report.Engine.metrics in
  let depth = (cluster_config env).Cluster.n_nodes * (cluster_config env).Cluster.workers_per_node in
  let msgs = Metrics.messages m Metrics.Traverser_msg in
  let bytes = if msgs = 0 then 64 else Metrics.message_bytes m Metrics.Traverser_msg / msgs in
  let size = max 64 (min 8192 (Metrics.spawned m / max 1 ops)) in
  let queries =
    match env.Workload.spec.Workload.kind with
    | Workload.Closed { clients; _ } -> clients
    | Workload.Serve _ -> 4 (* the service's default dispatch window *)
  in
  let exec, batch = exec_kernels env ~size in
  [
    Metric.make "kernel.queue_depth" "events" Metric.Count (float_of_int depth);
    Metric.make "kernel.msg_bytes" "bytes" Metric.Count (float_of_int bytes);
    Metric.make "kernel.frontier" "traversers" Metric.Count (float_of_int size);
  ]
  @ pair ~layer:"event_queue" ~op:"event" (event_queue ~depth)
  @ pair ~layer:"channel" ~op:"send" (channel env ~bytes)
  @ pair ~layer:"progress" ~op:"coalesce" (coalesce ~queries)
  @ pair ~layer:"progress" ~op:"receive" (receive ())
  @ pair ~layer:"exec" ~op:"step" exec
  @ pair ~layer:"batch_exec" ~op:"traverser" batch
  @ pair ~layer:"query" ~op:"compile" (compile env)
