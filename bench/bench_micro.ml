(* Wall-clock microbenchmarks (Bechamel) of the hot primitives underneath
   the simulator's cost model: weight arithmetic, memo operations, top-k
   accumulation, CSR adjacency scans and single-step execution. *)

open Bechamel
open Toolkit

let weight_tests () =
  let prng = Pstm_util.Prng.create 1 in
  [
    Test.make ~name:"weight-split2"
      (Staged.stage (fun () -> ignore (Pstm_core.Weight.split2 prng Pstm_core.Weight.root)));
    Test.make ~name:"weight-add"
      (Staged.stage
         (let w = ref Pstm_core.Weight.zero in
          fun () -> w := Pstm_core.Weight.add !w Pstm_core.Weight.root));
    Test.make ~name:"prng-next"
      (Staged.stage (fun () -> ignore (Pstm_util.Prng.next_int64 prng)));
  ]

let memo_tests () =
  let memo = Pstm_core.Memo.create () in
  let prng = Pstm_util.Prng.create 2 in
  [
    Test.make ~name:"memo-dedup-probe"
      (Staged.stage (fun () ->
           ignore
             (Pstm_core.Memo.add_if_absent memo ~qid:0 ~label:1
                (Value.Int (Pstm_util.Prng.int prng 100_000)))));
    Test.make ~name:"memo-min-dist"
      (Staged.stage (fun () ->
           ignore
             (Pstm_core.Memo.min_int_update memo ~qid:0 ~label:2
                (Value.Vertex (Pstm_util.Prng.int prng 100_000))
                (Pstm_util.Prng.int prng 8))));
  ]

let structure_tests () =
  let prng = Pstm_util.Prng.create 3 in
  let topk =
    Pstm_util.Topk.create ~k:10
      ~cmp:(fun (a, _) (b, _) -> compare (a : int) b)
      ~dummy:(0, 0)
  in
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.lj_like in
  let n = Graph.n_vertices graph in
  [
    Test.make ~name:"topk-add"
      (Staged.stage (fun () ->
           Pstm_util.Topk.add topk (Pstm_util.Prng.int prng 1_000_000, Pstm_util.Prng.int prng n)));
    Test.make ~name:"csr-expand-scan"
      (Staged.stage (fun () ->
           let v = Pstm_util.Prng.int prng n in
           let acc = ref 0 in
           Graph.iter_adjacent graph ~dir:Graph.Out v (fun ~target ~edge_id:_ ~label:_ ->
               acc := !acc + target);
           ignore !acc));
    Test.make ~name:"value-compare"
      (Staged.stage (fun () ->
           ignore (Value.compare (Value.Int (Pstm_util.Prng.int prng 100)) (Value.Int 50))));
  ]

(* Fused frontier chain vs the scalar interpreter: the same
   Expand -> Filter chain over the same frontier, one [Batch_exec.run]
   vs one [Exec.exec] dispatch per traverser per step. No engine runs
   [Batch_exec]; this measures the kernel alone, as perfbench's
   [batch_exec] layer kernel does. *)
let fused_vs_scalar () =
  let open Pstm_engine in
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.lj_like in
  let program =
    Pstm_query.Compile.compile ~name:"frontier" graph
      Pstm_query.Dsl.(
        v_lookup ~key:"id" (int 0) |> out_ "link" |> has "weight" (gte (int 50)) |> count |> build)
  in
  (* Root the chain at the program's first fusable step (the Expand). *)
  let start =
    let rec find i =
      if i >= Program.n_steps program then failwith "no fusable step"
      else if Batch_exec.fusable program i then i
      else find (i + 1)
    in
    find 0
  in
  let exit_step = snd (Batch_exec.chain program start) in
  let n_registers = Program.n_registers program in
  let prng0 = Pstm_util.Prng.create 7 in
  (* A realistic frontier: the out-neighborhood of 256 seed vertices —
     what a (partition, step) group holds right after an expand. Hub
     vertices recur across seeds, which is the redundancy the batched
     filter memo amortizes and the scalar interpreter pays per
     traverser. *)
  let frontier =
    let csr = Graph.out_csr graph in
    let vertices = ref [] in
    let seeds = ref 0 in
    while !seeds < 256 do
      let v = Pstm_util.Prng.int prng0 (Graph.n_vertices graph) in
      if Graph.out_degree graph v > 0 then begin
        incr seeds;
        let lo, hi = Csr.slice csr v in
        for pos = lo to hi - 1 do
          vertices := Csr.target_at csr pos :: !vertices
        done
      end
    done;
    !vertices
    |> List.map (fun v -> Traverser.make ~vertex:v ~step:start ~weight:Weight.root ~n_registers)
    |> Array.of_list
  in
  let iters = 20 in
  let time f =
    let t0 = Sys.time () in
    for _ = 1 to iters do
      f ()
    done;
    Sys.time () -. t0
  in
  let scalar_s =
    let memo = Pstm_core.Memo.create () in
    let prng = Pstm_util.Prng.create 11 in
    let scan _ = [||] in
    time (fun () ->
        let queue = Queue.create () in
        Array.iter (fun t -> Queue.add t queue) frontier;
        while not (Queue.is_empty queue) do
          let t = Queue.pop queue in
          let o = Exec.exec ~graph ~memo ~prng ~qid:0 ~program ~scan t in
          List.iter
            (fun (c : Traverser.t) -> if c.Traverser.step <> exit_step then Queue.add c queue)
            o.Exec.spawns
        done)
  in
  let batched_s =
    let scratch = Batch_exec.scratch ~graph in
    let prng = Pstm_util.Prng.create 11 in
    (* Consume the spawns like the engine does, so the comparison covers
       materializing the surviving traversers, not just the sweep. *)
    let sink = ref 0 in
    time (fun () ->
        let o = Batch_exec.run ~graph ~scratch ~prng ~program ~step:start frontier in
        Batch_exec.iter_spawns o (fun ~parent:_ (c : Traverser.t) ->
            sink := !sink + c.Traverser.vertex))
  in
  let per t = t /. float_of_int iters *. 1e9 /. float_of_int (Array.length frontier) in
  Printf.printf "  %-20s %10.1f ns/traverser\n" "chain-scalar" (per scalar_s);
  Printf.printf "  %-20s %10.1f ns/traverser\n" "chain-batched" (per batched_s);
  Printf.printf "  %-20s %10.2fx\n" "fused-speedup" (scalar_s /. batched_s)

let run () =
  (* The fused-vs-scalar comparison runs first: Bechamel's allocation
     churn leaves the heap in a state that distorts Sys.time measurements
     taken after it in the same process. *)
  Printf.printf "\n== Batch_exec kernel: fused chain vs scalar interpreter ==\n";
  fused_vs_scalar ();
  Printf.printf "\n== Microbenchmarks (wall clock, Bechamel OLS ns/op) ==\n";
  let tests = weight_tests () @ memo_tests () @ structure_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let stats = Analyze.all ols (List.hd instances) results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] -> Printf.printf "  %-20s %10.1f ns/op\n" name ns
          | _ -> Printf.printf "  %-20s (no estimate)\n" name)
        stats)
    tests
