(* Benchmark harness entry point.

   Regenerates every table and figure of the paper's evaluation section
   on the simulated cluster. With no argument, runs everything in paper
   order; with an argument, runs one experiment:

     table1 table2 fig7 fig8 fig8l fig8sn fig9 fig10 fig11 fig12 fig13
     plan partition critpath micro

   All latencies are simulated milliseconds on the 8-node cluster model;
   see DESIGN.md for the hardware substitution rationale and
   EXPERIMENTS.md for measured-vs-paper comparisons. *)

let experiments =
  [
    ("table1", "Table I: workload-class characteristics", Bench_tables.table1);
    ("table2", "Table II: dataset summaries", Bench_tables.table2);
    ("fig7", "Figure 7: mixed LDBC SNB workload", Bench_fig7.run);
    ( "fig8",
      "Figure 8: individual IC queries (SNB-S)",
      fun () -> Bench_fig8.run_scale Pstm_ldbc.Snb_gen.snb_s );
    ( "fig8l",
      "Figure 8: individual IC queries (SNB-L)",
      fun () -> Bench_fig8.run_scale Pstm_ldbc.Snb_gen.snb_l );
    ("fig8sn", "Section V-A3: single-node comparison", Bench_fig8.run_single_node);
    ("fig9", "Figure 9: scalability", Bench_fig9.run);
    ("fig10", "Figures 10-11: weight coalescing", Bench_breakdown.weight_coalescing);
    ("fig12", "Figure 12: two-tier I/O scheduler", Bench_breakdown.io_scheduler);
    ("fig13", "Figure 13: hardware impact", Bench_fig13.run);
    ("plan", "Figure 3 ablation: join plans", Bench_plan.run);
    ("partition", "Ablation: partition strategies", Bench_partition.run);
    ( "critpath",
      "EXPLAIN LATENCY: critical-path attribution at 1/8/32 nodes",
      Bench_critpath.run );
    ( "critpath-smoke",
      "Smoke: causal tracing + exact attribution across every registry engine",
      Bench_critpath.smoke );
    ( "mc-smoke",
      "Smoke: schedule exploration + protocol mutation catching",
      Bench_mc.smoke );
    ( "serve",
      "Service layer: open-loop load, admission control vs baseline",
      Bench_serve.run );
    ( "scale",
      "Fig 9 extension: flat progress tracking at 8-256 nodes",
      Bench_scale.run );
    ( "scale-smoke",
      "Smoke: a 32-worker k-hop over every registry engine vs the oracle",
      Bench_scale.smoke );
    ( "serve-smoke",
      "Smoke: the query service over every registry engine, sanitizer on",
      Bench_serve.smoke );
    ("micro", "Microbenchmarks", Bench_micro.run);
    ("smoke", "Smoke: one tiny config through the result pipeline", Harness.smoke);
    ("faults", "Fault sweep: GraphDance under an unreliable network", Bench_faults.run);
  ]

(* "--faults" is accepted as a spelling of the faults experiment. *)
let aliases = [ ("fig11", "fig10"); ("--faults", "faults") ]

let run_one name =
  let name = Option.value ~default:name (List.assoc_opt name aliases) in
  match List.find_opt (fun (n, _, _) -> n = name) experiments with
  | Some (_, title, f) ->
    Harness.section title;
    let t0 = Sys.time () in
    f ();
    Printf.printf "  [%s done in %.1fs cpu]\n%!" name (Sys.time () -. t0)
  | None ->
    Printf.eprintf "unknown experiment %S; available: %s\n" name
      (String.concat " " (List.map (fun (n, _, _) -> n) experiments @ List.map fst aliases));
    exit 1

(* Pull [--json PATH] out of argv; everything else is experiment names. *)
let rec extract_json_path = function
  | [] -> (None, [])
  | "--json" :: path :: rest ->
    let _, names = extract_json_path rest in
    (Some path, names)
  | [ "--json" ] ->
    prerr_endline "--json requires a file argument";
    exit 1
  | name :: rest ->
    let path, names = extract_json_path rest in
    (path, name :: names)

let () =
  print_endline "GraphDance / PSTM benchmark harness";
  print_endline "(all latencies are simulated time on the modeled 8-node cluster)";
  let args = match Array.to_list Sys.argv with [] -> [] | _ :: rest -> rest in
  let json_path, names = extract_json_path args in
  Harness.json_enabled := json_path <> None;
  (match names with
  | [] ->
    (* Everything in paper order; the smoke entries and faults are CI
       fixtures, not figures. *)
    List.iter
      (fun (n, _, _) ->
        if
          n <> "smoke" && n <> "faults" && n <> "mc-smoke" && n <> "critpath-smoke"
          && n <> "serve-smoke" && n <> "scale-smoke"
        then
          run_one n)
      experiments
  | names -> List.iter run_one names);
  match json_path with
  | None -> ()
  | Some path ->
    if !Harness.json_sink = [] then begin
      (* An experiment ran but recorded nothing: the mirroring in
         print_table / record_report has rotted. *)
      prerr_endline "--json given but no results were recorded";
      exit 1
    end;
    Harness.write_json path
