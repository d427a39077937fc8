(* Service-layer benchmark: open-loop load through saturation.

   The headline table sweeps a Poisson arrival rate from well under to
   well past the engine's saturation point, with the admission
   controller on and off. The claim under test is graceful degradation:
   past saturation the guarded service sheds a growing fraction of
   arrivals while the p99 of what it admits stays bounded — where the
   unguarded baseline queues without bound and its tail latency explodes
   with offered load. The SLO is the admission controller's target, not
   a met bound: admitted p99 sits above it (inside 2x), so the title
   prints the worst measured admitted p99 beside the target.

   [smoke] runs a small multi-tenant mix (one impatient tenant, so
   scoped cancellation fires) over every registry engine with the
   sanitizer on; it is wired into dune runtest via the @serve-smoke
   alias, so the whole service plane is exercised on every test run. *)

open Pstm_engine
open Pstm_service
module J = Pstm_obs.Json

let slo = Sim_time.ms 1
let checked = { Engine.Common.default with Engine.Common.check = true }

let khop2 graph =
  (* The Figure 1 k-hop neighborhood query, the paper's running example. *)
  Harness.khop_program graph ~start:1 ~hops:2

let serve_result ~admission ~rate_qps ~horizon ~graph engine =
  (* Headroom 1.5 keeps the realized p99 of admitted queries inside 2x
     the SLO: the projection lags the queue by one service time, so the
     shed threshold needs slack below the bound being defended. *)
  let config =
    Service.config ~max_inflight:4 ~slo ~admission ~headroom:1.5 ~seed:0x5e12 ~horizon
      [| Service.tenant (Arrival.Poisson { rate_qps }) |]
  in
  Service.run engine ~graph ~config ~program:(fun ~tenant:_ ~seq:_ -> khop2 graph) ()

let run () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let registry = Registry.make ~cluster_config:Harness.paper_cluster () in
  let engine = Registry.find_exn ~registry "graphdance" in
  let horizon = Sim_time.ms 10 in
  let rates = [ 2_000.0; 8_000.0; 32_000.0; 64_000.0; 128_000.0; 256_000.0 ] in
  let worst_p99 = ref 0.0 in
  let rows =
    List.map
      (fun rate_qps ->
        let guarded = serve_result ~admission:true ~rate_qps ~horizon ~graph engine in
        let baseline = serve_result ~admission:false ~rate_qps ~horizon ~graph engine in
        Harness.record_json
          (J.Obj
             [
               ("kind", J.Str "serve");
               ("rate_qps", J.Float rate_qps);
               ("admission", Service.result_json guarded);
               ("baseline", Service.result_json baseline);
             ]);
        worst_p99 := Float.max !worst_p99 (Service.p99_ms guarded);
        [
          Printf.sprintf "%.0f" rate_qps;
          string_of_int (Service.offered guarded);
          string_of_int (Service.admitted guarded);
          Harness.pct (100.0 *. Service.shed_rate guarded);
          Harness.ms (Service.p50_ms guarded);
          Harness.ms (Service.p99_ms guarded);
          Harness.ms (Service.p99_ms baseline);
        ])
      rates
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Open-loop service: admission control vs baseline (admission target p99 %.1f ms; \
          measured admitted p99 up to %.2f ms)"
         (Sim_time.to_ms slo) !worst_p99)
    ~headers:
      [ "rate qps"; "offered"; "admitted"; "shed"; "p50 ms"; "p99 ms"; "p99 ms (no admission)" ]
    rows

(* --- Smoke: every registry engine under the service layer -------------- *)

let smoke () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let cluster = { Cluster.default_config with Cluster.n_nodes = 3; workers_per_node = 3 } in
  let registry = Registry.make ~cluster_config:cluster () in
  let horizon = Sim_time.ms 1 in
  let config =
    Service.config ~max_inflight:2 ~slo ~admission:true ~headroom:2.0 ~seed:0x5e12 ~horizon
      [|
        (* A patient bulk tenant and an impatient interactive one: the
           latter's abandonments drive scoped cancellation on engines
           slower than its patience. *)
        Service.tenant ~weight:1.0 (Arrival.Poisson { rate_qps = 5_000.0 });
        Service.tenant ~weight:2.0 ~priority:1 ~patience:(Sim_time.ms 1)
          (Arrival.Bursty
             { base_qps = 2_000.0; burst_qps = 20_000.0; mean_dwell = Sim_time.us 200 });
      |]
  in
  let rows =
    List.map
      (fun (name, engine) ->
        (* [checked]: a tracker or memo leaked by cancellation aborts the
           smoke run via Check_violation. *)
        let r =
          Service.run engine ~common:checked ~graph ~config
            ~program:(fun ~tenant:_ ~seq:_ -> khop2 graph)
            ()
        in
        if Service.offered r = 0 then failwith (name ^ ": serve-smoke saw no arrivals");
        if Service.completed r = 0 then failwith (name ^ ": serve-smoke completed nothing");
        Harness.record_json
          (J.Obj
             [ ("kind", J.Str "serve-smoke"); ("engine", J.Str name);
               ("result", Service.result_json r) ]);
        [
          name;
          string_of_int (Service.offered r);
          string_of_int (Service.admitted r);
          string_of_int (Service.shed r);
          string_of_int (Service.completed r);
          string_of_int (Service.cancelled r);
          Harness.ms (Service.p99_ms r);
        ])
      registry
  in
  Harness.print_table ~title:"serve-smoke: service layer over every registry engine"
    ~headers:[ "engine"; "offered"; "admitted"; "shed"; "completed"; "cancelled"; "p99 ms" ]
    rows
