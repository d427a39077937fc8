(* Unit and property tests for pstm_sim: clock, event queue, network
   model, cluster NIC serialization and the two-tier channel. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- Sim_time --- *)

let test_time_conversions () =
  Alcotest.(check int) "us" 1_000 (Sim_time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Sim_time.ms 1);
  Alcotest.(check (float 0.0001)) "to_ms" 1.5 (Sim_time.to_ms (Sim_time.us 1_500));
  Alcotest.(check string) "pp us" "1.50us" (Fmt.str "%a" Sim_time.pp (Sim_time.ns 1_500));
  Alcotest.(check string) "pp ms" "2.000ms" (Fmt.str "%a" Sim_time.pp (Sim_time.ms 2))

(* --- Event_queue --- *)

let test_event_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.schedule_at q ~time:30 (fun () -> log := 3 :: !log);
  Event_queue.schedule_at q ~time:10 (fun () -> log := 1 :: !log);
  Event_queue.schedule_at q ~time:20 (fun () -> log := 2 :: !log);
  Event_queue.run_to_completion q;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Event_queue.now q)

let test_event_tie_break_fifo () =
  let q = Event_queue.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Event_queue.schedule_at q ~time:7 (fun () -> log := i :: !log)
  done;
  Event_queue.run_to_completion q;
  Alcotest.(check (list int)) "fifo at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_event_chooser_permutes_ties () =
  (* A chooser sees each same-timestamp batch as (insertion seq, tag)
     choices and picks which entry fires first; unpicked entries keep
     their seqs, so the remaining order stays stable. *)
  let q = Event_queue.create () in
  let log = ref [] in
  let seen = ref [] in
  for i = 1 to 4 do
    Event_queue.schedule_at q ~time:7 ~tag:i (fun () -> log := i :: !log)
  done;
  Event_queue.set_chooser q
    (Some
       (fun choices ->
         seen := Array.to_list (Array.map (fun c -> c.Event_queue.c_tag) choices) :: !seen;
         Array.length choices - 1));
  Event_queue.run_to_completion q;
  Alcotest.(check (list int)) "always picks the youngest tied entry" [ 4; 3; 2; 1 ]
    (List.rev !log);
  (match List.rev !seen with
  | [ 1; 2; 3; 4 ] :: _ -> ()
  | _ -> Alcotest.fail "first batch should expose all four tags in insertion order");
  (* Out-of-range picks clamp to the default order. *)
  let q = Event_queue.create () in
  let log = ref [] in
  for i = 1 to 3 do
    Event_queue.schedule_at q ~time:7 (fun () -> log := i :: !log)
  done;
  Event_queue.set_chooser q (Some (fun _ -> 99));
  Event_queue.run_to_completion q;
  Alcotest.(check (list int)) "clamped to fifo" [ 1; 2; 3 ] (List.rev !log)

let test_event_seq_monotonic () =
  let q = Event_queue.create () in
  let a = Event_queue.next_seq q in
  Event_queue.schedule_at q ~time:1 ignore;
  let b = Event_queue.next_seq q in
  Alcotest.(check bool) "insertion seq advances" true (b > a)

let test_event_cascade () =
  let q = Event_queue.create () in
  let count = ref 0 in
  let rec step n = if n > 0 then Event_queue.schedule_after q ~delay:5 (fun () ->
      incr count;
      step (n - 1))
  in
  step 10;
  Event_queue.run_to_completion q;
  Alcotest.(check int) "all fired" 10 !count;
  Alcotest.(check int) "clock" 50 (Event_queue.now q)

let test_event_past_rejected () =
  let q = Event_queue.create () in
  Event_queue.schedule_at q ~time:10 ignore;
  ignore (Event_queue.step q);
  Alcotest.(check bool) "raises on past" true
    (try
       Event_queue.schedule_at q ~time:5 ignore;
       false
     with Invalid_argument _ -> true)

let test_event_run_until () =
  let q = Event_queue.create () in
  let fired = ref [] in
  List.iter (fun t -> Event_queue.schedule_at q ~time:t (fun () -> fired := t :: !fired)) [ 5; 15; 25 ];
  Event_queue.run_until q ~time:15;
  Alcotest.(check (list int)) "only up to 15" [ 5; 15 ] (List.rev !fired);
  Alcotest.(check int) "clock moved" 15 (Event_queue.now q);
  Alcotest.(check int) "one pending" 1 (Event_queue.pending q)

let test_event_budget () =
  let q = Event_queue.create () in
  let rec forever () = Event_queue.schedule_after q ~delay:1 forever in
  forever ();
  Alcotest.(check bool) "budget enforced" true
    (try
       Event_queue.run_to_completion ~max_events:100 q;
       false
     with Failure _ -> true)

(* --- Netmodel --- *)

let test_netmodel_costs () =
  let net = Netmodel.default in
  let t1 = Netmodel.nic_occupancy net ~bytes:100 in
  let t2 = Netmodel.nic_occupancy net ~bytes:10_000 in
  Alcotest.(check bool) "monotone in bytes" true (t2 > t1);
  let slow = Netmodel.with_bandwidth net 50.0 in
  let wire_fast = Netmodel.wire_time net ~bytes:100_000 in
  let wire_slow = Netmodel.wire_time slow ~bytes:100_000 in
  Alcotest.(check bool) "4x bandwidth ratio" true
    (abs (wire_slow - (4 * wire_fast)) <= 4);
  Alcotest.(check bool) "per-packet floor" true (t1 >= net.Netmodel.per_packet)

(* --- Cluster --- *)

let test_cluster_topology () =
  let c = Cluster.create { Cluster.default_config with Cluster.n_nodes = 3; workers_per_node = 4 } in
  Alcotest.(check int) "workers" 12 (Cluster.n_workers c);
  Alcotest.(check int) "node of 5" 1 (Cluster.node_of_worker c 5);
  Alcotest.(check bool) "same node" true (Cluster.same_node c 4 7);
  Alcotest.(check bool) "different node" false (Cluster.same_node c 3 4);
  Alcotest.(check (array int)) "workers of node" [| 8; 9; 10; 11 |] (Cluster.workers_of_node c 2)

let test_cluster_nic_serializes () =
  let c = Cluster.create { Cluster.default_config with Cluster.n_nodes = 2; workers_per_node = 1 } in
  let arrivals = ref [] in
  (* Two packets from node 0 at the same instant must serialize through
     the NIC: the second arrives later. *)
  Cluster.send_packet c ~at:0 ~src_node:0 ~dst_node:1 ~bytes:8_000 (fun () ->
      arrivals := ("a", Cluster.now c) :: !arrivals);
  Cluster.send_packet c ~at:0 ~src_node:0 ~dst_node:1 ~bytes:8_000 (fun () ->
      arrivals := ("b", Cluster.now c) :: !arrivals);
  Event_queue.run_to_completion (Cluster.events c);
  match List.rev !arrivals with
  | [ ("a", ta); ("b", tb) ] ->
    Alcotest.(check bool) "second later" true (tb > ta);
    let occupancy = Netmodel.nic_occupancy (Cluster.net c) ~bytes:8_000 in
    Alcotest.(check int) "gap is one occupancy" occupancy (tb - ta)
  | _ -> Alcotest.fail "expected two arrivals in order"

(* --- Channel --- *)

let make_channel ?(config = Channel.default_config) ~n_nodes ~workers () =
  let cluster =
    Cluster.create { Cluster.default_config with Cluster.n_nodes = n_nodes; workers_per_node = workers }
  in
  let received = ref [] in
  let chan =
    Channel.create cluster config ~dummy:(-1) ~deliver:(fun dst payload ->
        received := (dst, payload, Cluster.now cluster) :: !received)
  in
  (cluster, chan, received)

let test_channel_delivers_everything () =
  let cluster, chan, received = make_channel ~n_nodes:2 ~workers:2 () in
  for i = 0 to 99 do
    ignore
      (Channel.send chan ~at:0 ~src_worker:0 ~dst_worker:(i mod 4) ~kind:Metrics.Traverser_msg
         ~bytes:40 i)
  done;
  ignore (Channel.flush_worker chan ~at:0 ~worker:0);
  Event_queue.run_to_completion (Cluster.events cluster);
  Alcotest.(check int) "all delivered" 100 (List.length !received);
  let payloads = List.sort compare (List.map (fun (_, p, _) -> p) !received) in
  Alcotest.(check (list int)) "each exactly once" (List.init 100 Fun.id) payloads;
  (* Destination correctness. *)
  List.iter (fun (dst, p, _) -> Alcotest.(check int) "routed correctly" (p mod 4) dst) !received

let test_channel_same_node_is_local () =
  let cluster, chan, received = make_channel ~n_nodes:2 ~workers:2 () in
  ignore (Channel.send chan ~at:0 ~src_worker:0 ~dst_worker:1 ~kind:Metrics.Control_msg ~bytes:16 7);
  Event_queue.run_to_completion (Cluster.events cluster);
  Alcotest.(check int) "delivered" 1 (List.length !received);
  Alcotest.(check int) "no packets" 0 (Metrics.packets (Cluster.metrics cluster));
  Alcotest.(check int) "counted local" 1 (Metrics.local_messages (Cluster.metrics cluster))

let test_channel_threshold_flush () =
  let config = { Channel.default_config with Channel.flush_bytes = 100; nlc = false } in
  let cluster, chan, received = make_channel ~config ~n_nodes:2 ~workers:1 () in
  (* 3 x 40 bytes crosses the 100-byte threshold: flushes without an
     explicit flush_worker call. *)
  for i = 0 to 2 do
    ignore (Channel.send chan ~at:0 ~src_worker:0 ~dst_worker:1 ~kind:Metrics.Traverser_msg ~bytes:40 i)
  done;
  Event_queue.run_to_completion (Cluster.events cluster);
  Alcotest.(check int) "delivered on threshold" 3 (List.length !received);
  Alcotest.(check int) "single packet" 1 (Metrics.packets (Cluster.metrics cluster))

let test_channel_no_batching_packet_per_message () =
  let cluster, chan, received = make_channel ~config:Channel.no_batching ~n_nodes:2 ~workers:1 () in
  for i = 0 to 9 do
    ignore (Channel.send chan ~at:0 ~src_worker:0 ~dst_worker:1 ~kind:Metrics.Traverser_msg ~bytes:40 i)
  done;
  Event_queue.run_to_completion (Cluster.events cluster);
  Alcotest.(check int) "delivered" 10 (List.length !received);
  Alcotest.(check int) "one packet per message" 10 (Metrics.packets (Cluster.metrics cluster))

let test_channel_nlc_combines () =
  (* Two workers on node 0 each flush to node 1 within one NLC window:
     one packet total. *)
  let cluster, chan, received = make_channel ~n_nodes:2 ~workers:2 () in
  ignore (Channel.send chan ~at:0 ~src_worker:0 ~dst_worker:2 ~kind:Metrics.Traverser_msg ~bytes:40 0);
  ignore (Channel.send chan ~at:0 ~src_worker:1 ~dst_worker:3 ~kind:Metrics.Traverser_msg ~bytes:40 1);
  ignore (Channel.flush_worker chan ~at:0 ~worker:0);
  ignore (Channel.flush_worker chan ~at:0 ~worker:1);
  Event_queue.run_to_completion (Cluster.events cluster);
  Alcotest.(check int) "delivered" 2 (List.length !received);
  Alcotest.(check int) "one combined packet" 1 (Metrics.packets (Cluster.metrics cluster))

let channel_random_traffic =
  QCheck.Test.make ~name:"channel delivers arbitrary traffic exactly once" ~count:50
    QCheck.(list (pair (int_range 0 7) (int_range 0 7)))
    (fun sends ->
      let cluster, chan, received = make_channel ~n_nodes:4 ~workers:2 () in
      List.iteri
        (fun i (src, dst) ->
          ignore
            (Channel.send chan ~at:0 ~src_worker:src ~dst_worker:dst ~kind:Metrics.Traverser_msg
               ~bytes:30 i))
        sends;
      for w = 0 to 7 do
        ignore (Channel.flush_worker chan ~at:0 ~worker:w)
      done;
      Event_queue.run_to_completion (Cluster.events cluster);
      List.sort compare (List.map (fun (_, p, _) -> p) !received)
      = List.init (List.length sends) Fun.id)

(* Random schedules execute in nondecreasing time order regardless of
   insertion order. *)
let event_order_random =
  QCheck.Test.make ~name:"random schedules run in time order" ~count:200
    QCheck.(list (int_range 0 1000))
    (fun times ->
      let q = Event_queue.create () in
      let log = ref [] in
      List.iter (fun t -> Event_queue.schedule_at q ~time:t (fun () -> log := t :: !log)) times;
      Event_queue.run_to_completion q;
      List.rev !log = List.sort compare times)

(* Run a random schedule of [(time, tag, follow)] entries, all scheduled
   up front. Entry [i] logs [i] when it fires and, when [follow >= 0],
   schedules a follow-up [follow] ns later that logs [-1 - i] (a follow
   of 0 makes a fresh tie at the current time). Returns the fire log, the
   fire times, and every batch the chooser (if any) was shown. *)
let run_schedule ?chooser entries =
  let q = Event_queue.create () in
  let log = ref [] and times = ref [] and batches = ref [] in
  Option.iter
    (fun choose ->
      Event_queue.set_chooser q
        (Some
           (fun choices ->
             batches := choices :: !batches;
             choose choices)))
    chooser;
  let fire id () =
    log := id :: !log;
    times := Event_queue.now q :: !times
  in
  List.iteri
    (fun i (time, tag, follow) ->
      Event_queue.schedule_at q ~time ~tag (fun () ->
          fire i ();
          if follow >= 0 then Event_queue.schedule_after q ~tag ~delay:follow (fire (-1 - i))))
    entries;
  Event_queue.run_to_completion q;
  (List.rev !log, List.rev !times, List.rev !batches)

let ascending_seqs batch =
  let ok = ref true in
  for i = 1 to Array.length batch - 1 do
    if batch.(i - 1).Event_queue.c_seq >= batch.(i).Event_queue.c_seq then ok := false
  done;
  !ok

(* The event heap's order contract: without follow-ups the fire order is
   the schedule sorted by (time, seq) — seq being the schedule index — a
   chooser that always declines to reorder reproduces the chooser-free
   run exactly, and every tied batch shown to a chooser (including after
   unpicked entries were pushed back) is in ascending seq. *)
let event_queue_order =
  QCheck.Test.make ~name:"event queue fires in (time, seq) order" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 80) (triple (int_range 0 40) (int_range 0 3) (int_range (-1) 3)))
    (fun entries ->
      let flat = List.map (fun (time, tag, _) -> (time, tag, -1)) entries in
      let fired, _, _ = run_schedule flat in
      let by_time_then_seq =
        List.mapi (fun seq (time, _, _) -> (time, seq)) flat
        |> List.sort (fun (t1, s1) (t2, s2) ->
               match Int.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c)
        |> List.map snd
      in
      let plain, _, _ = run_schedule entries in
      let declined, _, declined_batches = run_schedule ~chooser:(fun _ -> 0) entries in
      let _, youngest_times, youngest_batches =
        run_schedule ~chooser:(fun choices -> Array.length choices - 1) entries
      in
      fired = by_time_then_seq
      && declined = plain
      && List.for_all ascending_seqs (declined_batches @ youngest_batches)
      && List.for_all (fun b -> Array.length b >= 2) (declined_batches @ youngest_batches)
      && youngest_times = List.sort Int.compare youngest_times)

(* Histogram percentiles track exact percentiles within bucket error. *)
let histogram_tracks_exact =
  QCheck.Test.make ~name:"histogram percentile near exact" ~count:100
    QCheck.(list_of_size (Gen.int_range 50 300) (float_range 0.001 10.0))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      let arr = Array.of_list samples in
      List.for_all
        (fun q ->
          let exact = Stats.percentile arr q in
          let approx = Histogram.percentile h q in
          approx <= exact *. 1.25 +. 1e-9 && approx >= exact /. 1.25 -. 1e-9)
        [ 50.0; 90.0; 99.0 ])

(* --- Metrics --- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.count_message m Metrics.Progress_msg 24;
  Metrics.count_message m Metrics.Traverser_msg 40;
  Metrics.count_message m Metrics.Traverser_msg 40;
  Alcotest.(check int) "by kind" 1 (Metrics.messages m Metrics.Progress_msg);
  Alcotest.(check int) "bytes by kind" 80 (Metrics.message_bytes m Metrics.Traverser_msg);
  Alcotest.(check int) "total" 3 (Metrics.total_messages m);
  (* pp reports both counts and bytes per kind. *)
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
    at 0
  in
  let rendered = Fmt.str "%a" Metrics.pp m in
  List.iter
    (fun kind ->
      let expected =
        Printf.sprintf "%s=%d/%dB" (Metrics.kind_name kind) (Metrics.messages m kind)
          (Metrics.message_bytes m kind)
      in
      Alcotest.(check bool)
        (Printf.sprintf "pp shows %s" expected)
        true (contains rendered expected))
    Metrics.all_kinds;
  Metrics.count_packet m 128;
  Metrics.count_flush m;
  Metrics.count_step m;
  Metrics.count_edges m 7;
  Metrics.count_spawn m;
  Metrics.count_memo_op m;
  Metrics.count_superstep m;
  Metrics.count_tracker_update m;
  Metrics.count_busy m 99;
  Metrics.count_local_message m;
  Metrics.reset m;
  Alcotest.(check int) "reset messages" 0 (Metrics.total_messages m);
  List.iter
    (fun kind ->
      Alcotest.(check int) "reset kind bytes" 0 (Metrics.message_bytes m kind))
    Metrics.all_kinds;
  Alcotest.(check int) "reset packets" 0 (Metrics.packets m);
  Alcotest.(check int) "reset packet bytes" 0 (Metrics.packet_bytes m);
  Alcotest.(check int) "reset flushes" 0 (Metrics.flushes m);
  Alcotest.(check int) "reset steps" 0 (Metrics.steps m);
  Alcotest.(check int) "reset edges" 0 (Metrics.edges_scanned m);
  Alcotest.(check int) "reset spawned" 0 (Metrics.spawned m);
  Alcotest.(check int) "reset memo ops" 0 (Metrics.memo_ops m);
  Alcotest.(check int) "reset supersteps" 0 (Metrics.supersteps m);
  Alcotest.(check int) "reset tracker updates" 0 (Metrics.tracker_updates m);
  Alcotest.(check int) "reset busy" 0 (Metrics.busy_ns m);
  Alcotest.(check int) "reset local" 0 (Metrics.local_messages m)

let () =
  Alcotest.run "sim"
    [
      ("time", [ Alcotest.test_case "conversions" `Quick test_time_conversions ]);
      ( "events",
        [
          Alcotest.test_case "order" `Quick test_event_order;
          Alcotest.test_case "fifo ties" `Quick test_event_tie_break_fifo;
          Alcotest.test_case "chooser permutes ties" `Quick test_event_chooser_permutes_ties;
          Alcotest.test_case "insertion seq" `Quick test_event_seq_monotonic;
          Alcotest.test_case "cascade" `Quick test_event_cascade;
          Alcotest.test_case "past rejected" `Quick test_event_past_rejected;
          Alcotest.test_case "run_until" `Quick test_event_run_until;
          Alcotest.test_case "budget" `Quick test_event_budget;
        ] );
      ("netmodel", [ Alcotest.test_case "costs" `Quick test_netmodel_costs ]);
      ( "cluster",
        [
          Alcotest.test_case "topology" `Quick test_cluster_topology;
          Alcotest.test_case "nic serializes" `Quick test_cluster_nic_serializes;
        ] );
      ( "more-properties",
        [ qcheck event_order_random; qcheck event_queue_order; qcheck histogram_tracks_exact ] );
      ( "channel",
        [
          Alcotest.test_case "delivers everything" `Quick test_channel_delivers_everything;
          Alcotest.test_case "same-node local" `Quick test_channel_same_node_is_local;
          Alcotest.test_case "threshold flush" `Quick test_channel_threshold_flush;
          Alcotest.test_case "no batching" `Quick test_channel_no_batching_packet_per_message;
          Alcotest.test_case "nlc combines" `Quick test_channel_nlc_combines;
          qcheck channel_random_traffic;
        ] );
      ("metrics", [ Alcotest.test_case "counters" `Quick test_metrics_counters ]);
    ]
