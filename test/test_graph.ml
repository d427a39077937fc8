(* Unit and property tests for pstm_graph. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- Value --- *)

let value_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n = 0 then
          oneof
            [
              return Value.Null;
              map (fun b -> Value.Bool b) bool;
              map (fun i -> Value.Int i) small_int;
              map (fun f -> Value.Float (float_of_int f)) small_int;
              map (fun s -> Value.Str s) (string_size (int_range 0 6));
              map (fun v -> Value.Vertex v) small_nat;
            ]
        else map (fun l -> Value.List l) (list_size (int_range 0 3) (self (n / 4)))))

let arb_value = QCheck.make ~print:Value.to_string value_gen

let value_compare_reflexive =
  QCheck.Test.make ~name:"value compare reflexive" ~count:300 arb_value (fun v ->
      Value.compare v v = 0)

let value_compare_antisymmetric =
  QCheck.Test.make ~name:"value compare antisymmetric" ~count:300
    (QCheck.pair arb_value arb_value)
    (fun (a, b) -> Int.compare (Value.compare a b) 0 = -Int.compare (Value.compare b a) 0)

let value_compare_transitive =
  QCheck.Test.make ~name:"value compare transitive" ~count:300
    (QCheck.triple arb_value arb_value arb_value)
    (fun (a, b, c) ->
      let le x y = Value.compare x y <= 0 in
      not (le a b && le b c) || le a c)

let value_equal_hash =
  QCheck.Test.make ~name:"equal values hash equally" ~count:300 arb_value (fun v ->
      Value.hash v = Value.hash v && Value.equal v v)

let test_value_numeric_compare () =
  Alcotest.(check int) "int vs float" 0 (Value.compare (Value.Int 2) (Value.Float 2.0));
  Alcotest.(check bool) "1 < 1.5" true (Value.compare (Value.Int 1) (Value.Float 1.5) < 0)

let test_value_add () =
  Alcotest.(check bool) "int add" true (Value.equal (Value.Int 5) (Value.add (Value.Int 2) (Value.Int 3)));
  Alcotest.(check bool) "null identity" true
    (Value.equal (Value.Int 7) (Value.add Value.Null (Value.Int 7)));
  (match Value.add (Value.Int 1) (Value.Float 0.5) with
  | Value.Float f -> Alcotest.(check (float 0.0001)) "promotes" 1.5 f
  | _ -> Alcotest.fail "expected float")

let value_bytes_positive =
  QCheck.Test.make ~name:"value bytes positive" ~count:300 arb_value (fun v -> Value.bytes v > 0)

(* --- Schema --- *)

let test_schema_interning () =
  let s = Schema.create () in
  let a = Schema.vertex_label s "Person" in
  let b = Schema.vertex_label s "Post" in
  Alcotest.(check int) "stable" a (Schema.vertex_label s "Person");
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check string) "name round-trip" "Post" (Schema.vertex_label_name s b);
  Alcotest.(check (option int)) "find_opt known" (Some a) (Schema.vertex_label_opt s "Person");
  Alcotest.(check (option int)) "find_opt unknown" None (Schema.vertex_label_opt s "Nope");
  Alcotest.(check int) "count" 2 (Schema.vertex_label_count s);
  (* Separate namespaces. *)
  let e = Schema.edge_label s "Person" in
  Alcotest.(check bool) "namespaces independent" true (e = 0)

(* --- Csr --- *)

let test_csr_build_and_scan () =
  let csr =
    Csr.build ~n_vertices:4
      ~sources:[| 0; 0; 1; 3; 3; 3 |]
      ~targets:[| 1; 2; 2; 0; 1; 2 |]
      ~labels:[| 0; 1; 0; 0; 0; 1 |]
      ~edge_ids:[| 0; 1; 2; 3; 4; 5 |]
  in
  Alcotest.(check int) "degree 0" 2 (Csr.degree csr 0);
  Alcotest.(check int) "degree 2" 0 (Csr.degree csr 2);
  Alcotest.(check int) "degree 3" 3 (Csr.degree csr 3);
  Alcotest.(check (array int)) "neighbors of 3" [| 0; 1; 2 |] (Csr.neighbors csr 3);
  Alcotest.(check (array int)) "label-filtered" [| 2 |] (Csr.neighbors csr ~label:1 3);
  Alcotest.(check int) "label degree" 1 (Csr.degree_with_label csr 1 0);
  (* Edge ids travel with positions. *)
  let ids = ref [] in
  Csr.iter_neighbors csr 3 (fun ~target:_ ~edge_id ~label:_ -> ids := edge_id :: !ids);
  Alcotest.(check (list int)) "edge ids" [ 5; 4; 3 ] !ids

(* --- Props --- *)

let test_props_typed_columns () =
  let sparse = Hashtbl.create 4 in
  let ints = Vec.create ~dummy:(0, Value.Null) in
  Vec.push ints (0, Value.Int 10);
  Vec.push ints (2, Value.Int 30);
  Hashtbl.add sparse 0 ints;
  let mixed = Vec.create ~dummy:(0, Value.Null) in
  Vec.push mixed (1, Value.Str "x");
  Vec.push mixed (2, Value.Int 5);
  Hashtbl.add sparse 1 mixed;
  let p = Props.of_sparse ~size:3 sparse in
  Alcotest.(check bool) "int col" true (Value.equal (Value.Int 10) (Props.get p ~key:0 0));
  Alcotest.(check bool) "missing is null" true (Value.is_null (Props.get p ~key:0 1));
  Alcotest.(check (option int)) "fast int path" (Some 30) (Props.get_int p ~key:0 2);
  Alcotest.(check bool) "mixed col str" true (Value.equal (Value.Str "x") (Props.get p ~key:1 1));
  Alcotest.(check bool) "mixed col int" true (Value.equal (Value.Int 5) (Props.get p ~key:1 2));
  Alcotest.(check bool) "unknown key is null" true (Value.is_null (Props.get p ~key:9 0))

(* --- Partition --- *)

let partition_covers =
  QCheck.Test.make ~name:"partitions tile the vertex set" ~count:60
    QCheck.(pair (int_range 1 16) (int_range 0 300))
    (fun (n_parts, n_vertices) ->
      List.for_all
        (fun strategy ->
          let p = Partition.create ~strategy ~n_parts ~n_vertices () in
          let seen = Array.make (max 1 n_vertices) 0 in
          for part = 0 to n_parts - 1 do
            Array.iter
              (fun v ->
                seen.(v) <- seen.(v) + 1;
                if Partition.owner p v <> part then failwith "owner disagrees with members")
              (Partition.members p part)
          done;
          n_vertices = 0 || Array.for_all (Int.equal 1) seen)
        [ Partition.Hash; Partition.Mod; Partition.Block ])

let test_partition_imbalance () =
  let p = Partition.create ~n_parts:4 ~n_vertices:1000 () in
  Alcotest.(check bool) "near balanced" true (Partition.imbalance p < 1.2)

let test_partition_imbalance_boundaries () =
  let imb ?strategy ~n_parts ~n_vertices () =
    Partition.imbalance (Partition.create ?strategy ~n_parts ~n_vertices ())
  in
  Alcotest.(check (float 0.0)) "single partition" 1.0 (imb ~n_parts:1 ~n_vertices:100 ());
  Alcotest.(check (float 0.0)) "one vertex each" 1.0
    (imb ~strategy:Partition.Mod ~n_parts:7 ~n_vertices:7 ());
  Alcotest.(check (float 0.0)) "empty graph" 1.0 (imb ~n_parts:4 ~n_vertices:0 ());
  Alcotest.(check (float 0.0)) "more parts than vertices" 1.0
    (imb ~n_parts:10 ~n_vertices:3 ())

(* --- Builder / Graph --- *)

let small_graph () =
  let b = Builder.create () in
  let v0 = Builder.add_vertex b ~label:"A" ~props:[ ("id", Value.Int 0) ] () in
  let v1 = Builder.add_vertex b ~label:"A" ~props:[ ("id", Value.Int 1) ] () in
  let v2 = Builder.add_vertex b ~label:"B" ~props:[ ("id", Value.Int 2); ("w", Value.Int 9) ] () in
  let _e0 = Builder.add_edge b ~src:v0 ~label:"x" ~dst:v1 ~props:[ ("since", Value.Int 7) ] () in
  let _e1 = Builder.add_edge b ~src:v1 ~label:"y" ~dst:v2 () in
  let _e2 = Builder.add_edge b ~src:v0 ~label:"y" ~dst:v2 () in
  Builder.build b

let test_graph_shape () =
  let g = small_graph () in
  Alcotest.(check int) "vertices" 3 (Graph.n_vertices g);
  Alcotest.(check int) "edges" 3 (Graph.n_edges g);
  Alcotest.(check int) "out degree v0" 2 (Graph.out_degree g 0);
  Alcotest.(check int) "in degree v2" 2 (Graph.in_degree g 2);
  Alcotest.(check int) "both degree v1" 2 (Graph.degree g ~dir:Graph.Both 1);
  let schema = Graph.schema g in
  Alcotest.(check int) "label of v2" (Schema.vertex_label_exn schema "B") (Graph.vertex_label g 2)

let test_graph_edge_consistency () =
  let g = small_graph () in
  (* Every out edge appears as an in edge on the far side with the same id. *)
  for v = 0 to Graph.n_vertices g - 1 do
    Graph.iter_adjacent g ~dir:Graph.Out v (fun ~target ~edge_id ~label ->
        Alcotest.(check int) "src endpoint" v (Graph.edge_src g edge_id);
        Alcotest.(check int) "dst endpoint" target (Graph.edge_dst g edge_id);
        Alcotest.(check int) "label" label (Graph.edge_label g edge_id);
        let found = ref false in
        Graph.iter_adjacent g ~dir:Graph.In target (fun ~target:back ~edge_id:eid ~label:_ ->
            if eid = edge_id && back = v then found := true);
        Alcotest.(check bool) "in-edge mirror" true !found)
  done

let test_graph_props_and_index () =
  let g = small_graph () in
  Alcotest.(check bool) "vertex prop" true
    (Value.equal (Value.Int 9) (Graph.vertex_prop_by_name g ~key:"w" 2));
  let key = Schema.property_key_exn (Graph.schema g) "id" in
  Alcotest.(check (array int)) "index lookup" [| 1 |] (Graph.index_lookup g ~key (Value.Int 1));
  Alcotest.(check (array int)) "index miss" [||] (Graph.index_lookup g ~key (Value.Int 99));
  let label_a = Schema.vertex_label_exn (Graph.schema g) "A" in
  Alcotest.(check (array int)) "label-scoped index" [| 1 |]
    (Graph.index_lookup g ~vertex_label:label_a ~key (Value.Int 1));
  let label_b = Schema.vertex_label_exn (Graph.schema g) "B" in
  Alcotest.(check (array int)) "scoped miss" [||]
    (Graph.index_lookup g ~vertex_label:label_b ~key (Value.Int 1));
  let since = Schema.property_key_exn (Graph.schema g) "since" in
  Alcotest.(check bool) "edge prop" true (Value.equal (Value.Int 7) (Graph.edge_prop g ~key:since 0))

(* Random graphs: builder output matches an adjacency-list model. *)
let graph_matches_model =
  QCheck.Test.make ~name:"builder matches adjacency model" ~count:60
    QCheck.(pair (int_range 1 20) (list (pair (int_range 0 19) (int_range 0 19))))
    (fun (n, edge_list) ->
      let edges = List.filter (fun (s, d) -> s < n && d < n) edge_list in
      let g = Builder.build (Builder.of_edges ~n_vertices:n (Array.of_list edges)) in
      let out_model = Array.make n [] in
      let in_model = Array.make n [] in
      List.iter
        (fun (s, d) ->
          out_model.(s) <- d :: out_model.(s);
          in_model.(d) <- s :: in_model.(d))
        edges;
      let ok = ref (Graph.n_edges g = List.length edges) in
      for v = 0 to n - 1 do
        let outs = List.sort compare (Array.to_list (Graph.adjacent g ~dir:Graph.Out v)) in
        let ins = List.sort compare (Array.to_list (Graph.adjacent g ~dir:Graph.In v)) in
        if outs <> List.sort compare out_model.(v) then ok := false;
        if ins <> List.sort compare in_model.(v) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "graph"
    [
      ( "value",
        [
          Alcotest.test_case "numeric compare" `Quick test_value_numeric_compare;
          Alcotest.test_case "add" `Quick test_value_add;
          qcheck value_compare_reflexive;
          qcheck value_compare_antisymmetric;
          qcheck value_compare_transitive;
          qcheck value_equal_hash;
          qcheck value_bytes_positive;
        ] );
      ("schema", [ Alcotest.test_case "interning" `Quick test_schema_interning ]);
      ("csr", [ Alcotest.test_case "build and scan" `Quick test_csr_build_and_scan ]);
      ("props", [ Alcotest.test_case "typed columns" `Quick test_props_typed_columns ]);
      ( "partition",
        [
          Alcotest.test_case "imbalance" `Quick test_partition_imbalance;
          Alcotest.test_case "imbalance boundaries" `Quick
            test_partition_imbalance_boundaries;
          qcheck partition_covers;
        ] );
      ( "graph",
        [
          Alcotest.test_case "shape" `Quick test_graph_shape;
          Alcotest.test_case "edge consistency" `Quick test_graph_edge_consistency;
          Alcotest.test_case "props and index" `Quick test_graph_props_and_index;
          qcheck graph_matches_model;
        ] );
    ]
