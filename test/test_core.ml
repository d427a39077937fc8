(* Unit and property tests for pstm_core: weights, memoranda, traversers,
   aggregates, program validation and progress tracking. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- Weight --- *)

let weight_split_conserves =
  QCheck.Test.make ~name:"split shares sum to the parent" ~count:300
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n) ->
      let prng = Prng.create seed in
      let w = Weight.random prng in
      let shares = Weight.split prng w ~n in
      Array.length shares = n
      && Weight.equal w (Array.fold_left Weight.add Weight.zero shares))

let weight_split2_conserves =
  QCheck.Test.make ~name:"split2 conserves" ~count:300 QCheck.small_int (fun seed ->
      let prng = Prng.create seed in
      let w = Weight.random prng in
      let a, b = Weight.split2 prng w in
      Weight.equal w (Weight.add a b))

(* Simulate a random spawn tree and check the §III-B invariant: active
   weights plus finished weights always sum to the root. *)
let weight_tree_invariant =
  QCheck.Test.make ~name:"spawn-tree invariant (Theorem 1 setting)" ~count:100 QCheck.small_int
    (fun seed ->
      let prng = Prng.create seed in
      let active = Queue.create () in
      Queue.add Weight.root active;
      let finished = ref Weight.zero in
      let steps = ref 0 in
      let ok = ref true in
      while (not (Queue.is_empty active)) && !steps < 500 do
        incr steps;
        let w = Queue.pop active in
        let n_children = Prng.int prng 4 in
        if n_children = 0 || !steps > 400 then finished := Weight.add !finished w
        else Array.iter (fun share -> Queue.add share active) (Weight.split prng w ~n:n_children);
        (* Invariant check at every step. *)
        let total = Queue.fold Weight.add !finished active in
        if not (Weight.equal total Weight.root) then ok := false
      done;
      (* Drain any remainder and verify exact completion. *)
      Queue.iter (fun w -> finished := Weight.add !finished w) active;
      !ok && Weight.equal !finished Weight.root)

let test_weight_basics () =
  Alcotest.(check bool) "zero is zero" true (Weight.is_zero Weight.zero);
  Alcotest.(check bool) "root nonzero" false (Weight.is_zero Weight.root);
  Alcotest.(check bool) "sub inverts add" true
    (let prng = Prng.create 5 in
     let a = Weight.random prng and b = Weight.random prng in
     Weight.equal a (Weight.sub (Weight.add a b) b))

(* --- Progress --- *)

let test_tracker_completes_exactly_once () =
  let prng = Prng.create 8 in
  let shares = Weight.split prng Weight.root ~n:5 in
  let t = Progress.tracker ~target:Weight.root in
  let completions = ref 0 in
  Array.iteri
    (fun i w ->
      match Progress.receive t w with
      | Progress.Complete ->
        incr completions;
        Alcotest.(check int) "only on last receipt" 4 i
      | Progress.Pending -> ())
    shares;
  Alcotest.(check int) "exactly one completion" 1 !completions;
  Alcotest.(check bool) "is_complete" true (Progress.is_complete t);
  Alcotest.(check int) "receipts counted" 5 (Progress.receipts t)

let test_coalescer_merges () =
  let c = Progress.coalescer () in
  let prng = Prng.create 9 in
  let w1 = Weight.random prng and w2 = Weight.random prng and w3 = Weight.random prng in
  Progress.coalesce c ~qid:1 ~phase:0 w1;
  Progress.coalesce c ~qid:1 ~phase:0 w2;
  Progress.coalesce c ~qid:2 ~phase:1 w3;
  Alcotest.(check int) "pending additions" 3 (Progress.pending_additions c);
  (match Progress.drain c with
  | [ (1, 0, merged); (2, 1, w3') ] ->
    Alcotest.(check bool) "merged weight" true (Weight.equal merged (Weight.add w1 w2));
    Alcotest.(check bool) "other query kept apart" true (Weight.equal w3 w3')
  | other -> Alcotest.fail (Fmt.str "unexpected drain of %d entries" (List.length other)));
  Alcotest.(check bool) "empty after drain" true (Progress.is_empty c);
  Alcotest.(check int) "pending reset" 0 (Progress.pending_additions c)

(* Model test: random interleavings of coalesce / drain / discard_query
   over many (qid, phase) keys, against a sorted association list. Every
   drain must return exactly the model's entries, in (qid, phase) order,
   with the merged weights; a discarded query's keys must never come back
   unless they are coalesced again. *)
type coalescer_op =
  | Merge of int * int * Weight.t
  | Drain
  | Discard of int

let coalescer_ops =
  let open QCheck.Gen in
  let phase =
    oneof [ int_range 0 3; return (Program.max_phases - 1); int_range 0 (Program.max_phases - 1) ]
  in
  let op =
    frequency
      [
        ( 8,
          map3
            (fun q p seed -> Merge (q, p, Weight.random (Prng.create seed)))
            (int_range 0 40) phase int );
        (1, return Drain);
        (1, map (fun q -> Discard q) (int_range 0 40));
      ]
  in
  let print = function
    | Merge (q, p, w) -> Fmt.str "merge(%d,%d,%a)" q p Weight.pp w
    | Drain -> "drain"
    | Discard q -> Fmt.str "discard(%d)" q
  in
  QCheck.make ~print:(QCheck.Print.list print) (list_size (int_range 0 300) op)

let coalescer_matches_model =
  QCheck.Test.make ~name:"coalescer matches a sorted-list model" ~count:300 coalescer_ops
    (fun ops ->
      let c = Progress.coalescer () in
      let key_compare ((q1, p1), _) ((q2, p2), _) =
        match Int.compare q1 q2 with 0 -> Int.compare p1 p2 | d -> d
      in
      let check_drain model =
        let drained = Progress.drain c in
        List.length drained = List.length model
        && List.for_all2
             (fun (q, p, w) ((q', p'), w') -> q = q' && p = p' && Weight.equal w w')
             drained model
        && Progress.is_empty c
      in
      let rec go model = function
        | [] -> check_drain model
        | Merge (q, p, w) :: rest ->
          Progress.coalesce c ~qid:q ~phase:p w;
          let prev = Option.value ~default:Weight.zero (List.assoc_opt (q, p) model) in
          go (List.sort key_compare (((q, p), Weight.add prev w) :: List.remove_assoc (q, p) model)) rest
        | Drain :: rest -> check_drain model && go [] rest
        | Discard q :: rest ->
          Progress.discard_query c ~qid:q;
          go (List.filter (fun ((q', _), _) -> q' <> q) model) rest
      in
      go [] ops)

let test_coalescer_rejects_out_of_range_phase () =
  let c = Progress.coalescer () in
  Alcotest.check_raises "phase at the bound"
    (Invalid_argument "Progress.coalesce: (qid, phase) out of range") (fun () ->
      Progress.coalesce c ~qid:0 ~phase:Program.max_phases Weight.root);
  Alcotest.check_raises "negative qid"
    (Invalid_argument "Progress.coalesce: (qid, phase) out of range") (fun () ->
      Progress.coalesce c ~qid:(-1) ~phase:0 Weight.root)

(* --- Traverser --- *)

let test_traverser_copy_on_write () =
  let t = Traverser.make ~vertex:3 ~step:0 ~weight:Weight.root ~n_registers:2 in
  let t' = Traverser.set_reg t 0 (Value.Int 42) in
  Alcotest.(check bool) "parent unchanged" true (Value.is_null t.Traverser.regs.(0));
  Alcotest.(check bool) "child updated" true
    (Value.equal (Value.Int 42) t'.Traverser.regs.(0));
  let t'' = Traverser.set_regs t' [ (0, Value.Int 1); (1, Value.Int 2) ] in
  Alcotest.(check bool) "multi write" true (Value.equal (Value.Int 2) t''.Traverser.regs.(1));
  Alcotest.(check bool) "bytes grow with payload" true (Traverser.bytes t'' >= Traverser.bytes t)

(* --- Memo --- *)

let test_memo_dedup () =
  let m = Memo.create () in
  Alcotest.(check bool) "first" true (Memo.add_if_absent m ~qid:1 ~label:0 (Value.Int 5));
  Alcotest.(check bool) "duplicate" false (Memo.add_if_absent m ~qid:1 ~label:0 (Value.Int 5));
  Alcotest.(check bool) "other label" true (Memo.add_if_absent m ~qid:1 ~label:1 (Value.Int 5));
  Alcotest.(check bool) "other query" true (Memo.add_if_absent m ~qid:2 ~label:0 (Value.Int 5));
  Memo.clear_query m 1;
  Alcotest.(check bool) "cleared" true (Memo.add_if_absent m ~qid:1 ~label:0 (Value.Int 5));
  Alcotest.(check bool) "query 2 survives" false (Memo.add_if_absent m ~qid:2 ~label:0 (Value.Int 5))

let test_memo_min_dist () =
  let m = Memo.create () in
  let v = Value.Vertex 7 in
  Alcotest.(check bool) "first visit" true (Memo.min_int_update m ~qid:0 ~label:2 v 5 = Memo.First_visit);
  Alcotest.(check bool) "improvement" true (Memo.min_int_update m ~qid:0 ~label:2 v 3 = Memo.Improved);
  Alcotest.(check bool) "equal not improved" true
    (Memo.min_int_update m ~qid:0 ~label:2 v 3 = Memo.Not_improved);
  Alcotest.(check bool) "worse not improved" true
    (Memo.min_int_update m ~qid:0 ~label:2 v 9 = Memo.Not_improved)

let test_memo_rows () =
  let m = Memo.create () in
  Memo.rows_add m ~qid:0 ~label:3 (Value.Int 1) [| Value.Str "a" |];
  Memo.rows_add m ~qid:0 ~label:3 (Value.Int 1) [| Value.Str "b" |];
  Alcotest.(check int) "two rows" 2 (List.length (Memo.rows_get m ~qid:0 ~label:3 (Value.Int 1)));
  Alcotest.(check int) "other key empty" 0
    (List.length (Memo.rows_get m ~qid:0 ~label:3 (Value.Int 2)))

let test_memo_accounting () =
  let m = Memo.create () in
  ignore (Memo.add_if_absent m ~qid:0 ~label:0 (Value.Int 1));
  ignore (Memo.add_if_absent m ~qid:0 ~label:0 (Value.Int 2));
  ignore (Memo.add_if_absent m ~qid:0 ~label:0 (Value.Int 2));
  Alcotest.(check int) "ops counted" 3 (Memo.ops m);
  Alcotest.(check int) "live entries" 2 (Memo.live_entries m);
  Alcotest.(check int) "peak" 2 (Memo.peak_entries m);
  Memo.clear_query m 0;
  Alcotest.(check int) "live after clear" 0 (Memo.live_entries m);
  Alcotest.(check int) "peak sticky" 2 (Memo.peak_entries m)

(* --- Aggregate --- *)

let dummy_graph =
  lazy (Builder.build (Builder.of_edges ~n_vertices:1 [||]))

let accumulate_ints agg values =
  let g = Lazy.force dummy_graph in
  let state = Aggregate.create agg in
  List.iter
    (fun v ->
      let regs = [| Value.Int v |] in
      Aggregate.accumulate agg state g ~vertex:0 ~regs)
    values;
  Aggregate.finalize state

let agg_count_matches =
  QCheck.Test.make ~name:"count aggregate" ~count:200
    QCheck.(list small_int)
    (fun xs -> accumulate_ints Step.Count xs = Value.Int (List.length xs))

let agg_sum_matches =
  QCheck.Test.make ~name:"sum aggregate" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      accumulate_ints (Step.Sum (Step.Reg 0)) xs = Value.Int (List.fold_left ( + ) 0 xs))

let agg_max_matches =
  QCheck.Test.make ~name:"max aggregate" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let result = accumulate_ints (Step.Max (Step.Reg 0)) xs in
      match xs with
      | [] -> Value.is_null result
      | _ -> result = Value.Int (List.fold_left max min_int xs))

let agg_merge_equals_concat =
  QCheck.Test.make ~name:"merge(a,b) = accumulate(a @ b)" ~count:200
    QCheck.(pair (list small_int) (list small_int))
    (fun (xs, ys) ->
      let g = Lazy.force dummy_graph in
      let agg = Step.Sum (Step.Reg 0) in
      let left = Aggregate.create agg and right = Aggregate.create agg in
      List.iter (fun v -> Aggregate.accumulate agg left g ~vertex:0 ~regs:[| Value.Int v |]) xs;
      List.iter (fun v -> Aggregate.accumulate agg right g ~vertex:0 ~regs:[| Value.Int v |]) ys;
      Aggregate.merge ~into:left right;
      Aggregate.finalize left = accumulate_ints agg (xs @ ys))

let test_agg_topk_ties_by_output () =
  let g = Lazy.force dummy_graph in
  let agg = Step.Topk { k = 2; score = Step.Reg 0; output = Step.Reg 1 } in
  let state = Aggregate.create agg in
  let feed score output =
    Aggregate.accumulate agg state g ~vertex:0 ~regs:[| Value.Int score; Value.Vertex output |]
  in
  feed 10 3;
  feed 10 1;
  feed 10 2;
  feed 5 9;
  match Aggregate.finalize state with
  | Value.List [ Value.Vertex a; Value.Vertex b ] ->
    (* Equal scores: smaller vertex id wins the tie; best first. *)
    Alcotest.(check (pair int int)) "tie break" (1, 2) (a, b)
  | other -> Alcotest.fail (Fmt.str "unexpected %a" Value.pp other)

let test_agg_group_count () =
  match accumulate_ints (Step.Group_count (Step.Reg 0)) [ 1; 2; 1; 1 ] with
  | Value.List [ Value.List [ Value.Int 1; Value.Int 3 ]; Value.List [ Value.Int 2; Value.Int 1 ] ]
    ->
    ()
  | other -> Alcotest.fail (Fmt.str "unexpected %a" Value.pp other)

let test_agg_collect_limit () =
  match accumulate_ints (Step.Collect { expr = Step.Reg 0; limit = Some 2 }) [ 5; 6; 7; 8 ] with
  | Value.List l -> Alcotest.(check int) "limited" 2 (List.length l)
  | other -> Alcotest.fail (Fmt.str "unexpected %a" Value.pp other)

(* --- Program validation --- *)

let filter_step next = { Step.op = Step.Filter Step.True; next }
let emit_step = { Step.op = Step.Emit [| Step.Vertex_id |]; next = -1 }
let source_step next = { Step.op = Step.Scan { vertex_label = None }; next }

let check_invalid name steps ~entries ~n_registers =
  Alcotest.test_case name `Quick (fun () ->
      match Program.make ~name ~steps ~n_registers ~entries with
      | _ -> Alcotest.fail "expected Program.Invalid"
      | exception Program.Invalid _ -> ())

let test_program_valid () =
  let p =
    Program.make ~name:"ok"
      ~steps:[| source_step 1; filter_step 2; emit_step |]
      ~n_registers:1 ~entries:[| 0 |]
  in
  Alcotest.(check int) "one phase" 1 (Program.n_phases p);
  Alcotest.(check int) "steps" 3 (Program.n_steps p)

let test_program_phases () =
  let p =
    Program.make ~name:"agg"
      ~steps:
        [|
          source_step 1;
          { Step.op = Step.Aggregate { agg = Step.Count; reg = 0 }; next = 2 };
          { Step.op = Step.Emit [| Step.Reg 0 |]; next = -1 };
        |]
      ~n_registers:1 ~entries:[| 0 |]
  in
  Alcotest.(check int) "two phases" 2 (Program.n_phases p);
  Alcotest.(check int) "source phase" 0 (Program.phase_of_step p 0);
  Alcotest.(check int) "emit phase" 1 (Program.phase_of_step p 2);
  Alcotest.(check (option int)) "agg of phase 0" (Some 1) (Program.agg_of_phase p 0);
  Alcotest.(check (option int)) "no agg in final phase" None (Program.agg_of_phase p 1)

let test_program_join_partner () =
  let join side cont =
    {
      Step.op =
        Step.Join
          { join_id = 0; side; key = Step.Vertex_id; store = [||]; load_regs = [||]; cont };
      next = -1;
    }
  in
  let p =
    Program.make ~name:"join"
      ~steps:[| source_step 1; join Step.Side_a 4; source_step 3; join Step.Side_b 4; emit_step |]
      ~n_registers:1 ~entries:[| 0; 2 |]
  in
  Alcotest.(check int) "partner of A" 3 (Program.join_partner p 1);
  Alcotest.(check int) "partner of B" 1 (Program.join_partner p 3)

(* A source, [n_aggs] chained aggregates (each opens a phase), an emit:
   [n_aggs + 1] phases. *)
let aggregate_chain n_aggs =
  Array.init (n_aggs + 2) (fun i ->
      if i = 0 then source_step 1
      else if i <= n_aggs then { Step.op = Step.Aggregate { agg = Step.Count; reg = 0 }; next = i + 1 }
      else { Step.op = Step.Emit [| Step.Reg 0 |]; next = -1 })

let test_program_phase_bound () =
  let at_bound =
    Program.make ~name:"at-bound" ~steps:(aggregate_chain (Program.max_phases - 1)) ~n_registers:1
      ~entries:[| 0 |]
  in
  Alcotest.(check int) "max_phases phases accepted" Program.max_phases (Program.n_phases at_bound);
  match
    Program.make ~name:"past-bound" ~steps:(aggregate_chain Program.max_phases) ~n_registers:1
      ~entries:[| 0 |]
  with
  | _ -> Alcotest.fail "expected Program.Invalid past max_phases"
  | exception Program.Invalid msg ->
    Alcotest.(check string) "clear error"
      (Fmt.str "program has %d phases; at most %d are supported" (Program.max_phases + 1)
         Program.max_phases)
      msg

let invalid_cases =
  [
    check_invalid "empty program" [||] ~entries:[| 0 |] ~n_registers:0;
    check_invalid "no entries" [| source_step 1; emit_step |] ~entries:[||] ~n_registers:0;
    check_invalid "entry not a source" [| filter_step 1; emit_step |] ~entries:[| 0 |] ~n_registers:0;
    check_invalid "unlisted source"
      [| source_step 1; { Step.op = Step.Scan { vertex_label = None }; next = 2 }; emit_step |]
      ~entries:[| 0 |] ~n_registers:0;
    check_invalid "next out of range" [| source_step 5 |] ~entries:[| 0 |] ~n_registers:0;
    check_invalid "emit with successor"
      [| source_step 1; { Step.op = Step.Emit [||]; next = 0 } |]
      ~entries:[| 0 |] ~n_registers:0;
    check_invalid "register out of range"
      [| source_step 1; { Step.op = Step.Set_reg { reg = 3; expr = Step.Vertex_id }; next = 2 }; emit_step |]
      ~entries:[| 0 |] ~n_registers:1;
    check_invalid "unreachable step"
      [| source_step 2; filter_step 2; emit_step |]
      ~entries:[| 0 |] ~n_registers:0;
    check_invalid "unpaired join"
      [|
        source_step 1;
        {
          Step.op =
            Step.Join
              {
                join_id = 0;
                side = Step.Side_a;
                key = Step.Vertex_id;
                store = [||];
                load_regs = [||];
                cont = 2;
              };
          next = -1;
        };
        emit_step;
      |]
      ~entries:[| 0 |] ~n_registers:0;
    check_invalid "visit cont out of range"
      [|
        source_step 1;
        { Step.op = Step.Set_reg { reg = 0; expr = Step.Const (Value.Int 0) }; next = 2 };
        { Step.op = Step.Visit { dist_reg = 0; max_hops = 2; cont = 9; emit_improved = false }; next = 3 };
        { Step.op = Step.Expand { dir = Graph.Out; edge_label = None }; next = 2 };
        emit_step;
      |]
      ~entries:[| 0 |] ~n_registers:1;
  ]

(* --- Step expression evaluation --- *)

let test_step_eval () =
  let b = Builder.create () in
  let v0 = Builder.add_vertex b ~label:"A" ~props:[ ("x", Value.Int 10) ] () in
  let v1 = Builder.add_vertex b ~label:"B" ~props:[ ("x", Value.Int 20) ] () in
  ignore (Builder.add_edge b ~src:v0 ~label:"e" ~dst:v1 ());
  let g = Builder.build b in
  let x = Schema.property_key_exn (Graph.schema g) "x" in
  let regs = [| Value.Vertex v1 |] in
  let eval e = Step.eval_expr g ~vertex:v0 ~regs e in
  Alcotest.(check bool) "vertex_id" true (Value.equal (Value.Vertex 0) (eval Step.Vertex_id));
  Alcotest.(check bool) "prop" true (Value.equal (Value.Int 10) (eval (Step.Prop x)));
  Alcotest.(check bool) "prop_of reg" true
    (Value.equal (Value.Int 20) (eval (Step.Prop_of { reg = 0; key = x })));
  Alcotest.(check bool) "add" true
    (Value.equal (Value.Int 11) (eval (Step.Add (Step.Prop x, Step.Const (Value.Int 1)))));
  Alcotest.(check bool) "label expr" true
    (Value.equal
       (Value.Int (Schema.vertex_label_exn (Graph.schema g) "A"))
       (eval Step.Vertex_label));
  let pred = Step.And (Step.Cmp (Step.Ge, Step.Prop x, Step.Const (Value.Int 10)), Step.Not (Step.Cmp (Step.Eq, Step.Vertex_id, Step.Reg 0))) in
  Alcotest.(check bool) "pred" true (Step.eval_pred g ~vertex:v0 ~regs pred)

let () =
  Alcotest.run "core"
    [
      ( "weight",
        [
          Alcotest.test_case "basics" `Quick test_weight_basics;
          qcheck weight_split_conserves;
          qcheck weight_split2_conserves;
          qcheck weight_tree_invariant;
        ] );
      ( "progress",
        [
          Alcotest.test_case "tracker completes once" `Quick test_tracker_completes_exactly_once;
          Alcotest.test_case "coalescer merges" `Quick test_coalescer_merges;
          Alcotest.test_case "coalescer phase bound" `Quick test_coalescer_rejects_out_of_range_phase;
          qcheck coalescer_matches_model;
        ] );
      ("traverser", [ Alcotest.test_case "copy on write" `Quick test_traverser_copy_on_write ]);
      ( "memo",
        [
          Alcotest.test_case "dedup" `Quick test_memo_dedup;
          Alcotest.test_case "min dist" `Quick test_memo_min_dist;
          Alcotest.test_case "rows" `Quick test_memo_rows;
          Alcotest.test_case "accounting" `Quick test_memo_accounting;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "topk ties" `Quick test_agg_topk_ties_by_output;
          Alcotest.test_case "group count" `Quick test_agg_group_count;
          Alcotest.test_case "collect limit" `Quick test_agg_collect_limit;
          qcheck agg_count_matches;
          qcheck agg_sum_matches;
          qcheck agg_max_matches;
          qcheck agg_merge_equals_concat;
        ] );
      ( "program",
        [
          Alcotest.test_case "valid" `Quick test_program_valid;
          Alcotest.test_case "phases" `Quick test_program_phases;
          Alcotest.test_case "join partner" `Quick test_program_join_partner;
          Alcotest.test_case "phase bound" `Quick test_program_phase_bound;
        ]
        @ invalid_cases );
      ("step", [ Alcotest.test_case "eval" `Quick test_step_eval ]);
    ]
