(* Single-step interpreter shared by all engines.

   [exec] runs one traverser through one step, mutating only the supplied
   partition memo, and returns what happened: children to route, result
   rows, and the weight that terminated here. Engines differ in *where*
   and *when* they call this — the async engine routes children through
   the simulated cluster, the BSP engine between supersteps, the local
   reference engine on a plain queue — but the semantics (and hence the
   query answers) are defined once, here.

   Weight conservation invariant (property-tested in the suite):

     t.weight = sum of spawned weights + sum of row weights + finished. *)

type outcome = {
  spawns : Traverser.t list;
  rows : (Value.t array * Weight.t) list;
  finished : Weight.t;
  edges_scanned : int;
  prop_reads : int;
  memo_ops : int;
  memo_hits : int;
  memo_misses : int;
}

let no_effect =
  {
    spawns = [];
    rows = [];
    finished = Weight.zero;
    edges_scanned = 0;
    prop_reads = 0;
    memo_ops = 0;
    memo_hits = 0;
    memo_misses = 0;
  }

(* A step with no children finishes its whole weight and reports no
   work done. *)
let finished (t : Traverser.t) = { no_effect with finished = t.weight }

(* [children] (a non-empty list) with [weight] split over them, in order.
   A lone child takes the whole weight without a draw. *)
let rec reweigh shares i = function
  | [] -> []
  | child :: rest -> Traverser.with_weight child shares.(i) :: reweigh shares (i + 1) rest

let distribute prng weight = function
  | [ child ] -> [ Traverser.with_weight child weight ]
  | children -> reweigh (Weight.split prng weight ~n:(List.length children)) 0 children

(* The [n >= 1] children of [t] moved to [vertex 0 .. vertex (n-1)] at
   [step], each built once with its share of [t.weight] (the same shares,
   in the same order, as [distribute]) and consed back to front. *)
let moves prng (t : Traverser.t) ~step ~n vertex =
  if n = 1 then [ Traverser.move t ~vertex:(vertex 0) ~step ~weight:t.weight ]
  else begin
    let shares = Weight.split prng t.weight ~n in
    let spawns = ref [] in
    for i = n - 1 downto 0 do
      spawns := Traverser.move t ~vertex:(vertex i) ~step ~weight:shares.(i) :: !spawns
    done;
    !spawns
  end

(* Expand's targets, collected into one buffer reused across calls. [exec]
   never re-enters itself (the adjacency callback only pushes), and the
   two functions below close over nothing, so an Expand allocates only
   its children. *)
let targets = Vec.create ~dummy:0
let push_target ~target ~edge_id:_ ~label:_ = Vec.push targets target
let target i = Vec.get targets i

let exec ~graph ~memo ~prng ~qid ~program ~scan (t : Traverser.t) =
  let step = Program.step program t.step in
  match step.Step.op with
  | Step.Index_lookup { vertex_label; key; value } ->
    let vertices = Graph.index_lookup graph ?vertex_label ~key value in
    let n = Array.length vertices in
    if n = 0 then finished t
    else
      {
        no_effect with
        spawns = moves prng t ~step:step.next ~n (Array.get vertices);
        memo_ops = 1;
        prop_reads = 1;
        memo_hits = 1;
      }
  | Step.Scan { vertex_label } ->
    let vertices = scan vertex_label in
    let n = Array.length vertices in
    if n = 0 then finished t
    else
      { no_effect with spawns = moves prng t ~step:step.next ~n (Array.get vertices); edges_scanned = n }
  | Step.Expand { dir; edge_label } ->
    Vec.clear targets;
    Graph.iter_adjacent graph ~dir ?label:edge_label t.vertex push_target;
    let n = Vec.length targets in
    if n = 0 then finished t
    else
      {
        no_effect with
        spawns = moves prng t ~step:step.next ~n target;
        edges_scanned = Graph.degree graph ~dir t.vertex;
      }
  | Step.Filter pred ->
    let reads = Step.pred_prop_reads pred in
    if Step.eval_pred graph ~vertex:t.vertex ~regs:t.regs pred then
      { no_effect with spawns = [ Traverser.at_step t step.next ]; prop_reads = reads }
    else { no_effect with finished = t.weight; prop_reads = reads }
  | Step.Set_reg { reg; expr } ->
    let t' = Traverser.set_reg t reg (Step.eval_expr graph ~vertex:t.vertex ~regs:t.regs expr) in
    {
      no_effect with
      spawns = [ Traverser.at_step t' step.next ];
      prop_reads = Step.expr_prop_reads expr;
    }
  | Step.Move_to { reg } ->
    let target = Value.vertex_exn t.regs.(reg) in
    { no_effect with spawns = [ Traverser.move t ~vertex:target ~step:step.next ~weight:t.weight ] }
  | Step.Dedup { by } ->
    let key = Step.eval_expr graph ~vertex:t.vertex ~regs:t.regs by in
    let fresh = Memo.add_if_absent memo ~qid ~label:t.step key in
    let reads = Step.expr_prop_reads by in
    if fresh then
      {
        no_effect with
        spawns = [ Traverser.at_step t step.next ];
        prop_reads = reads;
        memo_ops = 1;
        memo_misses = 1;
      }
    else { no_effect with finished = t.weight; prop_reads = reads; memo_ops = 1; memo_hits = 1 }
  | Step.Visit { dist_reg; max_hops; cont; emit_improved } ->
    let d = Value.to_int_exn t.regs.(dist_reg) in
    let loop_child () =
      Traverser.at_step (Traverser.set_reg t dist_reg (Value.Int (d + 1))) step.next
    in
    let outcome = Memo.min_int_update memo ~qid ~label:t.step (Value.Vertex t.vertex) d in
    let children =
      match outcome with
      | Memo.First_visit ->
        let cont_child = Traverser.at_step t cont in
        if d < max_hops then [ cont_child; loop_child () ] else [ cont_child ]
      | Memo.Improved ->
        (* Under asynchronous order a vertex can be first reached through a
           longer path; when the continuation aggregates distances (min /
           max), improvements must re-emit or the result would be stale.
           Set-semantics continuations keep the exactly-once emission. *)
        let base = if d < max_hops then [ loop_child () ] else [] in
        if emit_improved then Traverser.at_step t cont :: base else base
      | Memo.Not_improved -> []
    in
    begin
      match children with
      | [] -> finished t
      | _ ->
        let hit = match outcome with Memo.First_visit -> 0 | Memo.Improved | Memo.Not_improved -> 1 in
        {
          no_effect with
          spawns = distribute prng t.weight children;
          memo_ops = 1;
          memo_hits = hit;
          memo_misses = 1 - hit;
        }
    end
  | Step.Join { key; store; load_regs; cont; _ } ->
    let eval e = Step.eval_expr graph ~vertex:t.vertex ~regs:t.regs e in
    let key_value = eval key in
    let payload = Array.map eval store in
    let partner = Program.join_partner program t.step in
    Memo.rows_add memo ~qid ~label:t.step key_value payload;
    let matches = Memo.rows_get memo ~qid ~label:partner key_value in
    begin
      match matches with
      | [] -> finished t
      | _ ->
        let children =
          List.map
            (fun row ->
              let pairs = List.mapi (fun i reg -> (reg, row.(i))) (Array.to_list load_regs) in
              Traverser.at_step (Traverser.set_regs t pairs) cont)
            matches
        in
        let reads =
          Step.expr_prop_reads key
          + Array.fold_left (fun a e -> a + Step.expr_prop_reads e) 0 store
        in
        {
          no_effect with
          spawns = distribute prng t.weight children;
          prop_reads = reads;
          memo_ops = 2;
          memo_hits = List.length matches;
        }
    end
  | Step.Aggregate { agg; reg = _ } ->
    let partial = Memo.partial memo ~qid ~label:t.step agg in
    Aggregate.accumulate agg partial graph ~vertex:t.vertex ~regs:t.regs;
    {
      no_effect with
      finished = t.weight;
      prop_reads = Step.agg_prop_reads agg;
      memo_ops = 1;
    }
  | Step.Emit exprs ->
    let row = Array.map (Step.eval_expr graph ~vertex:t.vertex ~regs:t.regs) exprs in
    {
      no_effect with
      rows = [ (row, t.weight) ];
      prop_reads = Array.fold_left (fun a e -> a + Step.expr_prop_reads e) 0 exprs;
    }

(* The header's conservation identity as a runtime predicate, for the
   engines' sanitizer (check) mode. *)
let conserves (t : Traverser.t) outcome =
  let total =
    List.fold_left
      (fun acc (c : Traverser.t) -> Weight.add acc c.Traverser.weight)
      outcome.finished outcome.spawns
  in
  let total = List.fold_left (fun acc (_, w) -> Weight.add acc w) total outcome.rows in
  Weight.equal total t.Traverser.weight

(* CPU time of one [exec] outcome under a cluster cost table. *)
let cost (costs : Cluster.costs) outcome =
  let open Sim_time in
  add costs.Cluster.step_dispatch
    (add
       (outcome.edges_scanned * costs.Cluster.per_edge)
       (add
          (outcome.prop_reads * costs.Cluster.per_property)
          (outcome.memo_ops * costs.Cluster.memo_op)))
