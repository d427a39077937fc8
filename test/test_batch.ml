(* The Batch_exec kernel against the scalar interpreter.

   No engine runs Batch_exec; it is kept as a measured layer kernel. On
   random graphs, random fusable Expand / Filter / Set_reg chains and
   random frontiers, one [Batch_exec.run] over the whole frontier must
   reach the same multiset of exit traversers (vertex and registers) and
   scan the same number of edges as stepping every traverser through the
   chain with [Exec.exec], and it must conserve weight (Theorem 1 at
   batch granularity). *)

open Pstm_engine

let qcheck = QCheck_alcotest.to_alcotest

let graph_of ~n ~edges =
  let b = Builder.create () in
  for i = 0 to n - 1 do
    ignore
      (Builder.add_vertex b ~label:(if i mod 3 = 0 then "A" else "B")
         ~props:[ ("id", Value.Int i); ("weight", Value.Int ((i * 37) mod 100)) ]
         ())
  done;
  List.iter
    (fun (s, d, l) ->
      if s < n && d < n then
        ignore (Builder.add_edge b ~src:s ~label:(if l then "x" else "y") ~dst:d ()))
    edges;
  Builder.build b

(* Chain ops, symbolic until a graph fixes the label and key ids. The
   filters cover both kernel cases: register-free predicates (verdicts
   memoized per vertex) and register-reading ones (evaluated per
   element). *)
type kop =
  | Expand of Graph.direction * string option
  | Weight_at_least of int
  | Label_is_a
  | Reg0_below_weight
  | Reg1_is_vertex
  | Set_reg1_vertex
  | Set_reg1_weight

let kop_name = function
  | Expand (dir, label) ->
    Fmt.str "expand(%a,%s)" Graph.pp_direction dir (Option.value label ~default:"*")
  | Weight_at_least k -> Fmt.str "weight>=%d" k
  | Label_is_a -> "label=A"
  | Reg0_below_weight -> "r0<weight"
  | Reg1_is_vertex -> "r1=id"
  | Set_reg1_vertex -> "r1:=id"
  | Set_reg1_weight -> "r1:=weight"

let step_op graph kop =
  let schema = Graph.schema graph in
  let weight = Step.Prop (Schema.property_key schema "weight") in
  match kop with
  | Expand (dir, label) ->
    Step.Expand { dir; edge_label = Option.map (Schema.edge_label schema) label }
  | Weight_at_least k -> Step.Filter (Step.Cmp (Step.Ge, weight, Step.Const (Value.Int k)))
  | Label_is_a ->
    Step.Filter
      (Step.Cmp
         (Step.Eq, Step.Vertex_label, Step.Const (Value.Int (Schema.vertex_label schema "A"))))
  | Reg0_below_weight -> Step.Filter (Step.Cmp (Step.Lt, Step.Reg 0, weight))
  | Reg1_is_vertex -> Step.Filter (Step.Cmp (Step.Eq, Step.Reg 1, Step.Vertex_id))
  | Set_reg1_vertex -> Step.Set_reg { reg = 1; expr = Step.Vertex_id }
  | Set_reg1_weight -> Step.Set_reg { reg = 1; expr = weight }

(* Scan -> chain -> Emit: the chain occupies steps 1..k and every
   surviving leaf exits at the Emit, step k + 1. *)
let program_of graph chain =
  let k = List.length chain in
  let steps =
    Array.of_list
      (({ Step.op = Step.Scan { vertex_label = None }; next = 1 }
       :: List.mapi (fun i kop -> { Step.op = step_op graph kop; next = i + 2 }) chain)
      @ [ { Step.op = Step.Emit [| Step.Vertex_id |]; next = -1 } ])
  in
  (Program.make ~name:"chain" ~steps ~n_registers:2 ~entries:[| 0 |], k + 1)

type case = {
  n : int;
  edges : (int * int * bool) list;
  chain : kop list;
  frontier : (int * int) list; (* start vertex (mod n), initial r0 *)
  seed : int;
}

let arb_case =
  let open QCheck.Gen in
  let dir = oneofl [ Graph.Out; Graph.In; Graph.Both ] in
  let label = oneofl [ None; Some "x"; Some "y" ] in
  let kop =
    frequency
      [
        (4, map2 (fun d l -> Expand (d, l)) dir label);
        (2, map (fun k -> Weight_at_least k) (int_range 0 100));
        (1, return Label_is_a);
        (1, return Reg0_below_weight);
        (1, return Reg1_is_vertex);
        (1, return Set_reg1_vertex);
        (1, return Set_reg1_weight);
      ]
  in
  let gen =
    let* n = int_range 2 24 in
    let* edges = list_size (int_range 0 80) (triple (int_range 0 23) (int_range 0 23) bool) in
    let* chain = list_size (int_range 1 5) kop in
    let* frontier = list_size (int_range 1 16) (pair (int_range 0 23) (int_range 0 100)) in
    let* seed = int_bound 0xFFFF in
    return { n; edges; chain; frontier; seed }
  in
  QCheck.make
    ~print:(fun c ->
      Fmt.str "graph n=%d m=%d chain=[%s] frontier=%d seed=%d" c.n (List.length c.edges)
        (String.concat "; " (List.map kop_name c.chain))
        (List.length c.frontier) c.seed)
    gen

let leaf_key (t : Traverser.t) =
  Fmt.str "%d|%a" t.Traverser.vertex (Fmt.array ~sep:(Fmt.any ",") Value.pp) t.Traverser.regs

(* Every traverser stepped one [Exec.exec] at a time until it reaches
   the exit step: the exit leaves (sorted) and the edges scanned. *)
let stepped ~graph ~program ~exit_step travs =
  let memo = Memo.create () in
  let prng = Prng.create 1 in
  let scan _ = [||] in
  let edges = ref 0 in
  let leaves = ref [] in
  let rec go (t : Traverser.t) =
    if t.Traverser.step = exit_step then leaves := leaf_key t :: !leaves
    else begin
      let o = Exec.exec ~graph ~memo ~prng ~qid:0 ~program ~scan t in
      edges := !edges + o.Exec.edges_scanned;
      List.iter go o.Exec.spawns
    end
  in
  Array.iter go travs;
  (List.sort String.compare !leaves, !edges)

let kernel_matches_stepping =
  QCheck.Test.make ~name:"fused chain = stepping Exec" ~count:300 arb_case (fun c ->
      let graph = graph_of ~n:c.n ~edges:c.edges in
      let program, exit_step = program_of graph c.chain in
      let prng = Prng.create c.seed in
      let shares = Weight.split prng Weight.root ~n:(List.length c.frontier) in
      let travs =
        Array.of_list
          (List.mapi
             (fun i (v, r0) ->
               Traverser.set_reg
                 (Traverser.make ~vertex:(v mod c.n) ~step:1 ~weight:shares.(i) ~n_registers:2)
                 0 (Value.Int r0))
             c.frontier)
      in
      let expected_leaves, expected_edges = stepped ~graph ~program ~exit_step travs in
      let chain_steps, chain_exit = Batch_exec.chain program 1 in
      let o =
        Batch_exec.run ~graph ~scratch:(Batch_exec.scratch ~graph) ~prng ~program ~step:1 travs
      in
      let leaves = ref [] in
      let off_exit = ref 0 in
      Batch_exec.iter_spawns o (fun ~parent:_ t ->
          if t.Traverser.step <> exit_step then incr off_exit;
          leaves := leaf_key t :: !leaves);
      let leaves = List.sort String.compare !leaves in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      if chain_steps <> List.init (List.length c.chain) (fun i -> i + 1) || chain_exit <> exit_step
      then fail "chain: expected steps 1..%d exiting at %d" (List.length c.chain) exit_step
      else if !off_exit > 0 then fail "%d leaves off the exit step" !off_exit
      else if leaves <> expected_leaves then
        fail "exit leaves differ:@ kernel   [%s]@ stepped  [%s]" (String.concat " " leaves)
          (String.concat " " expected_leaves)
      else if Batch_exec.n_spawns o <> List.length leaves then
        fail "n_spawns %d, iterated %d" (Batch_exec.n_spawns o) (List.length leaves)
      else if o.Batch_exec.edges_scanned <> expected_edges then
        fail "edges_scanned: kernel %d, stepped %d" o.Batch_exec.edges_scanned expected_edges
      else if not (Batch_exec.conserves travs o) then fail "weight not conserved"
      else true)

let () = Alcotest.run "batch" [ ("batch-kernel", [ qcheck kernel_matches_stepping ]) ]
