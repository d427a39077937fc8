(* Frontier-batched execution of fusable step chains.

   The scalar interpreter ([Exec.exec]) pays one dispatch per traverser
   per step. When many traversers sit at the same step — the common case
   for frontier-shaped traversals — they can instead run as one batch: a
   maximal chain of side-effect-free steps (Expand / Filter / Set_reg)
   is executed breadth-first over the whole frontier, sweeping CSR
   adjacency ranges directly via {!Csr.slice} / {!Csr.target_at} and
   memoizing register-free filter verdicts per vertex in a bitset pair.

   Chains without a Set_reg (the hot case) run on a packed frontier: one
   int per element, parent batch index in the high bits and vertex in
   the low bits, so the whole sweep allocates nothing per element and
   every intermediate buffer is reused from the scratch across batches.
   Chains with a Set_reg fall back to a record frontier carrying a
   per-element register file.

   Weight handling is per-batch but exact: each parent's weight is split
   over its *surviving* leaves only (a parent with no survivors finishes
   its whole weight at the batch), so Theorem 1's conservation identity

     sum(parent weights) = sum(leaf weights) + rows + finished

   holds bit for bit ({!conserves} checks it). The split uses different
   PRNG draws than the scalar order would, so a batch is
   weight-*conserving* but not weight-*identical* to stepping each
   traverser; exit vertices, registers and edges scanned match.

   Stateful ops (Dedup, Visit, Join, Aggregate), sources and Emit are
   never fused: their memo effects are order-sensitive per element.

   No engine runs this module; it is the layer kernel the benchmark
   measures against [Exec.exec]. An engine could not use it as is: a
   fused chain reads the adjacency and properties of every vertex it
   reaches, whichever partition owns them, skipping the routing hop of
   §III-A. *)

(* Record frontier element, for Set_reg chains only. *)
type entry = { parent : int; vertex : int; regs : Value.t array }

let dummy_entry = { parent = 0; vertex = 0; regs = [||] }

(* Packed frontier element: parent batch index in the high bits, vertex
   in the low [vbits]. *)
let vbits = 31
let vmask = (1 lsl vbits) - 1

(* Reusable per-worker scratch: the bitset pair memoizing register-free
   predicate verdicts per vertex within one chain position ([undo] lists
   the touched vertices so the reset is proportional to the frontier,
   not |V|), plus every intermediate buffer, so steady-state batches
   allocate only their result traversers. *)
type scratch = {
  pred_seen : Bitset.t;
  pred_true : Bitset.t;
  undo : int Vec.t;
  packed_a : int Vec.t; (* packed frontier double-buffer *)
  packed_b : int Vec.t;
  entries_a : entry Vec.t; (* record frontier double-buffer *)
  entries_b : entry Vec.t;
  out_shares : Weight.t Vec.t; (* per-leaf weight shares, in leaf order *)
  mutable shares : Weight.t array; (* split buffer, grown as needed *)
}

let scratch ~graph =
  let n = Graph.n_vertices graph in
  {
    pred_seen = Bitset.create n;
    pred_true = Bitset.create n;
    undo = Vec.create ~dummy:0;
    packed_a = Vec.create ~dummy:0;
    packed_b = Vec.create ~dummy:0;
    entries_a = Vec.create ~dummy:dummy_entry;
    entries_b = Vec.create ~dummy:dummy_entry;
    out_shares = Vec.create ~dummy:Weight.zero;
    shares = Array.make 64 Weight.zero;
  }

let shares_buffer s n =
  if Array.length s.shares < n then
    s.shares <- Array.make (max n (2 * Array.length s.shares)) Weight.zero;
  s.shares

let reset_memo s =
  Vec.iter
    (fun v ->
      Bitset.remove s.pred_seen v;
      Bitset.remove s.pred_true v)
    s.undo;
  Vec.clear s.undo

(* A step op is fusable when it neither touches the partition memo nor
   produces rows: its only effects are spawning children and finishing
   weight, both of which the per-batch split reproduces exactly. *)
let fusable_op = function
  | Step.Expand _ | Step.Filter _ | Step.Set_reg _ -> true
  | Step.Index_lookup _ | Step.Scan _ | Step.Move_to _ | Step.Dedup _ | Step.Visit _
  | Step.Join _ | Step.Aggregate _ | Step.Emit _ ->
    false

let fusable program step = fusable_op (Program.step program step).Step.op

(* Maximal fusable chain starting at [step]: the run of fusable steps
   linked by [next]. Returns the chain (in execution order) and the exit
   step every surviving leaf lands on. Cycles cannot occur — [next]
   always moves forward through a validated program — but the loop is
   bounded by [n_steps] anyway. *)
let chain program step =
  let steps = ref [] in
  let count = ref 0 in
  let idx = ref step in
  let n = Program.n_steps program in
  let continue = ref true in
  while !continue && !count < n && !idx >= 0 && fusable program !idx do
    steps := !idx :: !steps;
    incr count;
    let next = (Program.step program !idx).Step.next in
    if next < 0 then continue := false else idx := next
  done;
  (List.rev !steps, !idx)

(* Surviving leaves, unmaterialized. The executor never builds spawn
   traversers itself: the final frontier buffer plus a parallel share
   vector determine every spawn, and [iter_spawns] constructs each
   traverser on demand at the consumer. This matters for large batches:
   the frontier and share buffers are unboxed int vectors (immediate
   stores skip the GC write barrier), whereas pushing hundreds of
   thousands of fresh records into a reused major-heap vector would pay
   [caml_modify] plus a promotion per element. *)
type spawns =
  | Packed of {
      leaves : int Vec.t;
      shares : Weight.t Vec.t;
      travs : Traverser.t array;
      exit_step : int;
    }
  | Entries of { leaves : entry Vec.t; shares : Weight.t Vec.t; exit_step : int }

type outcome = {
  spawns : spawns;
  n_spawns : int;
  finished : Weight.t; (* weight of pruned / childless branches *)
  edges_scanned : int;
  prop_reads : int;
}

let n_spawns o = o.n_spawns

let iter_spawns o f =
  match o.spawns with
  | Packed { leaves; shares; travs; exit_step } ->
    Vec.iteri
      (fun i e ->
        let parent = e lsr vbits in
        f ~parent
          (Traverser.move travs.(parent) ~vertex:(e land vmask) ~step:exit_step
             ~weight:(Vec.get shares i)))
      leaves
  | Entries { leaves; shares; exit_step } ->
    Vec.iteri
      (fun i e ->
        f ~parent:e.parent
          { Traverser.vertex = e.vertex; step = exit_step; weight = Vec.get shares i; regs = e.regs })
      leaves

(* Split each parent's weight over its surviving leaves (a parent with
   none finishes its whole weight). The sweeps are order-preserving, so
   each parent's survivors form one contiguous run of [leaves] and
   parents appear in increasing order: one run-length walk writes the
   per-leaf shares (in leaf order) into the scratch's share vector with
   no per-parent allocation ([split_into] reuses one buffer). *)
let settle ~prng ~(travs : Traverser.t array) ~leaves_len ~s ~parent_at =
  Vec.clear s.out_shares;
  let finished = ref Weight.zero in
  let next_parent = ref 0 in
  let skip_until parent =
    while !next_parent < parent do
      finished := Weight.add !finished travs.(!next_parent).Traverser.weight;
      incr next_parent
    done
  in
  let i = ref 0 in
  while !i < leaves_len do
    let parent = parent_at !i in
    skip_until parent;
    let j = ref (!i + 1) in
    while !j < leaves_len && parent_at !j = parent do
      incr j
    done;
    let n = !j - !i in
    let w = travs.(parent).Traverser.weight in
    if n = 1 then Vec.push s.out_shares w
    else begin
      let buf = shares_buffer s n in
      Weight.split_into prng w buf ~n;
      for k = 0 to n - 1 do
        Vec.push s.out_shares buf.(k)
      done
    end;
    next_parent := parent + 1;
    i := !j
  done;
  skip_until (Array.length travs);
  !finished

(* Edge accounting of one element's expansion, matching [Exec.exec]: the
   full adjacency range is charged even under a label restriction (every
   position is examined), but an expansion that spawns no child charges
   nothing, because the scalar interpreter finishes a childless
   traverser's weight without recording its scan. *)
let charge ~edges ~width ~spawned = if spawned then edges := !edges + width

(* --- Packed fast path: chains without Set_reg ------------------------- *)

let run_packed ~graph ~scratch:s ~prng ~program ~chain_steps ~exit_step
    (travs : Traverser.t array) =
  let frontier = s.packed_a in
  Vec.clear frontier;
  Array.iteri
    (fun parent (t : Traverser.t) -> Vec.push frontier ((parent lsl vbits) lor t.Traverser.vertex))
    travs;
  let edges = ref 0 in
  let reads = ref 0 in
  let current = ref frontier in
  let spare = ref s.packed_b in
  List.iter
    (fun idx ->
      let out = !spare in
      Vec.clear out;
      (match (Program.step program idx).Step.op with
      | Step.Expand { dir; edge_label } ->
        let scan csr pbits v =
          let lo, hi = Csr.slice csr v in
          (match edge_label with
          | None ->
            for pos = lo to hi - 1 do
              Vec.push out (pbits lor Csr.target_at csr pos)
            done
          | Some l ->
            for pos = lo to hi - 1 do
              if Csr.label_at csr pos = l then Vec.push out (pbits lor Csr.target_at csr pos)
            done);
          hi - lo
        in
        Vec.iter
          (fun e ->
            let v = e land vmask in
            let pbits = e lxor v in
            let before = Vec.length out in
            let width =
              match dir with
              | Graph.Out -> scan (Graph.out_csr graph) pbits v
              | Graph.In -> scan (Graph.in_csr graph) pbits v
              | Graph.Both ->
                let w = scan (Graph.out_csr graph) pbits v in
                w + scan (Graph.in_csr graph) pbits v
            in
            charge ~edges ~width ~spawned:(Vec.length out > before))
          !current
      | Step.Filter pred ->
        let reads_per_eval = Step.pred_prop_reads pred in
        (* Register-free predicates depend only on the vertex, so one
           verdict per distinct vertex serves the whole frontier. *)
        let memoizable = Step.max_reg_pred pred < 0 in
        Vec.iter
          (fun e ->
            let v = e land vmask in
            let verdict =
              if memoizable && Bitset.mem s.pred_seen v then Bitset.mem s.pred_true v
              else begin
                reads := !reads + reads_per_eval;
                let regs = travs.(e lsr vbits).Traverser.regs in
                let r = Step.eval_pred graph ~vertex:v ~regs pred in
                if memoizable then begin
                  Bitset.add s.pred_seen v;
                  if r then Bitset.add s.pred_true v;
                  Vec.push s.undo v
                end;
                r
              end
            in
            if verdict then Vec.push out e)
          !current;
        if memoizable then reset_memo s
      | _ -> assert false);
      spare := !current;
      current := out)
    chain_steps;
  let leaves = !current in
  let finished =
    settle ~prng ~travs ~leaves_len:(Vec.length leaves) ~s
      ~parent_at:(fun i -> Vec.get leaves i lsr vbits)
  in
  {
    spawns = Packed { leaves; shares = s.out_shares; travs; exit_step };
    n_spawns = Vec.length leaves;
    finished;
    edges_scanned = !edges;
    prop_reads = !reads;
  }

(* --- Record path: chains containing Set_reg --------------------------- *)

let run_entries ~graph ~scratch:s ~prng ~program ~chain_steps ~exit_step
    (travs : Traverser.t array) =
  let frontier = s.entries_a in
  Vec.clear frontier;
  Array.iteri
    (fun parent (t : Traverser.t) ->
      Vec.push frontier { parent; vertex = t.Traverser.vertex; regs = t.Traverser.regs })
    travs;
  let edges = ref 0 in
  let reads = ref 0 in
  let current = ref frontier in
  let spare = ref s.entries_b in
  List.iter
    (fun idx ->
      let out = !spare in
      Vec.clear out;
      (match (Program.step program idx).Step.op with
      | Step.Expand { dir; edge_label } ->
        let scan csr e =
          let lo, hi = Csr.slice csr e.vertex in
          Csr.fold_neighbors_range csr ?label:edge_label ~lo ~hi ~init:() ~f:(fun () ~pos ->
              Vec.push out { e with vertex = Csr.target_at csr pos });
          hi - lo
        in
        Vec.iter
          (fun e ->
            let before = Vec.length out in
            let width =
              match dir with
              | Graph.Out -> scan (Graph.out_csr graph) e
              | Graph.In -> scan (Graph.in_csr graph) e
              | Graph.Both ->
                let w = scan (Graph.out_csr graph) e in
                w + scan (Graph.in_csr graph) e
            in
            charge ~edges ~width ~spawned:(Vec.length out > before))
          !current
      | Step.Filter pred ->
        let reads_per_eval = Step.pred_prop_reads pred in
        let memoizable = Step.max_reg_pred pred < 0 in
        Vec.iter
          (fun e ->
            let verdict =
              if memoizable && Bitset.mem s.pred_seen e.vertex then Bitset.mem s.pred_true e.vertex
              else begin
                reads := !reads + reads_per_eval;
                let r = Step.eval_pred graph ~vertex:e.vertex ~regs:e.regs pred in
                if memoizable then begin
                  Bitset.add s.pred_seen e.vertex;
                  if r then Bitset.add s.pred_true e.vertex;
                  Vec.push s.undo e.vertex
                end;
                r
              end
            in
            if verdict then Vec.push out e)
          !current;
        if memoizable then reset_memo s
      | Step.Set_reg { reg; expr } ->
        let reads_per_eval = Step.expr_prop_reads expr in
        Vec.iter
          (fun e ->
            reads := !reads + reads_per_eval;
            let value = Step.eval_expr graph ~vertex:e.vertex ~regs:e.regs expr in
            let regs = Array.copy e.regs in
            regs.(reg) <- value;
            Vec.push out { e with regs })
          !current
      | _ -> assert false);
      spare := !current;
      current := out)
    chain_steps;
  let leaves = !current in
  let finished =
    settle ~prng ~travs ~leaves_len:(Vec.length leaves) ~s
      ~parent_at:(fun i -> (Vec.get leaves i).parent)
  in
  {
    spawns = Entries { leaves; shares = s.out_shares; exit_step };
    n_spawns = Vec.length leaves;
    finished;
    edges_scanned = !edges;
    prop_reads = !reads;
  }

(* Execute the fusable chain rooted at [step] over the whole batch.
   [travs] must all sit at [step]. *)
let run ~graph ~scratch ~prng ~program ~step (travs : Traverser.t array) =
  let chain_steps, exit_step = chain program step in
  assert (chain_steps <> []);
  let has_set_reg =
    List.exists
      (fun i -> match (Program.step program i).Step.op with Step.Set_reg _ -> true | _ -> false)
      chain_steps
  in
  if has_set_reg || Graph.n_vertices graph > vmask then
    run_entries ~graph ~scratch ~prng ~program ~chain_steps ~exit_step travs
  else run_packed ~graph ~scratch ~prng ~program ~chain_steps ~exit_step travs

(* Theorem 1 at batch granularity, for the sanitizer. *)
let conserves (travs : Traverser.t array) outcome =
  let inflow =
    Array.fold_left (fun acc (t : Traverser.t) -> Weight.add acc t.Traverser.weight) Weight.zero travs
  in
  let shares =
    match outcome.spawns with Packed { shares; _ } | Entries { shares; _ } -> shares
  in
  let outflow = Vec.fold (fun acc w -> Weight.add acc w) outcome.finished shares in
  Weight.equal inflow outflow
