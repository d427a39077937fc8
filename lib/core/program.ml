(* Compiled PSTM programs: a step array plus the static analysis every
   engine relies on.

   The analysis assigns each step to a *phase*. Aggregate steps are the
   only phase boundaries: everything feeding an aggregation belongs to one
   subquery (§III-C) whose termination is tracked separately, and the
   aggregation's continuation starts the next phase with a fresh root
   weight. Validation rejects malformed control flow up front so the
   engines can interpret steps without defensive checks. *)

type t = {
  name : string;
  steps : Step.t array;
  n_registers : int;
  entries : int array; (* indices of source steps, started in parallel *)
  phase_of_step : int array;
  n_phases : int;
  agg_of_phase : int option array; (* the Aggregate step closing each phase *)
  join_partner : int array; (* for Join steps, the opposite side's index *)
}

exception Invalid of string

(* Engines keep per-(query, phase) state — coalesced weights, tracker
   monitors — under one packed int key, [qid * max_phases + phase]. The
   packing is collision-free only while every phase index stays below
   [max_phases], so [make] rejects larger programs. *)
let max_phases = 1024

let phase_key ~qid ~phase = (qid * max_phases) + phase

let invalid fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

let successors step index =
  match step.Step.op with
  | Step.Emit _ -> []
  | Step.Visit { cont; _ } -> [ (step.Step.next, `Same); (cont, `Same) ]
  | Step.Join { cont; _ } -> [ (cont, `Same) ]
  | Step.Aggregate _ -> [ (step.Step.next, `Bump) ]
  | Step.Index_lookup _ | Step.Scan _ | Step.Expand _ | Step.Filter _ | Step.Set_reg _
  | Step.Move_to _ | Step.Dedup _ ->
    if step.Step.next = -1 then invalid "step %d (%s) has no successor" index (Step.op_name step.Step.op)
    else [ (step.Step.next, `Same) ]

let check_registers steps n_registers =
  let check_reg ctx r =
    if r < 0 || r >= n_registers then invalid "%s: register %d out of range" ctx r
  in
  let check_expr ctx e =
    let m = Step.max_reg_expr e in
    if m >= n_registers then invalid "%s: register %d out of range" ctx m
  in
  let check_pred ctx p =
    let m = Step.max_reg_pred p in
    if m >= n_registers then invalid "%s: register %d out of range" ctx m
  in
  Array.iteri
    (fun i step ->
      let ctx = Fmt.str "step %d (%s)" i (Step.op_name step.Step.op) in
      match step.Step.op with
      | Step.Index_lookup _ | Step.Scan _ | Step.Expand _ -> ()
      | Step.Filter p -> check_pred ctx p
      | Step.Set_reg { reg; expr } ->
        check_reg ctx reg;
        check_expr ctx expr
      | Step.Move_to { reg } -> check_reg ctx reg
      | Step.Dedup { by } -> check_expr ctx by
      | Step.Visit { dist_reg; _ } -> check_reg ctx dist_reg
      | Step.Join { key; store; load_regs; _ } ->
        check_expr ctx key;
        Array.iter (check_expr ctx) store;
        Array.iter (check_reg ctx) load_regs
      | Step.Aggregate { agg; reg } ->
        check_reg ctx reg;
        (match agg with
        | Step.Count -> ()
        | Step.Sum e | Step.Max e | Step.Min e
        | Step.Collect { expr = e; _ }
        | Step.Group_count e ->
          check_expr ctx e
        | Step.Topk { score; output; _ } ->
          check_expr ctx score;
          check_expr ctx output)
      | Step.Emit exprs -> Array.iter (check_expr ctx) exprs)
    steps

(* Pair up the two sides of each join; returns the partner array. *)
let check_join_pairing steps phase_of_step =
  let join_partner = Array.make (Array.length steps) (-1) in
  let sides = Hashtbl.create 4 in
  Array.iteri
    (fun i step ->
      match step.Step.op with
      | Step.Join { join_id; side; store; load_regs; _ } ->
        let a, b = Option.value ~default:(None, None) (Hashtbl.find_opt sides join_id) in
        let entry = Some (i, Array.length store, Array.length load_regs) in
        (match side with
        | Step.Side_a ->
          if a <> None then invalid "join %d has two A sides" join_id;
          Hashtbl.replace sides join_id (entry, b)
        | Step.Side_b ->
          if b <> None then invalid "join %d has two B sides" join_id;
          Hashtbl.replace sides join_id (a, entry))
      | _ -> ())
    steps;
  let ids =
    (* det-ok: ids sorted before use, so the first error reported is stable *)
    List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) sides [])
  in
  List.iter
    (fun join_id ->
      match Hashtbl.find sides join_id with
      | Some (ia, store_a, load_a), Some (ib, store_b, load_b) ->
        if store_a <> load_b then
          invalid "join %d: side A stores %d values but side B loads %d" join_id store_a load_b;
        if store_b <> load_a then
          invalid "join %d: side B stores %d values but side A loads %d" join_id store_b load_a;
        if phase_of_step.(ia) <> phase_of_step.(ib) then
          invalid "join %d: sides in different phases" join_id;
        join_partner.(ia) <- ib;
        join_partner.(ib) <- ia
      | _ -> invalid "join %d is missing a side" join_id)
    ids;
  join_partner

let make ~name ~steps ~n_registers ~entries =
  let n = Array.length steps in
  if n = 0 then invalid "empty program";
  if Array.length entries = 0 then invalid "program has no entry steps";
  if n_registers < 0 then invalid "negative register count";
  Array.iter
    (fun e ->
      if e < 0 || e >= n then invalid "entry index %d out of range" e;
      if not (Step.is_source steps.(e).Step.op) then
        invalid "entry step %d (%s) is not a source" e (Step.op_name steps.(e).Step.op))
    entries;
  Array.iteri
    (fun i step ->
      if Step.is_source step.Step.op && not (Array.exists (Int.equal i) entries) then
        invalid "source step %d is not listed as an entry" i)
    steps;
  (* Range-check successor indices. *)
  Array.iteri
    (fun i step ->
      let check_target ctx target =
        if target < 0 || target >= n then invalid "step %d: %s target %d out of range" i ctx target
      in
      (match step.Step.op with
      | Step.Emit _ ->
        if step.Step.next <> -1 then invalid "step %d: emit must be terminal" i
      | Step.Visit { cont; _ } ->
        check_target "next" step.Step.next;
        check_target "cont" cont
      | Step.Join { cont; _ } -> check_target "cont" cont
      | _ -> check_target "next" step.Step.next))
    steps;
  check_registers steps n_registers;
  (* Phase assignment by BFS from the entries. *)
  let phase_of_step = Array.make n (-1) in
  let queue = Queue.create () in
  Array.iter
    (fun e ->
      phase_of_step.(e) <- 0;
      Queue.add e queue)
    entries;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    let p = phase_of_step.(i) in
    List.iter
      (fun (j, bump) ->
        let q = match bump with `Same -> p | `Bump -> p + 1 in
        if phase_of_step.(j) = -1 then begin
          phase_of_step.(j) <- q;
          Queue.add j queue
        end
        else if phase_of_step.(j) <> q then
          invalid "step %d reachable in phases %d and %d" j phase_of_step.(j) q)
      (successors steps.(i) i)
  done;
  Array.iteri
    (fun i p -> if p = -1 then invalid "step %d (%s) is unreachable" i (Step.op_name steps.(i).Step.op))
    phase_of_step;
  let n_phases = 1 + Array.fold_left max 0 phase_of_step in
  if n_phases > max_phases then
    invalid "program has %d phases; at most %d are supported" n_phases max_phases;
  let agg_of_phase = Array.make n_phases None in
  Array.iteri
    (fun i step ->
      match step.Step.op with
      | Step.Aggregate _ ->
        let p = phase_of_step.(i) in
        (match agg_of_phase.(p) with
        | None -> agg_of_phase.(p) <- Some i
        | Some other -> invalid "phase %d has two aggregate steps (%d and %d)" p other i)
      | _ -> ())
    steps;
  if agg_of_phase.(n_phases - 1) <> None then
    invalid "final phase ends in an aggregate with nowhere to continue";
  let join_partner = check_join_pairing steps phase_of_step in
  { name; steps; n_registers; entries; phase_of_step; n_phases; agg_of_phase; join_partner }

let name t = t.name
let steps t = t.steps
let step t i = t.steps.(i)
let n_steps t = Array.length t.steps
let n_registers t = t.n_registers
let entries t = t.entries
let n_phases t = t.n_phases
let phase_of_step t i = t.phase_of_step.(i)
let agg_of_phase t p = t.agg_of_phase.(p)

let join_partner t i =
  let p = t.join_partner.(i) in
  if p = -1 then invalid_arg "Program.join_partner: step is not a join side";
  p

let pp ppf t =
  Fmt.pf ppf "@[<v>program %s (%d regs, %d phases)@," t.name t.n_registers t.n_phases;
  Array.iteri
    (fun i step -> Fmt.pf ppf "  %2d [p%d] %a@," i t.phase_of_step.(i) Step.pp step)
    t.steps;
  Fmt.pf ppf "@]"
