(* Query memoranda (§III-B): per-partition temporary key-value stores.

   One memo per partition; only the worker owning the partition touches
   it, so no synchronization is needed (that absence is precisely the
   benefit the partitioned model buys in Figure 8's non-partitioned
   ablation). Records are scoped to the creating query — keyed by query id
   first — and [clear_query] drops a query's whole footprint when it
   terminates, as the model prescribes.

   Keys within a query are (label, value) pairs, where the label is a
   user- or compiler-chosen discriminator (Distance, Seen, JoinA#3, ...)
   and the value is an arbitrary property value. Entries hold either a
   scalar, a partitionable partial aggregate, or the row lists of a
   double-pipelined join side. *)

type entry =
  | Scalar of Value.t
  | Partial of Aggregate.t
  | Rows of Value.t array list

(* The bucket hash is private to the memo: tables are only probed, never
   enumerated, so it may differ from [Value.hash] — which must not
   change, since routing places [By_key] traversers with it. Vertex and
   Int keys, the common ones, hash with integer arithmetic alone; the
   rest defer to [Value.hash]. *)
module Key = struct
  type t = int * Value.t (* label, key value *)

  let equal (l1, v1) (l2, v2) = l1 = l2 && Value.equal v1 v2

  let hash (l, v) =
    match v with
    | Value.Vertex x -> Int_table.hash ((l * 0x9E3779B1) + (2 * x))
    | Value.Int x -> Int_table.hash ((l * 0x9E3779B1) + (2 * x) + 1)
    | _ -> (l * 31) + Value.hash v
end

module Table = Hashtbl.Make (Key)

type t = {
  queries : entry Table.t Int_table.t; (* query id -> its records *)
  mutable ops : int; (* probe/update count, for CPU accounting *)
  mutable peak_entries : int;
  mutable live_entries : int;
}

let create () = { queries = Int_table.create 8; ops = 0; peak_entries = 0; live_entries = 0 }

let ops t = t.ops
let peak_entries t = t.peak_entries
let live_entries t = t.live_entries

let table t ~qid =
  match Int_table.find t.queries qid with
  | table -> table
  | exception Not_found ->
    let table = Table.create 8 in
    Int_table.add t.queries qid table;
    table

let grew t =
  t.live_entries <- t.live_entries + 1;
  if t.live_entries > t.peak_entries then t.peak_entries <- t.live_entries

(* Each operation builds its (label, value) key once and probes with
   [find]/[Not_found], so a hit allocates no [Some]. *)

(* Test-and-set for deduplication: true iff the key was absent. *)
let add_if_absent t ~qid ~label key =
  t.ops <- t.ops + 1;
  let table = table t ~qid in
  let k = (label, key) in
  if Table.mem table k then false
  else begin
    grew t;
    Table.add table k (Scalar Value.Null);
    true
  end

(* Minimum-distance update for the Visit step. *)
type visit_outcome =
  | First_visit
  | Improved
  | Not_improved

let min_int_update t ~qid ~label key d =
  t.ops <- t.ops + 1;
  let table = table t ~qid in
  let k = (label, key) in
  match Table.find table k with
  | exception Not_found ->
    grew t;
    Table.add table k (Scalar (Value.Int d));
    First_visit
  | Scalar (Value.Int best) when d < best ->
    Table.replace table k (Scalar (Value.Int d));
    Improved
  | _ -> Not_improved

(* Fetch-or-create the partial aggregate of step [label]. *)
let partial t ~qid ~label agg =
  t.ops <- t.ops + 1;
  let table = table t ~qid in
  let k = (label, Value.Null) in
  match Table.find table k with
  | Partial p -> p
  | _ -> invalid_arg "Memo.partial: label holds a non-aggregate entry"
  | exception Not_found ->
    grew t;
    let p = Aggregate.create agg in
    Table.add table k (Partial p);
    p

let partial_opt t ~qid ~label =
  t.ops <- t.ops + 1;
  match Table.find (table t ~qid) (label, Value.Null) with
  | Partial p -> Some p
  | _ -> invalid_arg "Memo.partial_opt: label holds a non-aggregate entry"
  | exception Not_found -> None

(* Append a row to a join side's bucket and return the opposite bucket. *)
let rows_add t ~qid ~label key row =
  t.ops <- t.ops + 1;
  let table = table t ~qid in
  let k = (label, key) in
  match Table.find table k with
  | Rows rows -> Table.replace table k (Rows (row :: rows))
  | _ -> invalid_arg "Memo.rows_add: label holds a non-rows entry"
  | exception Not_found ->
    grew t;
    Table.add table k (Rows [ row ])

let rows_get t ~qid ~label key =
  t.ops <- t.ops + 1;
  match Table.find (table t ~qid) (label, key) with
  | Rows rows -> rows
  | _ -> invalid_arg "Memo.rows_get: label holds a non-rows entry"
  | exception Not_found -> []

(* Drop a terminated query's records (automatic clearing of §III-B). *)
let clear_query t qid =
  match Int_table.find t.queries qid with
  | exception Not_found -> ()
  | table ->
    t.live_entries <- t.live_entries - Table.length table;
    Int_table.remove t.queries qid
