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

module Key = struct
  type t = int * Value.t (* label, key value *)

  let equal (l1, v1) (l2, v2) = l1 = l2 && Value.equal v1 v2
  let hash (l, v) = (l * 31) + Value.hash v
end

module Table = Hashtbl.Make (Key)

type t = {
  queries : (int, entry Table.t) Hashtbl.t; (* query id -> its records *)
  mutable ops : int; (* probe/update count, for CPU accounting *)
  mutable peak_entries : int;
  mutable live_entries : int;
}

let create () = { queries = Hashtbl.create 8; ops = 0; peak_entries = 0; live_entries = 0 }

let ops t = t.ops
let peak_entries t = t.peak_entries
let live_entries t = t.live_entries

let table t ~qid =
  match Hashtbl.find_opt t.queries qid with
  | Some table -> table
  | None ->
    let table = Table.create 64 in
    Hashtbl.add t.queries qid table;
    table

let grew t =
  t.live_entries <- t.live_entries + 1;
  if t.live_entries > t.peak_entries then t.peak_entries <- t.live_entries

(* Test-and-set for deduplication: true iff the key was absent. *)
let add_if_absent t ~qid ~label key =
  t.ops <- t.ops + 1;
  let table = table t ~qid in
  if Table.mem table (label, key) then false
  else begin
    grew t;
    Table.replace table (label, key) (Scalar Value.Null);
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
  match Table.find_opt table (label, key) with
  | None ->
    grew t;
    Table.replace table (label, key) (Scalar (Value.Int d));
    First_visit
  | Some (Scalar (Value.Int best)) when d < best ->
    Table.replace table (label, key) (Scalar (Value.Int d));
    Improved
  | Some _ -> Not_improved

(* Fetch-or-create the partial aggregate of step [label]. *)
let partial t ~qid ~label agg =
  t.ops <- t.ops + 1;
  let table = table t ~qid in
  match Table.find_opt table (label, Value.Null) with
  | Some (Partial p) -> p
  | Some _ -> invalid_arg "Memo.partial: label holds a non-aggregate entry"
  | None ->
    grew t;
    let p = Aggregate.create agg in
    Table.replace table (label, Value.Null) (Partial p);
    p

let partial_opt t ~qid ~label =
  t.ops <- t.ops + 1;
  match Table.find_opt (table t ~qid) (label, Value.Null) with
  | Some (Partial p) -> Some p
  | Some _ -> invalid_arg "Memo.partial_opt: label holds a non-aggregate entry"
  | None -> None

(* Append a row to a join side's bucket and return the opposite bucket. *)
let rows_add t ~qid ~label key row =
  t.ops <- t.ops + 1;
  let table = table t ~qid in
  match Table.find_opt table (label, key) with
  | Some (Rows rows) -> Table.replace table (label, key) (Rows (row :: rows))
  | Some _ -> invalid_arg "Memo.rows_add: label holds a non-rows entry"
  | None ->
    grew t;
    Table.replace table (label, key) (Rows [ row ])

let rows_get t ~qid ~label key =
  t.ops <- t.ops + 1;
  match Table.find_opt (table t ~qid) (label, key) with
  | Some (Rows rows) -> rows
  | Some _ -> invalid_arg "Memo.rows_get: label holds a non-rows entry"
  | None -> []

(* Drop a terminated query's records (automatic clearing of §III-B). *)
let clear_query t qid =
  match Hashtbl.find_opt t.queries qid with
  | None -> ()
  | Some table ->
    t.live_entries <- t.live_entries - Table.length table;
    Hashtbl.remove t.queries qid
