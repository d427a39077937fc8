(* Columnar property storage.

   Properties are stored per key as a column over all vertices (or all
   edges). Homogeneous columns are specialized to unboxed int/float/string
   arrays with a validity bitset; heterogeneous or sparse columns fall back
   to a boxed [Value.t] array. Missing entries read as [Value.Null]. *)

type column =
  | Ints of int array * Bitset.t
  | Floats of float array * Bitset.t
  | Strs of string array * Bitset.t
  | Mixed of Value.t array

type t = {
  size : int; (* number of rows (vertices or edges) *)
  columns : column Int_table.t; (* keyed by interned property-key id *)
}

let create ~size = { size; columns = Int_table.create 16 }

let size t = t.size

let has_key t key = Int_table.mem t.columns key

let keys t =
  (* det-ok: keys sorted so callers see a stable enumeration *)
  List.sort Int.compare (Int_table.fold (fun k _ acc -> k :: acc) t.columns [])

let get t ~key id =
  if id < 0 || id >= t.size then invalid_arg "Props.get: row out of range";
  match Int_table.find t.columns key with
  | exception Not_found -> Value.Null
  | Ints (data, valid) -> if Bitset.mem valid id then Value.Int data.(id) else Value.Null
  | Floats (data, valid) -> if Bitset.mem valid id then Value.Float data.(id) else Value.Null
  | Strs (data, valid) -> if Bitset.mem valid id then Value.Str data.(id) else Value.Null
  | Mixed data -> data.(id)

let get_int t ~key id =
  match Int_table.find t.columns key with
  | exception Not_found -> None
  | Ints (data, valid) when Bitset.mem valid id -> Some data.(id)
  | _ -> Value.to_int (get t ~key id)

(* Materialize a column from sparse (row, value) pairs. The column is
   specialized when every present value has the same primitive shape. *)
let column_of_pairs ~size pairs =
  let all p = not (Vec.exists (fun (_, v) -> not (p v)) pairs) in
  let is_int = function Value.Int _ -> true | _ -> false in
  let is_float = function Value.Float _ -> true | _ -> false in
  let is_str = function Value.Str _ -> true | _ -> false in
  if Vec.is_empty pairs then Mixed (Array.make size Value.Null)
  else if all is_int then begin
    let data = Array.make size 0 and valid = Bitset.create size in
    Vec.iter
      (fun (id, v) ->
        data.(id) <- Value.to_int_exn v;
        Bitset.add valid id)
      pairs;
    Ints (data, valid)
  end
  else if all is_float then begin
    let data = Array.make size 0.0 and valid = Bitset.create size in
    Vec.iter
      (fun (id, v) ->
        data.(id) <- Value.to_float_exn v;
        Bitset.add valid id)
      pairs;
    Floats (data, valid)
  end
  else if all is_str then begin
    let data = Array.make size "" and valid = Bitset.create size in
    Vec.iter
      (fun (id, v) ->
        (match v with Value.Str s -> data.(id) <- s | _ -> assert false);
        Bitset.add valid id)
      pairs;
    Strs (data, valid)
  end
  else begin
    let data = Array.make size Value.Null in
    Vec.iter (fun (id, v) -> data.(id) <- v) pairs;
    Mixed data
  end

let set_column t ~key column = Int_table.replace t.columns key column

let of_sparse ~size sparse =
  let t = create ~size in
  (* Keys are distinct and each key's column is built independently into
     its own slot, so no output depends on visit order. *)
  (* det-ok: independent per-key column builds; order cannot matter *)
  Hashtbl.iter (fun key pairs -> set_column t ~key (column_of_pairs ~size pairs)) sparse;
  t

let column_bytes = function
  | Ints (data, _) -> 8 * Array.length data
  | Floats (data, _) -> 8 * Array.length data
  | Strs (data, _) -> Array.fold_left (fun acc s -> acc + 16 + String.length s) 0 data
  | Mixed data -> Array.fold_left (fun acc v -> acc + 8 + Value.bytes v) 0 data

(* det-ok: commutative sum over columns *)
let bytes t = Int_table.fold (fun _ col acc -> acc + column_bytes col) t.columns 0
