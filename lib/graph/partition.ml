(* Graph partitioning function H : V -> PartId (§II-C of the paper).

   One partition per worker; the PSTM engines route every traverser to the
   worker owning its current vertex. Hash partitioning is the paper's
   choice; block partitioning is kept as an ablation (it concentrates BFS
   frontiers on few workers and exposes the straggler effect even more). *)

type strategy =
  | Hash (* owner v = mix(v) mod n_parts; spreads hubs and frontiers *)
  | Mod (* owner v = v mod n_parts; kept as an ablation (hub clustering) *)
  | Block (* owner v = v / ceil(n/n_parts); contiguous ranges *)

type t = {
  strategy : strategy;
  n_parts : int;
  n_vertices : int;
  block_size : int;
}

(* Fibonacci-style multiplicative mixer: cheap and avalanching enough to
   decouple hub ids (which generators place at small ids) from workers. *)
let mix v =
  let h = v * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land max_int

let create ?(strategy = Hash) ~n_parts ~n_vertices () =
  if n_parts <= 0 then invalid_arg "Partition.create: n_parts must be positive";
  if n_vertices < 0 then invalid_arg "Partition.create: negative n_vertices";
  let block_size = max 1 ((n_vertices + n_parts - 1) / n_parts) in
  { strategy; n_parts; n_vertices; block_size }

let n_parts t = t.n_parts

let owner t v =
  match t.strategy with
  | Hash -> mix v mod t.n_parts
  | Mod -> v mod t.n_parts
  | Block -> min (t.n_parts - 1) (v / t.block_size)

(* Vertices owned by partition [p], in ascending order. *)
let members t p =
  if p < 0 || p >= t.n_parts then invalid_arg "Partition.members: bad partition";
  let out = Vec.create ~dummy:0 in
  (match t.strategy with
  | Hash ->
    for v = 0 to t.n_vertices - 1 do
      if mix v mod t.n_parts = p then Vec.push out v
    done
  | Mod ->
    let v = ref p in
    while !v < t.n_vertices do
      Vec.push out !v;
      v := !v + t.n_parts
    done
  | Block ->
    let lo = p * t.block_size in
    let hi = min t.n_vertices ((p + 1) * t.block_size) in
    let hi = if p = t.n_parts - 1 then t.n_vertices else hi in
    for v = lo to hi - 1 do
      Vec.push out v
    done);
  Vec.to_array out

(* Max-over-mean partition size: 1.0 is perfectly balanced. With no
   vertices — or more partitions than vertices, where the mean drops
   below one vertex — there is nothing meaningful to balance, so the
   ratio is defined as the perfect 1.0 instead of dividing by a
   (near-)zero mean. *)
let imbalance t =
  if t.n_vertices = 0 || t.n_parts > t.n_vertices then 1.0
  else begin
    let sizes = Array.init t.n_parts (fun p -> Array.length (members t p)) in
    let max_size = Array.fold_left max 0 sizes in
    float_of_int (max_size * t.n_parts) /. float_of_int t.n_vertices
  end
