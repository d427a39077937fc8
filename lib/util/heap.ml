(* Binary min-heap over an explicit ordering, fixed at creation.

   Used by the bounded top-k selector. The discrete-event queue keeps its
   own inline heap on (time, seq), so its hot path pays neither a closure
   comparison nor an option per pop. *)

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~cmp ~dummy = { cmp; data = [||]; len = 0; dummy }

let length t = t.len

let is_empty t = t.len = 0

let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let ensure_capacity t n =
  let cap = Array.length t.data in
  if n > cap then begin
    let data = Array.make (max n (max 8 (2 * cap))) t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let sift_up t i =
  let x = t.data.(i) in
  let i = ref i in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    t.cmp x t.data.(parent) < 0
  do
    let parent = (!i - 1) / 2 in
    t.data.(!i) <- t.data.(parent);
    i := parent
  done;
  t.data.(!i) <- x

let sift_down t i =
  let x = t.data.(i) in
  let n = t.len in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    if l >= n then continue := false
    else begin
      let smallest = if r < n && t.cmp t.data.(r) t.data.(l) < 0 then r else l in
      if t.cmp t.data.(smallest) x < 0 then begin
        t.data.(!i) <- t.data.(smallest);
        i := smallest
      end
      else continue := false
    end
  done;
  t.data.(!i) <- x

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let peek_exn t =
  if t.len = 0 then invalid_arg "Heap.peek_exn: empty";
  t.data.(0)

let pop t =
  if t.len = 0 then invalid_arg "Heap.pop: empty";
  let top = t.data.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.data.(0) <- t.data.(t.len);
    t.data.(t.len) <- t.dummy;
    sift_down t 0
  end
  else t.data.(t.len) <- t.dummy;
  top

let to_sorted_list t =
  let copy = { t with data = Array.copy t.data } in
  let rec drain acc = if is_empty copy then List.rev acc else drain (pop copy :: acc) in
  drain []
