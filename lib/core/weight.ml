(* Progression weights (§III-B and §IV-A of the paper).

   Every traverser carries a weight w; the root traverser starts with the
   whole query weight, spawning splits a parent's weight among children and
   a traverser that dies reports its weight as finished. The invariant

     sum of active weights + finished weight = root weight

   makes termination detection a single comparison at the tracker.

   Floating-point shares underflow, so, following the paper's Theorem 1,
   weights are elements of a finite abelian group: here Z/2^63, i.e. native
   OCaml ints under wrapping addition. A split of w draws the first n-1
   shares uniformly at random and sets the last to w minus their sum, so
   the shares always sum to w while each individual share is uniform. A
   false positive (a strict subset of weights summing to the root) occurs
   with probability at most (n-1)/2^63 — negligible. *)

type t = int

let zero = 0

(* Any nonzero group element works as the root; 1 matches the paper. *)
let root = 1

let add = ( + ) (* native int addition wraps mod 2^63: the group operation *)
let sub = ( - )
let equal = Int.equal
let is_zero w = w = 0

(* Uniform group element: all 63 bits of the generator draw. *)
let random prng = Int64.to_int (Prng.next_int64 prng)

let split2 prng w =
  let r = random prng in
  (r, w - r)

(* A split written into a caller-owned buffer: the batched executor
   splits once per frontier parent and reuses one buffer across them.
   The draws come from [Prng.fill_int63] — the same stream as repeated
   [random] calls, minus the per-draw Int64 boxing — and [split] below
   draws the same way. *)
let split_into prng w out ~n =
  if n <= 0 then invalid_arg "Weight.split_into: n must be positive";
  if Array.length out < n then invalid_arg "Weight.split_into: buffer too small";
  Prng.fill_int63 prng out ~n:(n - 1);
  let remaining = ref w in
  for i = 0 to n - 2 do
    remaining := !remaining - out.(i)
  done;
  out.(n - 1) <- !remaining

let split prng w ~n =
  if n <= 0 then invalid_arg "Weight.split: n must be positive";
  let shares = Array.make n 0 in
  split_into prng w shares ~n;
  shares

(* Serialized size of one weight in a progress message. *)
let bytes = 8

let pp ppf w = Fmt.pf ppf "w#%x" (w land 0xffffff)
