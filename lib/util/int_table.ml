(* Hash table on int keys.

   The generic [Hashtbl] hashes through [caml_hash], a C call that walks
   the key as a polymorphic value; on the per-step paths (memo query
   lookup, property columns, weight coalescing) that walk was a visible
   share of the simulator's host time. Here the hash is a few integer
   operations and equality is [Int.equal], so a probe allocates nothing.

   The multiply spreads low key bits upward and the shift folds high bits
   back down, so packed keys such as [qid * 1024 + phase] — whose low
   bits repeat across queries — still spread over the buckets.
   Enumeration order is bucket order, as with [Hashtbl]: callers that
   iterate must sort or be order-insensitive. *)

module Key = struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x1F3D5B79A1C3E5 in
    (h lxor (h lsr 29)) land max_int
end

include Hashtbl.Make (Key)

let hash = Key.hash
