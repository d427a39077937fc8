(** Binary min-heap with the ordering fixed at creation. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> dummy:'a -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val clear : 'a t -> unit
val push : 'a t -> 'a -> unit

(** Smallest element without removing it. Raises on empty. *)
val peek_exn : 'a t -> 'a

(** Remove and return the smallest element. Raises on empty. *)
val pop : 'a t -> 'a

(** Non-destructive ascending drain, for tests. *)
val to_sorted_list : 'a t -> 'a list
