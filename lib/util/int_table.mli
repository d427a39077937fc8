(** Hash table on int keys with an allocation-free integer hash. Same
    interface and enumeration caveats as {!Hashtbl.S}. *)

include Hashtbl.S with type key = int

(** The table's bucket hash: non-negative, allocation-free. Also a cheap
    mixer for other private hashes built from ints. *)
val hash : int -> int
