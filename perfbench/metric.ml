(* A named measurement with its unit and the clock it was read on. *)

type clock =
  | Sim (* simulated time of the modelled cluster *)
  | Host (* the machine running the simulator *)
  | Count (* clock-free: counts, ratios, sizes *)

let clock_name = function Sim -> "sim" | Host -> "host" | Count -> "-"

type t = { name : string; value : float; unit_ : string; clock : clock }

let make name unit_ clock value = { name; value; unit_; clock }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
