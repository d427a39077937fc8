(* Unit and property tests for pstm_util. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_split_independent () =
  let parent = Prng.create 7 in
  let child = Prng.split parent in
  Alcotest.(check bool) "child differs from parent" true
    (Prng.next_int64 child <> Prng.next_int64 parent)

let prng_int_in_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let prng = Prng.create seed in
      let x = Prng.int prng bound in
      x >= 0 && x < bound)

let prng_range_in_bounds =
  QCheck.Test.make ~name:"prng int_in_range inclusive" ~count:500
    QCheck.(triple small_int (int_range (-100) 100) (int_range 0 100))
    (fun (seed, lo, extent) ->
      let prng = Prng.create seed in
      let hi = lo + extent in
      let x = Prng.int_in_range prng ~lo ~hi in
      x >= lo && x <= hi)

let test_prng_shuffle_is_permutation () =
  let prng = Prng.create 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle_in_place prng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_float_range () =
  let prng = Prng.create 9 in
  for _ = 1 to 1000 do
    let f = Prng.float prng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (f >= 0.0 && f < 2.5)
  done

let test_prng_exponential_positive () =
  let prng = Prng.create 4 in
  let total = ref 0.0 in
  for _ = 1 to 1000 do
    let x = Prng.exponential prng ~mean:5.0 in
    Alcotest.(check bool) "non-negative" true (x >= 0.0);
    total := !total +. x
  done;
  let mean = !total /. 1000.0 in
  Alcotest.(check bool) "mean near 5" true (mean > 4.0 && mean < 6.0)

(* --- Vec --- *)

let vec_model =
  QCheck.Test.make ~name:"vec push/to_list matches list model" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let v = Vec.create ~dummy:0 in
      List.iter (Vec.push v) xs;
      Vec.to_list v = xs && Vec.length v = List.length xs)

let test_vec_pop_lifo () =
  let v = Vec.create ~dummy:0 in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Alcotest.(check int) "pop 3" 3 (Vec.pop v);
  Alcotest.(check int) "pop 2" 2 (Vec.pop v);
  Vec.push v 9;
  Alcotest.(check int) "pop 9" 9 (Vec.pop v);
  Alcotest.(check int) "pop 1" 1 (Vec.pop v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

let test_vec_swap_remove () =
  let v = Vec.of_array ~dummy:0 [| 10; 20; 30; 40 |] in
  Alcotest.(check int) "removes index 1" 20 (Vec.swap_remove v 1);
  Alcotest.(check (list int)) "last moved into hole" [ 10; 40; 30 ] (Vec.to_list v)

let test_vec_append_clear () =
  let a = Vec.of_array ~dummy:0 [| 1; 2 |] in
  let b = Vec.of_array ~dummy:0 [| 3; 4; 5 |] in
  Vec.append ~into:a b;
  Alcotest.(check (list int)) "appended" [ 1; 2; 3; 4; 5 ] (Vec.to_list a);
  Vec.clear a;
  Alcotest.(check int) "cleared" 0 (Vec.length a);
  Alcotest.(check (list int)) "b untouched" [ 3; 4; 5 ] (Vec.to_list b)

let vec_sort_model =
  QCheck.Test.make ~name:"vec sort matches list sort" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let v = Vec.of_array ~dummy:0 (Array.of_list xs) in
      Vec.sort compare v;
      Vec.to_list v = List.sort compare xs)

let test_vec_bounds () =
  let v = Vec.of_array ~dummy:0 [| 1 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: out of bounds") (fun () ->
      ignore (Vec.get v 1))

(* --- Heap --- *)

let heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create ~cmp:compare ~dummy:0 in
      List.iter (Heap.push h) xs;
      let rec drain acc = if Heap.is_empty h then List.rev acc else drain (Heap.pop h :: acc) in
      drain [] = List.sort compare xs)

let test_heap_peek () =
  let h = Heap.create ~cmp:compare ~dummy:0 in
  Alcotest.check_raises "empty peek" (Invalid_argument "Heap.peek_exn: empty") (fun () ->
      ignore (Heap.peek_exn h));
  Heap.push h 5;
  Heap.push h 2;
  Heap.push h 8;
  Alcotest.(check int) "min on top" 2 (Heap.peek_exn h);
  Alcotest.(check int) "length" 3 (Heap.length h)

let test_heap_to_sorted_preserves () =
  let h = Heap.create ~cmp:compare ~dummy:0 in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "sorted view" [ 1; 2; 3 ] (Heap.to_sorted_list h);
  Alcotest.(check int) "heap intact" 3 (Heap.length h)

(* --- Topk --- *)

let topk_matches_sort =
  QCheck.Test.make ~name:"topk equals sort-take-k" ~count:300
    QCheck.(pair (int_range 0 10) (list small_int))
    (fun (k, xs) ->
      let t = Topk.create ~k ~cmp:compare ~dummy:0 in
      List.iter (Topk.add t) xs;
      let expected =
        List.filteri (fun i _ -> i < k) (List.sort (fun a b -> compare b a) xs)
      in
      Topk.to_sorted_list t = expected)

let test_topk_merge () =
  let a = Topk.create ~k:3 ~cmp:compare ~dummy:0 in
  let b = Topk.create ~k:3 ~cmp:compare ~dummy:0 in
  List.iter (Topk.add a) [ 1; 5; 3 ];
  List.iter (Topk.add b) [ 9; 2; 7 ];
  Topk.merge ~into:a b;
  Alcotest.(check (list int)) "merged top 3" [ 9; 7; 5 ] (Topk.to_sorted_list a)

(* --- Stats --- *)

let test_stats_percentiles () =
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.001)) "p50" 50.0 (Stats.percentile samples 50.0);
  Alcotest.(check (float 0.001)) "p99" 99.0 (Stats.percentile samples 99.0);
  Alcotest.(check (float 0.001)) "p100" 100.0 (Stats.percentile samples 100.0);
  Alcotest.(check (float 0.001)) "mean" 50.5 (Stats.mean samples)

let test_stats_empty () =
  let s = Stats.summarize [||] in
  Alcotest.(check int) "count" 0 s.Stats.count;
  Alcotest.(check (float 0.0)) "mean" 0.0 s.Stats.mean

let test_stats_geomean () =
  Alcotest.(check (float 0.001)) "geomean" 2.0 (Stats.geomean [| 1.0; 4.0 |])

(* --- Histogram --- *)

let test_histogram_percentile_accuracy () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i /. 1000.0)
  done;
  let p50 = Histogram.percentile h 50.0 in
  Alcotest.(check bool) "p50 near 0.5" true (p50 > 0.38 && p50 < 0.65);
  Alcotest.(check int) "count" 1000 (Histogram.count h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 1.0;
  Histogram.add b 2.0;
  Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 2 (Histogram.count a);
  Alcotest.(check (float 0.001)) "merged mean" 1.5 (Histogram.mean a)

(* --- Bitset --- *)

let bitset_model =
  QCheck.Test.make ~name:"bitset matches set model" ~count:200
    QCheck.(list (int_range 0 199))
    (fun xs ->
      let bs = Bitset.create 200 in
      List.iter (Bitset.add bs) xs;
      let module S = Set.Make (Int) in
      let model = S.of_list xs in
      S.for_all (Bitset.mem bs) model
      && Bitset.count bs = S.cardinal model
      && List.for_all
           (fun i -> Bitset.mem bs i = S.mem i model)
           (List.init 200 Fun.id))

let test_bitset_add_if_absent () =
  let bs = Bitset.create 10 in
  Alcotest.(check bool) "first add" true (Bitset.add_if_absent bs 3);
  Alcotest.(check bool) "second add" false (Bitset.add_if_absent bs 3);
  Bitset.remove bs 3;
  Alcotest.(check bool) "after remove" true (Bitset.add_if_absent bs 3)

let test_bitset_bounds () =
  let bs = Bitset.create 8 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds") (fun () ->
      Bitset.add bs 8)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_is_permutation;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "exponential" `Quick test_prng_exponential_positive;
          qcheck prng_int_in_bounds;
          qcheck prng_range_in_bounds;
        ] );
      ( "vec",
        [
          Alcotest.test_case "pop lifo" `Quick test_vec_pop_lifo;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "append/clear" `Quick test_vec_append_clear;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          qcheck vec_model;
          qcheck vec_sort_model;
        ] );
      ( "heap",
        [
          Alcotest.test_case "peek/min" `Quick test_heap_peek;
          Alcotest.test_case "to_sorted preserves" `Quick test_heap_to_sorted_preserves;
          qcheck heap_sorts;
        ] );
      ( "topk",
        [ Alcotest.test_case "merge" `Quick test_topk_merge; qcheck topk_matches_sort ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentile accuracy" `Quick test_histogram_percentile_accuracy;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "add_if_absent" `Quick test_bitset_add_if_absent;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          qcheck bitset_model;
        ] );
    ]
