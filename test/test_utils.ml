(** Tests for the shared utilities: seeded RNG, graph algorithms, list
    helpers. *)

open Scallop_utils

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---- Rng ------------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check (Alcotest.float 0.0) "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 13 in
    if x < 0 || x >= 13 then Alcotest.failf "Rng.int out of bounds: %d" x
  done

let test_rng_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "Rng.float out of bounds: %f" x
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xa = Rng.float a and xb = Rng.float b in
  if Float.equal xa xb then Alcotest.fail "split streams should differ"

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let samples = List.init n (fun _ -> Rng.gaussian ~mu:2.0 ~sigma:0.5 rng) in
  let mean = Listx.average samples in
  let var =
    Listx.average (List.map (fun x -> (x -. mean) ** 2.0) samples)
  in
  check (Alcotest.float 0.05) "mean" 2.0 mean;
  check (Alcotest.float 0.05) "variance" 0.25 var

let test_rng_categorical () =
  let rng = Rng.create 13 in
  let counts = Array.make 3 0 in
  for _ = 1 to 10000 do
    let i = Rng.categorical rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check (Alcotest.float 0.03) "p0" 0.1 (float_of_int counts.(0) /. 10000.0);
  check (Alcotest.float 0.03) "p2" 0.7 (float_of_int counts.(2) /. 10000.0)

let test_rng_categorical_nonfinite_total () =
  (* A NaN/∞/zero weight total must degrade to a uniform draw, not a silent
     constant pick (the cumulative scan never fires on a NaN total and used
     to return the last index every time). *)
  List.iter
    (fun weights ->
      let rng = Rng.create 21 in
      let n = Array.length weights in
      let counts = Array.make n 0 in
      let draws = 3000 in
      for _ = 1 to draws do
        let i = Rng.categorical rng weights in
        if i < 0 || i >= n then Alcotest.failf "categorical out of bounds: %d" i;
        counts.(i) <- counts.(i) + 1
      done;
      Array.iteri
        (fun i c ->
          check (Alcotest.float 0.05) (Fmt.str "uniform fallback idx %d" i)
            (1.0 /. float_of_int n)
            (float_of_int c /. float_of_int draws))
        counts)
    [
      [| Float.nan; 1.0; 1.0 |];
      [| Float.infinity; 1.0; 1.0; 1.0 |];
      [| 0.0; 0.0 |];
      [| -1.0; -2.0; -3.0 |];
    ]

let test_rng_shuffle_permutation () =
  let rng = Rng.create 17 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 20 Fun.id) sorted

let qcheck_sample_indices =
  qtest "sample_indices: k distinct ascending indices"
    QCheck.(triple (int_range 0 500) (int_range 0 15) (int_range 0 15))
    (fun (seed, a, b) ->
      let k = min a b and n = max a b in
      let rng = Rng.create seed in
      let sel = Rng.sample_indices rng k n in
      Array.length sel = k
      && Array.for_all (fun i -> i >= 0 && i < n) sel
      && Array.for_all Fun.id (Array.mapi (fun j i -> j = 0 || sel.(j - 1) < i) sel))

let qcheck_weighted_sample_indices =
  qtest "weighted_sample_indices: k distinct ascending, zero weights ok"
    QCheck.(triple (int_range 0 500) (int_range 0 15) (list_of_size Gen.(0 -- 15) (float_bound_inclusive 1.0)))
    (fun (seed, a, ws) ->
      let weights = Array.of_list ws in
      (* half the cases: all-zero weights, exercising the uniform fallback *)
      let weights = if seed mod 2 = 0 then Array.map (fun _ -> 0.0) weights else weights in
      let n = Array.length weights in
      let k = min a n in
      let rng = Rng.create seed in
      let sel = Rng.weighted_sample_indices rng k weights in
      Array.length sel = k
      && Array.for_all (fun i -> i >= 0 && i < n) sel
      && Array.for_all Fun.id (Array.mapi (fun j i -> j = 0 || sel.(j - 1) < i) sel))

let test_weighted_sample_prefers_heavy () =
  (* index 2 carries 90% of the mass: it must appear in nearly every draw *)
  let rng = Rng.create 23 in
  let hits = ref 0 in
  for _ = 1 to 1000 do
    let sel = Rng.weighted_sample_indices rng 1 [| 0.05; 0.05; 0.9 |] in
    if sel.(0) = 2 then incr hits
  done;
  if !hits < 800 then Alcotest.failf "heavy index drawn only %d/1000 times" !hits

(* ---- Graph ------------------------------------------------------------------- *)

let test_scc_simple_cycle () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  Graph.add_edge g 1 2;
  Graph.add_edge g 2 3;
  let comp, n = Graph.scc g in
  check Alcotest.int "three components" 3 n;
  check Alcotest.int "0 and 1 together" comp.(0) comp.(1);
  if comp.(2) = comp.(0) || comp.(3) = comp.(2) then Alcotest.fail "2 and 3 are separate"

let test_scc_topological_order () =
  (* edge u->v (u depends on v) implies comp(u) > comp(v) when separate *)
  let g = Graph.create 5 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 0 3;
  Graph.add_edge g 3 4;
  let comp, _ = Graph.scc g in
  if comp.(0) <= comp.(1) then Alcotest.fail "dependent after dependency (0,1)";
  if comp.(1) <= comp.(2) then Alcotest.fail "dependent after dependency (1,2)";
  if comp.(3) <= comp.(4) then Alcotest.fail "dependent after dependency (3,4)"

let test_scc_self_loop () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 0;
  let comp, n = Graph.scc g in
  check Alcotest.int "two components" 2 n;
  if comp.(0) = comp.(1) then Alcotest.fail "self loop isolated"

let qcheck_scc_partition =
  qtest "scc assigns every node exactly one component"
    QCheck.(pair (int_range 1 20) (list (pair (int_range 0 19) (int_range 0 19))))
    (fun (n, edges) ->
      let g = Graph.create n in
      List.iter (fun (u, v) -> if u < n && v < n then Graph.add_edge g u v) edges;
      let comp, ncomp = Graph.scc g in
      Array.for_all (fun c -> c >= 0 && c < ncomp) comp)

(* ---- Listx ------------------------------------------------------------------- *)

let test_take_drop () =
  check Alcotest.(list int) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  check Alcotest.(list int) "take over" [ 1; 2; 3 ] (Listx.take 5 [ 1; 2; 3 ]);
  check Alcotest.(list int) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  check Alcotest.(list int) "drop over" [] (Listx.drop 5 [ 1; 2; 3 ])

let test_cartesian () =
  check
    Alcotest.(list (list int))
    "cartesian"
    [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ] ]
    (Listx.cartesian [ [ 1; 2 ]; [ 3; 4 ] ])

let test_subsets () =
  check Alcotest.int "2^3 subsets" 8 (List.length (Listx.subsets [ 1; 2; 3 ]))

let test_group_by () =
  let groups = Listx.group_by (module Int) (fun x -> x mod 2) [ 1; 2; 3; 4; 5 ] in
  check Alcotest.int "two groups" 2 (List.length groups);
  check Alcotest.(list int) "odds first" [ 1; 3; 5 ] (List.assoc 1 groups);
  check Alcotest.(list int) "evens" [ 2; 4 ] (List.assoc 0 groups)

let test_top_k_by () =
  check Alcotest.(list int) "top 2" [ 9; 7 ] (Listx.top_k_by float_of_int 2 [ 3; 9; 1; 7 ])

let test_top_k_by_nan_and_ties () =
  (* NaN scores rank as -inf (never above a finite score; ties with a real
     -inf resolve by input order)… *)
  let score = function 0 -> Float.nan | 1 -> Float.neg_infinity | n -> float_of_int n in
  check Alcotest.(list int) "nan never beats finite" [ 5; 2; 0 ] (Listx.top_k_by score 3 [ 0; 1; 2; 5 ]);
  check Alcotest.(list int) "nan/-inf tie is stable" [ 5; 2; 1 ] (Listx.top_k_by score 3 [ 1; 0; 2; 5 ]);
  (* …equal scores keep input order (stability)… *)
  check
    Alcotest.(list (pair int string))
    "stable ties"
    [ (2, "a"); (2, "b"); (1, "c") ]
    (Listx.top_k_by (fun (s, _) -> float_of_int s) 3 [ (2, "a"); (1, "c"); (2, "b") ]);
  (* …and the score function runs once per element, not once per comparison. *)
  let calls = ref 0 in
  let counted x = incr calls; float_of_int x in
  ignore (Listx.top_k_by counted 2 [ 5; 3; 8; 1; 9; 2 ]);
  check Alcotest.int "score called n times" 6 !calls

let test_dedup_stable () =
  check Alcotest.(list int) "dedup" [ 3; 1; 2 ] (Listx.dedup_stable ( = ) [ 3; 1; 3; 2; 1 ])

let qcheck_take_length =
  qtest "take length" QCheck.(pair small_nat (list int)) (fun (n, l) ->
      List.length (Listx.take n l) = min n (List.length l))

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng categorical" `Quick test_rng_categorical;
    Alcotest.test_case "rng categorical non-finite total" `Quick
      test_rng_categorical_nonfinite_total;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    qcheck_sample_indices;
    qcheck_weighted_sample_indices;
    Alcotest.test_case "weighted sample prefers heavy" `Quick test_weighted_sample_prefers_heavy;
    Alcotest.test_case "scc simple cycle" `Quick test_scc_simple_cycle;
    Alcotest.test_case "scc topological order" `Quick test_scc_topological_order;
    Alcotest.test_case "scc self loop" `Quick test_scc_self_loop;
    qcheck_scc_partition;
    Alcotest.test_case "take/drop" `Quick test_take_drop;
    Alcotest.test_case "cartesian" `Quick test_cartesian;
    Alcotest.test_case "subsets" `Quick test_subsets;
    Alcotest.test_case "group_by" `Quick test_group_by;
    Alcotest.test_case "top_k_by" `Quick test_top_k_by;
    Alcotest.test_case "top_k_by nan/ties/one-score-per-element" `Quick test_top_k_by_nan_and_ties;
    Alcotest.test_case "dedup_stable" `Quick test_dedup_stable;
    qcheck_take_length;
  ]
