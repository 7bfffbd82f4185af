(** Engine parity: the row tree-walker and the columnar executor share one
    stratum driver, so they must agree on everything observable — outputs,
    tags and sampler draws (bit for bit), the profiler's fixpoint counts and
    per-stratum traces, and the [Budget_exceeded] diagnostic of a capped
    run.  The incremental engine's maintenance counters on a fixed script
    are pinned as constants.

    The fuzz generator excludes samplers and foreign predicates (their
    outputs depend on RNG state and callbacks), so the differential here
    uses fixed programs and fixed seeds instead. *)

open Scallop_core
open Scallop_fuzz
module Incr = Scallop_incr.Incr
module Rng = Scallop_utils.Rng

let i32 n = Value.int Value.I32 n

(* A small weighted digraph: 14 edges over nodes 0..6, fixed by [seed]. *)
let edges seed =
  let rng = Rng.create seed in
  List.init 14 (fun _ ->
      let a = Rng.int rng 7 and b = Rng.int rng 7 in
      (Provenance.Input.prob (0.05 +. (0.9 *. Rng.float rng)), Tuple.of_list [ i32 a; i32 b ]))

let blocked = [ (Provenance.Input.prob 0.6, Tuple.of_list [ i32 3 ]) ]

type mode = { name : string; columnar : bool; semi_naive : bool; cache : bool }

let mode ?(columnar = false) ?(semi_naive = true) ?(cache = true) name =
  { name; columnar; semi_naive; cache }

let row_modes =
  [
    mode "row semi-naive";
    mode ~cache:false "row semi-naive uncached";
    mode ~semi_naive:false "row naive";
  ]

let columnar_modes =
  [
    mode ~columnar:true "columnar semi-naive";
    mode ~columnar:true ~cache:false "columnar semi-naive uncached";
    mode ~columnar:true ~semi_naive:false "columnar naive";
  ]

let config_of ?stats ?budget ~seed m =
  {
    Interp.rng = Rng.create seed;
    semi_naive = m.semi_naive;
    cache_indices = m.cache;
    columnar = m.columnar;
    stats;
    budget = Option.value budget ~default:Budget.default;
  }

let run ?stats ?budget ~spec ~seed m compiled facts =
  Session.run
    ~config:(config_of ?stats ?budget ~seed m)
    ~provenance:(Registry.create spec) compiled ~facts ()

(* ---- samplers and foreign predicates, row ≡ columnar ------------------------- *)

(* Samplers in a lower stratum, grouped (implicit and [where]-domain) and
   ungrouped, all feeding a recursive stratum with negation.  Every draw
   happens once per run, so all six modes must agree. *)
let sampler_feeds_recursion =
  {|type e(i32, i32), blocked(i32)
rel u(a, b) = a, b := uniform<6>(x, y: e(x, y))
rel c(a, b) = a, b := categorical<5>(x, y: e(x, y))
rel t(a, b) = a, b := top<4>(x, y: e(x, y))
rel g(a, b) = b := top<1>(y: e(a, y))
rel gu(a, b) = b := uniform<1>(y: e(a, y))
rel gd(a, b) = b := categorical<1>(y: e(a, y) where a: blocked(a))
rel start(a, b) = u(a, b) or c(a, b) or t(a, b)
rel reach(a, b) = start(a, b)
rel reach(a, c) = reach(a, b), g(b, c), not blocked(c)
rel reach(a, c) = reach(a, b), gu(b, c)
rel reach(a, c) = reach(a, b), gd(b, c)
query u
query c
query t
query g
query gu
query gd
query reach|}

(* Foreign joins inside recursion: [succ] on the recursive spine and
   [range] both on the spine and in an invariant subtree. *)
let foreign_in_recursion =
  {|type e(i32, i32)
rel chain(x, y) = e(x, _), succ(x, y)
rel chain(x, z) = chain(x, y), succ(y, z), z < 9
rel grid(x, y) = range(0, 3, x), chain(x, y)
rel grid(x, z) = grid(x, y), e(y, z), range(0, 5, z)
query chain
query grid|}

(* A deterministic top-k sampler inside the recursive rule itself: the
   sampler node is re-evaluated by every round that reaches it. *)
let topk_in_recursion =
  {|type e(i32, i32)
rel best(a, b) = e(a, b)
rel best(a, c) = best(a, b), c := top<1>(y: e(b, y))
query best|}

(* A random sampler inside recursion: draws repeat per round, so naive and
   semi-naive consume the RNG differently — but the row and columnar
   engines in the same mode must consume it identically. *)
let uniform_in_recursion =
  {|type e(i32, i32)
rel walk(a, b) = e(a, b)
rel walk(a, c) = walk(a, b), c := uniform<1>(y: e(b, y))
query walk|}

(* Two random samplers in one body: which one draws first is fixed by the
   child-evaluation order (right before left) that both engines share.
   [linked] joins them under a fused column-selecting projection, [sums]
   under an arithmetic one, which the columnar engine does not fuse. *)
let samplers_side_by_side =
  {|type e(i32, i32)
rel both(a, b) = a := uniform<3>(x: e(x, _)), b := uniform<3>(y: e(_, y))
rel linked(a, b, c) = a, b := uniform<5>(x, y: e(x, y)), b, c := categorical<5>(y, z: e(y, z))
rel sums(s) = a, b := uniform<5>(x, y: e(x, y)), b, c := categorical<5>(y, z: e(y, z)), s == a + c
query both
query linked
query sums|}

let specs =
  [ ("boolean", Registry.Boolean); ("minmaxprob", Registry.Max_min_prob);
    ("topkproofs-3", Registry.Top_k_proofs 3) ]

let snapshot r = Fuzz_gen.snapshot r

let check_agree ~what ~spec ~seed ~facts ~modes compiled =
  match modes with
  | [] -> ()
  | first :: rest ->
      let reference = snapshot (run ~spec ~seed first compiled facts) in
      List.iter
        (fun m ->
          let got = snapshot (run ~spec ~seed m compiled facts) in
          if not (Fuzz_gen.snapshots_bit_equal reference got) then
            Alcotest.failf "%s (seed %d): %s differs from %s" what seed m.name first.name)
        rest

let test_sampler_foreign_differential () =
  List.iter
    (fun (pname, spec) ->
      List.iter
        (fun seed ->
          let facts = [ ("e", edges seed); ("blocked", blocked) ] in
          let efacts = [ ("e", edges seed) ] in
          let agree src ~facts ~modes label =
            check_agree ~what:(pname ^ ": " ^ label) ~spec ~seed ~facts ~modes
              (Session.compile src)
          in
          (* top-k proofs truncate order-dependently under recursion, so
             naive and semi-naive may differ there; each engine pair must
             still agree mode for mode *)
          let groups =
            match spec with
            | Registry.Top_k_proofs _ ->
                let pick i = [ List.nth row_modes i; List.nth columnar_modes i ] in
                [ pick 0 @ pick 1; pick 2 ]
            | _ -> [ row_modes @ columnar_modes ]
          in
          List.iter
            (fun modes ->
              agree sampler_feeds_recursion ~facts ~modes "samplers feeding recursion";
              agree foreign_in_recursion ~facts:efacts ~modes "foreign joins in recursion";
              agree topk_in_recursion ~facts:efacts ~modes "top<1> in recursion";
              agree samplers_side_by_side ~facts:efacts ~modes "samplers side by side")
            groups;
          List.iter2
            (fun r c ->
              agree uniform_in_recursion ~facts:efacts ~modes:[ r; c ] "uniform<1> in recursion")
            row_modes columnar_modes)
        [ 1; 7; 42 ])
    specs

(* The samplers must actually draw: different seeds give different samples
   (guards against a differential that compares two empty relations). *)
let test_samplers_draw () =
  let compiled = Session.compile sampler_feeds_recursion in
  let facts = [ ("e", edges 1); ("blocked", blocked) ] in
  let rows seed m =
    Session.output (run ~spec:Registry.Boolean ~seed m compiled facts) "u"
    |> List.map (fun (t, _) -> Tuple.to_string t)
  in
  let base = rows 0 (List.hd columnar_modes) in
  Alcotest.(check int) "uniform<6> keeps 6" 6 (List.length base);
  Alcotest.(check bool) "another seed draws differently" true
    (List.exists (fun s -> rows s (List.hd columnar_modes) <> base) [ 1; 2; 3; 4; 5 ])

(* ---- profile parity ------------------------------------------------------------ *)

let negation_programs =
  [
    {|type e(i32, i32), blocked(i32)
rel reach(0)
rel reach(y) = reach(x), e(x, y), not blocked(y)
rel unreached(x) = e(x, _), not reach(x)
rel pair(a, b) = unreached(a), reach(b), a != b
query pair|};
    {|type e(i32, i32), blocked(i32)
rel path(a, b) = e(a, b), not blocked(b)
rel path(a, c) = path(a, b), e(b, c), not blocked(c)
rel cut(a, b) = e(a, b), not path(a, b)
rel around(a, c) = cut(a, b), path(b, c)
rel around(a, c) = around(a, b), cut(b, c)
rel n_around(n) = n := count(a, c: around(a, c))
query around
query n_around|};
  ]

let trace_summary (s : Interp.stats) =
  ( s.Interp.fixpoint_iterations,
    List.map
      (fun (tr : Interp.stratum_trace) ->
        (tr.Interp.stratum_index, tr.Interp.iterations, List.rev tr.Interp.delta_sizes))
      s.Interp.stratum_traces )

let pp_summary ppf (n, trs) =
  Fmt.pf ppf "%d iterations; %a" n
    Fmt.(list ~sep:(any "; ")
           (fun ppf (i, k, ds) -> pf ppf "s%d:%d[%a]" i k (list ~sep:(any " ") int) ds))
    trs

let budget_outcome ~spec ~seed m compiled facts =
  match run ~budget:(Budget.make ~max_iterations:2 ()) ~spec ~seed m compiled facts with
  | _ -> "ok"
  | exception Session.Error (Exec_error.Budget_exceeded { kind; stratum; iterations; _ }) ->
      Fmt.str "%s in stratum %d after %d" (Exec_error.kind_name kind) stratum iterations
  | exception Session.Error e -> Session.error_string e

let test_profile_parity () =
  List.iter
    (fun src ->
      let compiled = Session.compile src in
      List.iter
        (fun (pname, spec) ->
          List.iter
            (fun seed ->
              let facts = [ ("e", edges seed); ("blocked", blocked) ] in
              List.iter2
                (fun r c ->
                  let profile m =
                    let stats = Interp.empty_stats () in
                    ignore (run ~stats ~spec ~seed m compiled facts);
                    trace_summary stats
                  in
                  let pr = profile r and pc = profile c in
                  if pr <> pc then
                    Alcotest.failf "%s seed %d: %s profiled %a but %s profiled %a" pname seed
                      r.name pp_summary pr c.name pp_summary pc;
                  let br = budget_outcome ~spec ~seed r compiled facts
                  and bc = budget_outcome ~spec ~seed c compiled facts in
                  Alcotest.(check string)
                    (Fmt.str "%s seed %d: %s vs %s budget stop" pname seed r.name c.name)
                    br bc)
                row_modes columnar_modes)
            [ 3; 11 ])
        [ ("boolean", Registry.Boolean); ("minmaxprob", Registry.Max_min_prob) ])
    negation_programs

(* The iteration cap must actually fire in the programs above, or the
   budget half of the parity check compares two clean runs. *)
let test_budget_stop_fires () =
  let compiled = Session.compile (List.nth negation_programs 1) in
  let facts = [ ("e", edges 3); ("blocked", blocked) ] in
  List.iter
    (fun m ->
      let got = budget_outcome ~spec:Registry.Boolean ~seed:3 m compiled facts in
      Alcotest.(check bool) (m.name ^ " stops on the cap") true (got <> "ok"))
    (row_modes @ columnar_modes)

(* ---- incremental maintenance counters ------------------------------------------ *)

let incr_src =
  "type edge(i32, i32), blocked(i32)\n\
   rel path(a, b) = edge(a, b)\n\
   rel path(a, c) = path(a, b), edge(b, c)\n\
   rel open_path(a, b) = path(a, b), not blocked(b)\n\
   rel n_path(n) = n := count(a, b: path(a, b))\n\
   query open_path\n\
   query n_path"

(* A fixed assert/retract/query script: growth (continued strata),
   retraction (recomputed), negation input change, and a clean repeat. *)
let incr_script t =
  let pair a b = Tuple.of_list [ i32 a; i32 b ] in
  let q () = ignore (Incr.query t) in
  List.iter (fun (a, b) -> Incr.assert_fact t ~pred:"edge" (pair a b)) [ (0, 1); (1, 2); (2, 3) ];
  q ();
  Incr.assert_fact t ~pred:"edge" (pair 3 4);
  q ();
  Incr.assert_fact t ~pred:"edge" (pair 4 5);
  Incr.assert_fact t ~pred:"edge" (pair 5 0);
  q ();
  Incr.retract_fact t ~pred:"edge" (pair 2 3);
  q ();
  Incr.assert_fact t ~pred:"blocked" (Tuple.of_list [ i32 4 ]);
  q ();
  Incr.assert_fact t ~pred:"edge" (pair 2 3);
  q ();
  q ()

let test_incr_counters_pinned () =
  let sink = Interp.empty_stats () in
  let config = { (Interp.default_config ()) with Interp.stats = Some sink } in
  let t = Incr.open_session ~config ~spec:Registry.Boolean incr_src in
  incr_script t;
  let s = Incr.stats t in
  let got =
    ( s.Incr.queries,
      s.Incr.strata_reused,
      s.Incr.strata_continued,
      s.Incr.strata_recomputed,
      s.Incr.full_runs,
      sink.Interp.fixpoint_iterations )
  in
  let pp ppf (q, ru, co, re, fr, it) =
    Fmt.pf ppf "queries=%d reused=%d continued=%d recomputed=%d full=%d iterations=%d" q ru co
      re fr it
  in
  let expect = (7, 2, 6, 7, 1, 31) in
  if got <> expect then Alcotest.failf "got %a, pinned %a" pp got pp expect

let suite =
  [
    Alcotest.test_case "samplers + foreign joins: row ≡ columnar, all modes" `Quick
      test_sampler_foreign_differential;
    Alcotest.test_case "samplers draw from the seed" `Quick test_samplers_draw;
    Alcotest.test_case "profile + budget-stop parity, negation" `Quick test_profile_parity;
    Alcotest.test_case "iteration cap fires in every mode" `Quick test_budget_stop_fires;
    Alcotest.test_case "incr maintenance counters pinned" `Quick test_incr_counters_pinned;
  ]
