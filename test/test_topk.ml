(** Differential tests for the ∨k/∧k/¬k proof operators against a naive
    reference oracle (union or full pairwise product, then truncate; ¬k with
    an unbounded beam), an end-to-end fixpoint differential against a
    provenance built from that oracle, the negation regression, plus
    insertion-order determinism, the cross-iteration WMC cache, and the
    rewritten sample-k-proofs draw sequence. *)

open Scallop_core
module Rng = Scallop_utils.Rng

let check = Alcotest.check

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---- environments ---------------------------------------------------------------- *)

let base_probs = [| 0.9; 0.7; 0.5; 0.3; 0.2; 0.6 |]
let nvars = Array.length base_probs
let prob_of v = base_probs.(v mod nvars)

let envs =
  [|
    ("plain", Formula.env prob_of);
    (* all-equal probabilities exercise every tie-break path *)
    ("ties", Formula.env (fun _ -> 0.5));
    (* NaN weights must sort last, consistently, on both sides *)
    ("nan", Formula.env (fun v -> if v mod nvars = 2 then Float.nan else prob_of v));
    (* mutual-exclusion groups make merge_proofs drop conflicting pairs *)
    ("me", Formula.env ~me_group:(fun v -> if v mod nvars < 3 then Some 0 else None) prob_of);
    (* weights outside [0,1]: an absorber can be less probable than the
       proof it absorbs, so absorption must not rely on the order *)
    ( "range",
      Formula.env (fun v -> [| 1.4; -0.2; 0.5; 2.0; 0.3; -1.5 |].(v mod nvars)) );
  |]

(* ---- generators -------------------------------------------------------------------- *)

let literal_gen = QCheck.Gen.(pair (int_bound (nvars - 1)) bool)

let proof_gen max_lits =
  QCheck.Gen.(map Formula.proof_of_literals (list_size (int_range 1 max_lits) literal_gen))

let raw_formula_gen ~max_proofs ~max_lits =
  QCheck.Gen.(list_size (int_range 0 max_proofs) (proof_gen max_lits))

let fpp = Fmt.to_to_string Formula.pp

let binop_case_gen =
  QCheck.make
    ~print:(fun (ei, k, a, b) ->
      Fmt.str "env=%s k=%d a=%s b=%s" (fst envs.(ei)) k (fpp a) (fpp b))
    QCheck.Gen.(
      quad
        (int_bound (Array.length envs - 1))
        (int_range 1 5)
        (raw_formula_gen ~max_proofs:6 ~max_lits:4)
        (raw_formula_gen ~max_proofs:6 ~max_lits:4))

(* Negation expands the full CNF→DNF product in the unbounded-beam oracle,
   so keep its inputs small enough to stay exact. *)
let neg_case_gen =
  QCheck.make
    ~print:(fun (ei, k, f) -> Fmt.str "env=%s k=%d f=%s" (fst envs.(ei)) k (fpp f))
    QCheck.Gen.(
      triple
        (int_bound (Array.length envs - 1))
        (int_range 1 4)
        (raw_formula_gen ~max_proofs:4 ~max_lits:3))

(* Provenance tags always arrive in canonical order; generated proof soup
   does not, so bring it there first (this is what disj_k's fast path
   assumes). *)
let canon env f = Formula.top_k env max_int f

(* Same proofs in the same order, and (in particular) the same recovered
   probability.  NaN probabilities recover as NaN on both sides. *)
let agree env got expect =
  Formula.equal_ordered got expect
  &&
  let pg = Wmc.prob ~env got and pe = Wmc.prob ~env expect in
  (Float.is_nan pg && Float.is_nan pe) || Float.abs (pg -. pe) <= 1e-9

(* ---- reference oracle ---------------------------------------------------------------- *)

(* ∨k : union of proof sets, truncated. *)
let disj_k_oracle env k (a : Formula.t) (b : Formula.t) = Formula.top_k env k (a @ b)

(* ∧k : every pairwise conflict-checked merge, truncated (Table 8). *)
let conj_k_oracle env k (a : Formula.t) (b : Formula.t) =
  Formula.top_k env k
    (List.concat_map (fun pa -> List.filter_map (fun pb -> Formula.merge_proofs env pa pb) b) a)

(* top-k-proofs over the oracle operators: the same tag space, ρ and
   saturation as [Prov_prob.Top_k_proofs], so whole-program outputs must
   agree bit for bit. *)
module Oracle_top_k_proofs (K : sig
  val k : int
end)
() : Provenance.S = struct
  module P = Prov_discrete.Proofs ()

  type t = Formula.t

  let name = Fmt.str "topkproofsoracle-%d" K.k
  let zero = Formula.ff
  let one = Formula.tt
  let add a b = disj_k_oracle P.env K.k a b
  let mult a b = conj_k_oracle P.env K.k a b
  let negate t = Some (Formula.neg_k P.env K.k t)
  let saturated ~old t = Formula.equal_ordered old t
  let discard t = Formula.is_false t
  let weight t = Formula.prob_upper_bound P.env t
  let tag_of_input = P.tag_of_input
  let recover t = Provenance.Output.O_prob (Wmc.prob ~env:P.env t)
  let pp = Formula.pp
end

(* ---- operators ≡ oracle -------------------------------------------------------------- *)

let qcheck_disj_eq_oracle =
  qtest "∨k ≡ oracle" binop_case_gen (fun (ei, k, ra, rb) ->
      let env = snd envs.(ei) in
      let a = canon env ra and b = canon env rb in
      agree env (Formula.disj_k env k a b) (disj_k_oracle env k a b))

let qcheck_conj_eq_oracle =
  qtest "∧k ≡ oracle" binop_case_gen (fun (ei, k, ra, rb) ->
      let env = snd envs.(ei) in
      let a = canon env ra and b = canon env rb in
      agree env (Formula.conj_k env k a b) (conj_k_oracle env k a b))

let qcheck_neg_eq_unbounded =
  qtest "¬k ≡ unbounded beam" neg_case_gen (fun (ei, k, rf) ->
      let env = snd envs.(ei) in
      let f = canon env rf in
      agree env (Formula.neg_k env k f) (Formula.neg_k ~beam:max_int env k f))

let qcheck_results_canonical =
  qtest "∨k/∧k results are canonical" binop_case_gen (fun (ei, k, ra, rb) ->
      let env = snd envs.(ei) in
      let a = canon env ra and b = canon env rb in
      let d = Formula.disj_k env k a b and c = Formula.conj_k env k a b in
      Formula.equal_ordered d (canon env d) && Formula.equal_ordered c (canon env c))

let qcheck_insertion_order_determinism =
  qtest "top-k independent of proof insertion order (equal-probability ties)"
    (QCheck.make
       ~print:(fun (seed, k, f) -> Fmt.str "seed=%d k=%d f=%s" seed k (fpp f))
       QCheck.Gen.(
         triple (int_bound 1000) (int_range 1 5) (raw_formula_gen ~max_proofs:8 ~max_lits:4)))
    (fun (seed, k, rf) ->
      let env = snd envs.(1) (* the all-ties environment *) in
      let shuffled =
        let arr = Array.of_list rf in
        Rng.shuffle (Rng.create seed) arr;
        Array.to_list arr
      in
      Formula.equal_ordered (Formula.top_k env k rf) (Formula.top_k env k shuffled)
      && Formula.equal_ordered
           (Formula.disj_k env k (canon env rf) Formula.ff)
           (Formula.disj_k env k (canon env shuffled) Formula.ff))

(* ---- off the canonical path -------------------------------------------------------- *)

(* An out-of-order operand: a canonical formula, some of its proofs
   repeated, shuffled. *)
let shuffled_with_repeats seed (f : Formula.t) =
  let rng = Rng.create seed in
  let arr = Array.of_list (f @ Scallop_utils.Listx.take (Rng.int rng 3) f) in
  Rng.shuffle rng arr;
  Array.to_list arr

let noncanon_case_gen =
  QCheck.make
    ~print:(fun ((ei, k, a, b), seed, side) ->
      Fmt.str "env=%s k=%d a=%s b=%s seed=%d side=%d" (fst envs.(ei)) k (fpp a) (fpp b) seed side)
    QCheck.Gen.(triple (QCheck.gen binop_case_gen) (int_bound 1000) (int_bound 2))

(* ∨k canonicalizes out-of-order operands exactly as the oracle does — except
   that a false right operand leaves a short left one as it is — and ∧k,
   which sorts its product anyway, never looks at the operands' order. *)
let qcheck_noncanonical_operands =
  qtest "∨k/∧k: out-of-order operands ≡ oracle" noncanon_case_gen
    (fun ((ei, k, ra, rb), seed, side) ->
      let env = snd envs.(ei) in
      let a = canon env ra and b = canon env rb in
      let a = if side <> 1 then shuffled_with_repeats seed a else a in
      let b = if side <> 0 then shuffled_with_repeats (seed + 1) b else b in
      let disj_expect =
        if Formula.is_false b && List.compare_length_with a k <= 0 then a
        else disj_k_oracle env k a b
      in
      agree env (Formula.disj_k env k a b) disj_expect
      && agree env (Formula.conj_k env k a b) (conj_k_oracle env k a b))

(* A single new proof against an accumulator: the shape of almost every ∨k a
   fixpoint or an aggregation performs. *)
let qcheck_single_proof_operand =
  qtest "∨k/∧k: single-proof right operand ≡ oracle" binop_case_gen (fun (ei, k, ra, rb) ->
      let env = snd envs.(ei) in
      let a = canon env ra in
      List.for_all
        (fun q ->
          agree env (Formula.disj_k env k a [ q ]) (disj_k_oracle env k a [ q ])
          && agree env (Formula.conj_k env k a [ q ]) (conj_k_oracle env k a [ q ]))
        rb)

(* ---- flat proofs ≡ the map representation --------------------------------------------- *)

(* Proofs used to be [bool IMap.t]; the flat literal-code arrays must keep
   its order (the canonical tie-break), its literal lists and its
   conflict semantics. *)
module IMap = Map.Make (Int)

let map_of_literals lits = List.fold_left (fun m (v, s) -> IMap.add v s m) IMap.empty lits

let map_merge env a b =
  let conflict = ref false in
  let m =
    IMap.union
      (fun _ sa sb ->
        if sa <> sb then conflict := true;
        Some sa)
      a b
  in
  let positives_by_group =
    IMap.fold
      (fun v s acc ->
        match env.Formula.me_group v with
        | Some g when s -> IMap.update g (fun n -> Some (1 + Option.value n ~default:0)) acc
        | _ -> acc)
      m IMap.empty
  in
  if !conflict || IMap.exists (fun _ n -> n > 1) positives_by_group then None else Some m

let lits_gen = QCheck.Gen.(list_size (int_range 0 5) literal_gen)

let lits_pair_gen =
  QCheck.make
    ~print:(fun (ei, l1, l2) ->
      let pl = Fmt.(Dump.list (Dump.pair int bool)) in
      Fmt.str "env=%s l1=%a l2=%a" (fst envs.(ei)) pl l1 pl l2)
    QCheck.Gen.(triple (int_bound (Array.length envs - 1)) lits_gen lits_gen)

let sign c = Int.compare c 0

let qcheck_proofs_match_map_reference =
  qtest ~count:1000 "proofs: order, literals, merge and absorption ≡ map reference"
    lits_pair_gen (fun (ei, l1, l2) ->
      let env = snd envs.(ei) in
      let p1 = Formula.proof_of_literals l1 and p2 = Formula.proof_of_literals l2 in
      let m1 = map_of_literals l1 and m2 = map_of_literals l2 in
      sign (Formula.proof_compare p1 p2) = sign (IMap.compare Bool.compare m1 m2)
      && Formula.proof_equal p1 p2 = IMap.equal Bool.equal m1 m2
      (* round trip; a repeated variable keeps its last binding *)
      && Formula.proof_literals p1 = IMap.bindings m1
      && Formula.proof_equal (Formula.proof_of_literals (Formula.proof_literals p1)) p1
      && Formula.absorbs p1 p2
         = IMap.for_all (fun v s -> IMap.find_opt v m2 = Some s) m1
      && Option.map Formula.proof_literals (Formula.merge_proofs env p1 p2)
         = Option.map IMap.bindings (map_merge env m1 m2))

(* ---- end-to-end fixpoint differential ----------------------------------------------- *)

(* Run [src] under [Top_k_proofs k] and under the oracle provenance; the
   [pred] outputs must agree tuple for tuple and bit for bit. *)
let check_against_oracle ?config ~k src facts pred =
  let compiled = Session.compile src in
  let run provenance =
    match Session.run ?config ~provenance compiled ~facts () with
    | r -> Session.output r pred
    | exception Session.Error e -> Alcotest.failf "%s: %a" pred Exec_error.pp e
  in
  let got = run (Registry.create (Registry.Top_k_proofs k)) in
  let expect =
    let module M =
      Oracle_top_k_proofs
        (struct
          let k = k
        end)
        ()
    in
    run (module M)
  in
  check Alcotest.int "same tuple count" (List.length expect) (List.length got);
  List.iter2
    (fun (tg, og) (te, oe) ->
      if Tuple.compare tg te <> 0 then Alcotest.failf "tuple mismatch: %a vs %a" Tuple.pp tg Tuple.pp te;
      let pg = Provenance.Output.prob og and pe = Provenance.Output.prob oe in
      if Int64.bits_of_float pg <> Int64.bits_of_float pe then
        Alcotest.failf "%s%a: %h vs oracle %h" pred Tuple.pp tg pg pe)
    got expect

let tc_src =
  {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}

let test_fixpoint_vs_oracle () =
  let facts =
    [
      ( "edge",
        List.init 25 (fun i ->
            ( Provenance.Input.prob (0.5 +. (0.02 *. float_of_int (i mod 25))),
              Tuple.of_list [ Value.int Value.I32 i; Value.int Value.I32 (i + 1) ] )) );
    ]
  in
  check_against_oracle ~k:3 tc_src facts "path"

(* ---- negation regression ----------------------------------------------------------- *)

let unreach_src =
  {|type node(i32)
type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
rel unreach(a, b) = node(a), node(b), not path(a, b)
query unreach|}

(* A fixed-seed random graph: [nodes] deterministic nodes and [edges]
   distinct non-loop edges with probabilities in [0.05, 0.95]. *)
let random_graph ~seed ~nodes ~edges =
  let rng = Rng.create seed in
  let i32 i = Value.int Value.I32 i in
  let seen = Hashtbl.create edges in
  let rec pick acc n =
    if n = 0 then List.rev acc
    else
      let a = Rng.int rng nodes and b = Rng.int rng nodes in
      if a = b || Hashtbl.mem seen (a, b) then pick acc n
      else begin
        Hashtbl.replace seen (a, b) ();
        let p = Rng.uniform rng 0.05 0.95 in
        pick ((Provenance.Input.prob p, Tuple.of_list [ i32 a; i32 b ]) :: acc) (n - 1)
      end
  in
  [
    ("node", List.init nodes (fun i -> (Provenance.Input.none, Tuple.of_list [ i32 i ])));
    ("edge", pick [] edges);
  ]

(* ¬k over the many overlapping proofs of a dense graph's [path] tags: the
   cnf2dnf expansion is exponential in the clause count, so this finishes
   well inside the deadline only if every intermediate DNF stays bounded. *)
let test_negation_within_budget () =
  let config =
    { (Interp.default_config ()) with Interp.budget = Budget.make ~timeout:30.0 () }
  in
  check_against_oracle ~config ~k:10 unreach_src
    (random_graph ~seed:7 ~nodes:14 ~edges:30)
    "unreach"

(* ---- WMC cache ----------------------------------------------------------------------- *)

let with_cache_isolated f =
  let was = Wmc.cache_enabled () in
  Fun.protect
    ~finally:(fun () ->
      Wmc.set_cache_enabled was;
      Wmc.clear_cache ())
    (fun () ->
      Wmc.set_cache_enabled true;
      Wmc.clear_cache ();
      f ())

let random_formula rng max_proofs max_lits =
  List.init
    (1 + Rng.int rng max_proofs)
    (fun _ ->
      Formula.proof_of_literals
        (List.init (1 + Rng.int rng max_lits) (fun _ -> (Rng.int rng nvars, Rng.bool rng))))
  |> Formula.dedup

let test_wmc_cache_bit_identical () =
  with_cache_isolated (fun () ->
      let rng = Rng.create 99 in
      let env = snd envs.(0) in
      for _ = 1 to 100 do
        let f = random_formula rng 5 4 in
        Wmc.set_cache_enabled false;
        let reference = Wmc.prob ~env f in
        Wmc.set_cache_enabled true;
        let cold = Wmc.prob ~env f in
        let warm = Wmc.prob ~env f in
        if Int64.bits_of_float cold <> Int64.bits_of_float reference then
          Alcotest.failf "cold cache differs on %s: %h vs %h" (fpp f) cold reference;
        if Int64.bits_of_float warm <> Int64.bits_of_float reference then
          Alcotest.failf "warm cache differs on %s: %h vs %h" (fpp f) warm reference
      done)

let test_wmc_cache_invalidation_on_prob_change () =
  with_cache_isolated (fun () ->
      (* Same formula structure, moved weights: the cached BDD is reused but
         the counted result must not be — weights are part of the result key. *)
      let f =
        [
          Formula.proof_of_literals [ (0, true); (1, true) ];
          Formula.proof_of_literals [ (2, true) ];
        ]
      in
      let mk p = Formula.env (fun v -> p.(v)) in
      let before = (Wmc.cache_stats ()).Wmc.result_misses in
      let a = Wmc.prob ~env:(mk [| 0.9; 0.5; 0.4 |]) f in
      let a' = Wmc.prob ~env:(mk [| 0.9; 0.5; 0.4 |]) f in
      let b = Wmc.prob ~env:(mk [| 0.1; 0.5; 0.4 |]) f in
      check Alcotest.bool "identical env hits" true (Int64.bits_of_float a = Int64.bits_of_float a');
      Wmc.set_cache_enabled false;
      let b_ref = Wmc.prob ~env:(mk [| 0.1; 0.5; 0.4 |]) f in
      check Alcotest.bool "changed env recomputes, not stale" true
        (Int64.bits_of_float b = Int64.bits_of_float b_ref);
      let s = Wmc.cache_stats () in
      (* two distinct weight vectors = exactly two result misses, one hit *)
      check Alcotest.int "result misses" (before + 2) s.Wmc.result_misses;
      check Alcotest.bool "result hit recorded" true (s.Wmc.result_hits >= 1))

let test_wmc_cache_stats_and_clear () =
  with_cache_isolated (fun () ->
      let env = snd envs.(0) in
      let f =
        [
          Formula.proof_of_literals [ (0, true); (3, false) ];
          Formula.proof_of_literals [ (1, true); (4, true) ];
        ]
      in
      let s0 = Wmc.cache_stats () in
      ignore (Wmc.prob ~env f);
      let s1 = Wmc.cache_stats () in
      check Alcotest.int "first call misses bdd" (s0.Wmc.bdd_misses + 1) s1.Wmc.bdd_misses;
      check Alcotest.bool "manager holds nodes" true (s1.Wmc.manager_nodes > 2);
      ignore (Wmc.prob ~env f);
      let s2 = Wmc.cache_stats () in
      check Alcotest.int "second call hits bdd" (s1.Wmc.bdd_hits + 1) s2.Wmc.bdd_hits;
      check Alcotest.int "second call hits result" (s1.Wmc.result_hits + 1) s2.Wmc.result_hits;
      Wmc.clear_cache ();
      ignore (Wmc.prob ~env f);
      let s3 = Wmc.cache_stats () in
      check Alcotest.int "post-clear call misses again" (s2.Wmc.bdd_misses + 1) s3.Wmc.bdd_misses)

let test_wmc_cache_dual_identical () =
  with_cache_isolated (fun () ->
      let rng = Rng.create 1234 in
      let env = snd envs.(0) in
      for _ = 1 to 50 do
        let f = random_formula rng 4 3 in
        Wmc.set_cache_enabled false;
        let reference = Wmc.dual ~env f in
        Wmc.set_cache_enabled true;
        let cold = Wmc.dual ~env f in
        let warm = Wmc.dual ~env f in
        List.iter
          (fun d ->
            check (Alcotest.float 0.0) "dual value" (Dual.value reference) (Dual.value d);
            if Dual.deriv_list d <> Dual.deriv_list reference then
              Alcotest.failf "dual gradient differs on %s" (fpp f))
          [ cold; warm ]
      done)

(* ---- sample-k-proofs draw sequence ----------------------------------------------------- *)

(* The historic list-based sampler (List.nth / List.filteri rebuild per
   round, Rng.categorical on the compacted weights).  The array rewrite in
   Prov_prob.Sample_k_proofs must reproduce its draw sequence exactly. *)
let reference_sample_k env rng k proofs =
  let proofs = Formula.dedup proofs in
  if List.compare_length_with proofs k <= 0 then proofs
  else begin
    let remaining = ref proofs in
    let out = ref [] in
    for _ = 1 to k do
      let weights = Array.of_list (List.map (Formula.proof_prob env) !remaining) in
      let i = Rng.categorical rng weights in
      out := List.nth !remaining i :: !out;
      remaining := List.filteri (fun j _ -> j <> i) !remaining
    done;
    List.rev !out
  end

let test_sample_k_matches_historic_reference () =
  let module S =
    Prov_prob.Sample_k_proofs
      (struct
        let k = 2
        let seed = 7
      end)
      ()
  in
  let mk p = fst (S.tag_of_input (Provenance.Input.prob p)) in
  let rng_ref = Rng.create 7 in
  let same name got expect =
    if not (Formula.equal got expect) then
      Alcotest.failf "%s: sampled %s, reference %s" name (fpp got) (fpp expect)
  in
  (* round 1: mixed weights, including a NaN that poisons the total *)
  let fs = List.map mk [ 0.9; Float.nan; 0.4; 0.8; 0.3 ] in
  let a = List.concat (Scallop_utils.Listx.take 3 fs) in
  let b = List.concat (Scallop_utils.Listx.drop 3 fs) in
  same "nan-total batch" (S.add a b) (reference_sample_k S.env rng_ref 2 (a @ b));
  (* round 2: all-zero weights take the uniform fallback *)
  let zs = List.map mk [ 0.0; 0.0; 0.0 ] in
  let za = List.concat (Scallop_utils.Listx.take 2 zs) in
  let zb = List.concat (Scallop_utils.Listx.drop 2 zs) in
  same "zero-total batch" (S.add za zb) (reference_sample_k S.env rng_ref 2 (za @ zb));
  (* round 3: ordinary weighted draws *)
  let ws = List.map mk [ 0.7; 0.1; 0.6; 0.2; 0.5; 0.05 ] in
  let wa = List.concat (Scallop_utils.Listx.take 4 ws) in
  let wb = List.concat (Scallop_utils.Listx.drop 4 ws) in
  same "weighted batch" (S.add wa wb) (reference_sample_k S.env rng_ref 2 (wa @ wb))

let qcheck_sample_k_matches_reference =
  qtest ~count:100 "sample_k ≡ historic list sampler (shared RNG stream)"
    (QCheck.make
       ~print:(fun ps -> Fmt.str "probs=%a" Fmt.(Dump.list float) ps)
       QCheck.Gen.(
         list_size (int_range 1 10)
           (frequency [ (8, float_bound_inclusive 1.0); (1, return 0.0); (1, return Float.nan) ])))
    (fun probs ->
      let module S =
        Prov_prob.Sample_k_proofs
          (struct
            let k = 3
            let seed = 0
          end)
          ()
      in
      (* the module RNG is freshly seeded, so a reference generator created
         with the same seed replays the exact stream [add] will consume *)
      let fs = List.map (fun p -> fst (S.tag_of_input (Provenance.Input.prob p))) probs in
      let all = List.concat fs in
      let got = S.add all Formula.ff in
      let expect = reference_sample_k S.env (Rng.create 0) 3 all in
      Formula.equal got expect)

let suite =
  [
    qcheck_disj_eq_oracle;
    qcheck_conj_eq_oracle;
    qcheck_neg_eq_unbounded;
    qcheck_results_canonical;
    qcheck_insertion_order_determinism;
    qcheck_noncanonical_operands;
    qcheck_single_proof_operand;
    qcheck_proofs_match_map_reference;
    Alcotest.test_case "fixpoint: top-k ≡ oracle provenance" `Quick test_fixpoint_vs_oracle;
    Alcotest.test_case "¬k: unreach on a dense graph within budget" `Quick
      test_negation_within_budget;
    Alcotest.test_case "wmc cache: bit-identical to uncached" `Quick test_wmc_cache_bit_identical;
    Alcotest.test_case "wmc cache: weight change invalidates" `Quick
      test_wmc_cache_invalidation_on_prob_change;
    Alcotest.test_case "wmc cache: stats and clear" `Quick test_wmc_cache_stats_and_clear;
    Alcotest.test_case "wmc cache: dual gradients identical" `Quick test_wmc_cache_dual_identical;
    Alcotest.test_case "sample_k: golden draw sequence" `Quick
      test_sample_k_matches_historic_reference;
    qcheck_sample_k_matches_reference;
  ]
