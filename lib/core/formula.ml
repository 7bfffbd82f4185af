(** Boolean formulas in disjunctive normal form, the tag space of the
    top-k-proofs family of provenances (paper Fig. 13, Appendix B.4.3/4).

    A {e proof} is a conjunction of literals [pos(i)] / [neg(i)] over input
    variable ids.  A formula holds at most [k] proofs; the operations
    [disj_k], [conj_k] and [neg_k] mirror ∨k, ∧k and ¬k from the paper:
    logical or/and/not on DNF followed by truncation to the [k] proofs of
    highest probability.

    Formulas produced by the operations here are kept in a {e canonical
    order}: descending probability (under a total float order where NaN
    sorts last), ties broken by [proof_compare].  The canonical order makes
    the output independent of proof insertion order, lets fixpoint
    saturation use the cheap ordered {!equal_ordered} instead of the O(n²)
    set comparison, and lets [disj_k] return a converged argument physically
    unchanged.  The test suite checks [disj_k]/[conj_k] against a naive
    union/product-then-truncate oracle and [neg_k] against itself with an
    unbounded beam.

    Mutual exclusion (Appendix B.4.4): input facts may belong to an exclusion
    group; a proof containing two distinct positive literals from the same
    group is contradictory and removed during conflict checking. *)

module IMap = Map.Make (Int)
module ISet = Set.Make (Int)

(** A proof maps each mentioned variable to its polarity (true = positive). *)
type proof = bool IMap.t

type t = proof list
(** Invariant: proofs are distinct, none absorbs another, and they appear in
    canonical order (descending probability, ties by [proof_compare]) —
    maintained by every operation below that returns a [t]. *)

(* --- environments -------------------------------------------------------- *)

(** Everything the formula operations need to know about variables: their
    probability and their optional mutual-exclusion group. *)
type env = { prob : int -> float; me_group : int -> int option }

let env ?(me_group = fun _ -> None) prob = { prob; me_group }

(* --- proofs -------------------------------------------------------------- *)

let proof_of_literals lits =
  List.fold_left (fun m (v, s) -> IMap.add v s m) IMap.empty lits

let proof_literals (p : proof) = IMap.bindings p
let true_proof : proof = IMap.empty
let singleton_pos i : proof = IMap.singleton i true
let singleton_neg i : proof = IMap.singleton i false
let proof_equal (a : proof) (b : proof) = IMap.equal Bool.equal a b
let proof_compare (a : proof) (b : proof) = IMap.compare Bool.compare a b

(** Probability of a proof: the product of its literal probabilities
    (paper Eq. 1). *)
let proof_prob envr (p : proof) =
  IMap.fold
    (fun v sign acc ->
      let r = envr.prob v in
      acc *. (if sign then r else 1.0 -. r))
    p 1.0

(** Merge two proofs into their conjunction; [None] when they conflict —
    same variable with both polarities, or (with mutual exclusion) two
    distinct positive variables of the same group. *)
let merge_proofs envr (a : proof) (b : proof) : proof option =
  let conflict = ref false in
  let merged =
    IMap.union
      (fun _ sa sb ->
        if Bool.equal sa sb then Some sa
        else begin
          conflict := true;
          Some sa
        end)
      a b
  in
  if !conflict then None
  else begin
    (* Mutual-exclusion check: collect positive literals per group. *)
    let seen = Hashtbl.create 4 in
    let me_conflict = ref false in
    IMap.iter
      (fun v sign ->
        if sign then
          match envr.me_group v with
          | None -> ()
          | Some g -> (
              match Hashtbl.find_opt seen g with
              | Some v' when v' <> v -> me_conflict := true
              | _ -> Hashtbl.replace seen g v))
      merged;
    if !me_conflict then None else Some merged
  end

(* --- formulas ------------------------------------------------------------ *)

let ff : t = []
let tt : t = [ true_proof ]
let of_pos i : t = [ singleton_pos i ]
let is_false (t : t) = t = []
let is_true (t : t) = List.exists (fun p -> IMap.is_empty p) t

(** Set equality, independent of proof order.  O(n²); kept as the oracle
    notion of equality — fixpoint saturation uses {!equal_ordered}. *)
let equal (a : t) (b : t) =
  List.length a = List.length b
  && List.for_all (fun p -> List.exists (proof_equal p) b) a

(** Ordered equality: valid whenever both sides are canonical (which every
    operation below guarantees), where it coincides with {!equal} at O(n)
    cost.  The physical-equality fast path makes the common "nothing changed
    this iteration" saturation check O(1). *)
let equal_ordered (a : t) (b : t) =
  a == b
  || (List.compare_lengths a b = 0 && List.for_all2 proof_equal a b)

let dedup proofs = Scallop_utils.Listx.dedup_stable proof_equal proofs

(** A proof [p] absorbs [q] if p ⊆ q (then p ∨ q = p).  Removing absorbed
    proofs keeps formulas small and makes [top_k] more meaningful. *)
let absorbs (p : proof) (q : proof) =
  IMap.for_all (fun v s -> match IMap.find_opt v q with Some s' -> Bool.equal s s' | None -> false) p

let remove_absorbed proofs =
  List.filter
    (fun q -> not (List.exists (fun p -> (not (proof_equal p q)) && absorbs p q) proofs))
    proofs

(* --- canonical order ------------------------------------------------------ *)

(* Sort key for a proof probability: a total order where NaN sorts below
   everything (a NaN-weighted proof never beats a real one, and comparisons
   stay consistent). *)
let prob_key = Scallop_utils.Listx.float_key

(* A proof decorated with its (precomputed) probability. *)
type dproof = { dp : proof; dkey : float }

let decorate envr p = { dp = p; dkey = prob_key (proof_prob envr p) }

(* Canonical order: descending probability key, ties by proof_compare. *)
let dcompare a b =
  let c = Float.compare b.dkey a.dkey in
  if c <> 0 then c else proof_compare a.dp b.dp

(* Canonicalize a decorated candidate list: sort, drop duplicates (equal
   proofs have equal keys, hence are adjacent after sorting), drop absorbed
   proofs.  An absorber is a subset of what it absorbs, so its probability
   key is >= the absorbed one's whenever weights lie in [0,1]; we still scan
   all pairs so the result is exact even on adversarial weights. *)
let finalize_all (cands : dproof list) : dproof list =
  let sorted = List.stable_sort dcompare cands in
  let rec drop_dups = function
    | a :: b :: rest when proof_equal a.dp b.dp -> drop_dups (a :: rest)
    | a :: rest -> a :: drop_dups rest
    | [] -> []
  in
  let distinct = drop_dups sorted in
  List.filter
    (fun q ->
      not
        (List.exists
           (fun p -> (not (proof_equal p.dp q.dp)) && absorbs p.dp q.dp)
           distinct))
    distinct

let undecorate ds = List.map (fun d -> d.dp) ds

(* Physical list equality: lets disj_k return its left argument unchanged
   when the union added nothing, which in turn makes the saturation check in
   equal_ordered O(1) on converged relations. *)
let phys_equal_list (a : 'a list) (b : 'a list) =
  List.compare_lengths a b = 0 && List.for_all2 ( == ) a b

(** Keep the [k] proofs of highest probability, in canonical order. *)
let top_k envr k proofs =
  if k <= 0 then ff
  else Scallop_utils.Listx.take k (undecorate (finalize_all (List.map (decorate envr) proofs)))

(* --- operations ------------------------------------------------------------ *)

(** ∨k : union of proof sets, truncated.  Both inputs are canonical, so
    probabilities are computed once per proof and the union shares the
    canonicalization above.  Returns the left argument physically unchanged
    when the union adds nothing — the common case once a relation has
    converged. *)
let disj_k envr k (a : t) (b : t) : t =
  if k <= 0 then ff
  else if is_false b && List.compare_length_with a k <= 0 then a
  else begin
    let cands = List.map (decorate envr) a @ List.map (decorate envr) b in
    let result = Scallop_utils.Listx.take k (undecorate (finalize_all cands)) in
    if phys_equal_list result a then a else result
  end

(** ∧k : pairwise conflict-checked merge, truncated (Table 8).  Only merged
    candidates have their probability computed. *)
let conj_k envr k (a : t) (b : t) : t =
  if k <= 0 || is_false a || is_false b then ff
  else begin
    let cands = ref [] in
    List.iter
      (fun pa ->
        List.iter
          (fun pb ->
            match merge_proofs envr pa pb with
            | Some m -> cands := decorate envr m :: !cands
            | None -> ())
          b)
      a;
    Scallop_utils.Listx.take k (undecorate (finalize_all !cands))
  end

(** ¬k : negate every literal giving a CNF, then convert back to DNF by
    distribution with conflict checking (cnf2dnf, Fig. 13).  The raw
    conversion is exponential; we bound every intermediate result by [beam]
    (≥ k) proofs of highest probability, as the final answer is truncated to
    [k] anyway. *)
let neg_k ?beam envr k (t : t) : t =
  let beam = match beam with Some b -> Stdlib.max b k | None -> Stdlib.max (8 * k) 64 in
  (* CNF: one clause per proof; each clause is the disjunction of the
     negated literals of that proof. *)
  let clauses =
    List.map (fun p -> List.map (fun (v, s) -> (v, not s)) (proof_literals p)) t
  in
  let result =
    List.fold_left
      (fun acc clause ->
        let next =
          List.concat_map
            (fun p ->
              List.filter_map (fun (v, s) -> merge_proofs envr p (IMap.singleton v s)) clause)
            acc
        in
        top_k envr beam next)
      tt clauses
  in
  top_k envr k result

(** All variables mentioned by the formula. *)
let variables (t : t) =
  List.fold_left (fun acc p -> IMap.fold (fun v _ s -> ISet.add v s) p acc) ISet.empty t
  |> ISet.elements

(** Hard upper bound on the formula probability: the probability of the
    disjunction assuming proofs disjoint, clamped. Used as a cheap weight. *)
let prob_upper_bound envr (t : t) =
  Float.min 1.0 (List.fold_left (fun acc p -> acc +. proof_prob envr p) 0.0 t)

let pp_proof fmt p =
  Fmt.pf fmt "{%a}"
    (Fmt.list ~sep:(Fmt.any " ") (fun fmt (v, s) ->
         Fmt.pf fmt "%s%d" (if s then "" else "~") v))
    (proof_literals p)

let pp fmt (t : t) =
  if is_false t then Fmt.string fmt "false"
  else Fmt.pf fmt "%a" (Fmt.list ~sep:(Fmt.any " | ") pp_proof) t
