(** Boolean formulas in disjunctive normal form, the tag space of the
    top-k-proofs family of provenances (paper Fig. 13, Appendix B.4.3/4).

    A {e proof} is a conjunction of literals [pos(i)] / [neg(i)] over input
    variable ids, stored flat as a strictly ascending [int array] of literal
    codes: [2i + 1] for [pos(i)], [2i] for [neg(i)].  A variable occurs at
    most once in a proof, so ascending codes are ascending variables, and
    lexicographic order on the codes is the order of the literal lists
    (variable first, then negative before positive, a prefix first).
    Conjunction is one linear merge, subsumption one linear subset scan, and
    a proof's probability one loop over an unboxed array.

    A formula holds at most [k] proofs; the operations [disj_k], [conj_k]
    and [neg_k] mirror ∨k, ∧k and ¬k from the paper: logical or/and/not on
    DNF followed by truncation to the [k] proofs of highest probability.

    Formulas produced by the operations here are kept in a {e canonical
    order}: descending probability (under a total float order where NaN
    sorts last), ties broken by [proof_compare].  The canonical order makes
    the output independent of proof insertion order, lets fixpoint
    saturation use the cheap ordered {!equal_ordered} instead of the O(n²)
    set comparison, lets [disj_k] merge its two sorted inputs instead of
    sorting their union, and lets it return a converged argument physically
    unchanged.  The test suite checks [disj_k]/[conj_k] against a naive
    union/product-then-truncate oracle and [neg_k] against itself with an
    unbounded beam.

    Mutual exclusion (Appendix B.4.4): input facts may belong to an exclusion
    group; a proof containing two distinct positive literals from the same
    group is contradictory and removed during conflict checking. *)

(** Strictly ascending literal codes, see {!lit}. *)
type proof = int array

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

(** The code of literal [v] with polarity [s] (true = positive). *)
let lit v s = (2 * v) + Bool.to_int s

let lit_var c = c asr 1
let lit_pos c = c land 1 = 1

(** A later literal on an already mentioned variable overrides it. *)
let proof_of_literals lits : proof =
  let rec firsts = function
    | (v, s) :: rest -> lit v s :: firsts (skip v rest)
    | [] -> []
  and skip v = function (w, _) :: rest when w = v -> skip v rest | l -> l in
  Array.of_list (firsts (List.stable_sort (fun (v, _) (w, _) -> Int.compare v w) (List.rev lits)))

let proof_literals (p : proof) = Array.fold_right (fun c l -> (lit_var c, lit_pos c) :: l) p []
let true_proof : proof = [||]
let singleton_pos i : proof = [| lit i true |]
let singleton_neg i : proof = [| lit i false |]

let proof_compare (a : proof) (b : proof) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i = la then if i = lb then 0 else -1
    else if i = lb then 1
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let proof_equal (a : proof) (b : proof) =
  Array.length a = Array.length b && proof_compare a b = 0

(** Probability of a proof: the product of its literal probabilities
    (paper Eq. 1). *)
let proof_prob envr (p : proof) =
  let acc = ref 1.0 in
  for i = 0 to Array.length p - 1 do
    let c = p.(i) in
    let r = envr.prob (lit_var c) in
    acc := !acc *. if lit_pos c then r else 1.0 -. r
  done;
  !acc

(* Two distinct positive variables of one exclusion group. *)
let me_conflict envr (p : proof) =
  let n = Array.length p in
  let group i = if lit_pos p.(i) then envr.me_group (lit_var p.(i)) else None in
  let rec clash g j = j < n && (group j = Some g || clash g (j + 1)) in
  let rec scan i =
    i < n && ((match group i with Some g -> clash g (i + 1) | None -> false) || scan (i + 1))
  in
  scan 0

(** Merge two proofs into their conjunction; [None] when they conflict —
    same variable with both polarities, or (with mutual exclusion) two
    distinct positive variables of the same group. *)
let merge_proofs envr (a : proof) (b : proof) : proof option =
  let la = Array.length a and lb = Array.length b in
  (* Size of the union, or -1 on a complementary pair (its two codes differ
     only in the low bit, so a merge meets them side by side). *)
  let rec size i j n =
    if i = la then n + lb - j
    else if j = lb then n + la - i
    else
      let x = a.(i) and y = b.(j) in
      if x = y then size (i + 1) (j + 1) (n + 1)
      else if lit_var x = lit_var y then -1
      else if x < y then size (i + 1) j (n + 1)
      else size i (j + 1) (n + 1)
  in
  let n = size 0 0 0 in
  if n < 0 then None
  else begin
    let m =
      if n = la then a
      else if n = lb then b
      else begin
        let m = Array.make n 0 in
        let rec fill i j k =
          if i = la then Array.blit b j m k (lb - j)
          else if j = lb then Array.blit a i m k (la - i)
          else
            let x = a.(i) and y = b.(j) in
            if x <= y then begin
              m.(k) <- x;
              fill (i + 1) (if x = y then j + 1 else j) (k + 1)
            end
            else begin
              m.(k) <- y;
              fill i (j + 1) (k + 1)
            end
        in
        fill 0 0 0;
        m
      end
    in
    if me_conflict envr m then None else Some m
  end

(* --- formulas ------------------------------------------------------------ *)

let ff : t = []
let tt : t = [ true_proof ]
let of_pos i : t = [ singleton_pos i ]
let is_false (t : t) = t = []
let is_true (t : t) = List.exists (fun p -> Array.length p = 0) t

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
  let lp = Array.length p and lq = Array.length q in
  let rec go i j =
    i = lp
    || (lq - j >= lp - i
       && if p.(i) = q.(j) then go (i + 1) (j + 1) else p.(i) > q.(j) && go i (j + 1))
  in
  go 0 0

(* --- canonical order ------------------------------------------------------ *)

(* A proof decorated with its sort key: its probability under a total order
   where NaN sorts below everything (a NaN-weighted proof never beats a real
   one, and comparisons stay consistent). *)
let decorate envr ps =
  List.map (fun p -> (Scallop_utils.Listx.float_key (proof_prob envr p), p)) ps

(* Canonical order: descending probability key, ties by proof_compare. *)
let canonical_compare (ka, p) (kb, q) =
  let c = Float.compare kb ka in
  if c <> 0 then c else proof_compare p q

let rec ascending = function
  | x :: (y :: _ as rest) -> canonical_compare x y < 0 && ascending rest
  | _ -> true

(** Keep the [k] proofs of highest probability, in canonical order: sort,
    drop duplicates (equal proofs have equal keys, hence are adjacent after
    sorting), drop absorbed proofs.  An absorber is a subset of what it
    absorbs, so its probability key is >= the absorbed one's whenever
    weights lie in [0,1]; all pairs are still scanned so the result is
    exact even on adversarial weights. *)
let top_k envr k proofs =
  if k <= 0 then ff
  else begin
    let rec drop_dups = function
      | ((_, p) as x) :: (_, q) :: rest when proof_equal p q -> drop_dups (x :: rest)
      | x :: rest -> x :: drop_dups rest
      | [] -> []
    in
    let distinct = drop_dups (List.stable_sort canonical_compare (decorate envr proofs)) in
    List.filter
      (fun (_, q) -> not (List.exists (fun (_, p) -> p != q && absorbs p q) distinct))
      distinct
    |> Scallop_utils.Listx.take k |> List.map snd
  end

(* Physical list equality: lets disj_k return its left argument unchanged
   when the union added nothing, which in turn makes the saturation check in
   equal_ordered O(1) on converged relations. *)
let phys_equal_list (a : 'a list) (b : 'a list) =
  List.compare_lengths a b = 0 && List.for_all2 ( == ) a b

(* --- operations ------------------------------------------------------------ *)

(** ∨k : union of proof sets, truncated.  Canonical inputs are merged with
    the stable [List.merge] instead of sorting their union: each side is
    free of duplicates and absorbed proofs, so only proofs of [b] subsumed
    by (or equal to) one of [a], and proofs of [a] absorbed by a surviving
    one of [b], drop out.  Inputs out of canonical order take the general
    {!top_k} path.  Returns the left argument physically unchanged when the
    union adds nothing — the common case once a relation has converged. *)
let disj_k envr k (a : t) (b : t) : t =
  if k <= 0 then ff
  else if is_false b && List.compare_length_with a k <= 0 then a
  else begin
    let da = decorate envr a and db = decorate envr b in
    if not (ascending da && ascending db) then top_k envr k (a @ b)
    else
      match List.filter (fun (_, q) -> not (List.exists (fun p -> absorbs p q) a)) db with
      | [] when List.compare_length_with a k <= 0 -> a
      | db ->
          let da =
            List.filter (fun (_, q) -> not (List.exists (fun (_, p) -> absorbs p q) db)) da
          in
          let merged = List.merge canonical_compare da db in
          let result = List.map snd (Scallop_utils.Listx.take k merged) in
          if phys_equal_list result a then a else result
  end

(** ∧k : pairwise conflict-checked merge, truncated (Table 8). *)
let conj_k envr k (a : t) (b : t) : t =
  if k <= 0 || is_false a || is_false b then ff
  else
    top_k envr k
      (List.concat_map (fun pa -> List.filter_map (fun pb -> merge_proofs envr pa pb) b) a)

(** ¬k : negate every literal giving a CNF, then convert back to DNF by
    distribution with conflict checking (cnf2dnf, Fig. 13).  The raw
    conversion is exponential; we bound every intermediate result by [beam]
    (≥ k) proofs of highest probability, as the final answer is truncated to
    [k] anyway. *)
let neg_k ?beam envr k (t : t) : t =
  let beam = match beam with Some b -> Stdlib.max b k | None -> Stdlib.max (8 * k) 64 in
  (* CNF: one clause per proof; each clause is the disjunction of the
     negated literals of that proof (flipping a code's low bit negates it). *)
  let clauses = List.map (fun p -> Array.to_list (Array.map (fun c -> [| c lxor 1 |]) p)) t in
  let result =
    List.fold_left
      (fun acc clause ->
        let next =
          List.concat_map (fun p -> List.filter_map (merge_proofs envr p) clause) acc
        in
        top_k envr beam next)
      tt clauses
  in
  top_k envr k result

(** All variables mentioned by the formula, ascending. *)
let variables (t : t) =
  List.sort_uniq Int.compare
    (List.concat_map (fun p -> Array.fold_right (fun c l -> lit_var c :: l) p []) t)

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
