(** Registry of built-in provenances (paper Sec. 5 lists 18 built-ins across
    discrete / probabilistic / differentiable reasoning; the 17 implemented
    here are listed in {!all_names}, see DESIGN.md).

    Provenance instances are stateful (variable-id allocation, probability
    stores), so [create] returns a {e fresh} first-class module each call;
    one instance must be used for exactly one program execution. *)

type spec =
  | Unit
  | Boolean
  | Natural
  | Max_min_prob
  | Add_mult_prob
  | Proofs
  | Top_k_proofs of int
  | Sample_k_proofs of int * int (* k, seed *)
  | Exact_prob
  | Diff_exact_prob
  | Diff_max_min_prob
  | Diff_add_mult_prob
  | Diff_nand_mult_prob
  | Diff_top_k_proofs of int
  | Diff_top_k_proofs_me of int
  | Diff_sample_k_proofs of int * int
  | Diff_top_bottom_k_clauses of int

let create : spec -> Provenance.t = function
  | Unit -> (module Prov_discrete.Unit)
  | Boolean -> (module Prov_discrete.Boolean)
  | Natural -> (module Prov_discrete.Natural)
  | Max_min_prob -> (module Prov_discrete.Max_min_prob)
  | Add_mult_prob -> (module Prov_prob.Add_mult_prob)
  | Proofs ->
      let module M = Prov_discrete.Proofs () in
      (module M)
  | Top_k_proofs k ->
      let module M =
        Prov_prob.Top_k_proofs
          (struct
            let k = k
          end)
          ()
      in
      (module M)
  | Sample_k_proofs (k, seed) ->
      let module M =
        Prov_prob.Sample_k_proofs
          (struct
            let k = k
            let seed = seed
          end)
          ()
      in
      (module M)
  | Exact_prob ->
      let module M = Prov_prob.Exact () in
      (module M)
  | Diff_exact_prob ->
      let module M = Prov_diff.Diff_exact () in
      (module M)
  | Diff_max_min_prob ->
      let module M = Prov_diff.Diff_max_min_prob () in
      (module M)
  | Diff_add_mult_prob ->
      let module M = Prov_diff.Diff_add_mult_prob () in
      (module M)
  | Diff_nand_mult_prob ->
      let module M = Prov_diff.Diff_nand_mult_prob () in
      (module M)
  | Diff_top_k_proofs k ->
      let module M =
        Prov_diff.Diff_top_k_proofs
          (struct
            let k = k
            let me = false
          end)
          ()
      in
      (module M)
  | Diff_top_k_proofs_me k ->
      let module M =
        Prov_diff.Diff_top_k_proofs
          (struct
            let k = k
            let me = true
          end)
          ()
      in
      (module M)
  | Diff_sample_k_proofs (k, seed) ->
      let module M =
        Prov_diff.Diff_sample_k_proofs
          (struct
            let k = k
            let seed = seed
          end)
          ()
      in
      (module M)
  | Diff_top_bottom_k_clauses k ->
      let module M =
        Prov_diff.Diff_top_bottom_k_clauses
          (struct
            let k = k
          end)
          ()
      in
      (module M)

(** One rung down the graceful-degradation ladder: a cheaper provenance
    that still executes the same program, or [None] when [spec] is already
    at the bottom.  Proof-counting provenances halve [k] until [k = 1],
    then drop to the min-max viterbi approximation (differentiable specs
    stay differentiable); exact WMC falls back to top-k enumeration.  Used
    by the resilient Scallop layer: an example that exhausts its budget at
    full fidelity is retried one rung cheaper instead of being dropped
    outright. *)
let degrade : spec -> spec option = function
  | Diff_top_k_proofs_me k when k > 1 -> Some (Diff_top_k_proofs_me (k / 2))
  | Diff_top_k_proofs_me _ -> Some Diff_max_min_prob
  | Diff_top_k_proofs k when k > 1 -> Some (Diff_top_k_proofs (k / 2))
  | Diff_top_k_proofs _ -> Some Diff_max_min_prob
  | Diff_sample_k_proofs (k, seed) when k > 1 -> Some (Diff_sample_k_proofs (k / 2, seed))
  | Diff_sample_k_proofs _ -> Some Diff_max_min_prob
  | Diff_top_bottom_k_clauses k when k > 1 -> Some (Diff_top_bottom_k_clauses (k / 2))
  | Diff_top_bottom_k_clauses _ -> Some Diff_max_min_prob
  | Diff_exact_prob -> Some (Diff_top_k_proofs 3)
  | Top_k_proofs k when k > 1 -> Some (Top_k_proofs (k / 2))
  | Top_k_proofs _ -> Some Max_min_prob
  | Sample_k_proofs (k, seed) when k > 1 -> Some (Sample_k_proofs (k / 2, seed))
  | Sample_k_proofs _ -> Some Max_min_prob
  | Exact_prob -> Some (Top_k_proofs 3)
  | Proofs -> Some Boolean
  | Unit | Boolean | Natural | Max_min_prob | Add_mult_prob | Diff_max_min_prob
  | Diff_add_mult_prob | Diff_nand_mult_prob ->
      None

(** The full ladder from [spec] (inclusive) to the cheapest rung. *)
let rec degradation_ladder (spec : spec) : spec list =
  spec :: (match degrade spec with None -> [] | Some s -> degradation_ladder s)

(** CLI-style name of a spec (inverse of {!spec_of_string}), without
    instantiating a provenance module — cheap enough for per-request status
    lines in the serving layer. *)
let spec_name : spec -> string = function
  | Unit -> "unit"
  | Boolean -> "boolean"
  | Natural -> "natural"
  | Max_min_prob -> "minmaxprob"
  | Add_mult_prob -> "addmultprob"
  | Proofs -> "proofs"
  | Top_k_proofs k -> Fmt.str "topkproofs-%d" k
  | Sample_k_proofs (k, _) -> Fmt.str "samplekproofs-%d" k
  | Exact_prob -> "exactprobproofs"
  | Diff_exact_prob -> "diffexactprobproofs"
  | Diff_max_min_prob -> "diffminmaxprob"
  | Diff_add_mult_prob -> "diffaddmultprob"
  | Diff_nand_mult_prob -> "diffnandmultprob"
  | Diff_top_k_proofs k -> Fmt.str "difftopkproofs-%d" k
  | Diff_top_k_proofs_me k -> Fmt.str "difftopkproofsme-%d" k
  | Diff_sample_k_proofs (k, _) -> Fmt.str "diffsamplekproofs-%d" k
  | Diff_top_bottom_k_clauses k -> Fmt.str "difftopbottomkclauses-%d" k

(** Parse a provenance name as used on the CLI and in configs, e.g.
    ["difftopkproofs-3"], ["minmaxprob"], ["exactprobproofs"]. *)
let spec_of_string s =
  let with_k prefix f =
    if String.length s > String.length prefix
       && String.sub s 0 (String.length prefix) = prefix
    then
      let rest = String.sub s (String.length prefix) (String.length s - String.length prefix) in
      let rest = if String.length rest > 0 && rest.[0] = '-' then String.sub rest 1 (String.length rest - 1) else rest in
      Option.map f (int_of_string_opt rest)
    else None
  in
  match s with
  | "unit" -> Some Unit
  | "bool" | "boolean" -> Some Boolean
  | "natural" -> Some Natural
  | "minmaxprob" | "maxminprob" | "mmp" -> Some Max_min_prob
  | "addmultprob" | "amp" -> Some Add_mult_prob
  | "proofs" -> Some Proofs
  | "exactprobproofs" | "exact" | "dpl" -> Some Exact_prob
  | "diffexactprobproofs" | "diffexact" -> Some Diff_exact_prob
  | "diffminmaxprob" | "diffmaxminprob" | "dmmp" -> Some Diff_max_min_prob
  | "diffaddmultprob" | "damp" -> Some Diff_add_mult_prob
  | "diffnandmultprob" | "dnmp" -> Some Diff_nand_mult_prob
  | _ ->
      List.find_map
        (fun (prefix, f) -> with_k prefix f)
        [
          ("difftopkproofsme", fun k -> Diff_top_k_proofs_me k);
          ("difftopkproofs", fun k -> Diff_top_k_proofs k);
          ("dtkp", fun k -> Diff_top_k_proofs k);
          ("topkproofs", fun k -> Top_k_proofs k);
          ("samplekproofs", fun k -> Sample_k_proofs (k, 0));
          ("diffsamplekproofs", fun k -> Diff_sample_k_proofs (k, 0));
          ("difftopbottomkclauses", fun k -> Diff_top_bottom_k_clauses k);
        ]

let of_string s = Option.map create (spec_of_string s)

let all_names =
  [
    "unit";
    "boolean";
    "natural";
    "minmaxprob";
    "addmultprob";
    "proofs";
    "topkproofs-3";
    "samplekproofs-3";
    "exactprobproofs";
    "diffexactprobproofs";
    "diffminmaxprob";
    "diffaddmultprob";
    "diffnandmultprob";
    "difftopkproofs-3";
    "difftopkproofsme-3";
    "diffsamplekproofs-3";
    "difftopbottomkclauses-3";
  ]
