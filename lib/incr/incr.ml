(** Incremental view maintenance over compiled plans.

    A {!t} is a stateful session around one compiled program: tenants
    [assert_fact]/[retract_fact] into a private EDB overlay and [query]
    re-derives only what the pending changes can affect, keeping the
    materialized IDB (one database snapshot per stratum) alive across
    updates.  Compiled plans themselves are shared across sessions through
    {!Session.compile_cached}, keyed by program source hash — per-tenant
    state is exactly the overlay plus the materialization, never the plan.

    {b Contract.}  After any sequence of updates, [query] is bit-identical
    to a cold {!Session.run} on the equivalent final EDB ([run_cold] is
    that oracle).  Two maintenance strategies uphold it:

    - {e Exact delta continuation} for provenances whose ⊕ is idempotent
      with saturation-by-equality and whose input tags carry no per-instance
      variable ids (unit / boolean / minmaxprob, {!exact_incremental}).
      Additions and tag {e increases} extend the old fixed point: seed
      deltas are derived through {!Plan.delta_plans_from} variants of each
      rule body (one per changed-predicate leaf) in a seed round of
      {!Interp.Make.continue_stratum}, which then runs the shared stratum
      driver's semi-naive loop on recursive strata.
      Retractions and tag decreases use DRed-style delete-rederive at
      stratum granularity: the affected stratum re-evaluates from its
      (updated) inputs, and the head-level diff is re-classified so
      downstream strata can still take the additive fast path.  Strata
      whose inputs did not change at all reuse their previous relations
      outright.
    - {e Cold recompute} for everything else (counting, clamped-sum
      probabilities, proof-set and differentiable provenances, and any
      plan containing a sampler): these provenances allocate variable ids
      statefully or saturate non-observationally, so the only way to stay
      bit-identical is a fresh {!Session.run} per dirty query — still
      amortized by the shared plan cache and by caching the last clean
      result.

    All protocol misuses (retracting a never-asserted fact, operating on a
    closed session, opening against a mismatched program hash) raise
    {!Session.Error} carrying {!Exec_error.Invalid_input}. *)

open Scallop_core
module SMap = Map.Make (String)
module SSet = Set.Make (String)

let invalid_input fmt = Session.invalid_input fmt

(* ---- plan analysis ------------------------------------------------------- *)

(* Every database predicate read anywhere under [p]. *)
let rec preds_of acc (p : Plan.t) =
  match p.Plan.desc with
  | Plan.Empty | Plan.Singleton -> acc
  | Plan.Pred pr -> SSet.add pr acc
  | Plan.Select (_, a) | Plan.Project (_, a) | Plan.One_overwrite a | Plan.Zero_overwrite a
    ->
      preds_of acc a
  | Plan.Union (a, b) | Plan.Product (a, b) | Plan.Diff (a, b) | Plan.Intersect (a, b) ->
      preds_of (preds_of acc a) b
  | Plan.Join { left; right; _ } | Plan.Antijoin { left; right; _ } ->
      preds_of (preds_of acc left) right
  | Plan.Aggregate { group; body; _ } | Plan.Sample { group; body; _ } ->
      let acc = preds_of acc body in
      (match group with Plan.Domain d -> preds_of acc d | _ -> acc)
  | Plan.Foreign_join { left; _ } -> preds_of acc left

(* Predicates read in positions where additive growth does NOT grow the
   node's output monotonically under an idempotent ⊕: the right side of
   −/antijoin, aggregation inputs (counts and extrema move), sampler inputs
   (draws shift), and anything under a zero-overwrite.  A change to such a
   predicate forces the enclosing stratum to re-evaluate rather than
   continue its fixpoint.  This is exactly the complement of the positions
   {!Plan.delta_plans} substitutes delta leaves into. *)
let rec nonmono_preds acc (p : Plan.t) =
  match p.Plan.desc with
  | Plan.Empty | Plan.Singleton | Plan.Pred _ -> acc
  | Plan.Select (_, a) | Plan.Project (_, a) | Plan.One_overwrite a -> nonmono_preds acc a
  | Plan.Zero_overwrite a -> preds_of acc a
  | Plan.Union (a, b) | Plan.Product (a, b) | Plan.Intersect (a, b) ->
      nonmono_preds (nonmono_preds acc a) b
  | Plan.Diff (a, b) -> preds_of (nonmono_preds acc a) b
  | Plan.Join { left; right; _ } -> nonmono_preds (nonmono_preds acc left) right
  | Plan.Antijoin { left; right; _ } -> preds_of (nonmono_preds acc left) right
  | Plan.Aggregate { group; body; _ } | Plan.Sample { group; body; _ } ->
      let acc = preds_of acc body in
      (match group with Plan.Domain d -> preds_of acc d | _ -> acc)
  | Plan.Foreign_join { left; _ } -> nonmono_preds acc left

let rec has_sampler (p : Plan.t) =
  match p.Plan.desc with
  | Plan.Sample _ -> true
  | Plan.Empty | Plan.Singleton | Plan.Pred _ -> false
  | Plan.Select (_, a) | Plan.Project (_, a) | Plan.One_overwrite a | Plan.Zero_overwrite a
    ->
      has_sampler a
  | Plan.Union (a, b) | Plan.Product (a, b) | Plan.Diff (a, b) | Plan.Intersect (a, b) ->
      has_sampler a || has_sampler b
  | Plan.Join { left; right; _ } | Plan.Antijoin { left; right; _ } ->
      has_sampler left || has_sampler right
  | Plan.Aggregate { group; body; _ } ->
      has_sampler body || (match group with Plan.Domain d -> has_sampler d | _ -> false)
  | Plan.Foreign_join { left; _ } -> has_sampler left

let plan_has_sampler (plan : Plan.program) =
  List.exists
    (fun (s : Plan.stratum) -> List.exists (fun (r : Plan.rule) -> has_sampler r.Plan.body) s.Plan.rules)
    plan.Plan.strata

type stratum_meta = {
  sm_heads : string list;
  sm_reads : SSet.t;  (** predicates read by rule bodies, own heads excluded *)
  sm_nonmono : SSet.t;  (** the subset read in non-monotone positions *)
}

let stratum_metas (plan : Plan.program) : stratum_meta array =
  plan.Plan.strata
  |> List.map (fun (s : Plan.stratum) ->
         let reads, nonmono =
           List.fold_left
             (fun (r, n) (rule : Plan.rule) ->
               (preds_of r rule.Plan.body, nonmono_preds n rule.Plan.body))
             (SSet.empty, SSet.empty) s.Plan.rules
         in
         let own = SSet.of_list s.Plan.heads in
         {
           sm_heads = s.Plan.heads;
           sm_reads = SSet.diff reads own;
           sm_nonmono = SSet.diff nonmono own;
         })
  |> Array.of_list

(** Provenances whose ⊕ is idempotent with saturation-by-equality and whose
    {!Provenance.S.tag_of_input} is a pure function of the input (no
    variable-id allocation): for these, continuing a fixed point from the
    old materialization is bit-identical to a cold run. *)
let exact_incremental : Registry.spec -> bool = function
  | Registry.Unit | Registry.Boolean | Registry.Max_min_prob -> true
  | _ -> false

(* ---- session statistics --------------------------------------------------- *)

type session_stats = {
  mutable queries : int;  (** [query] calls answered *)
  mutable update_batches : int;  (** queries that had pending changes to fold in *)
  mutable strata_reused : int;  (** strata whose old relations were reused as-is *)
  mutable strata_continued : int;  (** strata advanced by delta continuation *)
  mutable strata_recomputed : int;  (** strata re-evaluated from their inputs *)
  mutable full_runs : int;  (** cold evaluations (initial + recompute fallback) *)
}

let empty_session_stats () =
  {
    queries = 0;
    update_batches = 0;
    strata_reused = 0;
    strata_continued = 0;
    strata_recomputed = 0;
    full_runs = 0;
  }

let pp_session_stats ppf (s : session_stats) =
  Fmt.pf ppf "queries=%d updates=%d reused=%d continued=%d recomputed=%d full=%d"
    s.queries s.update_batches s.strata_reused s.strata_continued s.strata_recomputed
    s.full_runs

(* ---- maintenance engines -------------------------------------------------- *)

(** The provenance-erased face of a maintenance engine.  [changes] is the
    deduplicated (pred, tuple) changelog since the last successful query;
    [overlay] reads the tuple's {e current} dynamic input (None = retracted);
    [facts] is the full current EDB in canonical (first-assertion) order for
    engines that re-run cold.  Raises {!Session.Error}; must not mutate
    committed state unless it returns. *)
type engine = {
  e_query :
    changes:(string * Tuple.t) list ->
    overlay:(string -> Tuple.t -> Provenance.Input.t option) ->
    facts:(string * (Provenance.Input.t * Tuple.t) list) list ->
    outputs:string list option ->
    budget:Budget.t option ->
    Session.result;
}

let effective_config (config : Interp.config) = function
  | None -> config
  | Some b -> { config with Interp.budget = b }

module Exact_engine (P : Provenance.S) = struct
  module I = Interp.Make (P)

  type state = {
    compiled : Session.compiled;
    config : Interp.config;
    meta : stratum_meta array;
    stats : session_stats;
    mutable next_pid : int;
        (** id source for generated delta-variant spines, threaded past
            [plan.node_count] so profiler/cache keys never collide *)
    static_db : I.db;
    mutable edb : I.db;  (** static ⊕ overlay as of the last committed query *)
    mutable snaps : I.db array;  (** database after each stratum; [||] = never run *)
  }

  let tag_of_input (i : Provenance.Input.t) = fst (P.tag_of_input i)

  let make (compiled : Session.compiled) config meta stats =
    let static_db =
      List.fold_left
        (fun db (pred, prob, me, tuple) ->
          I.db_add_fact db pred tuple
            (tag_of_input { Provenance.Input.prob; me_group = me }))
        I.empty_db compiled.Session.static_facts
    in
    {
      compiled;
      config;
      meta;
      stats;
      next_pid = compiled.Session.plan.Plan.node_count;
      static_db;
      edb = static_db;
      snaps = [||];
    }

  (* Exact-class saturation is equality, so ≐ both ways ⟺ same tag. *)
  let tag_equal a b = P.saturated ~old:a b && P.saturated ~old:b a

  (* The new tag of an EDB entry: static tag ⊕ overlay tag, merged in the
     same order [Session.run] folds facts (static first).  me-group shifting
     is irrelevant here — exact-class [tag_of_input] ignores me-groups. *)
  let entry_tag st overlay pred tuple : P.t option =
    let static = Tuple.Map.find_opt tuple (I.relation_of st.static_db pred) in
    let dyn = Option.map tag_of_input (overlay pred tuple) in
    match (static, dyn) with
    | None, None -> None
    | (Some _ as t), None | None, (Some _ as t) -> t
    | Some s, Some d -> Some (P.add s d)

  type change =
    | Additive of I.relation
        (** every changed tuple absorbs its old tag (new = old ⊕ new);
            carries the delta under merged tags, the
            {!Interp.Make.delta_of} convention *)
    | Reset  (** something was removed or weakened: re-evaluate readers *)

  let join_change a b =
    match (a, b) with
    | Additive x, Additive y ->
        Additive (Tuple.Map.union (fun _ _x y -> Some y) x y)
    | _ -> Reset

  (* Fold the pending changelog into the committed EDB.  Returns the new EDB
     and a per-predicate classification of the net change; predicates whose
     entries all settled back to their old tags are dropped. *)
  let apply_changes st ~changes ~overlay : I.db * change SMap.t =
    List.fold_left
      (fun (db, cmap) (pred, tuple) ->
        let old_rel = I.relation_of db pred in
        let old_tag = Tuple.Map.find_opt tuple old_rel in
        let new_tag = entry_tag st overlay pred tuple in
        match (old_tag, new_tag) with
        | None, None -> (db, cmap)
        | Some o, Some n when tag_equal o n -> (db, cmap)
        | _ ->
            let db =
              match new_tag with
              | None -> I.SMap.add pred (Tuple.Map.remove tuple old_rel) db
              | Some n -> I.SMap.add pred (Tuple.Map.add tuple n old_rel) db
            in
            let c =
              match (old_tag, new_tag) with
              | None, Some n -> Additive (Tuple.Map.singleton tuple n)
              | Some o, Some n when P.saturated ~old:n (P.add o n) ->
                  (* new absorbs old: a pure tag increase *)
                  Additive (Tuple.Map.singleton tuple n)
              | _ -> Reset
            in
            let cmap =
              SMap.update pred
                (function None -> Some c | Some c0 -> Some (join_change c0 c))
                cmap
            in
            (db, cmap))
      (st.edb, SMap.empty) changes

  (* Copy stratum [i]'s head relations from an already-evaluated database. *)
  let with_heads (from : I.db) heads (db : I.db) : I.db =
    List.fold_left (fun db h -> I.SMap.add h (I.relation_of from h) db) db heads

  (* Classify a recomputed head relation against its old value so downstream
     strata can still fast-path: None = unchanged, Additive if pure growth,
     Reset otherwise. *)
  let head_change ~(old_rel : I.relation) (new_rel : I.relation) : change option =
    if Tuple.Map.exists (fun u _ -> not (Tuple.Map.mem u new_rel)) old_rel then Some Reset
    else
      let additive = ref true in
      let delta =
        Tuple.Map.fold
          (fun u t_new acc ->
            match Tuple.Map.find_opt u old_rel with
            | None -> Tuple.Map.add u t_new acc
            | Some t_old ->
                if tag_equal t_old t_new then acc
                else begin
                  if not (P.saturated ~old:t_new (P.add t_old t_new)) then
                    additive := false;
                  Tuple.Map.add u t_new acc
                end)
          new_rel Tuple.Map.empty
      in
      if not !additive then Some Reset
      else if Tuple.Map.is_empty delta then None
      else Some (Additive delta)

  let full_eval st (db : I.db) config : I.db array =
    let strata = st.compiled.Session.plan.Plan.strata in
    let snaps = Array.make (List.length strata) db in
    ignore
      (I.eval_strata ~after:(fun i db -> snaps.(i) <- db) config (Interp.start_monitor config)
         db strata);
    st.stats.full_runs <- st.stats.full_runs + 1;
    snaps

  (* Additive fast path for one affected stratum: derive seed deltas through
     per-changed-predicate body variants evaluated against the new inputs
     (old head relations in place), then — if recursive — continue the
     semi-naive loop from the merged state.  Sound and bit-identical
     because, with idempotent ⊕ / equality saturation and all changed
     predicates in monotone positions, every cold derivation either touches
     no changed tuple (already ⊕-absorbed by the old head) or touches one
     (produced by some variant), and stale old-tag derivations are absorbed
     by their monotonically larger new-tag counterparts. *)
  let continue_stratum_delta st config mon i (s : Plan.stratum)
      (input_deltas : (string * I.relation) list) (db_base : I.db) =
    let changed_names = List.map fst input_deltas in
    let seed (r : Plan.rule) =
      let variants, next =
        Plan.delta_plans_from ~start:st.next_pid ~heads:changed_names r.Plan.body
      in
      st.next_pid <- next;
      variants
    in
    I.continue_stratum config mon db_base i s ~seed ~inputs:input_deltas

  (* One maintenance pass: returns (snapshots, edb) for the updated state
     without committing anything — the caller assigns on success, so a
     budget abort mid-pass leaves the session at its last good state. *)
  let update st ~changes ~overlay config : I.db array * I.db =
    let edb', cmap = apply_changes st ~changes ~overlay in
    if SMap.is_empty cmap then (st.snaps, st.edb)
    else begin
      let mon = Interp.start_monitor config in
      let strata = Array.of_list st.compiled.Session.plan.Plan.strata in
      let n = Array.length strata in
      let snaps' = Array.make n edb' in
      let changed = ref cmap in
      let prev = ref edb' in
      for i = 0 to n - 1 do
        let s = strata.(i) in
        let m = st.meta.(i) in
        let touched = SSet.filter (fun p -> SMap.mem p !changed) m.sm_reads in
        (* EDB facts asserted directly into a head predicate change the base
           relation its rules ⊕-merge into — treat like a non-additive input. *)
        let head_edb_change = List.exists (fun h -> SMap.mem h !changed) m.sm_heads in
        if SSet.is_empty touched && not head_edb_change then begin
          prev := with_heads st.snaps.(i) m.sm_heads !prev;
          st.stats.strata_reused <- st.stats.strata_reused + 1
        end
        else begin
          let additive_inputs =
            (not head_edb_change)
            && SSet.for_all
                 (fun p ->
                   (not (SSet.mem p m.sm_nonmono))
                   &&
                   match SMap.find_opt p !changed with
                   | Some (Additive _) -> true
                   | _ -> false)
                 touched
          in
          if additive_inputs then begin
            let input_deltas =
              SSet.fold
                (fun p acc ->
                  match SMap.find_opt p !changed with
                  | Some (Additive d) -> (p, d) :: acc
                  | _ -> acc)
                touched []
            in
            let db_base = with_heads st.snaps.(i) m.sm_heads !prev in
            let db', cum_deltas =
              continue_stratum_delta st config mon i s input_deltas db_base
            in
            List.iter
              (fun (h, d) ->
                if not (Tuple.Map.is_empty d) then
                  changed :=
                    SMap.update h
                      (function
                        | None -> Some (Additive d)
                        | Some c -> Some (join_change c (Additive d)))
                      !changed)
              cum_deltas;
            st.stats.strata_continued <- st.stats.strata_continued + 1;
            prev := db'
          end
          else begin
            (* Delete-rederive at stratum granularity: [!prev] holds the
               updated inputs and no stale own-head relations (beyond the
               EDB base the cold run also starts from), so this matches a
               cold evaluation of the stratum exactly. *)
            let db' = I.eval_stratum config mon !prev i s in
            List.iter
              (fun h ->
                match
                  head_change
                    ~old_rel:(I.relation_of st.snaps.(i) h)
                    (I.relation_of db' h)
                with
                | None -> ()
                | Some c ->
                    changed :=
                      SMap.update h
                        (function None -> Some c | Some c0 -> Some (join_change c0 c))
                        !changed)
              m.sm_heads;
            st.stats.strata_recomputed <- st.stats.strata_recomputed + 1;
            prev := db'
          end
        end;
        snaps'.(i) <- !prev
      done;
      (snaps', edb')
    end

  let engine_of (st : state) : engine =
    {
      e_query =
        (fun ~changes ~overlay ~facts:_ ~outputs ~budget ->
          let config = effective_config st.config budget in
          let snaps', edb' =
            try
              if Array.length st.snaps = 0 then begin
                (* first evaluation (or a program with zero strata) *)
                let edb', _ = apply_changes st ~changes ~overlay in
                (full_eval st edb' config, edb')
              end
              else update st ~changes ~overlay config
            with
            | Exec_error.Error e -> raise (Session.Error e)
            | Aggregate.Unsupported msg ->
                raise (Session.Error (Exec_error.Runtime_error { msg }))
          in
          let final =
            if Array.length snaps' = 0 then edb' else snaps'.(Array.length snaps' - 1)
          in
          let out_rels =
            match outputs with
            | Some o -> o
            | None -> st.compiled.Session.ram.Ram.outputs
          in
          let result =
            {
              Session.outputs = List.map (fun pred -> (pred, I.recover final pred)) out_rels;
              fact_ids = [];
              stats = config.Interp.stats;
            }
          in
          (* commit *)
          st.edb <- edb';
          st.snaps <- snaps';
          st.stats.queries <- st.stats.queries + 1;
          if changes <> [] then st.stats.update_batches <- st.stats.update_batches + 1;
          result);
    }
end

(* Cold-recompute engine: bit-identical by construction.  Each dirty query
   re-runs [Session.run] under a fresh provenance instance and a copy of the
   base RNG (so sampler draws and variable ids replay exactly as a cold run
   would); clean repeat queries return the cached last result. *)
let recompute_engine (compiled : Session.compiled) (config : Interp.config)
    (spec : Registry.spec) (stats : session_stats) : engine =
  let base_rng = Scallop_utils.Rng.copy config.Interp.rng in
  let last : (string list option * Session.result) option ref = ref None in
  {
    e_query =
      (fun ~changes ~overlay:_ ~facts ~outputs ~budget ->
        match !last with
        | Some (o, r) when changes = [] && o = outputs ->
            stats.queries <- stats.queries + 1;
            r
        | _ ->
            let config = effective_config config budget in
            let config = { config with Interp.rng = Scallop_utils.Rng.copy base_rng } in
            let r =
              Session.run ~config ~provenance:(Registry.create spec) compiled ~facts
                ?outputs ()
            in
            stats.queries <- stats.queries + 1;
            if changes <> [] then stats.update_batches <- stats.update_batches + 1;
            stats.full_runs <- stats.full_runs + 1;
            last := Some (outputs, r);
            r);
  }

(* ---- sessions ------------------------------------------------------------- *)

type t = {
  compiled : Session.compiled;
  spec : Registry.spec;
  hash : string;  (** {!Session.source_hash} of the program source *)
  config : Interp.config;
  base_rng : Scallop_utils.Rng.t;  (** RNG state at open; oracle runs copy it *)
  mutex : Mutex.t;
  sstats : session_stats;
  engine : engine;
  exact : bool;  (** true = delta continuation, false = cold recompute *)
  mutable closed : bool;
  mutable overlay : Provenance.Input.t Tuple.Map.t SMap.t;  (** current dynamic EDB *)
  mutable order : (string * Tuple.t) list;
      (** reverse first-assertion order; defines the canonical fact order a
          cold run receives, so re-asserting keeps a fact's position *)
  mutable touched : (string * Tuple.t) list;  (** changelog since last good query *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let ensure_open t = if t.closed then invalid_input "session is closed"

let open_session ?(config = Interp.default_config ()) ?expect_hash ~spec source : t =
  let hash = Session.source_hash source in
  (match expect_hash with
  | Some h when not (String.equal h hash) ->
      invalid_input "program hash mismatch: expected %s, source hashes to %s" h hash
  | _ -> ());
  let compiled = Session.compile_cached source in
  let sstats = empty_session_stats () in
  let exact = exact_incremental spec && not (plan_has_sampler compiled.Session.plan) in
  let engine =
    if exact then
      let module P = (val Registry.create spec : Provenance.S) in
      let module E = Exact_engine (P) in
      E.engine_of
        (E.make compiled config (stratum_metas compiled.Session.plan) sstats)
    else recompute_engine compiled config spec sstats
  in
  {
    compiled;
    spec;
    hash;
    config;
    base_rng = Scallop_utils.Rng.copy config.Interp.rng;
    mutex = Mutex.create ();
    sstats;
    engine;
    exact;
    closed = false;
    overlay = SMap.empty;
    order = [];
    touched = [];
  }

let program_hash t = t.hash
let spec t = t.spec
let is_exact t = t.exact
let is_closed t = locked t (fun () -> t.closed)
let stats t : session_stats = locked t (fun () -> { t.sstats with queries = t.sstats.queries })

let assert_fact t ~pred ?prob ?me_group tuple =
  locked t (fun () ->
      ensure_open t;
      if not (Hashtbl.mem t.compiled.Session.rel_types pred) then
        invalid_input "assert into unknown relation %s" pred;
      let tuple = Session.coerce_tuple t.compiled pred tuple in
      let input = { Provenance.Input.prob; me_group } in
      let rel =
        match SMap.find_opt pred t.overlay with Some r -> r | None -> Tuple.Map.empty
      in
      let existed = Tuple.Map.mem tuple rel in
      t.overlay <- SMap.add pred (Tuple.Map.add tuple input rel) t.overlay;
      if not existed then t.order <- (pred, tuple) :: t.order;
      t.touched <- (pred, tuple) :: t.touched)

let retract_fact t ~pred tuple =
  locked t (fun () ->
      ensure_open t;
      let tuple =
        if Hashtbl.mem t.compiled.Session.rel_types pred then
          Session.coerce_tuple t.compiled pred tuple
        else tuple
      in
      let rel =
        match SMap.find_opt pred t.overlay with Some r -> r | None -> Tuple.Map.empty
      in
      if not (Tuple.Map.mem tuple rel) then
        invalid_input "retract %s%a: fact was never asserted" pred Tuple.pp tuple;
      t.overlay <- SMap.add pred (Tuple.Map.remove tuple rel) t.overlay;
      t.order <-
        List.filter (fun (p, u) -> not (String.equal p pred && Tuple.equal u tuple)) t.order;
      t.touched <- (pred, tuple) :: t.touched)

(* ---- pre-validation (the write-ahead discipline) ---------------------------

   A durability layer must order "record the op" before "apply the op", yet
   never record an op that the session would reject — a rejected op in the
   log would poison replay.  These checks raise exactly the [Invalid_input]
   the mutating call would raise, without mutating anything, so a caller
   can validate → log → apply and know the apply cannot fail. *)

(** [check_assert t ~pred tuple] validates an assert without applying it:
    raises the same {!Session.Error} [assert_fact] would, and returns the
    tuple coerced to the relation's column types (the canonical form worth
    logging). *)
let check_assert t ~pred tuple : Tuple.t =
  locked t (fun () ->
      ensure_open t;
      if not (Hashtbl.mem t.compiled.Session.rel_types pred) then
        invalid_input "assert into unknown relation %s" pred;
      Session.coerce_tuple t.compiled pred tuple)

(** [check_retract t ~pred tuple] validates a retract without applying it:
    raises the same {!Session.Error} [retract_fact] would, and returns the
    coerced tuple. *)
let check_retract t ~pred tuple : Tuple.t =
  locked t (fun () ->
      ensure_open t;
      let tuple =
        if Hashtbl.mem t.compiled.Session.rel_types pred then
          Session.coerce_tuple t.compiled pred tuple
        else tuple
      in
      let rel =
        match SMap.find_opt pred t.overlay with Some r -> r | None -> Tuple.Map.empty
      in
      if not (Tuple.Map.mem tuple rel) then
        invalid_input "retract %s%a: fact was never asserted" pred Tuple.pp tuple;
      tuple)

(* The full current EDB in canonical order: predicates by first assertion,
   facts within a predicate by first assertion.  This is the fact list the
   differential oracle replays. *)
let current_facts_locked t : (string * (Provenance.Input.t * Tuple.t) list) list =
  let by_pred : (string, (Provenance.Input.t * Tuple.t) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let pred_order = ref [] in
  List.iter
    (fun (pred, tuple) ->
      match SMap.find_opt pred t.overlay with
      | None -> ()
      | Some rel -> (
          match Tuple.Map.find_opt tuple rel with
          | None -> ()
          | Some input ->
              let l =
                match Hashtbl.find_opt by_pred pred with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.add by_pred pred l;
                    pred_order := pred :: !pred_order;
                    l
              in
              l := (input, tuple) :: !l))
    (List.rev t.order);
  List.rev_map (fun pred -> (pred, List.rev !(Hashtbl.find by_pred pred))) !pred_order

let current_facts t = locked t (fun () -> current_facts_locked t)

let dedup_changes changes =
  List.sort_uniq
    (fun (p1, u1) (p2, u2) ->
      match String.compare p1 p2 with 0 -> Tuple.compare u1 u2 | c -> c)
    changes

let query ?outputs ?budget t : Session.result =
  locked t (fun () ->
      ensure_open t;
      let changes = dedup_changes t.touched in
      let overlay pred tuple =
        match SMap.find_opt pred t.overlay with
        | None -> None
        | Some rel -> Tuple.Map.find_opt tuple rel
      in
      let facts = current_facts_locked t in
      let r = t.engine.e_query ~changes ~overlay ~facts ~outputs ~budget in
      (* only a successful query consumes the changelog: a budget abort
         leaves the pending changes in place for a retry *)
      t.touched <- [];
      r)

let close t =
  locked t (fun () ->
      ensure_open t;
      t.closed <- true)

(** The differential oracle: a cold {!Session.run} over the session's
    current EDB under a fresh provenance and the session's base config.
    [query] must be bit-identical to this after any update sequence. *)
let run_cold ?outputs t : Session.result =
  locked t (fun () ->
      ensure_open t;
      let facts = current_facts_locked t in
      let config =
        { t.config with Interp.rng = Scallop_utils.Rng.copy t.base_rng }
      in
      Session.run ~config ~provenance:(Registry.create t.spec) t.compiled ~facts
        ?outputs ())
