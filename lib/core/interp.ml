(** The SclRam runtime: tagged operational semantics (paper Fig. 7, 23, 24),
    parameterized by a provenance.

    A database maps predicates to relations; a relation maps tuples to tags.
    Expression evaluation produces (possibly duplicated) tagged tuples;
    rule evaluation normalizes them (⊕-merging duplicates and applying early
    [discard]) and merges with previously derived facts (Rule-1/2/3).
    Stratum evaluation is the saturation-checked least-fixed-point lfp°.

    Two executors evaluate {!Plan.t} trees (RAM expressions annotated at
    compile time with stable node ids and stratum-invariance flags): the
    row tree-walker over [Tuple.Map] relations, and the columnar executor
    over {!Batch_ops} sorted-run batches ([config.columnar]).  Both cover
    every operator and share everything above the operator layer:

    - {e one stratum driver} (the lfp° of Fig. 24, run semi-naively as in
      Sec. 5) does the round bookkeeping — iteration cap, profiler traces,
      delta sizes, stop when every delta drains — for non-recursive strata,
      naive and semi-naive fixed points, and the incremental engine's
      continuation from given deltas.  An executor only supplies a small
      {!engine}: evaluate a rule's plans into a normalized update, diff it
      against the round-start state, push it, bind deltas.
    - {e profiling}: when [config.stats] is set, every node evaluation is
      counted and timed under its node id, and each stratum records an
      iteration trace (see {!Plan.stats}).  With [stats = None] the only
      overhead is one match per node.
    - {e fixpoint caching}: when [config.cache_indices] is set, join and
      anti-join indices whose right side is invariant within the stratum,
      normalized right-hand relations of −/∩, and the materialized results
      of maximal invariant subtrees are computed once per recursive stratum
      and reused across fixpoint iterations, through one memo helper keyed
      by plan id.  Caches are discarded at stratum exit.  Invariance
      excludes samplers, so cached evaluation is observationally identical
      to uncached evaluation.

    Every run is additionally governed by a {!Budget.t} carried in the
    config: wall-clock deadline, per-stratum fixpoint-iteration cap,
    cumulative derived-tuple cap, node-evaluation cap, and an optional
    cooperative cancellation token.  Checks happen at fixpoint-iteration
    boundaries and (amortized, every {!Budget.clock_check_mask}+1 node
    evaluations) at operator boundaries; a violated budget aborts the run
    with a typed [Exec_error.Budget_exceeded] / [Exec_error.Cancelled] and
    bumps the matching counter in the profiling sink, leaving the caller's
    inputs untouched.  When no axis beyond the iteration cap is active the
    per-node bookkeeping is skipped entirely. *)

(* Re-exported so existing call sites can keep writing [Interp.stats],
   [s.Interp.fixpoint_iterations], etc.; the definitions live in {!Plan}
   next to the node-id assignment they are keyed by. *)
type node_stat = Plan.node_stat = {
  mutable evals : int;
  mutable tuples : int;
  mutable seconds : float;
  mutable hits : int;
}

type stratum_trace = Plan.stratum_trace = {
  stratum_index : int;
  mutable iterations : int;
  mutable delta_sizes : int list;
}

type stats = Plan.stats = {
  mutable fixpoint_iterations : int;
  node_stats : (int, node_stat) Hashtbl.t;
  mutable stratum_traces : stratum_trace list;
  budget_stops : Plan.budget_stops;
  mutable cache_tables : int;
}

let empty_stats = Plan.empty_stats
let merge_stats = Plan.merge_stats
let pp_profile = Plan.pp_profile

type config = {
  rng : Scallop_utils.Rng.t;
  budget : Budget.t;  (** resource bounds for each run under this config *)
  semi_naive : bool;
  cache_indices : bool;
      (** reuse join indices / invariant sub-relations across fixpoint
          iterations (sound; see {!Plan}) *)
  columnar : bool;
      (** evaluate strata with the columnar batch executor ({!Batch_ops}),
          which covers every plan operator (samplers and foreign joins call
          the same sampling and foreign-call code as the tree-walker).
          Bit-identical to the tree-walker for every registered provenance
          whose ⊕ is associative (all of them); see DESIGN.md "Columnar
          executor". *)
  stats : stats option;  (** profiling sink; [None] disables collection *)
}

let default_config () =
  {
    rng = Scallop_utils.Rng.create 0;
    budget = Budget.default;
    semi_naive = true;
    cache_indices = true;
    columnar = false;
    stats = None;
  }

let bump_stats config =
  match config.stats with Some s -> s.fixpoint_iterations <- s.fixpoint_iterations + 1 | None -> ()

let record_hit config pid =
  match config.stats with
  | Some s ->
      let st = Plan.node_stat s pid in
      st.hits <- st.hits + 1
  | None -> ()

let runtime_error msg = Exec_error.raise_error (Exec_error.Runtime_error { msg })

(* ---- budget monitor ---------------------------------------------------------- *)

(** Per-run budget accounting.  One monitor is created per
    [eval_plan_program] (equivalently per [Session.run]); it is local to the
    run's domain, so batched execution never shares one across workers. *)
type monitor = {
  mbudget : Budget.t;
  started : float;  (** wall-clock start of the run *)
  deadline : float;  (** absolute deadline; [infinity] when no timeout *)
  watched : bool;  (** see {!Budget.watched}; false skips node bookkeeping *)
  mutable m_stratum : int;  (** stratum currently being evaluated *)
  mutable m_iterations : int;  (** fixpoint iterations completed in [m_stratum] *)
  mutable m_tuples : int;  (** cumulative tuples materialized by rule evals *)
  mutable m_node_evals : int;  (** RAM-plan node evaluations so far *)
}

let make_monitor (b : Budget.t) : monitor =
  let started = Scallop_utils.Monotonic.now () in
  {
    mbudget = b;
    started;
    deadline = (match b.Budget.timeout with Some s -> started +. s | None -> infinity);
    watched = Budget.watched b;
    m_stratum = 0;
    m_iterations = 0;
    m_tuples = 0;
    m_node_evals = 0;
  }

(* Abort the run: bump the matching profiler counter, raise the typed
   diagnostic.  Raising is what unwinds the fixpoint — partial strata are
   dropped with the stack, so the caller's database is never torn. *)
let budget_stop config (mon : monitor) (kind : Exec_error.budget_kind) =
  (match config.stats with
  | Some s ->
      let b = s.budget_stops in
      (match kind with
      | Exec_error.Deadline -> b.Plan.deadline_stops <- b.Plan.deadline_stops + 1
      | Exec_error.Iterations -> b.Plan.iteration_stops <- b.Plan.iteration_stops + 1
      | Exec_error.Tuples -> b.Plan.tuple_stops <- b.Plan.tuple_stops + 1
      | Exec_error.Node_evals -> b.Plan.node_eval_stops <- b.Plan.node_eval_stops + 1)
  | None -> ());
  Exec_error.raise_error
    (Exec_error.Budget_exceeded
       {
         kind;
         stratum = mon.m_stratum;
         iterations = mon.m_iterations;
         elapsed = Scallop_utils.Monotonic.now () -. mon.started;
       })

let cancel_stop config (mon : monitor) =
  (match config.stats with
  | Some s -> s.budget_stops.Plan.cancelled_stops <- s.budget_stops.Plan.cancelled_stops + 1
  | None -> ());
  Exec_error.raise_error
    (Exec_error.Cancelled
       { stratum = mon.m_stratum; elapsed = Scallop_utils.Monotonic.now () -. mon.started })

(* Poll the cancellation token and the wall clock.  Called at every fixpoint
   iteration boundary and every [Budget.clock_check_mask]+1 node evals. *)
let check_wall config (mon : monitor) =
  (match mon.mbudget.Budget.cancel with
  | Some c when Scallop_utils.Cancel.cancelled c -> cancel_stop config mon
  | _ -> ());
  if Scallop_utils.Monotonic.now () > mon.deadline then budget_stop config mon Exec_error.Deadline

(* One node evaluation is about to run.  With no watched axis this is a
   single load and branch. *)
let check_node config (mon : monitor) =
  if mon.watched then begin
    mon.m_node_evals <- mon.m_node_evals + 1;
    (match mon.mbudget.Budget.max_node_evals with
    | Some cap when mon.m_node_evals > cap -> budget_stop config mon Exec_error.Node_evals
    | _ -> ());
    if mon.m_node_evals land Budget.clock_check_mask = 0 then check_wall config mon
  end

(* Charge [n] freshly materialized tuples against the cumulative cap.  The
   count is the cardinality of an already-built map, so the charge is O(1)
   beyond work the rule evaluation did anyway. *)
let charge_tuples config (mon : monitor) n =
  if mon.watched then begin
    mon.m_tuples <- mon.m_tuples + n;
    match mon.mbudget.Budget.max_tuples with
    | Some cap when mon.m_tuples > cap -> budget_stop config mon Exec_error.Tuples
    | _ -> ()
  end

(* Iteration boundary: [next_iter] is about to start in the current stratum
   ([next_iter - 1] completed).  The iteration cap is always enforced, even
   for unwatched budgets — it is the historical non-termination guardrail. *)
let check_iteration config (mon : monitor) ~next_iter =
  mon.m_iterations <- next_iter - 1;
  if next_iter > mon.mbudget.Budget.max_iterations then
    budget_stop config mon Exec_error.Iterations;
  if mon.watched then check_wall config mon

(* The monitor of a fresh run, with the wall clock polled once up front. *)
let start_monitor config =
  let mon = make_monitor config.budget in
  if mon.watched then check_wall config mon;
  mon

(* Stratum [sidx] is about to run: budget diagnostics name it. *)
let enter_stratum (mon : monitor) sidx =
  mon.m_stratum <- sidx;
  mon.m_iterations <- 0

(* Per-stratum iteration trace, appended to the profiling sink in stratum
   order. *)
let new_trace config sidx =
  match config.stats with
  | Some st ->
      let tr = { Plan.stratum_index = sidx; iterations = 0; delta_sizes = [] } in
      st.stratum_traces <- st.stratum_traces @ [ tr ];
      Some tr
  | None -> None

let record_iter config trace ?size () =
  bump_stats config;
  match trace with
  | None -> ()
  | Some tr ->
      tr.iterations <- tr.iterations + 1;
      (match size with Some n -> tr.delta_sizes <- n :: tr.delta_sizes | None -> ())

(* ---- fixpoint caches ----------------------------------------------------------- *)

(** Per-stratum caches, keyed by plan node id; valid for the duration of one
    stratum's fixed point because cached nodes are invariant there.  Each
    executor instantiates the four tables with its own representations. *)
type ('rel, 'jix, 'aix, 'norm) cache = {
  rels : (int, 'rel) Hashtbl.t;  (** materialized results of maximal invariant subtrees *)
  joins : (int, 'jix) Hashtbl.t;  (** join right-side indices, keyed by the right child *)
  antis : (int, 'aix) Hashtbl.t;  (** anti-join right-side ⊕-merged indices *)
  norms : (int, 'norm) Hashtbl.t;  (** normalized right-hand relations of −/∩ *)
}

(* Caches only pay off across fixpoint iterations (every plan node has a
   unique id, so within one pass nothing is ever looked up twice).  A
   non-recursive stratum runs exactly one pass: building the cache tables
   there is pure overhead — measurably so on small aggregation strata — so
   skip them. *)
let stratum_cache config (s : Plan.stratum) =
  if config.cache_indices && s.Plan.recursive then begin
    (match config.stats with Some st -> st.cache_tables <- st.cache_tables + 1 | None -> ());
    Some
      {
        rels = Hashtbl.create 16;
        joins = Hashtbl.create 16;
        antis = Hashtbl.create 16;
        norms = Hashtbl.create 16;
      }
  end
  else None

(* The one cache lookup: an invariant node [p] reached with a cache is
   looked up in [table]; on a miss it is built {e without} the cache (every
   descendant of an invariant node is invariant too, so nothing below it
   needs one) and remembered.  [build] receives the cache its children
   should see. *)
let memo config cache table (p : Plan.t) build =
  match cache with
  | Some c when p.Plan.invariant -> (
      let tbl = table c in
      match Hashtbl.find_opt tbl p.Plan.pid with
      | Some v ->
          record_hit config p.Plan.pid;
          v
      | None ->
          let v = build None in
          Hashtbl.add tbl p.Plan.pid v;
          v)
  | _ -> build cache

let rels c = c.rels
let joins c = c.joins
let antis c = c.antis
let norms c = c.norms

(* One node evaluation under budget accounting and, with a profiling sink,
   per-node counts and inclusive wall time. *)
let timed config mon (p : Plan.t) size f =
  check_node config mon;
  match config.stats with
  | None -> f ()
  | Some s ->
      let t0 = Scallop_utils.Monotonic.now () in
      let r = f () in
      let st = Plan.node_stat s p.Plan.pid in
      st.evals <- st.evals + 1;
      st.tuples <- st.tuples + size r;
      st.seconds <- st.seconds +. (Scallop_utils.Monotonic.now () -. t0);
      r

(* ---- the stratum driver (Fig. 24, lfp°) ------------------------------------------ *)

(** What the stratum driver needs from an executor.  ['db] is its database,
    ['run] a normalized update or delta relation. *)
type ('db, 'run) engine = {
  update : 'db -> Plan.t list -> 'run;
      (** ⊕-normalized derivations of the plans, charged against the tuple
          budget *)
  delta : 'db -> string -> 'run -> 'run;
      (** the update's changed tuples against the head in ['db], under their
          merged (old ⊕ new) tags *)
  push : 'db -> string -> 'run -> 'db;  (** ⊕-merge the update into the head *)
  bind : 'db -> string -> 'run -> 'db;  (** bind a delta under {!Plan.delta_name} *)
  size : 'run -> int;
}

let bodies (r : Plan.rule) = [ r.Plan.body ]
let delta_bodies (r : Plan.rule) = r.Plan.deltas

let updates eng db plans_of (rules : Plan.rule list) =
  List.map (fun (r : Plan.rule) -> (r.Plan.head, eng.update db (plans_of r))) rules

let push_all eng db ups = List.fold_left (fun db (h, u) -> eng.push db h u) db ups
let bind_all eng db deltas = List.fold_left (fun db (h, d) -> eng.bind db h d) db deltas

(* One round: every rule reads the round-start state [db] (with deltas bound
   in [db_eval]); all deltas are taken against [db] before any update is
   pushed, since columnar heads are mutable.  Heads are distinct within a
   stratum, so updates never collide. *)
let round eng db db_eval plans_of rules =
  let ups = updates eng db_eval plans_of rules in
  let deltas = List.map (fun (h, u) -> (h, eng.delta db h u)) ups in
  (push_all eng db ups, deltas)

(* Rounds numbered from 1 until every delta drains.  A [full] round
   evaluates whole rule bodies; later rounds evaluate the delta variants
   over the bound deltas when [semi], whole bodies again otherwise (the
   naive reference).  An empty delta ⟺ the head is saturated, because
   saturation is reflexive, so both share one termination test.  [seen]
   receives each round's deltas. *)
let fixpoint config mon eng trace ~semi ?(seen = ignore) rules ~full db deltas =
  let rec go iter ~full db deltas =
    if (not full) && List.for_all (fun (_, d) -> eng.size d = 0) deltas then begin
      mon.m_iterations <- iter - 1;
      db
    end
    else begin
      check_iteration config mon ~next_iter:iter;
      let db', deltas' =
        if full || not semi then round eng db db bodies rules
        else round eng db (bind_all eng db deltas) delta_bodies rules
      in
      let size =
        match trace with
        | Some _ -> Some (List.fold_left (fun acc (_, d) -> acc + eng.size d) 0 deltas')
        | None -> None
      in
      record_iter config trace ?size ();
      seen deltas';
      go (iter + 1) ~full:false db' deltas'
    end
  in
  go 1 ~full db deltas

(* Cold evaluation of stratum [sidx] on [eng]: a non-recursive stratum is
   one pass over the rule bodies, with no deltas; a recursive one starts
   its fixed point from a full round. *)
let stratum config mon eng sidx (s : Plan.stratum) db =
  let trace = new_trace config sidx in
  if not s.Plan.recursive then begin
    check_iteration config mon ~next_iter:1;
    record_iter config trace ();
    push_all eng db (updates eng db bodies s.Plan.rules)
  end
  else fixpoint config mon eng trace ~semi:config.semi_naive s.Plan.rules ~full:true db []

(* Fold strata in order, numbering them from 0; [after] sees each
   stratum's result. *)
let fold_strata ?(after = fun _ _ -> ()) eval_one db strata =
  fst
    (List.fold_left
       (fun (db, i) s ->
         let db = eval_one db i s in
         after i db;
         (db, i + 1))
       (db, 0) strata)

module Make (P : Provenance.S) = struct
  module Agg = Aggregate.Make (P)
  module B = Batch_ops.Make (P)
  module SMap = Map.Make (String)

  type relation = P.t Tuple.Map.t
  type db = relation SMap.t

  let empty_db : db = SMap.empty

  let relation_of db pred : relation =
    match SMap.find_opt pred db with Some r -> r | None -> Tuple.Map.empty

  let db_add_fact db pred tuple tag =
    let rel = relation_of db pred in
    let rel =
      Tuple.Map.update tuple
        (fun cur -> Some (match cur with None -> tag | Some t -> P.add t tag))
        rel
    in
    SMap.add pred rel db

  (* ---- normalization (Fig. 24, Normalize) ------------------------------- *)

  let normalize (tuples : (Tuple.t * P.t) list) : relation =
    List.fold_left
      (fun acc (u, t) ->
        Tuple.Map.update u
          (fun cur -> Some (match cur with None -> t | Some t' -> P.add t' t))
          acc)
      Tuple.Map.empty tuples
    |> Tuple.Map.filter (fun _ t -> not (P.discard t))

  (* ---- grouping helper --------------------------------------------------- *)

  let split_key key_len (u : Tuple.t) =
    (Array.sub u 0 key_len, Array.sub u key_len (Array.length u - key_len))

  let group_map_by_key key_len (items : (Tuple.t * P.t) list) :
      (Tuple.t * P.t) list Tuple.Map.t =
    List.fold_left
      (fun m (u, t) ->
        let key, rest = split_key key_len u in
        Tuple.Map.update key
          (fun cur -> Some ((rest, t) :: Option.value cur ~default:[]))
          m)
      Tuple.Map.empty items
    |> Tuple.Map.map List.rev

  let group_by_key key_len (items : (Tuple.t * P.t) list) :
      (Tuple.t * (Tuple.t * P.t) list) list =
    Tuple.Map.bindings (group_map_by_key key_len items)

  (* ---- samplers and foreign joins (shared by both executors) ------------- *)

  (* All samplers return exactly [min k |items|] tuples in ascending input
     order (input order is itself canonical: sampler bodies are normalized,
     so items arrive sorted by tuple).  Draws consume only [config.rng], so
     a fixed seed gives a fixed sample. *)
  let apply_sampler config sampler (items : (Tuple.t * P.t) list) :
      (Tuple.t * P.t) list =
    match sampler with
    | Ram.Top_k k -> Scallop_utils.Listx.top_k_by (fun (_, t) -> P.weight t) k items
    | Ram.Categorical k ->
        let arr = Array.of_list items in
        let n = Array.length arr in
        if k >= n then items
        else
          let weights = Array.map (fun (_, t) -> P.weight t) arr in
          Scallop_utils.Rng.weighted_sample_indices config.rng k weights
          |> Array.map (fun i -> arr.(i))
          |> Array.to_list
    | Ram.Uniform k ->
        let arr = Array.of_list items in
        let n = Array.length arr in
        if k >= n then items
        else
          Scallop_utils.Rng.sample_indices config.rng k n
          |> Array.map (fun i -> arr.(i))
          |> Array.to_list

  (* A sampler node over its normalized body, in tuple order.  Grouped
     samplers draw per key, keys ascending; a [where] domain only scopes
     the grouping, so it is never evaluated. *)
  let sample config sampler ~key_len (group : Plan.group) items =
    match group with
    | Plan.No_group -> apply_sampler config sampler items
    | Plan.Implicit | Plan.Domain _ ->
        group_by_key key_len items
        |> List.concat_map (fun (key, group_items) ->
               apply_sampler config sampler group_items
               |> List.map (fun (r, t) -> (Tuple.append key r, t)))

  (* A foreign-predicate join, checked before its left side is evaluated:
     each left tuple is extended with the free positions of every tuple the
     predicate yields for it. *)
  let foreign_join name args free_cols : (Tuple.t * P.t) list -> (Tuple.t * P.t) list =
    match Foreign.lookup_predicate name with
    | None -> runtime_error ("unknown foreign predicate $" ^ name)
    | Some (arity, fp) ->
        if List.length args <> arity then
          runtime_error ("arity mismatch for foreign predicate " ^ name);
        List.concat_map (fun (ul, tl) ->
            let pattern =
              Array.of_list
                (List.map
                   (function
                     | Ram.F_col i -> Some ul.(i)
                     | Ram.F_const v -> Some v
                     | Ram.F_free -> None)
                   args)
            in
            match fp pattern with
            | Error msg -> runtime_error (name ^ ": " ^ msg)
            | Ok tuples ->
                (* keep only the free positions, in order; positions are
                   precomputed per node, not per result tuple *)
                List.map
                  (fun full ->
                    let extra = Array.map (fun i -> full.(i)) free_cols in
                    (Tuple.append ul extra, tl))
                  tuples)

  let negate_tag t =
    match P.negate t with
    | Some nt -> nt
    | None -> runtime_error (P.name ^ " does not support negation")

  (* ---- row expression evaluation (Fig. 7 / Fig. 23) ---------------------- *)

  let build_join_index rkeys rights : (Tuple.t * P.t) list Tuple.Map.t =
    List.fold_left
      (fun m ((u, _) as item) ->
        let key = Tuple.project rkeys u in
        Tuple.Map.update key (fun cur -> Some (item :: Option.value cur ~default:[])) m)
      Tuple.Map.empty rights

  let build_antijoin_index rkeys rights : P.t Tuple.Map.t =
    List.fold_left
      (fun m (u, t) ->
        let key = Tuple.project rkeys u in
        Tuple.Map.update key
          (fun cur -> Some (match cur with None -> t | Some t' -> P.add t' t))
          m)
      Tuple.Map.empty rights

  (* Wall times are inclusive of children.  Child evaluation order is part
     of the contract: right sides before left sides (OCaml evaluates
     arguments right to left), which the columnar executor mirrors so
     sampler draws happen in the same sequence. *)
  let rec eval config mon cache (db : db) (p : Plan.t) : (Tuple.t * P.t) list =
    memo config cache rels p (fun cache ->
        timed config mon p List.length (fun () -> eval_node config mon cache db p))

  (* Normalized right-hand side of −/∩, cached when invariant. *)
  and normalized_right config mon cache db (b : Plan.t) : P.t Tuple.Map.t =
    memo config cache norms b (fun cache -> normalize (eval config mon cache db b))

  and eval_node config mon cache (db : db) (p : Plan.t) : (Tuple.t * P.t) list =
    match p.Plan.desc with
    | Plan.Empty -> []
    | Plan.Singleton -> [ (Tuple.unit, P.one) ]
    | Plan.Pred pr -> Tuple.Map.bindings (relation_of db pr)
    | Plan.Select (cond, e) ->
        List.filter (fun (u, _) -> Ram.eval_cond u cond) (eval config mon cache db e)
    | Plan.Project (m, e) ->
        List.filter_map
          (fun (u, t) -> Option.map (fun u' -> (u', t)) (Ram.eval_mapping u m))
          (eval config mon cache db e)
    | Plan.Union (a, b) -> eval config mon cache db a @ eval config mon cache db b
    | Plan.Product (a, b) ->
        let rb = eval config mon cache db b in
        List.concat_map
          (fun (ua, ta) -> List.map (fun (ub, tb) -> (Tuple.append ua ub, P.mult ta tb)) rb)
          (eval config mon cache db a)
    | Plan.Diff (a, b) ->
        (* Diff-1: tuple absent from b — propagate unchanged.
           Diff-2: present in both — tag t₁ ⊗ ⊖t₂ (information-preserving). *)
        let rb = normalized_right config mon cache db b in
        List.map
          (fun (u, ta) ->
            match Tuple.Map.find_opt u rb with
            | None -> (u, ta)
            | Some tb -> (u, P.mult ta (negate_tag tb)))
          (eval config mon cache db a)
    | Plan.Intersect (a, b) ->
        let rb = normalized_right config mon cache db b in
        List.filter_map
          (fun (u, ta) ->
            Option.map (fun tb -> (u, P.mult ta tb)) (Tuple.Map.find_opt u rb))
          (eval config mon cache db a)
    | Plan.Join { lkeys; rkeys; left; right } ->
        let index =
          memo config cache joins right (fun cache ->
              build_join_index rkeys (eval config mon cache db right))
        in
        List.concat_map
          (fun (ul, tl) ->
            let key = Tuple.project lkeys ul in
            match Tuple.Map.find_opt key index with
            | None -> []
            | Some matches ->
                List.map (fun (ur, tr) -> (Tuple.append ul ur, P.mult tl tr)) matches)
          (eval config mon cache db left)
    | Plan.Antijoin { lkeys; rkeys; left; right } ->
        (* Right side is keyed and ⊕-merged; a left tuple matching key k is
           tagged t_l ⊗ ⊖(⊕ of right tags at k). *)
        let index =
          memo config cache antis right (fun cache ->
              build_antijoin_index rkeys (eval config mon cache db right))
        in
        List.map
          (fun (ul, tl) ->
            let key = Tuple.project lkeys ul in
            match Tuple.Map.find_opt key index with
            | None -> (ul, tl)
            | Some tr -> (ul, P.mult tl (negate_tag tr)))
          (eval config mon cache db left)
    | Plan.One_overwrite e ->
        Tuple.Map.bindings (normalize (eval config mon cache db e))
        |> List.map (fun (u, _) -> (u, P.one))
    | Plan.Zero_overwrite e ->
        Tuple.Map.bindings (normalize (eval config mon cache db e))
        |> List.map (fun (u, _) -> (u, P.zero))
    | Plan.Aggregate { agg; key_len; arg_len; group; body } -> (
        let items = Tuple.Map.bindings (normalize (eval config mon cache db body)) in
        match group with
        | Plan.No_group ->
            let rest = List.map (fun (u, t) -> (snd (split_key key_len u), t)) items in
            Agg.run agg ~arg_len rest
        | Plan.Implicit ->
            group_by_key key_len items
            |> List.concat_map (fun (key, group_items) ->
                   Agg.run agg ~arg_len group_items
                   |> List.map (fun (r, t) -> (Tuple.append key r, t)))
        | Plan.Domain dom ->
            let domain = Tuple.Map.bindings (normalize (eval config mon cache db dom)) in
            (* group lookup by balanced map, not a linear scan per key *)
            let grouped = group_map_by_key key_len items in
            List.concat_map
              (fun (key, tg) ->
                let group_items =
                  Option.value (Tuple.Map.find_opt key grouped) ~default:[]
                in
                Agg.run agg ~arg_len group_items
                |> List.map (fun (r, t) -> (Tuple.append key r, P.mult tg t)))
              domain)
    | Plan.Sample { sampler; key_len; group; body } ->
        sample config sampler ~key_len group
          (Tuple.Map.bindings (normalize (eval config mon cache db body)))
    | Plan.Foreign_join { name; args; free_cols; left } ->
        let call = foreign_join name args free_cols in
        call (eval config mon cache db left)

  (* ---- row strata ---------------------------------------------------------- *)

  (* Delta of one round, computed from the round's normalized derivations
     only (O(|newly| log |old|)): a tuple outside [newly] keeps its old tag,
     and saturation is reflexive (required for termination), so it can
     never be part of the delta.  Delta tuples carry their merged
     (old ⊕ new) tag. *)
  let delta_of ~(old_rel : relation) (newly : relation) : relation =
    Tuple.Map.fold
      (fun u t_new acc ->
        match Tuple.Map.find_opt u old_rel with
        | None -> Tuple.Map.add u t_new acc
        | Some t_old ->
            let merged = P.add t_old t_new in
            if P.saturated ~old:t_old merged then acc else Tuple.Map.add u merged acc)
      newly Tuple.Map.empty

  (* Rule-1: tuple only in old — keep.  Rule-2: only newly derived — add.
     Rule-3: both — ⊕-merge.  [Tuple.Map.union] visits only colliding keys,
     so merging a small delta into a large accumulated relation costs
     O(|new| log |old|) rather than O(|old|). *)
  let merge_newly (old : relation) (newly : relation) : relation =
    Tuple.Map.union (fun _u t_old t_new -> Some (P.add t_old t_new)) old newly

  let row_engine config mon cache : (db, relation) engine =
    {
      update =
        (fun db plans ->
          let derived =
            match plans with
            | [ p ] -> eval config mon cache db p
            | ps -> List.concat_map (eval config mon cache db) ps
          in
          let newly = normalize derived in
          charge_tuples config mon (Tuple.Map.cardinal newly);
          newly);
      delta = (fun db h newly -> delta_of ~old_rel:(relation_of db h) newly);
      push = (fun db h newly -> SMap.add h (merge_newly (relation_of db h) newly) db);
      bind = (fun db h d -> SMap.add (Plan.delta_name h) d db);
      size = Tuple.Map.cardinal;
    }

  (** Evaluate stratum [sidx] from scratch on the row engine. *)
  let eval_stratum config mon (db : db) (sidx : int) (s : Plan.stratum) : db =
    enter_stratum mon sidx;
    stratum config mon (row_engine config mon (stratum_cache config s)) sidx s db

  (** Continue stratum [sidx] from an already-materialized state: [db]'s
      head relations must already ⊕-absorb every derivation that does not
      involve the changed inputs.  One seed round evaluates [seed r] for
      each rule [r] — delta variants over the changed input predicates
      ({!Plan.delta_plans_from}) — with [inputs] (their changed tuples under
      merged tags) bound; a recursive stratum then runs its semi-naive loop
      from the seed round's deltas.  The seed round is not a fixpoint
      iteration: it is neither counted nor capped.  Returns the saturated
      database and the cumulative per-head delta, seed included, later
      (merged) tags winning.  With an idempotent ⊕ whose saturation is
      equality (unit/boolean/minmaxprob) the result is bit-identical to
      re-running the stratum from scratch on the updated inputs — the
      contract the incremental maintenance engine ([Incr]) is built on. *)
  let continue_stratum config mon (db : db) (sidx : int) (s : Plan.stratum)
      ~(seed : Plan.rule -> Plan.t list) ~(inputs : (string * relation) list) :
      db * (string * relation) list =
    enter_stratum mon sidx;
    let eng = row_engine config mon (stratum_cache config s) in
    let db1, deltas = round eng db (bind_all eng db inputs) seed s.Plan.rules in
    if not s.Plan.recursive then (db1, deltas)
    else begin
      let cumulative = ref deltas in
      let seen ds =
        cumulative :=
          List.map
            (fun (h, cum) ->
              match List.assoc_opt h ds with
              | None -> (h, cum)
              | Some d -> (h, Tuple.Map.union (fun _ _cum t_new -> Some t_new) cum d))
            !cumulative
      in
      let trace = new_trace config sidx in
      let db' =
        fixpoint config mon eng trace ~semi:true ~seen s.Plan.rules ~full:false db1 deltas
      in
      (db', !cumulative)
    end

  (* ---- columnar expression evaluation --------------------------------------- *)

  (* The vectorized twin of [eval]: relations are {!B.crel} sorted-run
     stacks, operators work batch-at-a-time over {!Column} encodings, and
     every operator reproduces the tree-walker's emission order, so
     normalization ⊕-folds duplicates in the identical sequence and the
     result is bit-identical (fuzz-checked; see test/test_fuzz.ml).
     Child-evaluation order mirrors [eval_node] exactly — right sides
     before left sides — so samplers consume [config.rng] in the same
     sequence; samplers and foreign joins run the tree-walker's own
     [sample]/[foreign_join] over decoded rows. *)

  type cdb = B.crel SMap.t

  let crel_of (cdb : cdb) pred : B.crel =
    match SMap.find_opt pred cdb with Some c -> c | None -> B.crel_empty ()

  let rec ceval config mon cache (cdb : cdb) (p : Plan.t) : B.batch =
    memo config cache rels p (fun cache ->
        timed config mon p (fun (r : B.batch) -> r.B.n) (fun () ->
            ceval_node config mon cache cdb p))

  and cnormalized_right config mon cache cdb (b : Plan.t) : B.batch =
    memo config cache norms b (fun cache -> B.sort_normalize (ceval config mon cache cdb b))

  and key_index config mon cache cdb rkeys (right : Plan.t) : B.key_index =
    memo config cache joins right (fun cache ->
        B.build_key_index rkeys (ceval config mon cache cdb right))

  and ceval_node config mon cache (cdb : cdb) (p : Plan.t) : B.batch =
    let ev = ceval config mon cache cdb in
    match p.Plan.desc with
    | Plan.Empty -> B.empty
    | Plan.Singleton -> Lazy.force B.singleton
    | Plan.Pred pr -> B.crel_force (crel_of cdb pr)
    | Plan.Select (cond, e) -> B.select cond (ev e)
    | Plan.Project (m, { Plan.desc = Plan.Join { lkeys; rkeys; left; right }; _ })
      when List.for_all (function Ram.Access _ -> true | _ -> false) m ->
        (* fused π∘⋈ for pure column selections: identical emission order and
           tags, but the gathers of dropped join columns are never done (the
           recursive-rule hot path is π[k…]( Δ ⋈ edb )) *)
        let index = key_index config mon cache cdb rkeys right in
        let lb = ev left in
        let width = Array.length lb.B.cols + Array.length index.B.ki_src.B.cols in
        let keep = List.map (function Ram.Access i -> i | _ -> assert false) m in
        if lb.B.n = 0 || List.for_all (fun i -> i >= 0 && i < width) keep then
          B.join ~keep:(Array.of_list keep) ~lkeys lb index
        else B.project m (B.join ~lkeys lb index)
    | Plan.Project (m, e) -> B.project m (ev e)
    | Plan.Union (a, b) ->
        (* right child first, like the tree-walker's [eval a @ eval b] *)
        let rb = ev b in
        B.union (ev a) rb
    | Plan.Product (a, b) ->
        let rb = ev b in
        B.product (ev a) rb
    | Plan.Diff (a, b) ->
        let rb = cnormalized_right config mon cache cdb b in
        B.diff (ev a) rb
    | Plan.Intersect (a, b) ->
        let rb = cnormalized_right config mon cache cdb b in
        B.intersect (ev a) rb
    | Plan.Join { lkeys; rkeys; left; right } ->
        let index = key_index config mon cache cdb rkeys right in
        B.join ~lkeys (ev left) index
    | Plan.Antijoin { lkeys; rkeys; left; right } ->
        let index =
          memo config cache antis right (fun cache ->
              B.build_anti_index rkeys (ceval config mon cache cdb right))
        in
        B.antijoin ~lkeys (ev left) index
    | Plan.One_overwrite e -> B.retag P.one (B.sort_normalize (ev e))
    | Plan.Zero_overwrite e -> B.retag P.zero (B.sort_normalize (ev e))
    | Plan.Aggregate { agg; key_len; arg_len; group; body } ->
        let items = B.sort_normalize (ev body) in
        let group =
          match group with
          | Plan.No_group -> `No_group
          | Plan.Implicit -> `Implicit
          | Plan.Domain dom -> `Domain (B.sort_normalize (ev dom))
        in
        B.aggregate agg ~key_len ~arg_len ~group items
    | Plan.Sample { sampler; key_len; group; body } ->
        let items = B.to_list (B.sort_normalize (ev body)) in
        B.of_list (sample config sampler ~key_len group items)
    | Plan.Foreign_join { name; args; free_cols; left } ->
        let call = foreign_join name args free_cols in
        B.of_list (call (B.to_list (ev left)))


  let col_engine config mon cache : (cdb, B.batch) engine =
    {
      update =
        (fun cdb plans ->
          let newly =
            B.sort_normalize (B.concat (List.map (ceval config mon cache cdb) plans))
          in
          charge_tuples config mon newly.B.n;
          newly);
      delta = (fun cdb h newly -> B.delta_of_run ~old:(crel_of cdb h) newly);
      push =
        (fun cdb h newly ->
          let cr = crel_of cdb h in
          B.crel_push cr newly;
          SMap.add h cr cdb);
      bind = (fun cdb h d -> SMap.add (Plan.delta_name h) (B.crel_of_run d) cdb);
      size = (fun b -> b.B.n);
    }

  let ceval_stratum config mon (cdb : cdb) (sidx : int) (s : Plan.stratum) : cdb =
    enter_stratum mon sidx;
    stratum config mon (col_engine config mon (stratum_cache config s)) sidx s cdb

  (* ---- programs ----------------------------------------------------------- *)

  (** Evaluate every stratum on the row engine; [after i db] sees the
      database after stratum [i]. *)
  let eval_strata ?after config mon (db : db) (strata : Plan.stratum list) : db =
    fold_strata ?after (eval_stratum config mon) db strata

  let columnar_run config (db : db) (p : Plan.program) : cdb =
    let mon = start_monitor config in
    fold_strata (ceval_stratum config mon) (SMap.map B.crel_of_relation db) p.Plan.strata

  let eval_plan_program config (db : db) (p : Plan.program) : db =
    if config.columnar then SMap.map B.to_relation (columnar_run config db p)
    else eval_strata config (start_monitor config) db p.Plan.strata

  (** Evaluate a raw RAM program by planning it on the fly (compiled sessions
      plan once at compile time and use {!eval_plan_program} directly). *)
  let eval_program config (db : db) (p : Ram.program) : db =
    eval_plan_program config db (Plan.of_program p)

  (** Recovery phase: apply ρ to the tags of an output relation. *)
  let recover (db : db) pred : (Tuple.t * Provenance.Output.t) list =
    Tuple.Map.bindings (relation_of db pred)
    |> List.map (fun (u, t) -> (u, P.recover t))

  (** Evaluate a program and recover the [out] relations in one step — the
      entry point {!Session.run} uses.  Row engine: {!eval_plan_program}
      followed by {!recover}.  Columnar engine: outputs are read directly
      off the final sorted runs (a forced run enumerates in exactly
      [Tuple.Map.bindings] order), skipping the per-relation O(N log N) map
      materialization that {!eval_plan_program} pays for API compatibility. *)
  let eval_plan_program_outputs config (db : db) (p : Plan.program) ~(out : string list) :
      (string * (Tuple.t * Provenance.Output.t) list) list =
    if config.columnar then begin
      let cdb = columnar_run config db p in
      List.map (fun pred -> (pred, B.to_outputs (B.crel_force (crel_of cdb pred)))) out
    end
    else
      let db = eval_plan_program config db p in
      List.map (fun pred -> (pred, recover db pred)) out

  (* ---- single-plan evaluators (differential-test harness) ------------------ *)

  (** Evaluate one plan tree over [db] with the tree-walker, uncached.
      Used as the oracle in test/test_columnar.ml. *)
  let eval_plan config (db : db) (p : Plan.t) : (Tuple.t * P.t) list =
    eval config (make_monitor config.budget) None db p

  (** Evaluate one plan tree over [db] with the columnar executor, uncached;
      must be bit-identical to {!eval_plan} per tuple and tag. *)
  let eval_plan_columnar config (db : db) (p : Plan.t) : (Tuple.t * P.t) list =
    B.to_list (ceval config (make_monitor config.budget) None (SMap.map B.crel_of_relation db) p)
end
