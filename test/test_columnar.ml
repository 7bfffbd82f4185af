(** Property tests for the columnar executor's building blocks (qcheck):
    dictionary-encoding round-trip, sorted-run merge ≡ [Tuple.Map.union],
    and every batch operator differentially against its tuple-at-a-time
    tree-walker reference on random relations with random provenance tags,
    under boolean, minmaxprob and topkproofs-3.

    Operator comparisons are bit-exact: same tuples, same emission order,
    and tags equal through [P.recover] (for topkproofs that is the full
    weighted model count of the proof formula). *)

open Scallop_core

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---- column encodings -------------------------------------------------------- *)

(* Mixed-type pools force dictionary encoding; uniform pools exercise the
   flat int/float fast paths.  Probabilities land on representable floats
   and on signed zeros to probe comparison edge cases. *)
let value_gen : Value.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Value.int Value.I32 n) (int_range (-5) 5);
        map (fun n -> Value.int Value.U8 n) (int_range 0 7);
        map (fun f -> Value.float Value.F64 f) (oneofl [ 0.0; -0.0; 0.25; 1.5; nan ]);
        map Value.bool bool;
        map Value.string (oneofl [ "a"; "b"; "cd"; "" ]);
      ])

let column_gen = QCheck.make QCheck.Gen.(list_size (int_bound 30) value_gen)

let col_roundtrip =
  qtest "pack/to_array round-trips any value column" column_gen (fun vs ->
      let arr = Array.of_list vs in
      let back = Column.to_array (Column.pack arr) in
      Array.length back = Array.length arr
      && Array.for_all2 (fun a b -> Value.compare a b = 0) arr back)

let col_cmp_consistent =
  qtest "cmp_across ≡ Value.compare under every encoding pair"
    (QCheck.pair column_gen column_gen)
    (fun (xs, ys) ->
      let xa = Array.of_list xs and ya = Array.of_list ys in
      let ca = Column.pack xa and cb = Column.pack ya in
      let ok = ref true in
      Array.iteri
        (fun i x ->
          Array.iteri
            (fun j y ->
              if Column.cmp_across ca cb i j <> Value.compare x y then ok := false)
            ya)
        xa;
      !ok)

(* ---- per-provenance differential harness ------------------------------------- *)

(* One random weighted EDB relation: arity-2 tuples over a small domain so
   joins, diffs and duplicate derivations actually collide. *)
let rel_gen =
  QCheck.make
    QCheck.Gen.(
      list_size (int_bound 12)
        (pair (pair (int_bound 4) (int_bound 4)) (float_range 0.05 0.95)))

let tup2 a b = Tuple.of_list [ Value.int Value.I32 a; Value.int Value.I32 b ]

let tests_for (prov_name : string) (spec : Registry.spec) ~(rich_aggs : bool) :
    unit Alcotest.test_case list =
  let module P = (val Registry.create spec) in
  let module I = Interp.Make (P) in
  let module B = Batch_ops.Make (P) in
  let tag_prob t = Provenance.Output.prob (P.recover t) in
  let items_equal l r =
    List.length l = List.length r
    && List.for_all2
         (fun (ua, ta) (ub, tb) ->
           Tuple.compare ua ub = 0 && Float.equal (tag_prob ta) (tag_prob tb))
         l r
  in
  (* A fresh provenance instance per qcheck sample would be ideal, but
     topkproofs assigns fact variables statefully per instance — so both
     engines must read the *same* db built from one instance, which is
     exactly what the differential harness wants anyway. *)
  let db_of facts =
    List.fold_left
      (fun db (pred, l) ->
        List.fold_left
          (fun db ((a, b), p) ->
            let tag, _ = P.tag_of_input (Provenance.Input.prob p) in
            I.db_add_fact db pred (tup2 a b) tag)
          db l)
      I.empty_db facts
  in
  let map_of l =
    List.fold_left
      (fun m ((a, b), p) ->
        let tag, _ = P.tag_of_input (Provenance.Input.prob p) in
        Tuple.Map.update (tup2 a b)
          (fun cur -> Some (match cur with None -> tag | Some t -> P.add t tag))
          m)
      Tuple.Map.empty l
  in
  let merge_test =
    qtest
      (Fmt.str "%s: union_runs ≡ Tuple.Map.union" prov_name)
      (QCheck.pair rel_gen rel_gen)
      (fun (la, lb) ->
        let ma = map_of la and mb = map_of lb in
        let merged =
          B.union_runs (B.of_list (Tuple.Map.bindings ma)) (B.of_list (Tuple.Map.bindings mb))
        in
        let expect = Tuple.Map.union (fun _ o n -> Some (P.add o n)) ma mb in
        items_equal (B.to_list merged) (Tuple.Map.bindings expect))
  in
  let exprs =
    let open Ram in
    let a = Pred "a" and b = Pred "b" in
    let agg agg key_len group body = Aggregate { agg; key_len; arg_len = 0; group; body } in
    [
      ("select x!=y", Select (Binop (Foreign.Neq, Access 0, Access 1), a));
      ( "project swap/arith",
        Project ([ Access 1; Binop (Foreign.Add, Access 0, Const (Value.int Value.I32 1)) ], a)
      );
      ("union", Union (a, b));
      ("product", Product (a, b));
      ("diff", Diff (a, b));
      ("intersect", Intersect (a, b));
      ("join", Join { lkeys = [ 1 ]; rkeys = [ 0 ]; left = a; right = b });
      ("antijoin", Antijoin { lkeys = [ 0; 1 ]; rkeys = [ 0; 1 ]; left = a; right = b });
      ("one-overwrite", One_overwrite (Union (a, b)));
      ("zero-overwrite", Zero_overwrite a);
      ("count no-group", agg Count 0 No_group a);
      ("count implicit", agg Count 1 Implicit a);
      ("count domain", agg Count 1 (Domain (Project ([ Access 0 ], b))) a);
      ("exists no-group", agg Exists 0 No_group (Select (Binop (Foreign.Lt, Access 0, Access 1), a)));
      ("nested join-select", Select (Binop (Foreign.Leq, Access 0, Access 3),
                                     Join { lkeys = [ 1 ]; rkeys = [ 0 ]; left = a; right = Union (a, b) }));
      ("foreign succ", Foreign_join { name = "succ"; args = [ F_col 1; F_free ]; left = a });
      ( "foreign range over a join",
        Foreign_join
          { name = "range"; args = [ F_col 0; F_col 3; F_free ];
            left = Join { lkeys = [ 1 ]; rkeys = [ 0 ]; left = a; right = b } } );
      ("top<1> implicit", Sample { sampler = Top_k 1; key_len = 1; group = Implicit; body = a });
      ("uniform<3> no-group", Sample { sampler = Uniform 3; key_len = 0; group = No_group;
                                       body = Union (a, b) });
      ( "categorical<1> domain",
        Sample { sampler = Categorical 1; key_len = 1;
                 group = Domain (Project ([ Access 0 ], b)); body = a } );
    ]
    @
    if rich_aggs then
      [
        ("sum implicit", agg Sum 1 Implicit a);
        ("max implicit", agg Max 1 Implicit a);
        ("min domain", agg Min 1 (Domain (Project ([ Access 0 ], b))) a);
      ]
    else []
  in
  let op_test (ename, e) =
    qtest ~count:60
      (Fmt.str "%s: %s ≡ tree-walker" prov_name ename)
      (QCheck.pair rel_gen rel_gen)
      (fun (la, lb) ->
        let db = db_of [ ("a", la); ("b", lb) ] in
        let plan = Plan.of_expr e in
        (* each engine draws from its own seed-0 RNG *)
        let run f =
          try Ok (f (Interp.default_config ()) db plan) with Exec_error.Error err -> Error err
        in
        match (run I.eval_plan, run I.eval_plan_columnar)
        with
        | Ok reference, Ok columnar -> items_equal reference columnar
        | Error _, Error _ -> true (* both reject (e.g. unsupported negation) *)
        | _ -> false)
  in
  (merge_test :: List.map op_test exprs)

let suite =
  [ col_roundtrip; col_cmp_consistent ]
  @ tests_for "boolean" Registry.Boolean ~rich_aggs:true
  @ tests_for "minmaxprob" Registry.Max_min_prob ~rich_aggs:true
  @ tests_for "topkproofs-3" (Registry.Top_k_proofs 3) ~rich_aggs:false
