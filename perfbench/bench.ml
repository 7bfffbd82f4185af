(* Entry point of the repository benchmark; see README.md.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --exe PATH/scallop.exe --work DIR --commit ID

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones; the last line of stdout is the JSON result.  It exits 1
   when an output check fails. *)

module S = Serve_wl
module T = Train_wl

(* Every metric the benchmark reports: name, unit, and whether it is an
   end-to-end metric (printed with --trace 0) or a per-layer one (--trace 1).
   It lists the metrics of BENCHMARK.json, entry for entry, in its order. *)
let catalogue =
  [
    ("ops_per_s", "1/s", true); ("cpu_ms_per_op", "ms", true); ("update_p50_ms", "ms", true);
    ("read_p50_ms", "ms", true); ("setup_s", "s", true); ("rss_mb", "MB", true);
    ("update_tail_ms", "ms", false); ("read_tail_ms", "ms", false); ("peak_rss_mb", "MB", false);
    ("failed_frac", "ratio", false); ("assert_p50_ms", "ms", false); ("assert_tail_ms", "ms", false);
    ("retract_p50_ms", "ms", false); ("query_p50_ms", "ms", false); ("query_tail_ms", "ms", false);
    ("samples_per_s", "1/s", false); ("step_p50_ms", "ms", false); ("step_tail_ms", "ms", false);
    ("protocol.parse_us", "us", false); ("dispatch.drain_wait_ms", "ms", false);
    ("dispatch.unattributed_assert_ms", "ms", false); ("dispatch.unattributed_retract_ms", "ms", false);
    ("dispatch.unattributed_query_ms", "ms", false); ("service.queue_wait_ms", "ms", false);
    ("service.exec_ms", "ms", false); ("service.retries", "count", false); ("service.shed", "count", false);
    ("session.compile_ms", "ms", false); ("session.plan_cache_hit_rate", "ratio", false);
    ("incr.strata_reused_per_query", "count", false); ("incr.strata_continued_per_query", "count", false);
    ("incr.strata_recomputed_per_query", "count", false); ("incr.recompute_frac", "ratio", false);
    ("incr.update_batches_per_query", "count", false); ("interp.fixpoint_iterations_per_query", "count", false);
    ("interp.fixpoint_iterations_per_sample", "count", false); ("decode.rows_per_query", "count", false);
    ("decode.ms_per_query", "ms", false); ("durable.assert_ms", "ms", false); ("durable.assert_tail_ms", "ms", false);
    ("durable.retract_ms", "ms", false); ("durable.open_ms", "ms", false); ("durable.snapshots_per_kop", "count", false);
    ("durable.recovery_s", "s", false); ("wal.fsyncs_per_op", "count", false); ("wal.appends_per_fsync", "count", false);
    ("wal.bytes_per_op", "bytes", false); ("scallop_layer.forward_ms", "ms", false); ("layers.mlp_ms", "ms", false);
    ("autodiff.backward_ms", "ms", false); ("optim.step_ms", "ms", false); ("gc.minor_mwords_per_step", "count", false);
    ("gc.major_collections_per_step", "count", false); ("trace.coverage_frac", "ratio", false);
    ("trace.overhead_frac", "ratio", false);
  ]

let arg name default =
  let rec find = function
    | k :: v :: _ when k = "--" ^ name -> v
    | _ :: rest -> find rest
    | [] -> (
        match default with Some d -> d | None -> Fmt.failwith "missing argument --%s" name)
  in
  find (List.tl (Array.to_list Sys.argv))

let command_output prog args =
  try
    let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
    let out = String.trim (In_channel.input_all ic) in
    ignore (Unix.close_process_in ic);
    out
  with Unix.Unix_error _ -> "unknown"

(* Results with different [host] parts are not comparable; commit and seed
   are recorded so that runs of two commits can be matched up. *)
let fingerprint ~work ~commit ~seed ~workload =
  Stats.Obj
    [
      ( "host",
        Stats.Obj
          [
            ("nproc", Stats.Int (Domain.recommended_domain_count ()));
            ("ocaml", Stats.Str Sys.ocaml_version);
            ("fs", Stats.Str (command_output "stat" [ "-f"; "-c"; "%T"; work ]));
          ] );
      ("commit", Stats.Str commit);
      ("workload", Stats.Str workload);
      ("seed", Stats.Int seed);
    ]

(* The per-layer table: self time per span name, its share of the root
   spans' total, and the roots' own self time as the named remainder. *)
let layer_table ~root ~remainder spans =
  let layers = Trace.by_layer spans in
  let total = List.fold_left (fun a (s : Trace.span) -> if s.name = root then a +. (1000.0 *. (s.t1 -. s.t0)) else a) 0.0 spans in
  let covered = List.fold_left (fun a l -> if l.Trace.layer = root then a else a +. l.Trace.self_ms) 0.0 layers in
  Fmt.pr "@.per-layer self time over %.1f ms of traced end-to-end time (root span %S):@." total root;
  Fmt.pr "  %-28s %8s %12s %8s@." "layer" "spans" "self ms" "share";
  List.iter
    (fun l ->
      let name = if l.Trace.layer = root then remainder else l.Trace.layer in
      Fmt.pr "  %-28s %8d %12.1f %7.1f%%@." name l.Trace.count l.Trace.self_ms
        (100.0 *. Stats.per_share l.Trace.self_ms total))
    layers;
  Fmt.pr "  layers cover %.1f%% of it; the rest is %S@." (100.0 *. Stats.per_share covered total) remainder;
  Stats.per_share covered total

let tails = ref []

let tail name xs =
  let t = Stats.tail xs in
  tails := (name, t) :: !tails;
  t.Stats.value

(* Set-ups per end-to-end run; [setup_s] is a median over them. *)
let setups = 9

let pp_setups =
  Fmt.(list ~sep:(any " ") (fun ppf (s, stolen) -> pf ppf "%.4fs(%.0f%%)" s (100.0 *. stolen)))

let serve shape ~name ~seed ~seconds ~trace ~exe ~work ~durability =
  let setups = if trace then 1 else setups in
  let pipe_s = if trace then seconds /. 3.0 else seconds in
  let p = S.run_pipe shape ~seed ~seconds:pipe_s ~exe ~work ~setups ~durability in
  let r = p.S.rec_ in
  let assert_l = S.lats r S.Assert and retract_l = S.lats r S.Retract and query_l = S.lats r S.Query in
  let failed = r.S.failed + p.S.mismatches + if p.S.recovered_ok then 0 else shape.S.tenants in
  let attempted = r.S.attempted + shape.S.tenants * (shape.S.preload + 2) in
  let quiet = Window.quiet p.S.window in
  (* updates are asserts: retracts, on serve-query only, are their own
     per-layer figure rather than a second population in one median *)
  let asserts = S.timed r S.Assert and reads = S.timed r S.Query in
  let all_ops = List.concat_map (fun k -> List.map (fun (t, _) -> (t, 1.0)) (S.timed r k)) [ S.Assert; S.Retract; S.Query ] in
  let e2e =
    [
      ("ops_per_s", Window.rate quiet all_ops);
      ("update_p50_ms", Stats.median (Window.values quiet asserts));
      ("read_p50_ms", Stats.median (Window.values quiet reads));
      ("setup_s", Window.quiet_median p.S.setup_s);
      ("rss_mb", Stats.median p.S.rss_mb);
      ("cpu_ms_per_op", 1000.0 *. Stats.per_share (Window.cpu_s quiet) (float_of_int (List.length (Window.values quiet all_ops))));
    ]
  in
  let update_tail = tail "update_tail_ms" assert_l and read_tail = tail "read_tail_ms" query_l in
  let pipe_layer =
    [
      ("update_tail_ms", update_tail);
      ("read_tail_ms", read_tail);
      ("peak_rss_mb", p.S.peak_rss_mb);
      ("failed_frac", float_of_int failed /. float_of_int attempted);
      ("assert_p50_ms", Stats.median assert_l);
      ("assert_tail_ms", tail "assert_tail_ms" assert_l);
      ("retract_p50_ms", Stats.median retract_l);
      ("query_p50_ms", Stats.median query_l);
      ("query_tail_ms", tail "query_tail_ms" query_l);
      ("durable.recovery_s", Option.value ~default:0.0 p.S.recovery_s);
    ]
  in
  let deciles l = let a = Stats.sorted l in List.init 9 (fun i -> Stats.pct_sorted a (float_of_int (i + 1) /. 10.0)) in
  Fmt.pr "pipe: %a; ops/s %.1f over the whole window@." Window.pp_summary p.S.window
    (Window.rate (Window.slices p.S.window) all_ops);
  Fmt.pr "pipe: assert ms deciles %a@." Fmt.(list ~sep:(any " ") (fmt "%.2f")) (deciles assert_l);
  Fmt.pr "pipe: read ms deciles %a@." Fmt.(list ~sep:(any " ") (fmt "%.2f")) (deciles (List.map snd reads));
  Fmt.pr "set-ups: %a@." pp_setups p.S.setup_s;
  Fmt.pr "pipe: %d ops in %.2f s, %d replies checked in %.2f s, %d mismatches%s@." p.S.ops pipe_s
    p.S.checked p.S.check_s p.S.mismatches
    (match p.S.recovery_s with
    | Some s -> Fmt.str ", restart after SIGKILL %.3f s, %s" s (if p.S.recovered_ok then "every tenant identical" else "RECOVERY MISMATCH")
    | None -> "");
  let layers =
    if not trace then []
    else begin
      let dir = Filename.concat work "replay" in
      let plain = S.run_replay shape ~seed ~seconds:(seconds /. 3.0) ~dir ~traced:false in
      Trace.reset ();
      let traced = S.run_replay shape ~seed ~seconds:(seconds /. 3.0) ~dir ~traced:true in
      let spans = Trace.all () in
      Trace.write_chrome (Filename.concat work (Fmt.str "trace-%s-seed%d.json" name seed)) spans;
      let coverage = layer_table ~root:"request" ~remainder:"unattributed: reader hand-off, printer order, scheduling" spans in
      let unattributed kind l = if l = [] then 0.0 else Stats.median l -. Stats.median (S.lats plain.S.r_rec kind) in
      let durable_assert = Trace.durations_ms "durable.assert" spans in
      let q = List.length (Trace.durations_ms "decode" spans) in
      let rows = List.fold_left (fun a (k : S.check) -> a + k.S.nrows) 0 traced.S.r_rec.S.checks in
      let compile_ms =
        Stats.median
          (List.init 5 (fun _ ->
               let t0 = Scallop_utils.Monotonic.now () in
               ignore (Scallop_core.Session.compile (S.unquote S.program));
               1000.0 *. (Scallop_utils.Monotonic.now () -. t0)))
      in
      [
        ("protocol.parse_us", 1000.0 *. Stats.median (Trace.durations_ms "protocol.parse" spans));
        ("dispatch.drain_wait_ms", Stats.median (Trace.durations_ms "dispatch.drain_wait" spans));
        ("dispatch.unattributed_assert_ms", unattributed S.Assert assert_l);
        ("dispatch.unattributed_retract_ms", unattributed S.Retract retract_l);
        ("dispatch.unattributed_query_ms", unattributed S.Query query_l);
        ("service.queue_wait_ms", Stats.median traced.S.r_rec.S.qwait);
        ("service.exec_ms", Stats.median (Trace.durations_ms "service.exec" spans));
        ("session.compile_ms", compile_ms);
        ("interp.fixpoint_iterations_per_query", S.count_iterations shape ~seed ~seconds:2.0);
        ("decode.rows_per_query", Stats.per_share (float_of_int rows) (float_of_int (List.length traced.S.r_rec.S.checks)));
        ("decode.ms_per_query", Stats.per_share (List.fold_left ( +. ) 0.0 (Trace.durations_ms "decode" spans)) (float_of_int q));
        ("durable.assert_ms", Stats.median durable_assert);
        ("durable.assert_tail_ms", tail "durable.assert_tail_ms" durable_assert);
        ("durable.retract_ms", Stats.median (Trace.durations_ms "durable.retract" spans));
        ("trace.coverage_frac", coverage);
        ( "trace.overhead_frac",
          Stats.per_share (float_of_int plain.S.r_ops /. plain.S.r_elapsed) (float_of_int traced.S.r_ops /. traced.S.r_elapsed) -. 1.0 );
      ]
      @ traced.S.r_counters
    end
  in
  (e2e, pipe_layer @ layers, attempted, failed, p.S.mismatches = 0 && p.S.recovered_ok && r.S.failed = 0)

let train ~seed ~seconds ~trace ~work =
  let t = T.run ~seed ~seconds ~setups:(if trace then 1 else setups) ~traced:trace in
  let steps = t.T.steps in
  let ms f l = List.map (fun s -> 1000.0 *. f s) l in
  let fwd = ms (fun s -> s.T.forward_s) steps and upd = ms (fun s -> s.T.update_s) steps in
  let step_ms = ms (fun s -> s.T.forward_s +. s.T.update_s) steps in
  let failed = t.T.quarantined + t.T.mismatches in
  let samples_per_s = float_of_int t.T.samples /. t.T.elapsed in
  let quiet = Window.quiet t.T.window in
  let in_quiet g = Window.values quiet (List.map (fun s -> (s.T.t_end, g s)) steps) in
  let samples = List.map (fun s -> (s.T.t_end, float_of_int T.batch)) steps in
  let e2e =
    [
      ("ops_per_s", Window.rate quiet samples);
      ("update_p50_ms", Stats.median (in_quiet (fun s -> 1000.0 *. s.T.update_s)));
      ("read_p50_ms", Stats.median (in_quiet (fun s -> 1000.0 *. s.T.forward_s)));
      ("setup_s", Window.quiet_median t.T.setup_s);
      ("rss_mb", Stats.median t.T.rss_mb);
      ( "cpu_ms_per_op",
        1000.0 *. Stats.per_share (Window.cpu_s quiet) (List.fold_left ( +. ) 0.0 (Window.values quiet samples)) );
    ]
  in
  Fmt.pr "train: %a; samples/s %.1f over the whole window@." Window.pp_summary t.T.window
    (Window.rate (Window.slices t.T.window) samples);
  Fmt.pr "set-ups: %a@." pp_setups t.T.setup_s;
  Fmt.pr "train: %d samples in %.2f s, %d quarantined, %d of the first losses differ from the jobs=1 replay@."
    t.T.samples t.T.elapsed t.T.quarantined t.T.mismatches;
  let layers =
    if not trace then []
    else begin
      let spans = Trace.all () in
      Trace.write_chrome (Filename.concat work (Fmt.str "trace-train-step-seed%d.json" seed)) spans;
      let coverage = layer_table ~root:"step" ~remainder:"unattributed: step bookkeeping" spans in
      let n = float_of_int (List.length t.T.traced) in
      let traced_step = Stats.median (ms (fun s -> s.T.forward_s +. s.T.update_s) t.T.traced) in
      [
        ("samples_per_s", samples_per_s);
        ("peak_rss_mb", t.T.peak_rss_mb);
        ("step_p50_ms", Stats.median step_ms);
        ("session.compile_ms", t.T.compile_ms);
        ("interp.fixpoint_iterations_per_sample", Stats.per_share (float_of_int t.T.iterations) (n *. float_of_int T.batch));
        ("scallop_layer.forward_ms", Stats.median (Trace.durations_ms "scallop_layer.forward" spans));
        ("layers.mlp_ms", Stats.median (Trace.durations_ms "layers.mlp" spans));
        ("autodiff.backward_ms", Stats.median (Trace.durations_ms "autodiff.backward" spans));
        ("optim.step_ms", Stats.median (Trace.durations_ms "optim.step" spans));
        ("gc.minor_mwords_per_step", Stats.per_share (t.T.minor_words /. 1e6) n);
        ("gc.major_collections_per_step", Stats.per_share (float_of_int t.T.major_collections) n);
        ("trace.coverage_frac", coverage);
        ("trace.overhead_frac", Stats.per_share traced_step (Stats.median step_ms) -. 1.0);
      ]
    end
  in
  let tails =
    [
      ("update_tail_ms", tail "update_tail_ms" upd);
      ("read_tail_ms", tail "read_tail_ms" fwd);
      ("step_tail_ms", tail "step_tail_ms" step_ms);
    ]
  in
  let attempted = t.T.samples + T.batch in
  (e2e, tails @ layers @ [ ("failed_frac", float_of_int failed /. float_of_int attempted) ], attempted, failed, failed = 0)

let () =
  let workload = arg "workload" None in
  let seed = int_of_string (arg "seed" None) in
  let seconds = float_of_string (arg "seconds" None) in
  let trace = arg "trace" (Some "0") = "1" in
  let exe = arg "exe" None and work = arg "work" None and commit = arg "commit" (Some "unknown") in
  at_exit S.kill_all;
  let jiffies0 = Window.host_jiffies () in
  let e2e, layer, attempted, failed, correct =
    match workload with
    | "serve-ingest" -> serve S.ingest ~name:workload ~seed ~seconds ~trace ~exe ~work ~durability:true
    | "serve-query" -> serve S.query_heavy ~name:workload ~seed ~seconds ~trace ~exe ~work ~durability:false
    | "train-step" -> train ~seed ~seconds ~trace ~work
    | w -> Fmt.failwith "unknown workload %s (serve-ingest, serve-query, train-step)" w
  in
  let values = if trace then layer else e2e in
  if not trace then
    Fmt.pr "tails: %a@." Fmt.(list ~sep:(any " ") (pair ~sep:(any "=") string (fmt "%.4f")))
      (List.filter (fun (k, _) -> String.ends_with ~suffix:"_tail_ms" k) layer);
  List.iter
    (fun (k, _) -> if not (List.exists (fun (n, _, _) -> n = k) catalogue) then Fmt.failwith "metric %s is not declared" k)
    (e2e @ layer);
  let metrics =
    List.filter_map
      (fun (k, u, e) -> if e = not trace then Some (k, u, Option.value ~default:0.0 (List.assoc_opt k values)) else None)
      catalogue
  in
  Fmt.pr "@.%-40s %14s  %s@." "metric" "value" "unit";
  List.iter
    (fun (k, u, v) ->
      Fmt.pr "%-40s %14.4f  %s%s@." k v u
        (match List.assoc_opt k !tails with Some t -> Fmt.str "  (%a)" Stats.pp_tail t | None -> ""))
    metrics;
  let fp = fingerprint ~work ~commit ~seed ~workload in
  let steal_frac = Window.stolen_share jiffies0 (Window.host_jiffies ()) in
  Fmt.pr "host: the hypervisor stole %.1f%% of the CPU time this VM wanted during this run@." (100.0 *. steal_frac);
  let result =
    Stats.Obj
      [
        ("correct", Stats.Bool correct);
        ("attempted", Stats.Int attempted);
        ("failed", Stats.Int failed);
        ( "metrics",
          Stats.Obj (List.map (fun (k, u, v) -> (k, Stats.Obj [ ("value", Stats.Num v); ("unit", Stats.Str u) ])) metrics) );
      ]
  in
  let saved =
    Stats.Obj
      [
        ("fingerprint", fp);
        ("trace", Stats.Bool trace);
        ("host_steal_frac", Stats.Num steal_frac);
        ("result", result);
        ( "tails",
          Stats.Obj
            (List.map
               (fun (k, t) -> (k, Stats.Obj [ ("percentile", Stats.Str t.Stats.label); ("n", Stats.Int t.Stats.n); ("beyond", Stats.Int t.Stats.beyond) ]))
               !tails) );
      ]
  in
  Out_channel.with_open_text
    (Filename.concat work (Fmt.str "result-%s-seed%d-trace%d.json" workload seed (if trace then 1 else 0)))
    (fun oc -> output_string oc (Stats.to_string saved));
  Fmt.pr "fingerprint %s@." (Stats.to_string fp);
  print_endline (Stats.to_string result);
  exit (if correct then 0 else 1)
