(* The train-step workload: minibatch training of MNIST-R sum3 on the
   synthetic digits of [Scallop_data.Mnist], under difftopkproofs-3.

   A step classifies every image with the MLP, runs the Scallop layer over
   the minibatch on a 2-domain pool, sums the per-sample BCE losses, and
   does one backward pass and one Adam step. *)

open Scallop_core
open Scallop_tensor
open Scallop_nn
module Mnist = Scallop_data.Mnist
module Mnist_r = Scallop_apps.Mnist_r
module Common = Scallop_apps.Common
module Pool = Scallop_utils.Pool
module Mono = Scallop_utils.Monotonic

let spec = Option.get (Registry.spec_of_string "difftopkproofs-3")
let task = Mnist.Sum3
let batch = 16
let n_samples = 1024
let lr = 1e-3
let jobs = 2

type state = {
  samples : Mnist.sample array;
  model : Mnist_r.model;
  opt : Optim.t;
  pool : Pool.t option;  (** [None]: the jobs=1 replay *)
  compile_ms : float;
}

type step = {
  t_end : float;
  loss : float;
  forward_s : float;  (** MLP, Scallop layer and loss *)
  update_s : float;  (** backward and Adam *)
  quarantined : int;  (** samples the layer returned an error for *)
}

let step st ~config k =
  let b = Array.init batch (fun i -> st.samples.(((k * batch) + i) mod n_samples)) in
  let root = Trace.fresh () in
  let span name f = Trace.span ~name ~req:k ~parent:root (fun _ -> f ()) in
  let t0 = Mono.now () in
  let mapped =
    span "layers.mlp" (fun () ->
        Array.map
          (fun (s : Mnist.sample) ->
            Mnist_r.interface task
              (List.map (fun img -> Layers.Mlp.classify st.model.Mnist_r.mlp (Autodiff.const img)) s.Mnist.images))
          b)
  in
  let _, out_pred, candidates = mapped.(0) in
  let ys =
    span "scallop_layer.forward" (fun () ->
        Scallop_layer.try_forward_batch ?pool:st.pool ~jobs:1 ~config ~spec ~compiled:st.model.Mnist_r.compiled
          ~out_pred ~candidates
          (Array.map (fun (inputs, _, _) -> { Scallop_layer.inputs; static_facts = [] }) mapped))
  in
  let losses =
    span "autodiff.loss" (fun () ->
        List.filter_map Fun.id
          (List.mapi
             (fun i y ->
               match y with
               | Ok y -> Some (Common.bce y (Autodiff.const (Common.one_hot (Array.length candidates) b.(i).Mnist.target)))
               | Error _ -> None)
             (Array.to_list ys)))
  in
  let loss = Common.sum_losses losses in
  let t1 = Mono.now () in
  st.opt.Optim.zero_grad ();
  span "autodiff.backward" (fun () -> Autodiff.backward loss);
  span "optim.step" (fun () -> st.opt.Optim.step ());
  let t2 = Mono.now () in
  Trace.record ~sid:root ~name:"step" ~req:k ~parent:0 t0 t2;
  {
    t_end = t2;
    loss = Nd.get1 (Autodiff.value loss) 0;
    forward_s = t1 -. t0;
    update_s = t2 -. t1;
    quarantined = batch - List.length losses;
  }

(* Data generation, model creation, compile, pool start and one warm-up
   step.  Returns the state, the warm-up step and the set-up time. *)
let setup ~seed ~parallel =
  let t0 = Mono.now () in
  let rng = Scallop_utils.Rng.create seed in
  let data = Mnist.create ~noise:0.5 ~dim:16 ~seed:(seed + 1) () in
  let samples = Array.of_list (Mnist.dataset data task n_samples) in
  let model = Mnist_r.create_model ~rng ~dim:16 task in
  let c0 = Mono.now () in
  ignore (Session.compile (Mnist_r.program_of task));
  let compile_ms = 1000.0 *. (Mono.now () -. c0) in
  let opt = Optim.adam ~lr (Layers.Mlp.params model.Mnist_r.mlp) in
  let pool = if parallel then Some (Pool.create jobs) else None in
  let st = { samples; model; opt; pool; compile_ms } in
  let warm = step st ~config:(Interp.default_config ()) 0 in
  (st, warm, Mono.now () -. t0)

let close st = Option.iter Pool.shutdown st.pool

(* Losses of the warm-up step and the first [n] steps after it, replayed
   on one domain. *)
let sequential_losses ~seed n =
  let st, warm, _ = setup ~seed ~parallel:false in
  let ls = warm.loss :: List.init n (fun k -> (step st ~config:(Interp.default_config ()) (k + 1)).loss) in
  close st;
  ls

type result = {
  setup_s : (float * float) list;  (** each set-up's time and the share stolen during it *)
  compile_ms : float;
  window : Window.t;  (** it lasts [seconds]; its CPU readings are this process's *)
  elapsed : float;
  steps : step list;  (** untraced steps of the window, oldest first *)
  traced : step list;
  samples : int;
  quarantined : int;
  iterations : int;  (** fixpoint iterations over the traced steps *)
  minor_words : float;  (** main-domain allocation over the traced steps *)
  major_collections : int;
  rss_mb : float list;  (** VmRSS after every [rss_every] steps, up to [rss_last] *)
  peak_rss_mb : float;
  mismatches : int;  (** losses that differ from the jobs=1 replay *)
}

let checked_steps = 8

(* Resident set is read at fixed points of work, not of time: the WMC
   caches grow with every step, so at a fixed time a slower run would read
   smaller.  160 steps fit in the window even at twice the usual step time. *)
let rss_every = 32
let rss_last = 160

(* Set up [setups] times, keep the last, and train for [seconds].  With
   [traced], every other step runs with spans and the interpreter's stats
   sink on. *)
let run ~seed ~seconds ~setups ~traced =
  let rec go i acc =
    let (st, warm, s), stolen = Window.measure (fun () -> setup ~seed ~parallel:true) in
    let s = (s, stolen) in
    if i + 1 < setups then begin
      close st;
      go (i + 1) (s :: acc)
    end
    else (st, warm, List.rev (s :: acc))
  in
  let st, warm, setup_s = go 0 [] in
  let sink = Interp.empty_stats () in
  let traced_config = { (Interp.default_config ()) with Interp.stats = Some sink } in
  let plain = Interp.default_config () in
  let all = ref [] (* (traced, step), newest first *) and minor = ref 0.0 and major = ref 0 in
  Gc.full_major ();
  let w = Window.start ~cpu:(fun () -> Serve_wl.cpu_s ()) in
  let t0 = Window.start_time w in
  let k = ref 1 and rss = ref [] in
  while Mono.now () -. t0 < seconds do
    if !k mod rss_every = 0 && !k <= rss_last then rss := Serve_wl.status_mb "VmRSS" :: !rss;
    let on = traced && !k mod 2 = 0 in
    if on then begin
      Trace.on := true;
      let w0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.major_collections in
      let s = step st ~config:traced_config !k in
      Trace.on := false;
      minor := !minor +. Gc.minor_words () -. w0;
      major := !major + (Gc.quick_stat ()).Gc.major_collections - c0;
      all := (true, s) :: !all
    end
    else all := (false, step st ~config:plain !k) :: !all;
    let t = (snd (List.hd !all)).t_end in
    if t -. t0 >= seconds then Window.close w t else ignore (Window.tick w t);
    incr k
  done;
  Window.close w (Mono.now ());
  let elapsed = Mono.now () -. t0 in
  let rss_mb = if !rss = [] then [ Serve_wl.status_mb "VmRSS" ] else !rss in
  let peak_rss_mb = Serve_wl.status_mb "VmHWM" in
  close st;
  let all = List.rev !all in
  let steps = List.filter_map (fun (t, s) -> if t then None else Some s) all in
  let tsteps = List.filter_map (fun (t, s) -> if t then Some s else None) all in
  (* The first steps of the window, in step order, against the replay. *)
  let window = warm.loss :: List.filteri (fun i _ -> i < checked_steps) (List.map (fun (_, s) -> s.loss) all) in
  let reference = sequential_losses ~seed (List.length window - 1) in
  let mismatches =
    List.fold_left2 (fun n a b -> if Float.equal a b then n else n + 1) 0 window reference
  in
  let total = List.length all in
  {
    setup_s;
    compile_ms = st.compile_ms;
    window = w;
    elapsed;
    steps;
    traced = tsteps;
    samples = total * batch;
    quarantined = List.fold_left (fun n (_, (s : step)) -> n + s.quarantined) 0 all;
    iterations = sink.Interp.fixpoint_iterations;
    minor_words = !minor;
    major_collections = !major;
    rss_mb;
    peak_rss_mb;
    mismatches;
  }
