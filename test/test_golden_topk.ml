(** Golden bit-identity test for the top-k proof provenances.

    Every MNIST-R task program runs under topkproofs-3, difftopkproofs-3,
    difftopkproofsme-3 and difftopbottomkclauses-3 on fixed digit
    distributions: a peaked random one, a quantized one full of
    equal-probability ties, and the uniform one.  Each output's
    probability and gradient entries are rendered as hex floats ([%h]) and
    compared byte for byte with [golden/topk_mnist_r.txt], which was
    recorded with the map-based proof representation that the flat array
    proofs replaced.  Any change to proof order, truncation or WMC shows up
    as a differing line. *)

open Scallop_core
open Scallop_tensor
module Mnist = Scallop_data.Mnist
module Mnist_r = Scallop_apps.Mnist_r
module Rng = Scallop_utils.Rng

let specs =
  [
    ("topkproofs-3", Registry.Top_k_proofs 3);
    ("difftopkproofs-3", Registry.Diff_top_k_proofs 3);
    ("difftopkproofsme-3", Registry.Diff_top_k_proofs_me 3);
    ("difftopbottomkclauses-3", Registry.Diff_top_bottom_k_clauses 3);
  ]

let normalize ws =
  let total = Array.fold_left ( +. ) 0.0 ws in
  Array.map (fun w -> w /. total) ws

(* Sample [s] of a task: one 10-way distribution per image. *)
let distribution rng s =
  match s with
  | 0 -> normalize (Array.init 10 (fun _ -> exp (4.0 *. Rng.float rng)))
  | 1 -> normalize (Array.init 10 (fun _ -> float_of_int (1 + Rng.int rng 3)))
  | _ -> Array.make 10 0.1

let samples_per_task = 3

let render_sample buf ~task ~sname ~spec ~s ~rng =
  let probs =
    List.init (Mnist.num_images task) (fun _ ->
        Autodiff.const (Nd.of_array [| 10 |] (distribution rng s)))
  in
  let inputs, out_pred, _ = Mnist_r.interface task probs in
  let compiled = Session.compile (Mnist_r.program_of task) in
  let prepared = Scallop_nn.Scallop_layer.prepare_sample ~compiled ~static_facts:[] ~inputs in
  let result =
    Session.run ~provenance:(Registry.create spec) compiled ~facts:prepared.p_facts
      ~outputs:[ out_pred ] ()
  in
  List.iter
    (fun (tuple, o) ->
      Printf.bprintf buf "%s %s s%d %s %h" (Mnist.task_name task) sname s (Tuple.to_string tuple)
        (Provenance.Output.prob o);
      List.iter (fun (v, g) -> Printf.bprintf buf " %d:%h" v g) (Provenance.Output.gradient o);
      Buffer.add_char buf '\n')
    (Session.output result out_pred)

(** The golden text: one line per output tuple per (task, provenance,
    sample). *)
let render () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun task ->
      List.iter
        (fun (sname, spec) ->
          let rng = Rng.create 13 in
          for s = 0 to samples_per_task - 1 do
            render_sample buf ~task ~sname ~spec ~s ~rng
          done)
        specs)
    Mnist.all_tasks;
  Buffer.contents buf

let golden_file = "golden/topk_mnist_r.txt"

let test_golden () =
  let expect = In_channel.with_open_bin golden_file In_channel.input_all in
  let got = render () in
  if got <> expect then begin
    let e = String.split_on_char '\n' expect and g = String.split_on_char '\n' got in
    let rec first i = function
      | x :: xs, y :: ys -> if String.equal x y then first (i + 1) (xs, ys) else (i, x, y)
      | x :: _, [] -> (i, x, "<missing>")
      | [], y :: _ -> (i, "<missing>", y)
      | [], [] -> (i, "", "")
    in
    let i, x, y = first 1 (e, g) in
    Alcotest.failf "%s line %d differs:\n  golden: %s\n  got:    %s" golden_file i x y
  end

let suite =
  [ Alcotest.test_case "MNIST-R outputs and gradients ≡ golden hex floats" `Quick test_golden ]
