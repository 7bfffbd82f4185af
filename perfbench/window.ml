(* The measured window, cut into slices of about a second.

   At each slice boundary the benchmark reads the CPU time the hypervisor
   has stolen from this VM and the CPU time of the process under test.  On
   a shared VM the host takes the vCPUs away in bursts of a few seconds,
   and while it does, every wall-clock figure of the run stretches, by far
   more than the stolen share itself.  The end-to-end figures are therefore
   taken over the quiet slices only: the quietest quarter of them, every
   slice as quiet as those, and every slice from which less than 1% was
   stolen.  Which slices are kept depends only on what the hypervisor
   stole, which the program under test does not control. *)

module Mono = Scallop_utils.Monotonic

let width = 1.0

(* Jiffies the hypervisor stole from this VM, and jiffies in which the VM
   wanted a CPU (busy or stolen; not idle or waiting for I/O), so far.
   Leaving idle time out of the base keeps a slice in which the program
   waited more from reading as quieter. *)
let host_jiffies () =
  match In_channel.with_open_text "/proc/stat" input_line |> String.split_on_char ' ' |> List.filter (( <> ) "") with
  | "cpu" :: user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
      let busy = List.fold_left (fun a f -> a + int_of_string f) 0 [ user; nice; system; irq; softirq; steal ] in
      (int_of_string steal, busy)
  | _ | (exception _) -> (0, 0)

let stolen_share (s0, b0) (s1, b1) = if b1 <= b0 then 0.0 else float_of_int (s1 - s0) /. float_of_int (b1 - b0)

(* [f ()] and the share of the CPU time the VM wanted that was stolen
   while it ran. *)
let measure f =
  let j0 = host_jiffies () in
  let r = f () in
  (r, stolen_share j0 (host_jiffies ()))

type mark = { t : float; jiffies : int * int; cpu_s : float }

type t = {
  cpu : unit -> float;  (** CPU seconds of the process under test *)
  mutable marks : mark list;  (** newest first *)
  mutable next : float;
  mutable closed : bool;
}

let mark w t = { t; jiffies = host_jiffies (); cpu_s = w.cpu () }

let start ~cpu =
  let w = { cpu; marks = []; next = 0.0; closed = false } in
  let t = Mono.now () in
  w.marks <- [ mark w t ];
  w.next <- t +. width;
  w

let start_time w = (List.nth w.marks (List.length w.marks - 1)).t

(* Call with the time of each completion: it ends the current slice once
   the slice's second has passed, and then returns true. *)
let tick w t =
  (not w.closed) && t >= w.next
  && begin
       w.marks <- mark w t :: w.marks;
       w.next <- t +. width;
       true
     end

(* End the window at [t]; later ticks are ignored. *)
let close w t =
  if not w.closed then begin
    if t > (List.hd w.marks).t then w.marks <- mark w t :: w.marks;
    w.closed <- true
  end

type slice = { t0 : float; t1 : float; stolen : float; slice_cpu_s : float }

let slices w =
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        { t0 = a.t; t1 = b.t; stolen = stolen_share a.jiffies b.jiffies; slice_cpu_s = b.cpu_s -. a.cpu_s } :: pairs rest
    | _ -> []
  in
  pairs (List.rev w.marks)

(* The items from which no more was stolen than from the [p]-quantile. *)
let no_more_stolen_than p stolen items =
  let m = Stats.pct_sorted (Stats.sorted (List.map stolen items)) p in
  List.filter (fun x -> stolen x <= m) items

(* A second of two vCPUs is about 200 jiffies, so a share below [calm] is
   a jiffy or two: a slice that quiet is kept even outside the quietest
   quarter, which keeps the sample large when the host is calm. *)
let calm = 0.01

let quiet w =
  let all = slices w in
  let q = no_more_stolen_than 0.25 (fun s -> s.stolen) all in
  List.filter (fun s -> s.stolen < calm || List.memq s q) all

let within sl t = List.exists (fun s -> t >= s.t0 && t < s.t1) sl
let duration sl = List.fold_left (fun a s -> a +. (s.t1 -. s.t0)) 0.0 sl
let cpu_s sl = List.fold_left (fun a s -> a +. s.slice_cpu_s) 0.0 sl

(* The [v] of the samples [(t, v)] completed within [sl]. *)
let values sl samples = List.filter_map (fun (t, v) -> if within sl t then Some v else None) samples

(* Completions per second over [sl], each sample counting [v]. *)
let rate sl samples = Stats.per_share (List.fold_left ( +. ) 0.0 (values sl samples)) (duration sl)

(* The median of the values measured with no more stolen than the median
   share; used for the repeated set-ups. *)
let quiet_median measured = Stats.median (List.map fst (no_more_stolen_than 0.5 snd measured))

let pp_summary ppf w =
  let all = slices w and q = quiet w in
  let mean sl = Stats.per_share (List.fold_left (fun a s -> a +. (s.stolen *. (s.t1 -. s.t0))) 0.0 sl) (duration sl) in
  Fmt.pf ppf "%d of %d slices kept (%.1f of %.1f s); stolen %.1f%% in them, %.1f%% over the window" (List.length q)
    (List.length all) (duration q) (duration all) (100.0 *. mean q) (100.0 *. mean all)
