(* Spans recorded around the calls the benchmark makes into each layer.

   A span has a name, a start and an end on the monotonic clock, the span
   that caused it, and the ordinal of the request (or training step) it
   serves.  Spans are kept in memory and written out as Chrome trace-event
   JSON when the run ends.  With [on] false nothing is recorded, and a
   span costs one branch. *)

module Mono = Scallop_utils.Monotonic

type span = {
  sid : int;
  name : string;
  req : int;
  parent : int;  (** 0 for a root *)
  t0 : float;
  t1 : float;
  tid : int;  (** the domain that recorded it *)
}

let on = ref false
let next = Atomic.make 1
let m = Mutex.create ()
let spans : span list ref = ref []
let fresh () = Atomic.fetch_and_add next 1

let reset () =
  Mutex.protect m (fun () -> spans := [])

let record ~sid ~name ~req ~parent t0 t1 =
  if !on then begin
    let s = { sid; name; req; parent; t0; t1; tid = (Domain.self () :> int) } in
    Mutex.protect m (fun () -> spans := s :: !spans)
  end

(* [span ~name ~req ~parent f] runs [f sid], where [sid] is the new span's
   id for its children to name as their parent. *)
let span ~name ~req ~parent f =
  if not !on then f 0
  else begin
    let sid = fresh () in
    let t0 = Mono.now () in
    Fun.protect ~finally:(fun () -> record ~sid ~name ~req ~parent t0 (Mono.now ())) (fun () -> f sid)
  end

let all () = Mutex.protect m (fun () -> List.rev !spans)

(* Durations of the spans named [name], in ms. *)
let durations_ms name spans =
  List.filter_map (fun s -> if s.name = name then Some (1000.0 *. (s.t1 -. s.t0)) else None) spans

(* Self time of every span: its duration minus the part of it that the
   union of its children's intervals covers. *)
let self_times (spans : span list) : (span * float) list =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.replace kids s.parent (s :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    spans;
  List.map
    (fun s ->
      let ivs =
        Option.value ~default:[] (Hashtbl.find_opt kids s.sid)
        |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            if b <= hi then (acc, hi) else (acc +. b -. Float.max a hi, b))
          (0.0, neg_infinity) ivs
      in
      (s, s.t1 -. s.t0 -. covered))
    spans

type layer = { layer : string; count : int; self_ms : float }

(* Self time summed per span name, in first-seen order. *)
let by_layer spans : layer list =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some (c, t) -> Hashtbl.replace tbl s.name (c + 1, t +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name (1, self))
    (self_times spans);
  List.rev_map
    (fun name ->
      let c, t = Hashtbl.find tbl name in
      { layer = name; count = c; self_ms = 1000.0 *. t })
    !order

let write_chrome path (spans : span list) =
  let origin = List.fold_left (fun a s -> Float.min a s.t0) infinity spans in
  let us t = Float.round ((t -. origin) *. 1e7) /. 10.0 in
  let events =
    List.map
      (fun s ->
        Stats.Obj
          [
            ("name", Stats.Str s.name);
            ("ph", Stats.Str "X");
            ("ts", Stats.Num (us s.t0));
            ("dur", Stats.Num (us s.t1 -. us s.t0));
            ("pid", Stats.Int 1);
            ("tid", Stats.Int s.tid);
            ("args", Stats.Obj [ ("id", Stats.Int s.req); ("span", Stats.Int s.sid); ("parent", Stats.Int s.parent) ]);
          ])
      spans
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Stats.to_string (Stats.Obj [ ("traceEvents", Stats.Arr events) ])))
