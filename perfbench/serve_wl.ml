(* The two serve workloads.

   Request streams are generated from the workload seed; a pipe client
   drives the real [scallop serve] binary with them in a closed loop; the
   replies are checked against cold in-process runs; and the traced run
   replays the same streams in-process, through the calls the serve
   dispatcher makes, with spans around each of them. *)

open Scallop_core
module Durable = Scallop_incr.Durable
module Incr = Scallop_incr.Incr
module Service = Scallop_serve.Service
module Protocol = Scallop_serve.Protocol
module Mono = Scallop_utils.Monotonic
module Wal = Scallop_utils.Wal

type shape = {
  tenants : int;
  nodes : int;  (** node ids per tenant graph *)
  preload : int;  (** edges asserted before a tenant's first query *)
  p_query : float;
  p_retract : float;  (** the rest of a tenant's requests are asserts *)
  out_rel : string;  (** the relation a query asks for *)
  lifetime : int option;
      (** writes after which a tenant closes its session and opens a fresh
          one, which keeps its state, and so the cost of an op, bounded *)
}

(* Eight tenants appending edges to sparse graphs: nine asserts per query,
   and each query asks for the one-row count, so writes dominate.  Append
   only, a session would grow for as long as the run lasts and its ops
   would slow with it; so each session ingests 448 edges and is replaced. *)
let ingest =
  {
    tenants = 8;
    nodes = 20_000;
    preload = 64;
    p_query = 0.10;
    p_retract = 0.0;
    out_rel = "n_path";
    lifetime = Some 448;
  }

(* Four tenants on dense 48-node graphs whose closure has ~2300 rows:
   queries ask for all of [path], and retracts force recomputation. *)
let query_heavy =
  {
    tenants = 4;
    nodes = 48;
    preload = 144;
    p_query = 0.60;
    p_retract = 0.15;
    out_rel = "path";
    lifetime = None;
  }

let program =
  "type edge(u32, u32);rel path(a, b) = edge(a, b);rel path(a, c) = path(a, b), edge(b, c);rel \
   n_path(n) = n = count(a, b: path(a, b))"

(* [scallop serve] turns [;] into newlines inside a request line. *)
let unquote = String.map (fun c -> if c = ';' then '\n' else c)
let provenance = Registry.Boolean

(* The interpreter config [scallop serve] runs with at its default flags. *)
let serve_interp () = { (Interp.default_config ()) with Interp.rng = Scallop_utils.Rng.create 0 }

(* ---- request streams ---------------------------------------------------------- *)

type kind = Open | Assert | Retract | Query | Close

(* An edge set with O(1) insert, remove and uniform pick. *)
module Eset = struct
  type t = { mutable a : (int * int) array; mutable n : int; idx : (int * int, int) Hashtbl.t }

  let create () = { a = Array.make 64 (0, 0); n = 0; idx = Hashtbl.create 64 }
  let mem s e = Hashtbl.mem s.idx e

  let add s e =
    if s.n = Array.length s.a then begin
      let a = Array.make (2 * s.n) (0, 0) in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    s.a.(s.n) <- e;
    Hashtbl.replace s.idx e s.n;
    s.n <- s.n + 1

  let remove s e =
    let i = Hashtbl.find s.idx e in
    let last = s.a.(s.n - 1) in
    s.a.(i) <- last;
    Hashtbl.replace s.idx last i;
    Hashtbl.remove s.idx e;
    s.n <- s.n - 1
end

(* A tenant's request stream depends only on the seed and the tenant: a
   tenant has one request in flight, so timing never changes what it
   sends. *)
type gen = {
  tenant : int;
  shape : shape;
  rng : Random.State.t;
  mutable epoch : int;  (** sessions this tenant has closed *)
  mutable edges : Eset.t;  (** the current session's edges *)
  mutable writes : int;  (** writes sent in the current session *)
  mutable reopen : bool;  (** the current session is closed; open the next *)
}

let gen shape ~seed tenant =
  {
    tenant;
    shape;
    rng = Random.State.make [| seed; tenant; 0x5ca1 |];
    epoch = 0;
    edges = Eset.create ();
    writes = 0;
    reopen = false;
  }

let sid g = Printf.sprintf "t%d.%d" g.tenant g.epoch

type req = { kind : kind; sid : string; edge : int * int; line : string }

let make g kind ((a, b) as edge) =
  let sid = sid g in
  let line =
    match kind with
    | Open -> Printf.sprintf "open %s %s" sid program
    | Assert -> Printf.sprintf "assert %s edge(%d, %d)" sid a b
    | Retract -> Printf.sprintf "retract %s edge(%d, %d)" sid a b
    | Query -> Printf.sprintf "query %s %s" sid g.shape.out_rel
    | Close -> Printf.sprintf "close %s" sid
  in
  { kind; sid; edge; line }

let assert_fresh g =
  let rec pick () =
    let a = Random.State.int g.rng g.shape.nodes and b = Random.State.int g.rng g.shape.nodes in
    if a = b || Eset.mem g.edges (a, b) then pick () else (a, b)
  in
  let e = pick () in
  Eset.add g.edges e;
  g.writes <- g.writes + 1;
  make g Assert e

let next g =
  if g.reopen then begin
    g.reopen <- false;
    make g Open (0, 0)
  end
  else
    match g.shape.lifetime with
    | Some n when g.writes >= n ->
        let q = make g Close (0, 0) in
        g.epoch <- g.epoch + 1;
        g.edges <- Eset.create ();
        g.writes <- 0;
        g.reopen <- true;
        q
    | _ ->
        let r = Random.State.float g.rng 1.0 in
        if r < g.shape.p_query then make g Query (0, 0)
        else if r < g.shape.p_query +. g.shape.p_retract && g.edges.Eset.n > 0 then begin
          let e = g.edges.Eset.a.(Random.State.int g.rng g.edges.Eset.n) in
          Eset.remove g.edges e;
          g.writes <- g.writes + 1;
          make g Retract e
        end
        else assert_fresh g

(* Open, preload, first query: what a tenant sends before it is set up. *)
let setup_stream g =
  let opn = make g Open (0, 0) in
  let pre = List.init g.shape.preload (fun _ -> assert_fresh g) in
  (opn :: pre) @ [ make g Query (0, 0) ]

(* ---- acknowledged state and the output check ------------------------------------ *)

(* A session's acknowledged writes, newest first.  [version] counts them and
   names the fact set a query saw: the tenant had nothing else in flight. *)
type acked = { mutable log : (kind * (int * int)) list; mutable version : int }

type check = { sid : string; version : int; digest : Digest.t; nrows : int }

(* What a client records while it runs. *)
type record = {
  acked : (string, acked) Hashtbl.t;  (** by session id *)
  mutable checks : check list;
  mutable attempted : int;
  mutable failed : int;
  lat : (kind, (float * float) list) Hashtbl.t;  (** (completion time, ms), by request kind *)
  mutable qwait : float list;  (** replay only: service queue wait of queries, ms *)
}

let new_record ?(acked = Hashtbl.create 16) () =
  { acked; checks = []; attempted = 0; failed = 0; lat = Hashtbl.create 4; qwait = [] }

let add_lat r kind ~t ms = Hashtbl.replace r.lat kind ((t, ms) :: Option.value ~default:[] (Hashtbl.find_opt r.lat kind))
let timed r kind = Option.value ~default:[] (Hashtbl.find_opt r.lat kind)
let lats r kind = List.map snd (timed r kind)

(* Account for one reply; [rows] is the reply's [out] text, as printed. *)
let on_reply r (q : req) ~ok ~rows ~nrows =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1
  else
    match q.kind with
    | Open -> Hashtbl.replace r.acked q.sid { log = []; version = 0 }
    | Assert | Retract ->
        let a = Hashtbl.find r.acked q.sid in
        a.log <- (q.kind, q.edge) :: a.log;
        a.version <- a.version + 1
    | Query ->
        let a = Hashtbl.find r.acked q.sid in
        r.checks <- { sid = q.sid; version = a.version; digest = Digest.string rows; nrows } :: r.checks
    | Close -> ()

let compiled = lazy (Session.compile (unquote program))

let edge_tuple (a, b) = Tuple.of_list [ Value.int Value.U32 a; Value.int Value.U32 b ]

(* The rows of a result exactly as the serve printer writes them, minus
   the [out <n> ] prefix. *)
let render (res : Session.result) =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  let n = ref 0 in
  List.iter
    (fun (pred, rows) ->
      List.iter
        (fun (t, tag) ->
          incr n;
          Fmt.pf ppf "%a::%s%a@." Provenance.Output.pp tag pred Tuple.pp t)
        rows)
    res.Session.outputs;
  (Buffer.contents b, !n)

module IMap = Map.Make (Int)

(* Compare every recorded reply with a cold [Session.run] over the facts
   its session had acknowledged, in the first-assertion order the session
   keeps.  Replies at the same (session, version) share one cold run.
   Returns (replies checked, mismatches). *)
let check_replies shape (r : record) checks =
  let c = Lazy.force compiled in
  let check_session (sid, mine) =
    let mismatches = ref 0 in
    let mine = List.sort (fun a b -> compare a.version b.version) mine in
    let log = Array.of_list (List.rev (Hashtbl.find r.acked sid).log) in
    let order = ref IMap.empty and pos = Hashtbl.create 256 and applied = ref 0 and stamp = ref 0 in
    let advance v =
      while !applied < v do
        let kind, e = log.(!applied) in
        (match kind with
        | Assert ->
            incr stamp;
            Hashtbl.replace pos e !stamp;
            order := IMap.add !stamp e !order
        | _ ->
            order := IMap.remove (Hashtbl.find pos e) !order;
            Hashtbl.remove pos e);
        incr applied
      done
    in
    let expected = ref (-1, Digest.string "", 0) in
    List.iter
      (fun k ->
        let v, _, _ = !expected in
        if v <> k.version then begin
          advance k.version;
          let facts =
            [ ("edge", List.map (fun (_, e) -> (Provenance.Input.none, edge_tuple e)) (IMap.bindings !order)) ]
          in
          let res =
            Session.run ~config:(serve_interp ()) ~provenance:(Registry.create provenance) c ~facts
              ~outputs:[ shape.out_rel ] ()
          in
          let text, n = render res in
          expected := (k.version, Digest.string text, n)
        end;
        let _, d, n = !expected in
        if not (Digest.equal d k.digest && n = k.nrows) then incr mismatches)
      mine;
    !mismatches
  in
  let by_sid = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace by_sid k.sid (k :: Option.value ~default:[] (Hashtbl.find_opt by_sid k.sid))) checks;
  let sessions = Array.of_seq (Hashtbl.to_seq by_sid) in
  (* sessions split over two domains; the check is outside the timed window *)
  let sum_over parity =
    let n = ref 0 in
    Array.iteri (fun i s -> if i mod 2 = parity then n := !n + check_session s) sessions;
    !n
  in
  let odd = Domain.spawn (fun () -> sum_over 1) in
  let even = sum_over 0 in
  (List.length checks, even + Domain.join odd)

(* ---- the pipe client ------------------------------------------------------------- *)

type server = { pid : int; to_srv : out_channel; from_srv : in_channel }

let live_servers : int list ref = ref []

let spawn ~exe ~dir ~err =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process exe [| exe; "serve"; "--state-dir"; dir; "--jobs"; "2" |] in_r out_w errfd in
  List.iter Unix.close [ in_r; out_w; errfd ];
  live_servers := pid :: !live_servers;
  { pid; to_srv = Unix.out_channel_of_descr in_w; from_srv = Unix.in_channel_of_descr out_r }

let reap pid =
  ignore (Unix.waitpid [] pid);
  live_servers := List.filter (( <> ) pid) !live_servers

(* EOF on stdin: the server drains, prints its stats and exits. *)
let stop srv =
  close_out srv.to_srv;
  (try
     while true do
       ignore (input_line srv.from_srv)
     done
   with End_of_file -> ());
  close_in srv.from_srv;
  reap srv.pid

let kill srv =
  Unix.kill srv.pid Sys.sigkill;
  (try close_out srv.to_srv with Sys_error _ -> ());
  close_in_noerr srv.from_srv;
  reap srv.pid

let kill_all () = List.iter (fun pid -> try Unix.kill pid Sys.sigkill; ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) !live_servers

(* A memory figure of a process from /proc, in MB: [field] is "VmHWM"
   (peak resident set) or "VmRSS" (current); [pid] 0 is this process. *)
let status_mb ?(pid = 0) field =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "%s@: %d kB" (fun k kb -> if k = field then Some (float_of_int kb /. 1024.0) else None) |> Option.join)
  |> Option.value ~default:0.0

(* CPU seconds (user + system, all threads) a process has used, from
   /proc; [pid] 0 is this process.  Time the host steals from the VM is
   not in it. *)
let clk_tck =
  lazy
    (let ic = Unix.open_process_args_in "getconf" [| "getconf"; "CLK_TCK" |] in
     let hz = try float_of_string (String.trim (In_channel.input_all ic)) with Failure _ -> 100.0 in
     ignore (Unix.close_process_in ic);
     hz)

let cpu_s ?(pid = 0) () =
  let path = if pid = 0 then "/proc/self/stat" else Printf.sprintf "/proc/%d/stat" pid in
  let line = In_channel.with_open_text path In_channel.input_all in
  (* fields after the parenthesised command name; utime and stime are the
     12th and 13th of them *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. Lazy.force clk_tck

type inflight = { n : int; tenant : int; q : req; sent : float; rows : Buffer.t; mutable nrows : int }

(* Replies come in request order: [out <n> ...] rows, then one
   [done <n> ok|error ...] line. *)
type client = { srv : server; mutable next_n : int; flight : inflight Queue.t }

let send c tenant q =
  output_string c.srv.to_srv q.line;
  output_char c.srv.to_srv '\n';
  flush c.srv.to_srv;
  let rows = Buffer.create (if q.kind = Query then 1024 else 1) in
  Queue.push { n = c.next_n; tenant; q; sent = Mono.now (); rows; nrows = 0 } c.flight;
  c.next_n <- c.next_n + 1

(* Read up to the oldest request's [done] line. *)
let rec await_one c =
  let line = input_line c.srv.from_srv in
  let head = Queue.peek c.flight in
  let sp1 = String.index line ' ' in
  let sp2 = try String.index_from line (sp1 + 1) ' ' with Not_found -> String.length line in
  let n = int_of_string (String.sub line (sp1 + 1) (sp2 - sp1 - 1)) in
  if n <> head.n then failwith (Printf.sprintf "reply for request %d while awaiting %d: %s" n head.n line);
  let rest = if sp2 >= String.length line then "" else String.sub line (sp2 + 1) (String.length line - sp2 - 1) in
  match String.sub line 0 sp1 with
  | "out" ->
      Buffer.add_string head.rows rest;
      Buffer.add_char head.rows '\n';
      head.nrows <- head.nrows + 1;
      await_one c
  | "done" ->
      ignore (Queue.pop c.flight);
      (head, String.length rest >= 2 && String.sub rest 0 2 = "ok", Mono.now ())
  | _ -> failwith ("unexpected reply line: " ^ line)

let finish c (r : record) =
  let f, ok, t = await_one c in
  on_reply r f.q ~ok ~rows:(Buffer.contents f.rows) ~nrows:f.nrows;
  add_lat r f.q.kind ~t (1000.0 *. (t -. f.sent));
  (f, t)

(* Spawn a server on a fresh state dir and set every tenant up: open, load
   and first answer, pipelined.  Returns the client, generators, record and
   the set-up time. *)
let setup_pipe shape ~seed ~exe ~dir ~err =
  let t0 = Mono.now () in
  let srv = spawn ~exe ~dir ~err in
  let c = { srv; next_n = 0; flight = Queue.create () } in
  let gens = Array.init shape.tenants (gen shape ~seed) in
  let r = new_record () in
  Array.iteri (fun t g -> List.iter (send c t) (setup_stream g)) gens;
  while not (Queue.is_empty c.flight) do
    ignore (finish c r)
  done;
  (c, gens, r, Mono.now () -. t0)

(* The closed loop: each tenant sends its next request when the previous
   one is answered, until [seconds] have passed.  Returns the window, with
   the server's CPU time at its slice boundaries, the server's resident
   set sampled at the same boundaries, and the requests completed. *)
let closed_loop c gens (r : record) ~seconds =
  let before = r.attempted in
  let w = Window.start ~cpu:(fun () -> cpu_s ~pid:c.srv.pid ()) in
  let deadline = Window.start_time w +. seconds in
  let rss = ref [] in
  Array.iteri (fun t g -> send c t (next g)) gens;
  while not (Queue.is_empty c.flight) do
    let f, t = finish c r in
    if t >= deadline then Window.close w t
    else if Window.tick w t then rss := status_mb ~pid:c.srv.pid "VmRSS" :: !rss;
    if t < deadline then send c f.tenant (next gens.(f.tenant))
  done;
  (w, !rss, r.attempted - before)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

type pipe_result = {
  setup_s : (float * float) list;  (** each set-up's time and the share stolen during it *)
  window : Window.t;  (** it lasts [seconds]; its CPU readings are the server's *)
  ops : int;
  rec_ : record;  (** the measured window's requests only *)
  rss_mb : float list;  (** VmRSS at the slice boundaries *)
  peak_rss_mb : float;
  checked : int;
  mismatches : int;
  check_s : float;
  recovery_s : float option;  (** serve-ingest: SIGKILL + restart *)
  recovered_ok : bool;
}

(* Restart a killed server on its state dir and ask every open session for
   its answer: all must equal the cold run over what it had acknowledged. *)
let recover shape ~exe ~dir ~err gens (r : record) =
  let t0 = Mono.now () in
  let srv = spawn ~exe ~dir ~err in
  let c = { srv; next_n = 0; flight = Queue.create () } in
  let rr = new_record ~acked:r.acked () in
  let live = List.filter (fun g -> not g.reopen) (Array.to_list gens) in
  List.iter (fun (g : gen) -> send c g.tenant (make g Query (0, 0))) live;
  while not (Queue.is_empty c.flight) do
    ignore (finish c rr)
  done;
  let dt = Mono.now () -. t0 in
  stop srv;
  let checked, bad = check_replies shape rr rr.checks in
  (dt, rr.failed = 0 && checked = List.length live && bad = 0)

let run_pipe shape ~seed ~seconds ~exe ~work ~setups ~durability =
  let dir i = Filename.concat work (Printf.sprintf "state-%d" i) in
  let err = Filename.concat work "serve.stderr" in
  let rec go i acc =
    rm_rf (dir i);
    let ((c, _, _, s) as got), stolen = Window.measure (fun () -> setup_pipe shape ~seed ~exe ~dir:(dir i) ~err) in
    let s = (s, stolen) in
    if i + 1 < setups then begin
      stop c.srv;
      rm_rf (dir i);
      go (i + 1) (s :: acc)
    end
    else (got, List.rev (s :: acc), dir i)
  in
  let (c, gens, setup_rec, _), setup_s, d = go 0 [] in
  let r = new_record ~acked:setup_rec.acked () in
  let window, rss_mb, ops = closed_loop c gens r ~seconds in
  let peak_rss_mb = status_mb ~pid:c.srv.pid "VmHWM" in
  let recovery_s, recovered_ok =
    if durability then begin
      kill c.srv;
      let dt, ok = recover shape ~exe ~dir:d ~err gens r in
      (Some dt, ok)
    end
    else begin
      stop c.srv;
      (None, true)
    end
  in
  rm_rf d;
  let c0 = Mono.now () in
  let checked, mismatches = check_replies shape r (setup_rec.checks @ r.checks) in
  let check_s = Mono.now () -. c0 in
  let setup_bad = setup_rec.failed in
  r.failed <- r.failed + setup_bad;
  { setup_s; window; ops; rec_ = r; rss_mb; peak_rss_mb; checked; mismatches; check_s; recovery_s; recovered_ok }

(* ---- the in-process replay (traced run) -------------------------------------------- *)

type replay_result = {
  r_elapsed : float;
  r_ops : int;
  r_rec : record;
  r_counters : (string * float) list;
}

type item =
  | Reply of { tenant : int; q : req; ok : bool; t_start : float; root : int; req : int }
  | Ticket of {
      tenant : int;
      q : req;
      t_start : float;
      root : int;
      req : int;
      t_sub : float;
      tk : Service.ticket;
      exec : (float * float) Atomic.t;
    }

let ( -- ) a b = float_of_int (a - b)
let per = Stats.per_share

(* One Service and one Durable registry, as [scallop serve] has, driven by
   this domain as the serve reader and a printer domain that awaits query
   tickets in request order and renders their rows.  [next_req tenant] gives
   a tenant's next request, or [None] when it is done. *)
let replay_loop ~svc ~dmgr (r : record) ~next_req ~tenants ~reqno =
  let ready = Queue.create () and rm = Mutex.create () and rc = Condition.create () in
  let outstanding = ref 0 in
  for t = 0 to tenants - 1 do
    Queue.push t ready
  done;
  let pq = Queue.create () and pm = Mutex.create () and pc = Condition.create () in
  let closed = ref false in
  let push it = Mutex.protect pm (fun () -> Queue.push it pq; Condition.signal pc) in
  let release tenant = Mutex.protect rm (fun () -> Queue.push tenant ready; decr outstanding; Condition.signal rc) in
  let finish ~tenant ~q ~ok ~rows ~nrows ~t_start ~root ~req =
    let t1 = Mono.now () in
    Trace.record ~sid:root ~name:"request" ~req ~parent:0 t_start t1;
    on_reply r q ~ok ~rows ~nrows;
    add_lat r q.kind ~t:t1 (1000.0 *. (t1 -. t_start));
    release tenant
  in
  let printer =
    Domain.spawn (fun () ->
        let rec loop () =
          let it =
            Mutex.protect pm (fun () ->
                while Queue.is_empty pq && not !closed do
                  Condition.wait pc pm
                done;
                Queue.take_opt pq)
          in
          match it with
          | None -> ()
          | Some (Reply { tenant; q; ok; t_start; root; req }) ->
              finish ~tenant ~q ~ok ~rows:"" ~nrows:0 ~t_start ~root ~req;
              loop ()
          | Some (Ticket { tenant; q; t_start; root; req; t_sub; tk; exec }) ->
              let o = Service.await svc tk in
              let e0, e1 = Atomic.get exec in
              if e1 > 0.0 then begin
                Trace.record ~sid:(Trace.fresh ()) ~name:"service.queue_wait" ~req ~parent:root t_sub e0;
                r.qwait <- (1000.0 *. (o.Service.latency -. (e1 -. e0))) :: r.qwait
              end;
              let rows, nrows, ok =
                match o.Service.response with
                | Ok res ->
                    let text, n = Trace.span ~name:"decode" ~req ~parent:root (fun _ -> render res) in
                    (text, n, true)
                | Error _ -> ("", 0, false)
              in
              finish ~tenant ~q ~ok ~rows ~nrows ~t_start ~root ~req;
              loop ()
        in
        loop ())
  in
  let pending : (string, Service.ticket list ref) Hashtbl.t = Hashtbl.create 8 in
  let pending_of sid =
    match Hashtbl.find_opt pending sid with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add pending sid l;
        l
  in
  let drain sid =
    let l = pending_of sid in
    List.iter (fun tk -> ignore (Service.await svc tk)) (List.rev !l);
    l := []
  in
  let write ~req ~root name f =
    try
      Trace.span ~name ~req ~parent:root (fun _ -> f ());
      true
    with Session.Error _ -> false
  in
  let dispatch tenant (q : req) =
    let req = !reqno in
    incr reqno;
    let root = Trace.fresh () in
    let t_start = Mono.now () in
    let reply ok = push (Reply { tenant; q; ok; t_start; root; req }) in
    let exists sid = Durable.exists dmgr ~sid in
    match Trace.span ~name:"protocol.parse" ~req ~parent:root (fun _ -> Protocol.parse q.line) with
    | Ok (Protocol.Open { sid; expect_hash; program }) ->
        reply (write ~req ~root "durable.open" (fun () -> ignore (Durable.open_session dmgr ~sid ?expect_hash (unquote program))))
    | Ok (Protocol.Assert { sid; prob; pred; tuple }) when exists sid ->
        Trace.span ~name:"dispatch.drain_wait" ~req ~parent:root (fun _ -> drain sid);
        reply (write ~req ~root "durable.assert" (fun () -> Durable.assert_fact dmgr ~sid ~pred ?prob tuple))
    | Ok (Protocol.Retract { sid; pred; tuple }) when exists sid ->
        Trace.span ~name:"dispatch.drain_wait" ~req ~parent:root (fun _ -> drain sid);
        reply (write ~req ~root "durable.retract" (fun () -> Durable.retract_fact dmgr ~sid ~pred tuple))
    | Ok (Protocol.Close { sid }) when exists sid ->
        Trace.span ~name:"dispatch.drain_wait" ~req ~parent:root (fun _ -> drain sid);
        reply (write ~req ~root "durable.close" (fun () -> ignore (Durable.close dmgr ~sid)))
    | Ok (Protocol.Query { sid; outputs }) when exists sid ->
        let exec = Atomic.make (0.0, 0.0) in
        let t_sub = Mono.now () in
        let tk =
          Service.submit_exec svc (fun ~rung:_ ~config ->
              Trace.span ~name:"service.exec" ~req ~parent:root (fun _ ->
                  let e0 = Mono.now () in
                  let res = Durable.query ?outputs ~budget:config.Interp.budget dmgr ~sid () in
                  Atomic.set exec (e0, Mono.now ());
                  res))
        in
        let l = pending_of sid in
        l := tk :: List.filter (fun t -> Service.poll svc t = None) !l;
        push (Ticket { tenant; q; t_start; root; req; t_sub; tk; exec })
    | _ -> reply false
  in
  let rec loop () =
    let next_t =
      Mutex.protect rm (fun () ->
          while Queue.is_empty ready && !outstanding > 0 do
            Condition.wait rc rm
          done;
          Queue.take_opt ready)
    in
    match next_t with
    | None -> ()
    | Some t ->
        (match next_req t with
        | None -> ()
        | Some q ->
            Mutex.protect rm (fun () -> incr outstanding);
            dispatch t q);
        loop ()
  in
  loop ();
  Mutex.protect pm (fun () ->
      closed := true;
      Condition.broadcast pc);
  Domain.join printer

(* Summed over every session the record has seen open. *)
let incr_totals dmgr (r : record) =
  Hashtbl.fold
    (fun sid _ (q, u, re, co, rc) ->
      let s = Durable.session_stats dmgr ~sid in
      ( q + s.Incr.queries,
        u + s.Incr.update_batches,
        re + s.Incr.strata_reused,
        co + s.Incr.strata_continued,
        rc + s.Incr.strata_recomputed ))
    r.acked (0, 0, 0, 0, 0)

(* Replay the workload's streams in-process for [seconds].  Returns the
   window's latencies and the layer counters measured over it. *)
let run_replay shape ~seed ~seconds ~dir ~traced =
  rm_rf dir;
  Trace.on := traced;
  Session.clear_plan_cache ();
  let pc0 = Session.plan_cache_stats () in
  let interp = serve_interp () in
  let svc = Service.create ~config:{ (Service.default_config ()) with Service.jobs = 2; interp } provenance in
  let dmgr =
    Durable.create
      (Durable.config ~state_dir:dir ~snapshot_every:64 ~wal_sync:true ~group_commit:true ~interp provenance)
  in
  let gens = Array.init shape.tenants (gen shape ~seed) in
  let reqno = ref 0 in
  let setup = new_record () in
  let streams = Array.map setup_stream gens in
  replay_loop ~svc ~dmgr setup ~tenants:shape.tenants ~reqno ~next_req:(fun t ->
      match streams.(t) with
      | [] -> None
      | q :: rest ->
          streams.(t) <- rest;
          Some q);
  let open_ms = Stats.median (Trace.durations_ms "durable.open" (Trace.all ())) in
  Trace.reset ();
  let ds0 = Durable.stats dmgr in
  let bytes0 = ds0.Durable.wal_bytes and snaps0 = ds0.Durable.snapshots in
  let group () = match dmgr.Durable.wal_group with Some g -> Wal.Group.stats g | None -> (0, 0) in
  let syncs0, gappends0 = group () in
  let sv0 = Service.stats svc in
  let q0, u0, re0, co0, rc0 = incr_totals dmgr setup in
  let r = new_record ~acked:setup.acked () in
  let t0 = Mono.now () in
  let deadline = t0 +. seconds in
  replay_loop ~svc ~dmgr r ~tenants:shape.tenants ~reqno ~next_req:(fun t ->
      if Mono.now () >= deadline then None else Some (next gens.(t)));
  let elapsed = Mono.now () -. t0 in
  Trace.on := false;
  let ds = Durable.stats dmgr in
  let syncs, gappends = group () in
  let sv = Service.stats svc in
  let q, u, re, co, rc = incr_totals dmgr r in
  let pc = Session.plan_cache_stats () in
  let hits = pc.Session.hits - pc0.Session.hits and misses = pc.Session.misses - pc0.Session.misses in
  Service.shutdown svc;
  Durable.shutdown dmgr;
  rm_rf dir;
  let writes = float_of_int (List.length (lats r Assert) + List.length (lats r Retract)) in
  let ops = float_of_int r.attempted in
  let queries = q -- q0 in
  let strata = (re -- re0) +. (co -- co0) +. (rc -- rc0) in
  let counters =
    [
      ("session.plan_cache_hit_rate", per (float_of_int hits) (float_of_int (hits + misses)));
      ("durable.open_ms", open_ms);
      ("service.retries", sv.Service.retries -- sv0.Service.retries);
      ("service.shed", sv.Service.shed -- sv0.Service.shed);
      ("incr.strata_reused_per_query", per (re -- re0) queries);
      ("incr.strata_continued_per_query", per (co -- co0) queries);
      ("incr.strata_recomputed_per_query", per (rc -- rc0) queries);
      ("incr.recompute_frac", per (rc -- rc0) strata);
      ("incr.update_batches_per_query", per (u -- u0) queries);
      ("durable.snapshots_per_kop", 1000.0 *. per (ds.Durable.snapshots -- snaps0) ops);
      ("wal.fsyncs_per_op", per (syncs -- syncs0) ops);
      ("wal.appends_per_fsync", per (gappends -- gappends0) (syncs -- syncs0));
      ("wal.bytes_per_op", per (ds.Durable.wal_bytes -- bytes0) writes);
    ]
  in
  { r_elapsed = elapsed; r_ops = r.attempted; r_rec = r; r_counters = counters }

(* Fixpoint iterations per query, counted with the interpreter's stats sink
   in a sequential pass over the same tenant streams (the sink is not
   shared across worker domains).  Each tenant's sequence is what it sends
   in every run, so the count is the same as under concurrency. *)
let count_iterations shape ~seed ~seconds =
  let sink = Interp.empty_stats () in
  let dmgr = Durable.create (Durable.config ~interp:{ (serve_interp ()) with Interp.stats = Some sink } provenance) in
  let apply (q : req) =
    match Protocol.parse q.line with
    | Ok (Protocol.Open { sid; program; _ }) -> ignore (Durable.open_session dmgr ~sid (unquote program))
    | Ok (Protocol.Assert { sid; prob; pred; tuple }) -> Durable.assert_fact dmgr ~sid ~pred ?prob tuple
    | Ok (Protocol.Retract { sid; pred; tuple }) -> Durable.retract_fact dmgr ~sid ~pred tuple
    | Ok (Protocol.Query { sid; outputs }) -> ignore (Durable.query ?outputs dmgr ~sid ())
    | Ok (Protocol.Close { sid }) -> ignore (Durable.close dmgr ~sid)
    | _ -> ()
  in
  let iters = ref 0 and queries = ref 0 in
  for t = 0 to shape.tenants - 1 do
    let g = gen shape ~seed t in
    List.iter apply (setup_stream g);
    let deadline = Mono.now () +. (seconds /. float_of_int shape.tenants) in
    let before = sink.Interp.fixpoint_iterations in
    while Mono.now () < deadline do
      let q = next g in
      apply q;
      if q.kind = Query then incr queries
    done;
    iters := !iters + sink.Interp.fixpoint_iterations - before
  done;
  per (float_of_int !iters) (float_of_int !queries)
