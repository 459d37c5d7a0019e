(** The cluster executor: one supervisor over socket-attached worker
    processes, local or multi-host (DESIGN.md §16).

    Serialized chunk programs go out, chunk values come back, and the
    chunk plan is a pure function of the loop size and the {e
    configured} worker count.  Workers are {!worker_main} clients: a
    locally forked child, or the [dmll_worker] binary on another host.
    A forked child starts on a stream socket the master opened for it
    before the fork, and keeps the inputs it inherited; a remote worker
    dials the master and handshakes with a protocol version and session
    token.  Either way chunk programs travel over the shared
    length-prefixed CRC32 {!Transport} codec, and a dropped link is
    redialled through the same handshake.  {!Proc_cluster} is this
    executor with local workers and no reconnect grace.

    Robustness model, layered from the wire up:
    {ul
    {- {b Frame integrity}: every frame is CRC32-checksummed; a worker
       that receives a corrupt frame answers [Bad_frame] and the master
       retransmits the in-flight task with jittered backoff, within a
       bounded resend budget.}
    {- {b Liveness}: keepalive pings with deadlines run {e inside} the
       event loop (idle links) and at loop boundaries (everyone); a
       dispatched chunk unanswered past its deadline marks the link
       hung.}
    {- {b Reconnect-and-resume}: a dropped link opens a grace window;
       the worker redials with its session id and, within the window,
       its in-flight chunks are replayed from the retained chunk plan —
       merges stay bit-identical because chunk identity, not link
       identity, orders the merge.}
    {- {b Permanent loss}: past the grace window (or on a hard kill)
       the slot's chunks are replanned onto survivors with
       {!Schedule.replan} and a replacement is admitted within the
       respawn budget; past the budget the run degrades, ultimately to
       master-inline evaluation.}
    {- {b Fault injection}: with faults armed, local workers are
       murdered for real (SIGKILL, SIGSTOP, link cut) and every
       outgoing master→worker frame draws a {!Fault.link_fate} —
       partition, sever, corrupt, delay — delivered on the live socket
       by the {!Transport.conn} wrapper, keyed by slot so a reconnected
       link continues its predecessor's fate stream.}
    {- {b Checkpoints}: cadenced spine snapshots, optionally written
       crash-safe to disk and restored on resume.}}

    Determinism contract: a faulty run merges the same chunk partials in
    the same order as a healthy run (bit-identical values), and
    healthy-vs-interpreter agreement is bit-identical for exact merges,
    1e-6 relative for reassociated float reductions. *)

open Dmll_ir
module V = Dmll_interp.Value
module M = Dmll_machine.Machine
module Span = Dmll_obs.Span
module Metrics = Dmll_obs.Metrics
module Prng = Dmll_util.Prng

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

let protocol_version = 1

(** First frame on every new connection, worker → master.  [reconnect]
    carries the session id of a previous incarnation to resume. *)
type hello = { version : int; token : string; reconnect : int option }

type task = {
  task_id : int;
  loop_no : int;
  chunk : int;
  base_attempt : int;
      (** offset into the chunk's injected-fate attempt sequence, bumped
          per dispatch so a redispatched chunk draws fresh fates *)
  prog : Exp.exp;  (** closed chunk program (pure data, marshalable) *)
  bindings : (string * V.t) list;  (** pseudo-input values for [prog] *)
}

(** Master's handshake answer.  [Accepted] carries everything a remote
    worker needs to join the computation: its slot (which keys the
    deterministic fault streams), its session id (the reconnect
    credential), the fault spec, and the program inputs. *)
type welcome =
  | Accepted of {
      slot : int;
      wid : int;
      spec : M.fault_model option;
      inputs : (string * V.t) list;
      heartbeat_s : float;
    }
  | Rejected of { reason : string }

type to_worker = Task of task | Ping of int | Shutdown

type from_worker =
  | Done of { task_id : int; chunk : int; value : V.t; retries : int }
  | Refused of { task_id : int; chunk : int; msg : string }
  | Pong of int
  | Bad_frame of { detail : string }
      (** the worker rejected a corrupt (CRC-failed) frame; the master
          retransmits the in-flight task within a resend budget *)

exception Worker_gone = Transport.Peer_gone
exception Frame_timeout = Transport.Frame_timeout

(* how many times one dispatched task is retransmitted on [Bad_frame]
   before the link is declared hostile and the slot retired *)
let resend_budget = 3

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  workers : int;  (** slots (and the fixed chunk fan-out) *)
  listen : string option;
      (** [HOST:PORT] to bind; [None] binds a Unix-domain socket in a
          fresh owner-only directory when [spawn_local] (pure local
          mode), else loopback on an ephemeral port *)
  token : string option;
      (** session token required in every hello; [None] generates one *)
  spawn_local : bool;
      (** fork local worker processes, each joined from birth on its
          own link; [false] waits for external [dmll_worker] processes
          to attach *)
  faults : Fault.t option;
      (** arms worker-side chunk faults, master-side process murder of
          local workers (SIGKILL / SIGSTOP / link cut), {e and} per-frame
          link faults on every master→worker connection *)
  task_deadline_s : float;
      (** a dispatched chunk unanswered for this long marks the link
          hung: retire + replan *)
  heartbeat_s : float;
      (** keepalive ping cadence on idle links; three missed pongs
          declare the link dead *)
  reconnect_grace_s : float;
      (** how long a dropped link's chunks are retained for its worker
          to redial and resume; [<= 0.] disables reconnection *)
  join_deadline_s : float;  (** how long {!run} waits for initial joins *)
  accept_deadline_s : float;
      (** a dialer must complete its hello within this long *)
  max_respawns : int;
      (** replacement-admission budget for the whole run (forked
          replacements in local mode, fresh dials in listen mode) *)
  worker_redials : int;
      (** reconnect attempts a locally forked worker makes per lost
          link *)
  checkpoint_cadence : int;  (** snapshot every N spine loops; [<=0] off *)
  checkpoint_dir : string option;
      (** where crash-safe snapshot files go ({!Checkpoint.write_file}) *)
  resume : bool;
      (** restore spine bindings from the latest verified snapshot in
          [checkpoint_dir] instead of recomputing them *)
  obs : Span.t option;
  metrics : Metrics.t option;
  on_spawn : (slot:int -> pid:int -> unit) option;
      (** test hook, called by the master after every local fork *)
  on_task_sent : (slot:int -> chunk:int -> unit) option;
      (** test hook, called right after a task frame is written and
          before its first reply can arrive *)
  on_listen : (addr:string -> unit) option;
      (** called once with the bound address ([HOST:PORT], or the
          socket path in pure local mode) before any worker is
          spawned *)
}

let default_config =
  { workers = 2;
    listen = None;
    token = None;
    spawn_local = true;
    faults = None;
    task_deadline_s = 5.0;
    heartbeat_s = 0.25;
    reconnect_grace_s = 0.5;
    join_deadline_s = 10.0;
    accept_deadline_s = 2.0;
    max_respawns = 8;
    worker_redials = 2;
    checkpoint_cadence = 0;
    checkpoint_dir = None;
    resume = false;
    obs = None;
    metrics = None;
    on_spawn = None;
    on_task_sent = None;
    on_listen = None;
  }

(* ------------------------------------------------------------------ *)
(* Run statistics                                                      *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable spawned : int;  (** local forks, initial and replacement *)
  mutable respawned : int;  (** replacement admissions against the budget *)
  mutable connects : int;  (** fresh sessions accepted *)
  mutable reconnects : int;  (** resumed sessions accepted *)
  mutable rejections : int;  (** hellos refused (version/token/slot/grace) *)
  mutable disconnects : int;  (** links lost into a grace window *)
  mutable grace_expired : int;  (** grace windows that ran out *)
  mutable killed : int;  (** injected murders (SIGKILL or link cut) *)
  mutable link_cuts : int;  (** injected master-side link severs *)
  mutable stopped : int;  (** injected SIGSTOP straggles *)
  mutable deadline_kills : int;
  mutable heartbeat_kills : int;
  mutable frame_resends : int;  (** tasks retransmitted after [Bad_frame] *)
  mutable io_retries : int;
  mutable replans : int;
  mutable recovered_chunks : int;
  mutable master_chunks : int;
  mutable worker_retries : int;
  mutable pings : int;
  mutable pongs : int;
  mutable checkpoints : int;
  mutable restored_loops : int;
  mutable degraded : bool;  (** ran short-handed after budget exhaustion *)
  mutable pids : int list;  (** every local child pid ever forked *)
}

let fresh_stats () =
  { spawned = 0; respawned = 0; connects = 0; reconnects = 0; rejections = 0;
    disconnects = 0; grace_expired = 0; killed = 0; link_cuts = 0;
    stopped = 0; deadline_kills = 0; heartbeat_kills = 0; frame_resends = 0;
    io_retries = 0; replans = 0; recovered_chunks = 0; master_chunks = 0;
    worker_retries = 0; pings = 0; pongs = 0; checkpoints = 0;
    restored_loops = 0; degraded = false; pids = [];
  }

let stats_to_string (s : stats) : string =
  Printf.sprintf
    "spawned=%d respawned=%d connects=%d reconnects=%d rejections=%d \
     disconnects=%d grace_expired=%d killed=%d link_cuts=%d stopped=%d \
     deadline_kills=%d heartbeat_kills=%d frame_resends=%d io_retries=%d \
     replans=%d recovered_chunks=%d master_chunks=%d worker_retries=%d \
     pings=%d pongs=%d checkpoints=%d restored_loops=%d degraded=%b"
    s.spawned s.respawned s.connects s.reconnects s.rejections s.disconnects
    s.grace_expired s.killed s.link_cuts s.stopped s.deadline_kills
    s.heartbeat_kills s.frame_resends s.io_retries s.replans
    s.recovered_chunks s.master_chunks s.worker_retries s.pings s.pongs
    s.checkpoints s.restored_loops s.degraded

type result = {
  value : V.t;
  seconds : float;  (** wall-clock *)
  breakdown : (string * float) list;  (** per-spine-loop wall seconds *)
  stats : stats;
  metrics : Metrics.t;
}

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)
(* ------------------------------------------------------------------ *)

(* [HOST:PORT], or an absolute path for the Unix-domain socket of pure
   local mode *)
let sockaddr_of_string (addr : string) : Unix.sockaddr =
  if String.starts_with ~prefix:"/" addr then Unix.ADDR_UNIX addr
  else
    match String.rindex_opt addr ':' with
    | None -> invalid_arg ("net address must be HOST:PORT: " ^ addr)
    | Some i ->
        let host = String.sub addr 0 i in
        let port =
          match
            int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1))
          with
          | Some p when p >= 0 && p < 65536 -> p
          | _ -> invalid_arg ("bad port in net address: " ^ addr)
        in
        let ip =
          if host = "" then Unix.inet_addr_loopback
          else
            try Unix.inet_addr_of_string host
            with Failure _ -> (
              try (Unix.gethostbyname host).Unix.h_addr_list.(0)
              with Not_found | Invalid_argument _ ->
                invalid_arg ("unresolvable host in net address: " ^ host))
        in
        Unix.ADDR_INET (ip, port)

let string_of_sockaddr = function
  | Unix.ADDR_INET (ip, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
  | Unix.ADDR_UNIX p -> p

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()
let signal_quiet pid sg = try Unix.kill pid sg with Unix.Unix_error _ -> ()

let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

(* Bounded retry with exponential backoff on transient I/O errors —
   resource-pressure failures that clear on their own, as opposed to the
   peer-is-dead errors that surface as [Worker_gone]. *)
let io_retry_budget = 5

let with_io_retry (stats : stats) (f : unit -> 'a) : 'a =
  let rec go attempt =
    try f () with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ENOBUFS), _, _)
      when attempt < io_retry_budget ->
        stats.io_retries <- stats.io_retries + 1;
        Unix.sleepf (1e-4 *. (2.0 ** float_of_int attempt));
        go (attempt + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Worker client                                                       *)
(* ------------------------------------------------------------------ *)

(* The worker side: runs in a locally forked child or in a standalone
   [dmll_worker] process on another host.  A forked child starts on the
   link and welcome its master made before the fork ([joined]), so its
   inputs are the master's own, shared by the fork; everyone else dials
   in.  Exit codes: 0 = orderly (Shutdown, master gone, redial budget
   spent after having served), 2 = internal error, 3 = injected permanent
   crash, 4 = never managed to join. *)

let worker_client ?(redials = 2) ?(dial_attempts = 25) ?(dial_backoff_s = 0.02)
    ?joined ~(addr : string) ~(token : string) () : int =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sa = sockaddr_of_string addr in
  let redials_left = ref redials in
  let dial () =
    let rec go k =
      let fd =
        Unix.socket ~cloexec:true
          (Unix.domain_of_sockaddr sa)
          Unix.SOCK_STREAM 0
      in
      match Unix.connect fd sa with
      | () ->
          set_nodelay fd;
          Some fd
      | exception Unix.Unix_error _ ->
          close_quiet fd;
          if k + 1 >= dial_attempts then None
          else begin
            (* jittered-free bounded exponential backoff between dials *)
            Unix.sleepf
              (Float.min 0.5 (dial_backoff_s *. (2.0 ** float_of_int (Stdlib.min k 5))));
            go (k + 1)
          end
    in
    go 0
  in
  let eval_task ~(jitter : Prng.t) ~(inj : Fault.t option)
      ~(inputs : (string * V.t) list) (t : task) : from_worker =
    let retries = ref 0 in
    let rec attempt k =
      let retry_now =
        match inj with
        | None -> false
        | Some inj -> (
            let s = Fault.spec inj in
            match
              Fault.chunk_fate inj ~loop:t.loop_no ~chunk:t.chunk
                ~attempt:(t.base_attempt + k)
            with
            | Fault.Chunk_fail { transient = true } when k < s.M.max_retries ->
                true
            | Fault.Chunk_fail _ ->
                (* a real crash: die mid-task, lineage recovers the chunk *)
                Unix._exit 3
            | Fault.Chunk_slow { slowdown } ->
                Unix.sleepf (Float.min 2e-3 (1e-4 *. slowdown));
                false
            | Fault.Chunk_ok -> false)
      in
      if retry_now then begin
        incr retries;
        let backoff =
          match inj with
          | Some inj -> Fault.backoff_s (Fault.spec inj) ~attempt:k
          | None -> 1e-4
        in
        Unix.sleepf (Float.min 2e-3 (backoff *. (1.0 +. Prng.float jitter 0.5)));
        attempt (k + 1)
      end
      else
        match Dmll_backend.Closure.run ~inputs:(t.bindings @ inputs) t.prog with
        | v ->
            Done
              { task_id = t.task_id; chunk = t.chunk; value = v;
                retries = !retries }
        | exception e ->
            Refused
              { task_id = t.task_id; chunk = t.chunk;
                msg = Printexc.to_string e }
    in
    attempt 0
  in
  let rec session ~(reconnect : int option) : int =
    match dial () with
    | None -> if reconnect = None then 4 else 0
    | Some fd -> (
        let h = { version = protocol_version; token; reconnect } in
        match
          Transport.write_frame fd h;
          (Transport.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) fd
            : welcome)
        with
        | exception _ ->
            close_quiet fd;
            if reconnect = None then 4 else 0
        | welcome -> start fd ~first:(reconnect = None) welcome)
  and start fd ~first (welcome : welcome) : int =
    match welcome with
    | Rejected _ ->
        (* the master refused us: it has already replanned whatever we
           held, so this exit is orderly *)
        close_quiet fd;
        if first then 4 else 0
    | Accepted { slot; wid; spec; inputs; heartbeat_s = _ } ->
        let jitter =
          Prng.create
            (match spec with
            | Some s -> Fault.worker_seed s ~worker:slot
            | None -> slot + 1)
        in
        let inj = Option.map Fault.create spec in
        serve fd ~wid ~jitter ~inj ~inputs
  and serve fd ~wid ~jitter ~inj ~inputs : int =
    let lost () =
      close_quiet fd;
      if !redials_left > 0 then begin
        decr redials_left;
        Unix.sleepf dial_backoff_s;
        session ~reconnect:(Some wid)
      end
      else 0
    in
    let reply (m : from_worker) (k : unit -> int) : int =
      match Transport.write_frame fd m with
      | () -> k ()
      | exception Transport.Peer_gone -> lost ()
    in
    match (Transport.read_frame fd : to_worker) with
    | exception (Transport.Peer_gone | End_of_file) -> lost ()
    | exception Transport.Corrupt_frame d ->
        (* CRC/structure rejection: ask the master to retransmit *)
        reply
          (Bad_frame { detail = Dmll_analysis.Diag.to_string d })
          (fun () -> serve fd ~wid ~jitter ~inj ~inputs)
    | Shutdown ->
        close_quiet fd;
        0
    | Ping k -> reply (Pong k) (fun () -> serve fd ~wid ~jitter ~inj ~inputs)
    | Task t ->
        reply
          (eval_task ~jitter ~inj ~inputs t)
          (fun () -> serve fd ~wid ~jitter ~inj ~inputs)
  in
  match joined with
  | Some (fd, welcome) -> start fd ~first:true welcome
  | None -> session ~reconnect:None

let worker_main ?redials ?dial_attempts ?dial_backoff_s ~addr ~token () =
  worker_client ?redials ?dial_attempts ?dial_backoff_s ~addr ~token ()

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)
(* ------------------------------------------------------------------ *)

type worker = {
  slot : int;
  mutable wid : int;  (** current session id; 0 = never joined *)
  mutable pid : int option;  (** locally forked process, when any *)
  mutable conn : Transport.conn option;
  mutable retired : bool;  (** permanently out (budget or permanent kill) *)
  mutable grace_until : float option;  (** open reconnect window *)
  mutable retained : int list;  (** chunks held for reconnect replay *)
  mutable task : (int * float) option;  (** in-flight chunk, abs deadline *)
  mutable queue : int list;
  mutable last_task : task option;  (** for [Bad_frame] retransmission *)
  mutable resends_left : int;
  mutable fate_cursor : int;
      (** next link-fate frame index for this slot — survives reconnects
          so a resumed link continues its predecessor's fate stream *)
  mutable missed : int;  (** keepalive pings sent without any reply *)
  mutable last_rx : float;
  mutable stopped_until : float option;
}

let fresh_worker (slot : int) : worker =
  { slot; wid = 0; pid = None; conn = None; retired = false;
    grace_until = None; retained = []; task = None; queue = [];
    last_task = None; resends_left = resend_budget; fate_cursor = 0;
    missed = 0; last_rx = 0.0; stopped_until = None;
  }

type pool = {
  cfg : config;
  token : string;
  listen_fd : Unix.file_descr;
  addr : string;  (** the bound address workers dial *)
  sock_dir : string option;
      (** owner-only directory holding the pure-local-mode socket *)
  inputs : (string * V.t) list;
  metrics : Metrics.t;
  stats : stats;
  members : worker array;  (** one entry per slot, fixed for the run *)
  mutable unreaped : int list;
  mutable respawns_left : int;
  mutable next_wid : int;
  store : Checkpoint.t option;
}

let find_member (pool : pool) (p : worker -> bool) : worker option =
  Array.find_opt p pool.members

let connected (pool : pool) : worker list =
  Array.to_list pool.members |> List.filter (fun w -> w.conn <> None)

let instant (pool : pool) (name : string) ~(slot : int) : unit =
  match pool.cfg.obs with
  | None -> ()
  | Some tr ->
      Span.emit_now tr ~tid:Span.runtime_tid ~cat:"net" ~name
        ~args:[ ("slot", Span.Int slot) ]
        ~started_us:(Span.now_us tr) ()

(* Tear down a link, flushing its byte counters into per-link and
   aggregate metrics first so no traffic is lost to the teardown. *)
let drop_conn (pool : pool) (w : worker) : unit =
  match w.conn with
  | None -> ()
  | Some c ->
      let link = Printf.sprintf "net_link_%d" w.slot in
      Metrics.add_bytes pool.metrics (link ^ "_bytes_out")
        (float_of_int (Transport.bytes_out c));
      Metrics.add_bytes pool.metrics (link ^ "_bytes_in")
        (float_of_int (Transport.bytes_in c));
      Metrics.add_bytes pool.metrics "net_bytes_out"
        (float_of_int (Transport.bytes_out c));
      Metrics.add_bytes pool.metrics "net_bytes_in"
        (float_of_int (Transport.bytes_in c));
      let inj = Transport.injected_faults c in
      if inj > 0 then
        Metrics.incr pool.metrics ~by:inj "net_injected_link_faults";
      Transport.close c;
      w.conn <- None

let reap_blocking (pool : pool) (pid : int) : unit =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  pool.unreaped <- List.filter (fun p -> p <> pid) pool.unreaped

let kill_pid (pool : pool) (w : worker) : unit =
  match w.pid with
  | None -> ()
  | Some pid ->
      signal_quiet pid Sys.sigcont;
      signal_quiet pid Sys.sigkill;
      reap_blocking pool pid;
      w.pid <- None

let welcome_for (pool : pool) (w : worker) : welcome =
  Accepted
    { slot = w.slot; wid = w.wid; spec = Option.map Fault.spec pool.cfg.faults;
      inputs = pool.inputs; heartbeat_s = pool.cfg.heartbeat_s }

let attach (pool : pool) (w : worker) (fd : Unix.file_descr) : unit =
  let fate =
    match pool.cfg.faults with
    | None -> None
    | Some inj ->
        Some
          (fun ~frame:_ ->
            let k = w.fate_cursor in
            w.fate_cursor <- k + 1;
            Fault.link_fate inj ~slot:w.slot ~frame:k)
  in
  w.conn <- Some (Transport.attach ?fate fd);
  w.last_rx <- Unix.gettimeofday ();
  w.missed <- 0;
  w.resends_left <- resend_budget

(* Fork a local worker on a link made before the fork: the master keeps
   one end of a connected stream-socket pair, the child serves on the
   other with the inputs the fork shared, so a slot's pid and link belong
   together from birth and a child wedged before its first reply is
   caught by the liveness gate like any silent worker.  A dropped link
   is redialled through the listener's handshake.  The child drops the
   listener and every master-side link first, so its lifetime never
   holds a peer's EOF detection open.  This is the only fork site of the
   cluster runtime; a process that has spawned domains cannot fork,
   which surfaces as rule R-FORK-AFTER-DOMAINS. *)
let fork_local (pool : pool) (w : worker) : unit =
  let mine, theirs =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let peer_fds =
    mine :: pool.listen_fd
    :: List.filter_map (fun m -> Option.map Transport.conn_fd m.conn)
         (Array.to_list pool.members)
  in
  w.wid <- pool.next_wid;
  pool.next_wid <- pool.next_wid + 1;
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | exception Failure msg ->
      close_quiet mine;
      close_quiet theirs;
      raise
        (Dmll_analysis.Diag.Failed
           { stage = "cluster";
             diags =
               [ Dmll_analysis.Diag.error ~rule:"R-FORK-AFTER-DOMAINS"
                   "cannot fork a local worker for slot %d: %s; run \
                    cluster targets before any Domain is spawned, or \
                    attach external dmll_worker processes"
                   w.slot msg ];
           })
  | 0 ->
      let code =
        try
          List.iter close_quiet peer_fds;
          worker_client ~redials:pool.cfg.worker_redials
            ~joined:(theirs, welcome_for pool w)
            ~addr:pool.addr ~token:pool.token ()
        with _ -> 2
      in
      Unix._exit code
  | pid ->
      close_quiet theirs;
      pool.stats.spawned <- pool.stats.spawned + 1;
      pool.stats.pids <- pid :: pool.stats.pids;
      pool.unreaped <- pid :: pool.unreaped;
      Metrics.incr pool.metrics "net_spawned";
      w.pid <- Some pid;
      attach pool w mine;
      pool.stats.connects <- pool.stats.connects + 1;
      Metrics.incr pool.metrics "net_connects";
      instant pool "net-connect" ~slot:w.slot;
      (match pool.cfg.on_spawn with Some f -> f ~slot:w.slot ~pid | None -> ())

(* Budgeted replacement admission: in local mode fork a fresh process
   for the slot; in listen mode just reopen the slot for the next
   external dial.  Past the budget the slot is retired and the run is
   degraded. *)
let respawn_or_degrade (pool : pool) (w : worker) : unit =
  if pool.respawns_left > 0 then begin
    pool.respawns_left <- pool.respawns_left - 1;
    pool.stats.respawned <- pool.stats.respawned + 1;
    Metrics.incr pool.metrics "net_respawned";
    if pool.cfg.spawn_local then fork_local pool w
  end
  else begin
    w.retired <- true;
    pool.stats.degraded <- true
  end

(* Take the slot out permanently (modulo replacement admission),
   returning the chunks it still held so the caller can replan them.
   The session id is invalidated so a stale reconnect can never claim
   the replanned work back. *)
let retire_slot (pool : pool) (w : worker) ~(respawn : bool) : int list =
  drop_conn pool w;
  kill_pid pool w;
  let lost =
    (match w.task with Some (i, _) -> [ i ] | None -> [])
    @ w.queue @ w.retained
  in
  w.task <- None;
  w.queue <- [];
  w.retained <- [];
  w.last_task <- None;
  w.grace_until <- None;
  w.stopped_until <- None;
  w.missed <- 0;
  w.resends_left <- resend_budget;
  w.wid <- 0;
  if respawn then respawn_or_degrade pool w
  else begin
    w.retired <- true;
    pool.stats.degraded <- true
  end;
  lost

(* A lost link whose worker may come back: retain its chunks and open
   the grace window. *)
let enter_grace (pool : pool) (w : worker) ~(now : float) : unit =
  drop_conn pool w;
  let inflight = match w.task with Some (i, _) -> [ i ] | None -> [] in
  w.retained <- w.retained @ inflight @ w.queue;
  w.task <- None;
  w.queue <- [];
  w.missed <- 0;
  w.grace_until <- Some (now +. pool.cfg.reconnect_grace_s);
  pool.stats.disconnects <- pool.stats.disconnects + 1;
  Metrics.incr pool.metrics "net_disconnects"

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

let welcome_and_attach (pool : pool) (w : worker) (fd : Unix.file_descr) : bool
    =
  (* the handshake itself is injection-exempt: faults model the data
     plane, and an unjoinable cluster would just test the dial loop *)
  match Transport.write_frame fd (welcome_for pool w) with
  | exception _ -> false
  | () ->
      attach pool w fd;
      true

let max_hello_bytes = 4096

let hello_of_plain : Transport.plain -> hello option = function
  | Transport.Block (0, [| Int version; Str token; reconnect |]) -> (
      match reconnect with
      | Transport.Int 0 -> Some { version; token; reconnect = None }
      | Transport.Block (0, [| Int wid |]) ->
          Some { version; token; reconnect = Some wid }
      | _ -> None)
  | _ -> None

(* compare every byte, so the time taken does not leak a token prefix *)
let same_token (a : string) (b : string) : bool =
  String.length a = String.length b
  &&
  let d = ref 0 in
  String.iteri (fun i c -> d := !d lor (Char.code c lxor Char.code b.[i])) a;
  !d = 0

(* Accept one pending dial and run its handshake synchronously.
   Returns the (re)joined worker so an in-loop caller can dispatch it.
   The dialer has not authenticated yet, so its hello is decoded without
   [Marshal] ({!Transport.read_plain_frame}), capped in size, and must
   arrive within the accept deadline.  The accepted socket is guarded by
   [Fun.protect]: every rejection and every handshake error closes it. *)
let accept_one (pool : pool) : worker option =
  match Unix.accept ~cloexec:true pool.listen_fd with
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
    ->
      None
  | fd, _peer ->
      (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
      set_nodelay fd;
      let keep = ref false in
      let joined = ref None in
      Fun.protect
        ~finally:(fun () -> if not !keep then close_quiet fd)
        (fun () ->
          let now = Unix.gettimeofday () in
          let reject reason =
            pool.stats.rejections <- pool.stats.rejections + 1;
            Metrics.incr pool.metrics "net_rejections";
            try Transport.write_frame fd (Rejected { reason })
            with _ -> ()
          in
          let hello =
            match
              Transport.read_plain_frame
                ~deadline:(now +. pool.cfg.accept_deadline_s)
                ~max_bytes:max_hello_bytes fd
            with
            | p -> hello_of_plain p
            | exception
                ( Transport.Peer_gone | Transport.Frame_timeout
                | Transport.Corrupt_frame _ ) ->
                None
          in
          (match hello with
          | None -> reject "malformed hello"
          | Some h ->
              if h.version <> protocol_version then
                reject
                  (Printf.sprintf "protocol version mismatch: got %d, want %d"
                     h.version protocol_version)
              else if not (same_token h.token pool.token) then
                reject "bad session token"
              else (
                match h.reconnect with
                | Some wid -> (
                    match
                      find_member pool (fun w ->
                          w.wid = wid && wid <> 0 && not w.retired)
                    with
                    | None -> reject "unknown session"
                    | Some w -> (
                        match w.grace_until with
                        | Some t when now > t ->
                            (* refused; the in-loop grace sweep retires
                               the slot and replans its chunks *)
                            reject "grace window expired"
                        | _ ->
                            if w.conn <> None then begin
                              (* the old link is superseded: retain its
                                 in-flight work before resuming *)
                              drop_conn pool w;
                              (match w.task with
                              | Some (i, _) -> w.retained <- w.retained @ [ i ]
                              | None -> ());
                              w.retained <- w.retained @ w.queue;
                              w.queue <- [];
                              w.task <- None
                            end;
                            if welcome_and_attach pool w fd then begin
                              (* resume: replay the retained chunk plan *)
                              w.queue <- w.retained;
                              w.retained <- [];
                              w.grace_until <- None;
                              pool.stats.reconnects <-
                                pool.stats.reconnects + 1;
                              Metrics.incr pool.metrics "net_reconnects";
                              instant pool "net-reconnect" ~slot:w.slot;
                              joined := Some w
                            end))
                | None -> (
                    match
                      find_member pool (fun w ->
                          w.conn = None && w.grace_until = None
                          && not w.retired)
                    with
                    | None -> reject "no free slot"
                    | Some w ->
                        w.wid <- pool.next_wid;
                        pool.next_wid <- pool.next_wid + 1;
                        if welcome_and_attach pool w fd then begin
                          pool.stats.connects <- pool.stats.connects + 1;
                          Metrics.incr pool.metrics "net_connects";
                          instant pool "net-connect" ~slot:w.slot;
                          joined := Some w
                        end)));
          keep := !joined <> None;
          !joined)

let drain_accepts (pool : pool) : unit =
  let rec go () =
    match Unix.select [ pool.listen_fd ] [] [] 0.0 with
    | [], _, _ -> ()
    | _ ->
        ignore (accept_one pool);
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  go ()

(* Wait for the initial membership: every slot connected, or the join
   deadline.  Local forks are connected from birth; this waits for
   external dialers.  Slots that never joined are retired up front
   (degraded short-handed start) so the first plan reflects reality. *)
let join_gate (pool : pool) : unit =
  let deadline = Unix.gettimeofday () +. pool.cfg.join_deadline_s in
  let waiting () =
    Array.exists (fun w -> w.conn = None && not w.retired) pool.members
  in
  let rec go () =
    if waiting () then begin
      let left = deadline -. Unix.gettimeofday () in
      if left > 0.0 then begin
        (match Unix.select [ pool.listen_fd ] [] [] (Float.min 0.05 left) with
        | [], _, _ -> ()
        | _ -> ignore (accept_one pool)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
      end
    end
  in
  go ();
  Array.iter
    (fun w ->
      if w.conn = None && not w.retired then
        ignore (retire_slot pool w ~respawn:false))
    pool.members

(* ------------------------------------------------------------------ *)
(* Loop-boundary liveness gate                                         *)
(* ------------------------------------------------------------------ *)

let heartbeat_kill (pool : pool) (w : worker) : unit =
  pool.stats.heartbeat_kills <- pool.stats.heartbeat_kills + 1;
  Metrics.incr pool.metrics "net_heartbeat_kills";
  ignore (retire_slot pool w ~respawn:true)

(* Before planning each distributed loop: resume injected stragglers,
   sweep expired grace windows (nothing is retained between loops, so
   no replan is needed here), let pending dials join, then ping every
   link and wait out up to three heartbeat rounds. *)
let boundary_gate (pool : pool) ~(loop_no : int) : unit =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun w ->
      (match w.stopped_until with
      | Some _ ->
          (match w.pid with
          | Some pid -> signal_quiet pid Sys.sigcont
          | None -> ());
          w.stopped_until <- None;
          w.last_rx <- now
      | None -> ());
      match w.grace_until with
      | Some t when now >= t ->
          pool.stats.grace_expired <- pool.stats.grace_expired + 1;
          Metrics.incr pool.metrics "net_grace_expired";
          ignore (retire_slot pool w ~respawn:true)
      | _ -> ())
    pool.members;
  drain_accepts pool;
  let suspects = ref (connected pool) in
  for round = 1 to 3 do
    if !suspects <> [] then begin
      let token = (loop_no * 101) + round in
      let pinged =
        List.filter
          (fun w ->
            match w.conn with
            | None -> false
            | Some c -> (
                match
                  with_io_retry pool.stats (fun () ->
                      Transport.send c (Ping token))
                with
                | () ->
                    pool.stats.pings <- pool.stats.pings + 1;
                    true
                | exception (Worker_gone | Unix.Unix_error _) ->
                    heartbeat_kill pool w;
                    false))
          !suspects
      in
      suspects := pinged;
      let deadline = Unix.gettimeofday () +. pool.cfg.heartbeat_s in
      let rec collect () =
        if !suspects <> [] then begin
          let left = deadline -. Unix.gettimeofday () in
          if left > 0.0 then begin
            let fds =
              List.filter_map
                (fun w -> Option.map Transport.conn_fd w.conn)
                !suspects
            in
            match Unix.select fds [] [] left with
            | [], _, _ -> ()
            | readable, _, _ ->
                List.iter
                  (fun fd ->
                    match
                      List.find_opt
                        (fun w ->
                          match w.conn with
                          | Some c -> Transport.conn_fd c = fd
                          | None -> false)
                        !suspects
                    with
                    | None -> ()
                    | Some w -> (
                        let c = Option.get w.conn in
                        match (Transport.recv ~deadline c : from_worker) with
                        | Pong _ ->
                            pool.stats.pongs <- pool.stats.pongs + 1;
                            w.last_rx <- Unix.gettimeofday ();
                            w.missed <- 0;
                            suspects :=
                              List.filter (fun x -> x.slot <> w.slot) !suspects
                        | _ -> ()
                        | exception
                            ( Worker_gone | Frame_timeout
                            | Transport.Corrupt_frame _ ) ->
                            heartbeat_kill pool w;
                            suspects :=
                              List.filter (fun x -> x.slot <> w.slot) !suspects))
                  readable;
                collect ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> collect ()
          end
        end
      in
      collect ()
    end
  done;
  List.iter (fun w -> if w.conn <> None then heartbeat_kill pool w) !suspects

(* ------------------------------------------------------------------ *)
(* Supervised loop execution                                           *)
(* ------------------------------------------------------------------ *)

exception Master_recompute of int
(** Internal: route a chunk to inline master evaluation. *)

let run_loop (pool : pool) (env : Evalenv.env) ~(loop_no : int) (l : Exp.loop)
    : V.t =
  let cfg = pool.cfg in
  let inputs = pool.inputs in
  let stats = pool.stats in
  let n = Evalenv.eval_int ~inputs env l.Exp.size in
  let master_eval () = Evalenv.eval ~inputs env (Exp.Loop l) in
  boundary_gate pool ~loop_no;
  if n <= 1 || (connected pool = [] && not (Array.exists (fun w -> w.grace_until <> None) pool.members))
  then master_eval ()
  else begin
    (* The plan is a pure function of (n, configured workers): chunk
       boundaries — and hence merge order and float reassociation — are
       identical whether the membership is healthy, bleeding, or
       degraded. *)
    let units =
      Schedule.plan ~nodes:cfg.workers ~sockets:1 ~cores:1 n
      |> List.sort (fun (a : Schedule.unit_of_work) b ->
             compare a.range.Chunk.lo b.range.Chunk.lo)
      |> Array.of_list
    in
    let nchunks = Array.length units in
    if nchunks <= 1 then master_eval ()
    else begin
      let boundaries =
        Array.to_list units
        |> List.filter_map (fun (u : Schedule.unit_of_work) ->
               if u.range.Chunk.lo > 0 then Some u.range.Chunk.lo else None)
      in
      let idx_of_lo = Hashtbl.create nchunks in
      Array.iteri
        (fun i (u : Schedule.unit_of_work) ->
          Hashtbl.replace idx_of_lo u.range.Chunk.lo i)
        units;
      let progs =
        Array.map
          (fun (u : Schedule.unit_of_work) ->
            Evalenv.close_over env (Exec_domains.chunk_loop l u.range))
          units
      in
      let still_open =
        Array.exists
          (fun (p, _) -> Sym.Set.choose_opt (Exp.free_vars p) <> None)
          progs
      in
      if still_open then master_eval ()
      else begin
        let results : V.t option array = Array.make nchunks None in
        let remaining = ref nchunks in
        let dispatches = Array.make nchunks 0 in
        let fate_drawn = Array.make nchunks false in
        let owner = Array.make nchunks (-1) in
        let master_backlog = ref [] in
        let task_counter = ref 0 in
        let record_result i v =
          if results.(i) = None then begin
            results.(i) <- Some v;
            decr remaining
          end
        in
        let eval_inline i =
          if results.(i) = None then begin
            let prog, bindings = progs.(i) in
            Fault.check_replan "net-master" prog;
            stats.master_chunks <- stats.master_chunks + 1;
            Metrics.incr pool.metrics "net_master_chunks";
            record_result i
              (Dmll_backend.Closure.run ~inputs:(bindings @ inputs) prog)
          end
        in
        let enqueue (w : worker) i =
          owner.(i) <- w.slot;
          w.queue <- w.queue @ [ i ]
        in
        let live () = connected pool in
        (* Reassign [lost] chunks after slot [dead_slot]'s demise, via
           Schedule.replan over the not-yet-done units with their
           current owners — the original cut points are the boundaries,
           so every replacement range is exactly an original chunk. *)
        let replan_lost ~(dead_slot : int) (lost : int list) : unit =
          let lost = List.filter (fun i -> results.(i) = None) lost in
          if lost <> [] then
            Span.with_span ?tracer:cfg.obs ~tid:Span.runtime_tid ~cat:"net"
              ~args:
                [ ("slot", Span.Int dead_slot);
                  ("chunks", Span.Int (List.length lost)) ]
              "net-replan"
              (fun () ->
                stats.replans <- stats.replans + 1;
                Metrics.incr pool.metrics "net_replans";
                (match cfg.faults with
                | Some f -> Fault.record_replan f
                | None -> ());
                let live = live () in
                let fallback () =
                  match live with
                  | [] ->
                      List.iter
                        (fun i -> master_backlog := !master_backlog @ [ i ])
                        lost
                  | live ->
                      let nl = List.length live in
                      List.iteri
                        (fun j i -> enqueue (List.nth live (j mod nl)) i)
                        lost
                in
                (match live with
                | [] -> fallback ()
                | _ -> (
                    let units_now =
                      List.filter_map
                        (fun i ->
                          if results.(i) = None && owner.(i) >= 0 then
                            Some { (units.(i)) with Schedule.node = owner.(i) }
                          else None)
                        (List.init nchunks Fun.id)
                    in
                    match
                      Schedule.replan ~boundaries ~dead:[ dead_slot ] units_now
                    with
                    | replanned ->
                        List.iter
                          (fun (u : Schedule.unit_of_work) ->
                            match
                              Hashtbl.find_opt idx_of_lo u.range.Chunk.lo
                            with
                            | Some i when List.mem i lost -> (
                                match
                                  List.find_opt
                                    (fun w -> w.slot = u.node)
                                    live
                                with
                                | Some w -> enqueue w i
                                | None ->
                                    master_backlog := !master_backlog @ [ i ])
                            | _ -> ())
                          replanned
                    | exception Invalid_argument _ -> fallback ()));
                List.iter
                  (fun i ->
                    let prog, _ = progs.(i) in
                    Fault.check_replan "net-replan" prog;
                    stats.recovered_chunks <- stats.recovered_chunks + 1;
                    Metrics.incr pool.metrics "net_recovered_chunks";
                    match cfg.faults with
                    | Some f -> Fault.record_recovered f
                    | None -> ())
                  lost)
        in
        let rec dispatch (w : worker) : unit =
          match w.conn with
          | None -> ()
          | Some c -> (
              match w.queue with
              | i :: rest when w.task = None && w.stopped_until = None ->
                  if results.(i) <> None then begin
                    w.queue <- rest;
                    dispatch w
                  end
                  else begin
                    w.queue <- rest;
                    let prog, bindings = progs.(i) in
                    let base_attempt = dispatches.(i) * 64 in
                    dispatches.(i) <- dispatches.(i) + 1;
                    incr task_counter;
                    Metrics.incr pool.metrics "net_tasks";
                    let t =
                      { task_id = !task_counter; loop_no; chunk = i;
                        base_attempt; prog; bindings }
                    in
                    match
                      with_io_retry stats (fun () -> Transport.send c (Task t))
                    with
                    | () -> (
                        w.task <-
                          Some (i, Unix.gettimeofday () +. cfg.task_deadline_s);
                        w.last_task <- Some t;
                        w.resends_left <- resend_budget;
                        (match cfg.on_task_sent with
                        | Some f -> f ~slot:w.slot ~chunk:i
                        | None -> ());
                        (* master-side murder of local workers: drawn
                           once per (loop, chunk) on first dispatch *)
                        match cfg.faults with
                        | Some f when (not fate_drawn.(i)) && w.pid <> None
                          -> (
                            fate_drawn.(i) <- true;
                            match Fault.proc_fate f ~loop:loop_no ~chunk:i with
                            | Fault.Proc_ok -> ()
                            | Fault.Proc_kill { permanent; close_pipe } ->
                                stats.killed <- stats.killed + 1;
                                Metrics.incr pool.metrics "net_kills";
                                if close_pipe then begin
                                  (* cut the link only: the process
                                     survives and redials — the
                                     reconnect-and-resume path; with
                                     no grace window the slot is
                                     retired instead *)
                                  stats.link_cuts <- stats.link_cuts + 1;
                                  Metrics.incr pool.metrics "net_link_cuts";
                                  lose ~grace:true w
                                end
                                else begin
                                  (match w.pid with
                                  | Some pid -> signal_quiet pid Sys.sigkill
                                  | None -> ());
                                  lose ~grace:false ~respawn:(not permanent) w
                                end
                            | Fault.Proc_stop { stop_s } ->
                                stats.stopped <- stats.stopped + 1;
                                Metrics.incr pool.metrics "net_stops";
                                (match w.pid with
                                | Some pid -> signal_quiet pid Sys.sigstop
                                | None -> ());
                                w.stopped_until <-
                                  Some (Unix.gettimeofday () +. stop_s))
                        | _ -> ())
                    | exception Worker_gone -> lose ~grace:true ~requeue:[ i ] w
                  end
              | _ -> ())
        and lose ?(requeue = []) ?(respawn = true) ~(grace : bool)
            (w : worker) : unit =
          if grace && cfg.reconnect_grace_s > 0.0 then begin
            enter_grace pool w ~now:(Unix.gettimeofday ());
            w.retained <- requeue @ w.retained
          end
          else begin
            let lost = requeue @ retire_slot pool w ~respawn in
            replan_lost ~dead_slot:w.slot lost;
            List.iter dispatch (live ())
          end
        in
        let sweep_graces now =
          Array.iter
            (fun w ->
              match w.grace_until with
              | Some t when now >= t ->
                  stats.grace_expired <- stats.grace_expired + 1;
                  Metrics.incr pool.metrics "net_grace_expired";
                  let lost = retire_slot pool w ~respawn:true in
                  replan_lost ~dead_slot:w.slot lost;
                  List.iter dispatch (live ())
              | _ -> ())
            pool.members
        in
        let handle_read (w : worker) : unit =
          match w.conn with
          | None -> ()
          | Some c -> (
              let now = Unix.gettimeofday () in
              let deadline =
                (* a partitioned link discards inbound frames; poll it
                   briefly instead of stalling the event loop *)
                if Transport.partitioned c then now +. 0.005
                else now +. cfg.task_deadline_s
              in
              match (Transport.recv ~deadline c : from_worker) with
              | Done { chunk; value; retries; _ } ->
                  w.last_rx <- Unix.gettimeofday ();
                  w.missed <- 0;
                  stats.worker_retries <- stats.worker_retries + retries;
                  if retries > 0 then
                    Metrics.incr pool.metrics ~by:retries "net_worker_retries";
                  record_result chunk value;
                  w.task <- None;
                  w.last_task <- None;
                  w.resends_left <- resend_budget;
                  dispatch w
              | Refused { chunk; _ } ->
                  (* deterministic evaluation error: recompute inline so
                     the real exception surfaces from the master *)
                  w.last_rx <- Unix.gettimeofday ();
                  w.missed <- 0;
                  Metrics.incr pool.metrics "net_refused";
                  w.task <- None;
                  w.last_task <- None;
                  master_backlog := !master_backlog @ [ chunk ];
                  dispatch w
              | Pong _ ->
                  stats.pongs <- stats.pongs + 1;
                  w.last_rx <- Unix.gettimeofday ();
                  w.missed <- 0
              | Bad_frame _ -> (
                  w.last_rx <- Unix.gettimeofday ();
                  w.missed <- 0;
                  match (w.task, w.last_task) with
                  | Some (i, _), Some t when t.chunk = i ->
                      if w.resends_left > 0 then begin
                        w.resends_left <- w.resends_left - 1;
                        stats.frame_resends <- stats.frame_resends + 1;
                        Metrics.incr pool.metrics "net_frame_resends";
                        instant pool "net-resend" ~slot:w.slot;
                        let attempt = resend_budget - w.resends_left in
                        let backoff =
                          match cfg.faults with
                          | Some f ->
                              Fault.backoff_s (Fault.spec f) ~attempt
                          | None -> 1e-4 *. (2.0 ** float_of_int attempt)
                        in
                        Unix.sleepf (Float.min 2e-3 backoff);
                        match
                          with_io_retry stats (fun () ->
                              Transport.send c (Task t))
                        with
                        | () ->
                            w.task <-
                              Some
                                ( i,
                                  Unix.gettimeofday () +. cfg.task_deadline_s
                                )
                        | exception Worker_gone -> lose ~grace:true w
                      end
                      else
                        (* the link keeps mangling frames: hostile *)
                        lose ~grace:false w
                  | _ -> ())
              | exception Frame_timeout when Transport.partitioned c ->
                  (* blackholed: the deadline/keepalive sweeps recover *)
                  ()
              | exception Worker_gone -> lose ~grace:true w
              | exception Transport.Corrupt_frame _ ->
                  Metrics.incr pool.metrics "net_corrupt_frames";
                  lose ~grace:false w
              | exception Frame_timeout ->
                  stats.deadline_kills <- stats.deadline_kills + 1;
                  Metrics.incr pool.metrics "net_deadline_kills";
                  lose ~grace:false w)
        in
        let keepalive now =
          Array.iter
            (fun w ->
              match w.conn with
              | Some c
                when w.task = None && w.stopped_until = None
                     && now -. w.last_rx
                        >= cfg.heartbeat_s *. float_of_int (w.missed + 1) ->
                  if w.missed >= 3 then begin
                    stats.heartbeat_kills <- stats.heartbeat_kills + 1;
                    Metrics.incr pool.metrics "net_heartbeat_kills";
                    lose ~grace:false w
                  end
                  else (
                    match
                      with_io_retry stats (fun () ->
                          Transport.send c (Ping ((loop_no * 1000) + w.missed)))
                    with
                    | () ->
                        stats.pings <- stats.pings + 1;
                        w.missed <- w.missed + 1
                    | exception Worker_gone -> lose ~grace:true w)
              | _ -> ())
            pool.members
        in
        (* initial assignment: the planned owner when that slot is
           connected, else replanned onto survivors up front *)
        let live0 = live () in
        let live_slots = List.map (fun w -> w.slot) live0 in
        let dead0 =
          List.filter
            (fun s -> not (List.mem s live_slots))
            (List.init cfg.workers Fun.id)
        in
        let assigned =
          if dead0 = [] then Array.to_list units
          else
            match
              Schedule.replan ~boundaries ~dead:dead0 (Array.to_list units)
            with
            | us -> us
            | exception Invalid_argument _ ->
                if live_slots = [] then Array.to_list units
                else
                  List.mapi
                    (fun j (u : Schedule.unit_of_work) ->
                      { u with
                        Schedule.node =
                          List.nth live_slots (j mod List.length live_slots)
                      })
                    (Array.to_list units)
        in
        List.iter
          (fun (u : Schedule.unit_of_work) ->
            match Hashtbl.find_opt idx_of_lo u.range.Chunk.lo with
            | None -> ()
            | Some i -> (
                match List.find_opt (fun w -> w.slot = u.node) live0 with
                | Some w -> enqueue w i
                | None -> master_backlog := !master_backlog @ [ i ]))
          assigned;
        List.iter dispatch (live ());
        (* the supervision event loop *)
        while !remaining > 0 do
          (match !master_backlog with
          | i :: rest ->
              master_backlog := rest;
              eval_inline i
          | [] -> ());
          if !remaining > 0 then begin
            let now = Unix.gettimeofday () in
            (* resume injected stragglers whose stop expired *)
            Array.iter
              (fun w ->
                match w.stopped_until with
                | Some t when now >= t ->
                    (match w.pid with
                    | Some pid -> signal_quiet pid Sys.sigcont
                    | None -> ());
                    w.stopped_until <- None;
                    w.last_rx <- now;
                    dispatch w
                | _ -> ())
              pool.members;
            sweep_graces now;
            (* deadline detection: a dispatched chunk unanswered past
               its deadline marks the link hung — retire and replan *)
            Array.iter
              (fun w ->
                match w.task with
                | Some (_, dl) when now > dl ->
                    stats.deadline_kills <- stats.deadline_kills + 1;
                    Metrics.incr pool.metrics "net_deadline_kills";
                    lose ~grace:false w
                | _ -> ())
              pool.members;
            keepalive now;
            (* safety net: any undone chunk not covered by the backlog,
               a live queue/task, or a grace window's retained plan goes
               to the master *)
            let covered i =
              List.mem i !master_backlog
              || Array.exists
                   (fun w ->
                     List.mem i w.queue || List.mem i w.retained
                     || match w.task with Some (j, _) -> j = i | None -> false)
                   pool.members
            in
            Array.iteri
              (fun i r ->
                if r = None && not (covered i) then
                  master_backlog := !master_backlog @ [ i ])
              results;
            if !remaining > 0 && !master_backlog = [] then begin
              let conn_fds =
                List.filter_map
                  (fun w -> Option.map Transport.conn_fd w.conn)
                  (Array.to_list pool.members)
              in
              let fds = pool.listen_fd :: conn_fds in
              let next_timer =
                let acc = ref (now +. 0.05) in
                Array.iter
                  (fun w ->
                    (match w.task with
                    | Some (_, dl) -> acc := Float.min !acc dl
                    | None -> ());
                    (match w.stopped_until with
                    | Some t -> acc := Float.min !acc t
                    | None -> ());
                    (match w.grace_until with
                    | Some t -> acc := Float.min !acc t
                    | None -> ());
                    if w.conn <> None && w.task = None
                       && w.stopped_until = None
                    then
                      acc :=
                        Float.min !acc
                          (w.last_rx
                          +. (cfg.heartbeat_s *. float_of_int (w.missed + 1))))
                  pool.members;
                !acc
              in
              let timeout = Float.max 1e-3 (next_timer -. now) in
              match Unix.select fds [] [] timeout with
              | readable, _, _ ->
                  List.iter
                    (fun fd ->
                      if fd = pool.listen_fd then (
                        match accept_one pool with
                        | Some w -> dispatch w
                        | None -> ())
                      else
                        match
                          find_member pool (fun w ->
                              match w.conn with
                              | Some c -> Transport.conn_fd c = fd
                              | None -> false)
                        with
                        | Some w -> handle_read w
                        | None -> ())
                    readable
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            end
          end
        done;
        (* chunk ids are loop-local: clear every per-loop holding *)
        Array.iter
          (fun w ->
            w.task <- None;
            w.queue <- [];
            w.retained <- [];
            w.last_task <- None)
          pool.members;
        let parts =
          Array.to_list results
          |> List.mapi (fun i v ->
                 match v with
                 | Some v -> (i, v)
                 | None -> raise (Master_recompute i))
        in
        Exec_domains.merge_parts ~env ~inputs l ~nchunks parts
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Spine checkpoints                                                   *)
(* ------------------------------------------------------------------ *)

let take_checkpoint (pool : pool) ~(loop_no : int) (env : Evalenv.env)
    (sym : Sym.t option) (v : V.t) : unit =
  match pool.store with
  | Some store when Checkpoint.due store ~loop:loop_no ->
      let name = match sym with Some s -> Sym.to_string s | None -> "result" in
      let bindings =
        Sym.Map.fold (fun s bv acc -> (Sym.to_string s, bv) :: acc) env []
        @ [ (name, v) ]
      in
      let snap =
        Checkpoint.record store ~at_loop:loop_no ~chunks:pool.cfg.workers
          ~bindings
          ~driver:[ ("loop_no", V.Vint loop_no) ]
      in
      (match pool.cfg.checkpoint_dir with
      | Some dir -> ignore (Checkpoint.write_file ~dir snap)
      | None -> ());
      pool.stats.checkpoints <- pool.stats.checkpoints + 1;
      Metrics.incr pool.metrics "net_checkpoints";
      (match pool.cfg.faults with
      | Some f -> Fault.record_checkpoint f
      | None -> ())
  | _ -> ()

let load_resume (cfg : config) : Checkpoint.snapshot option =
  if not cfg.resume then None
  else
    match cfg.checkpoint_dir with
    | None -> None
    | Some dir -> (
        match Checkpoint.latest_file ~dir with
        | None -> None
        | Some path -> (
            match Checkpoint.read_file path with
            | Checkpoint.Available s -> Some s
            | Checkpoint.Corrupt _ | Checkpoint.None_taken -> None))

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let remove_sock_dir (dir : string option) : unit =
  match dir with
  | None -> ()
  | Some d ->
      (try Sys.remove (Filename.concat d "sock") with Sys_error _ -> ());
      (try Sys.rmdir d with Sys_error _ -> ())

(* Guaranteed teardown: every link is closed (metrics flushed), the
   listener is closed and its socket file removed, and every local pid
   ever forked is continued, killed (idempotent), and waitpid'ed.  Runs
   under [Fun.protect], so it covers the master-error path too. *)
let shutdown (pool : pool) : unit =
  Array.iter
    (fun w ->
      match w.conn with
      | Some c ->
          (* orderly goodbye, injection-exempt like the handshake *)
          (try Transport.write_frame (Transport.conn_fd c) Shutdown
           with _ -> ());
          drop_conn pool w
      | None -> ())
    pool.members;
  close_quiet pool.listen_fd;
  remove_sock_dir pool.sock_dir;
  List.iter
    (fun pid ->
      signal_quiet pid Sys.sigcont;
      signal_quiet pid Sys.sigkill;
      reap_blocking pool pid)
    pool.unreaped

(* Pure local mode listens on a Unix-domain socket inside a fresh
   owner-only directory, so no other user can reach the handshake; the
   directory moves to /tmp when the temp root would overflow a socket
   path. *)
let make_listener (cfg : config) :
    Unix.file_descr * string * string option =
  let sa, dir =
    match cfg.listen with
    | Some s -> (sockaddr_of_string s, None)
    | None when cfg.spawn_local ->
        let root = Filename.get_temp_dir_name () in
        let temp_dir = if String.length root > 64 then "/tmp" else root in
        let dir = Filename.temp_dir ~temp_dir ~perms:0o700 "dmll-cluster" "" in
        (Unix.ADDR_UNIX (Filename.concat dir "sock"), Some dir)
    | None -> (Unix.ADDR_INET (Unix.inet_addr_loopback, 0), None)
  in
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0
  in
  match
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd sa;
    Unix.listen fd 64
  with
  | () -> (fd, string_of_sockaddr (Unix.getsockname fd), dir)
  | exception e ->
      close_quiet fd;
      remove_sock_dir dir;
      raise e

(* 128 bits from the kernel's random source, read unbuffered: a
   buffered channel would drain 64 KiB of it per run *)
let gen_token () =
  let b = Bytes.create 16 in
  let from_kernel =
    match Unix.openfile "/dev/urandom" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | fd ->
        Fun.protect
          ~finally:(fun () -> close_quiet fd)
          (fun () -> try Unix.read fd b 0 16 = 16 with Unix.Unix_error _ -> false)
    | exception Unix.Unix_error _ -> false
  in
  if not from_kernel then begin
    let st = Random.State.make_self_init () in
    Bytes.iteri (fun i _ -> Bytes.set b i (Char.chr (Random.State.int st 256))) b
  end;
  "dmll-" ^ Digest.to_hex (Bytes.to_string b)

let run ?(config = default_config) ?(inputs = []) (program : Exp.exp) : result
    =
  let cfg = { config with workers = Stdlib.max 1 config.workers } in
  let metrics =
    match cfg.metrics with Some m -> m | None -> Metrics.create ()
  in
  let stats = fresh_stats () in
  let token = match cfg.token with Some t -> t | None -> gen_token () in
  let listen_fd, addr, sock_dir = make_listener cfg in
  let pool =
    { cfg; token; listen_fd; addr; sock_dir; inputs; metrics; stats;
      members = Array.init cfg.workers fresh_worker;
      unreaped = [];
      respawns_left = cfg.max_respawns;
      next_wid = 1;
      store =
        (if cfg.checkpoint_cadence > 0 then
           Some (Checkpoint.create ~cadence:cfg.checkpoint_cadence)
         else None);
    }
  in
  let saved_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let t0 = Unix.gettimeofday () in
  let breakdown = ref [] in
  Fun.protect
    ~finally:(fun () ->
      shutdown pool;
      Sys.set_signal Sys.sigpipe saved_sigpipe)
    (fun () ->
      (match cfg.on_listen with Some f -> f ~addr | None -> ());
      if cfg.spawn_local then Array.iter (fork_local pool) pool.members;
      join_gate pool;
      let restored = load_resume cfg in
      let loop_no = ref 0 in
      let value =
        Spine.exec ~inputs
          ~on_loop:(fun env sym l ->
            incr loop_no;
            let name =
              match sym with Some s -> Sym.to_string s | None -> "result"
            in
            let restored_v =
              match restored with
              | Some snap when !loop_no <= snap.Checkpoint.at_loop ->
                  Option.map
                    (fun (e : Checkpoint.entry) ->
                      Checkpoint.copy_value e.Checkpoint.value)
                    (List.assoc_opt name snap.Checkpoint.bindings)
              | _ -> None
            in
            match restored_v with
            | Some v ->
                stats.restored_loops <- stats.restored_loops + 1;
                Metrics.incr metrics "net_restored_loops";
                (match cfg.faults with
                | Some f -> Fault.record_restore f
                | None -> ());
                v
            | None ->
                let v, dt =
                  Dmll_util.Timing.time (fun () ->
                      Span.with_span ?tracer:cfg.obs ~tid:Span.runtime_tid
                        ~cat:"runtime"
                        ~args:[ ("loop", Span.Int !loop_no) ]
                        name
                        (fun () -> run_loop pool env ~loop_no:!loop_no l))
                in
                breakdown := (name, dt) :: !breakdown;
                Metrics.incr metrics "net_loops";
                take_checkpoint pool ~loop_no:!loop_no env sym v;
                v)
          program
      in
      { value;
        seconds = Unix.gettimeofday () -. t0;
        breakdown = List.rev !breakdown;
        stats;
        metrics;
      })
