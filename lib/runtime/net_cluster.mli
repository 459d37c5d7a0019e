(** The cluster executor: one supervisor over socket-attached worker
    processes, local or multi-host, with network fault injection and
    self-healing membership (DESIGN.md §16).

    Workers — forked locally or attached from other hosts by the
    [dmll_worker] binary ({!worker_main}) — serve chunk programs over
    the shared length-prefixed CRC32 {!Transport} codec.  A forked
    worker starts on a stream socket the master opened for it before
    the fork and keeps the inputs it inherited; a remote worker dials
    in and handshakes with a protocol version and session token, and
    so does a local worker redialling a dropped link.  The master never
    unmarshals a frame from a peer that has not authenticated.
    Robustness: keepalive heartbeats with deadlines, bounded task
    retransmission on CRC-rejected frames, reconnect-and-resume within a
    grace window (in-flight chunks replayed from the retained chunk
    plan), {!Schedule.replan}-based recovery with budgeted replacement
    admission on permanent loss, and graceful degradation to
    master-inline evaluation past the budget.  With faults armed, local
    workers are murdered for real (SIGKILL, SIGSTOP, link cut) and every
    outgoing frame draws a {!Fault.link_fate} (partition / sever /
    corrupt / delay) delivered on the live socket.  Spine loops can be
    checkpointed crash-safe to disk and restored on resume.
    {!Proc_cluster} is this executor with local workers and no reconnect
    grace.

    Determinism contract: the chunk plan is a pure function of the loop
    size and the {e configured} worker count, so a faulted run merges
    the same chunk partials in the same order as a healthy run and
    produces a bit-identical value.  Against the sequential interpreter,
    values are bit-identical whenever the loop merges exactly (collects,
    int reduces, bucket merges) and within 1e-6 relative for
    reassociated floating-point reductions. *)

module V = Dmll_interp.Value
module M = Dmll_machine.Machine
module Span = Dmll_obs.Span
module Metrics = Dmll_obs.Metrics

(** {1 Wire protocol}

    Exposed so protocol-level tests (and future interop tools) can
    speak to a master without going through {!worker_main}. *)

val protocol_version : int

(** First frame on every new connection, worker → master.  [reconnect]
    carries the session id of a previous incarnation to resume. *)
type hello = { version : int; token : string; reconnect : int option }

type task = {
  task_id : int;
  loop_no : int;
  chunk : int;
  base_attempt : int;
  prog : Dmll_ir.Exp.exp;
  bindings : (string * V.t) list;
}

(** Master's handshake answer: join credentials plus everything a
    remote worker needs (fault spec, program inputs). *)
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

(** {1 Configuration} *)

type config = {
  workers : int;  (** slots (and the fixed chunk fan-out) *)
  listen : string option;
      (** [HOST:PORT] to bind; [None] binds a Unix-domain socket in a
          fresh owner-only temp directory when [spawn_local] (removed
          at shutdown), else loopback on an ephemeral port *)
  token : string option;
      (** session token required in every hello; [None] generates one *)
  spawn_local : bool;
      (** fork local worker processes, each joined from birth on its
          own link; [false] waits for external [dmll_worker] processes
          to attach.  Forking fails with {!Dmll_analysis.Diag.Failed}
          (rule [R-FORK-AFTER-DOMAINS]) in a process that has spawned
          domains. *)
  faults : Fault.t option;
      (** arms worker-side chunk faults, master-side murder of local
          workers (SIGKILL / SIGSTOP / link cut), {e and} per-frame link
          faults on every connection *)
  task_deadline_s : float;
      (** a dispatched chunk unanswered for this long marks the worker
          hung: retire + replan *)
  heartbeat_s : float;
      (** keepalive ping cadence on idle links; three missed pongs
          declare the link dead *)
  reconnect_grace_s : float;
      (** how long a dropped link's chunks are retained for its worker
          to redial and resume; [<= 0.] disables reconnection *)
  join_deadline_s : float;
      (** how long {!run} waits for external workers' initial joins *)
  accept_deadline_s : float;
      (** a dialer must complete its hello within this long *)
  max_respawns : int;
      (** replacement-admission budget for the whole run *)
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
          socket path in pure local mode) before any worker is spawned —
          how tests and [dmll_run --listen] learn the ephemeral port *)
}

val default_config : config
(** 2 local workers on an owner-only Unix-domain socket, 5 s task deadline,
    0.25 s heartbeat, 0.5 s reconnect grace, 8 respawns, 2 redials, no
    faults, no checkpointing. *)

(** {1 Run statistics} — all observed from the master. *)

type stats = {
  mutable spawned : int;  (** every local fork, initial and replacement *)
  mutable respawned : int;
  mutable connects : int;  (** fresh sessions accepted *)
  mutable reconnects : int;  (** resumed sessions accepted *)
  mutable rejections : int;  (** hellos refused (version/token/slot/grace) *)
  mutable disconnects : int;  (** links lost into a grace window *)
  mutable grace_expired : int;
  mutable killed : int;  (** injected murders (SIGKILL or link cut) *)
  mutable link_cuts : int;  (** injected master-side link severs *)
  mutable stopped : int;  (** injected SIGSTOP straggles *)
  mutable deadline_kills : int;
  mutable heartbeat_kills : int;
  mutable frame_resends : int;  (** tasks retransmitted after [Bad_frame] *)
  mutable io_retries : int;  (** transient I/O errors retried with backoff *)
  mutable replans : int;
  mutable recovered_chunks : int;  (** chunks redispatched after a loss *)
  mutable master_chunks : int;  (** degraded-mode chunks evaluated inline *)
  mutable worker_retries : int;  (** worker-side transient-fault retries *)
  mutable pings : int;
  mutable pongs : int;
  mutable checkpoints : int;
  mutable restored_loops : int;
  mutable degraded : bool;  (** ran short-handed after budget exhaustion *)
  mutable pids : int list;  (** every local child pid ever forked *)
}

val stats_to_string : stats -> string

type result = {
  value : V.t;
  seconds : float;  (** wall-clock *)
  breakdown : (string * float) list;  (** per-spine-loop wall seconds *)
  stats : stats;
  metrics : Metrics.t;
}

(** {1 Entry points} *)

val run : ?config:config -> ?inputs:(string * V.t) list -> Dmll_ir.Exp.exp -> result
(** Execute a program with its outer multiloops distributed across
    socket-attached workers.  Always terminates with every link closed,
    the listener closed (its socket file removed), and every locally
    forked child reaped —
    including when the program itself raises — via a [Fun.protect]ed
    shutdown sweep. *)

val worker_main :
  ?redials:int ->
  ?dial_attempts:int ->
  ?dial_backoff_s:float ->
  addr:string ->
  token:string ->
  unit ->
  int
(** The dialing side — what [dmll_worker] and locally forked children
    run.  Dials [addr] with bounded exponential backoff, handshakes,
    serves chunk programs until shutdown, and redials with its session
    id (up to [redials] times) when the link drops.  Returns the
    process exit code: 0 orderly, 2 internal error, 4 never joined
    (exit code 3 — injected permanent crash — leaves via [Unix._exit]
    mid-task). *)
