(** The resident synthesis daemon.

    One process serves many jobs over a Unix-domain socket, keeping two
    layers of warm state alive between them: the shared {!Cache} of
    finished results, and per-worker {!Job.warm} snapshots (parsed and
    post-script networks). Job execution runs on a {!Rar_util.Pool}
    domain pool via its persistent {!Rar_util.Pool.submit} queue, so
    the accept loop never blocks on synthesis work.

    {2 Event loop}

    The main domain runs a [select] loop over the listening socket, a
    self-pipe, and every connection with no job in flight. Connection
    reads are non-blocking and incremental ({!Protocol.Reader}): a
    client trickling bytes cannot stall other clients. A decoded
    request marks its connection busy (the loop stops reading it — the
    protocol is strictly request/response per connection) and is
    submitted to the pool; the worker writes the response frame itself
    and pokes the self-pipe so the loop resumes reading that
    connection. Framing and decode errors are answered with a clean
    [Refused] frame and the connection is closed; the daemon stays up.

    {2 Shutdown}

    {!shutdown} (also installed as the SIGTERM/SIGINT handler by
    {!install_signal_handlers}) flips an atomic flag and pokes the
    self-pipe. The loop then stops accepting connections and reading
    new requests, drains the pool — every in-flight job completes and
    its response is delivered — closes all connections, joins the
    workers and removes the socket file. *)

type config = {
  socket_path : string;
  jobs : int;
      (** pool size N passed to {!Rar_util.Pool.create}; [0] =
          {!Rar_util.Pool.default_jobs}. The pool spawns N−1 worker
          domains, and submitted jobs never run on the caller, so N ≥ 2
          runs jobs on N−1 domains; at N = 1 there is no worker domain
          and each job runs inline on the event-loop domain. *)
  cache : Cache.config option;  (** [None] disables the result cache *)
  max_frame : int;
  default_deadline : float option;
      (** per-job wall-clock ceiling applied to requests that carry none *)
  trace : Rar_util.Trace.t;
      (** receives [job_queued]/[cache_hit]/[cache_miss]/[job_done]
          events, each tagged with the job id, plus a final
          [server_stats] snapshot *)
}

val default_config : socket_path:string -> config
(** [jobs = 0] (auto), default cache, {!Protocol.default_max_frame}, no
    deadline, trace disabled. *)

type t

val create : config -> t
(** Bind and listen on [socket_path] (an existing socket file is
    replaced), spawn the pool. Clients may connect as soon as [create]
    returns, even before {!serve} runs — requests queue in the backlog. *)

val serve : t -> unit
(** Run the event loop on the calling domain until {!shutdown}. *)

val shutdown : t -> unit
(** Request a graceful stop: drain in-flight jobs, deliver their
    responses, release everything. Safe from any domain and from a
    signal handler; idempotent. Returns immediately — {!serve} performs
    the teardown. *)

type stats = {
  jobs_submitted : int;
  jobs_done : int;
  refused : int;
  cache : Cache.stats option;
}

val stats : t -> stats

val install_signal_handlers : t -> unit
(** Route SIGTERM and SIGINT to {!shutdown} (and ignore SIGPIPE, which
    {!create} already does). *)

val with_server : config -> (t -> 'a) -> 'a
(** In-process harness for the bench and the tests: [create], run
    {!serve} on a fresh domain, apply the callback, then shut down,
    join and clean up — also when the callback raises. *)

(** Client side of the protocol (used by [rarsub client], the bench
    harness and the stress tests). *)
module Client : sig
  type conn

  exception Timeout

  val connect : ?timeout:float -> string -> conn
  (** Connect to a daemon socket. [timeout] (seconds) bounds every
      subsequent send and receive; @raise Timeout when it expires. *)

  val request : conn -> Protocol.request -> Protocol.response
  (** One round trip. @raise Timeout / [Unix.Unix_error] /
      {!Protocol.Frame_error} on transport failures. A daemon that
      died after [connect] raises {!Protocol.Frame_error} — [connect]
      ignores SIGPIPE for the process, and EPIPE/ECONNRESET on the
      write are mapped to the same "server closed the connection"
      error as an EOF on the read. *)

  val close : conn -> unit

  val round_trip : ?timeout:float -> socket:string -> Protocol.request -> Protocol.response
  (** [connect]; [request]; [close]. *)
end
