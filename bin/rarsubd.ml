(* rarsubd: the resident synthesis daemon.

   Listens on a Unix-domain socket for framed jobs (BLIF in, script +
   flags, BLIF out), keeps a content-addressed result cache and warm
   per-worker network snapshots alive across jobs, and drains in-flight
   work on SIGTERM/SIGINT. Submit jobs with `rarsub client`. *)

open Cmdliner

let run socket jobs no_cache cache_entries cache_bytes max_frame deadline
    trace_file =
  match
    match trace_file with
    | Some path -> Rar_util.Trace.to_file path
    | None -> Rar_util.Trace.disabled
  with
  | exception Sys_error msg ->
    prerr_endline msg;
    2
  | trace ->
    Fun.protect ~finally:(fun () -> Rar_util.Trace.close trace)
    @@ fun () ->
    let cache =
      if no_cache then None
      else
        Some
          { Rar_service.Cache.max_entries = cache_entries;
            max_bytes = cache_bytes }
    in
    let config =
      {
        Rar_service.Server.socket_path = socket;
        jobs;
        cache;
        max_frame;
        default_deadline = deadline;
        trace;
      }
    in
    (match Rar_service.Server.create config with
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "rarsubd: %s: %s\n" socket (Unix.error_message err);
      2
    | server ->
      Rar_service.Server.install_signal_handlers server;
      let pool =
        if jobs = 0 then Rar_util.Pool.default_jobs () else max 1 jobs
      in
      Printf.eprintf "rarsubd: listening on %s (jobs %d: %s, cache %s)\n%!"
        socket pool
        (if pool = 1 then "jobs run on the event loop"
         else Printf.sprintf "%d worker domain(s)" (pool - 1))
        (if no_cache then "off" else "on");
      Rar_service.Server.serve server;
      let s = Rar_service.Server.stats server in
      Printf.eprintf "rarsubd: served %d jobs (%d refused)%s\n%!"
        s.Rar_service.Server.jobs_done s.Rar_service.Server.refused
        (match s.Rar_service.Server.cache with
        | Some c ->
          Printf.sprintf ", cache %d hits / %d misses"
            c.Rar_service.Cache.hits c.Rar_service.Cache.misses
        | None -> "");
      0)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket to listen on (an existing socket file is \
           replaced).")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Pool size (default $(b,0) = one per core). A pool of N runs \
           jobs concurrently on N-1 worker domains; at N = 1 each job \
           runs on the event-loop domain. Each job may additionally shard \
           its own candidate evaluation.")

let no_cache_flag =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Disable the shared result cache.")

let cache_entries_arg =
  Arg.(
    value
    & opt int Rar_service.Cache.default_config.Rar_service.Cache.max_entries
    & info [ "cache-entries" ] ~docv:"N"
        ~doc:"Result-cache capacity in entries (LRU beyond this).")

let cache_bytes_arg =
  Arg.(
    value
    & opt int Rar_service.Cache.default_config.Rar_service.Cache.max_bytes
    & info [ "cache-bytes" ] ~docv:"BYTES"
        ~doc:"Result-cache capacity in payload bytes (LRU beyond this).")

let max_frame_arg =
  Arg.(
    value
    & opt int Rar_service.Protocol.default_max_frame
    & info [ "max-frame" ] ~docv:"BYTES"
        ~doc:
          "Largest request frame accepted; oversized frames are refused \
           with a clean error and the connection is closed.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Default soft wall-clock limit applied to jobs that carry none. \
           Deadline jobs bypass the result cache.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write JSON-lines trace events (job_queued, cache_hit, \
           cache_miss, job_done, server_stats) to $(docv).")

let () =
  let info =
    Cmd.info "rarsubd" ~version:"1.0.0"
      ~doc:
        "Resident Boolean-resubstitution service: accepts BLIF jobs over a \
         Unix-domain socket, with cross-job result caching and warm \
         per-worker state."
  in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const run $ socket_arg $ jobs_arg $ no_cache_flag
            $ cache_entries_arg $ cache_bytes_arg $ max_frame_arg
            $ deadline_arg $ trace_arg)))
