(* The three workloads. Each one sets up its inputs from the seed, runs a
   closed-loop timed phase against the library's public entry points,
   checks every output exactly, and returns what it measured. In the
   traced run the same loop additionally records spans around each
   layer call and passes a fresh Counters record into the engines. *)

module Blif = Logic_network.Blif
module Aiger = Logic_network.Aiger
module Aig = Logic_network.Aig
module Counters = Rar_util.Counters
module Trace = Rar_util.Trace
module Script = Synth.Script
module Protocol = Rar_service.Protocol
module Job = Rar_service.Job
module Server = Rar_service.Server
module Cache = Rar_service.Cache

type config = {
  seed : int;
  seconds : float;
  traced : bool;
  out_dir : string;  (** spans, trace files and the daemon socket *)
}

type report = {
  attempted : int;
  failed : int;
  setup_s : float;
  setups : int;
  job_times : float array;  (** one per job of the timed phase *)
  rounds : int;  (** rounds of the timed phase *)
  elapsed : float;  (** wall seconds of the timed phase *)
  job_s_p50 : float;
  jobs_per_s : float;
  cpu_s_per_job : float;
  distinct : int;  (** distinct outputs lits_out and gates_out sum over *)
  lits_out : int;
  gates_out : int;
  peak_rss_mb : float;
  layers : (string * float) list;  (** traced run only *)
  spans : Spans.span list;
}

(* Set up [n] times and keep the last result; the setup time is the
   best of the [n], as a job's time is the best of its rounds. *)
let setup_best ~n f =
  let times = Array.make n 0.0 and last = ref None in
  for i = 0 to n - 1 do
    let t0 = Probe.now () in
    last := Some (f ());
    times.(i) <- Probe.now () -. t0
  done;
  (Option.get !last, Array.fold_left Float.min Float.infinity times, n)

(* A run of one job: which distinct job it was, and its wall and CPU
   seconds. *)
type sample = { distinct : int; job_wall : float; job_cpu : float }

(* Run rounds of jobs, one job at a time, until at least [seconds] have
   passed and at least [min_rounds] rounds have run. Round [r] runs the
   distinct jobs [round_jobs r] in order; round 0 runs every distinct job
   [0, 1, ...], so the first run of distinct job [j] is job [j] of the
   phase. [job i j] runs distinct job [j] as job [i] of the phase and
   returns its own wall and CPU seconds. *)
let rounds ~seconds ~min_rounds ~round_jobs job =
  let start = Probe.now () in
  let samples = ref [] and i = ref 0 and r = ref 0 in
  while !r < min_rounds || Probe.now () -. start < seconds do
    List.iter
      (fun j ->
        let wall, cpu = job !i j in
        samples := { distinct = j; job_wall = wall; job_cpu = cpu } :: !samples;
        incr i)
      (round_jobs !r);
    incr r
  done;
  (Array.of_list (List.rev !samples), !r)

(* The shared host runs the same work tens of percent slower for seconds
   at a time, so each distinct job is timed by its best round: its least
   wall and least CPU seconds over the rounds it ran in. job_s_p50 is the
   median of the best wall times, jobs_per_s the distinct jobs over their
   sum (one round at every job's best), cpu_s_per_job the mean of the
   best CPU times. *)
let best_of ~distinct samples =
  let wall = Array.make distinct Float.infinity in
  let cpu = Array.make distinct Float.infinity in
  Array.iter
    (fun s ->
      wall.(s.distinct) <- Float.min wall.(s.distinct) s.job_wall;
      cpu.(s.distinct) <- Float.min cpu.(s.distinct) s.job_cpu)
    samples;
  let n = float_of_int distinct in
  (Probe.median wall, Probe.ratio n (Probe.sum wall), Probe.sum cpu /. n)

type 'a phase = {
  result : 'a;
  wall : float;
  cpu_s : float;
  rss : float;
  gc_used : Probe.gc;
}

let timed_phase run =
  Gc.full_major ();
  let wall0 = Probe.now () and cpu0 = Probe.cpu () and gc0 = Probe.gc () in
  let result = run () in
  let wall = Probe.now () -. wall0 and cpu_s = Probe.cpu () -. cpu0 in
  let gc_used = Probe.gc_delta gc0 (Probe.gc ()) in
  { result; wall; cpu_s; rss = Probe.peak_rss_mb (); gc_used }

(* Wall and CPU seconds of [f ()], and its result. *)
let timed f =
  let wall0 = Probe.now () and cpu0 = Probe.cpu () in
  let result = f () in
  (result, Probe.now () -. wall0, Probe.cpu () -. cpu0)

let gc_layers (g : Probe.gc) jobs =
  let per_job x = x /. float_of_int (max 1 jobs) in
  [
    ("gc.minor_mb", per_job g.minor_mb);
    ("gc.promoted_mb", per_job g.promoted_mb);
    ("gc.major_collections", per_job (float_of_int g.major_collections));
  ]

(* Fold one job's counters into the pass total. Counters.accumulate keeps
   the larger [passes]; a pass total wants their sum. *)
let add_job_counters (total : Counters.t) (c : Counters.t) =
  let passes = Atomic.get total.passes + Atomic.get c.passes in
  Counters.accumulate total c;
  Atomic.set total.passes passes

let counter_layers (c : Counters.t) =
  let i cell = float_of_int (Atomic.get cell) and f cell = Atomic.get cell in
  let divisions = i c.divisions_attempted in
  [
    ("synth.kresub_candidates", i c.kresub_candidates);
    ( "synth.kresub_validate_ratio",
      Probe.ratio (i c.kresub_validated) (i c.kresub_candidates) );
    ("synth.kresub_refinements", i c.kresub_refinements);
    ("synth.kresub_validation_s", f c.validation_seconds);
    ("core.division_s", f c.division_seconds);
    ("core.divisions", divisions);
    ("core.substitutions", i c.substitutions);
    ("core.substitution_yield", Probe.ratio (i c.substitutions) divisions);
    ( "core.memo_hit_ratio",
      Probe.ratio (i c.memo_hits) (i c.memo_hits +. i c.memo_misses) );
    ("core.passes", i c.passes);
    ("core.speculative_s", f c.speculative_seconds);
    ( "core.speculative_waste_ratio",
      Probe.ratio (i c.speculative_wasted) divisions );
    ("core.degradations", i c.degradations);
    ("sim.filter_s", f c.filter_seconds);
    ("sim.pairs_considered", i c.pairs_considered);
    ( "sim.filter_prune_ratio",
      Probe.ratio (i c.pairs_filtered) (i c.pairs_considered) );
    ("atpg.imply_creates", i c.imply_creates);
    ("atpg.imply_resets", i c.imply_resets);
    ( "atpg.checkpoints_per_division",
      Probe.ratio (i c.imply_checkpoints) divisions );
  ]

(* Inclusive seconds per span name over the jobs of the first pass, plus
   the harness's own share of each job: the job span's self time. *)
let span_layers ~pass_len ~names spans =
  let first = List.filter (fun (s : Spans.span) -> s.job < pass_len) spans in
  let totals = Spans.totals_by_name first in
  let total name field =
    match List.assoc_opt name totals with
    | Some (_, incl, self) -> field incl self
    | None -> 0.0
  in
  ("bench.unattributed_s", total "job" (fun _ self -> self))
  :: List.map (fun (metric, span) -> (metric, total span (fun incl _ -> incl))) names

let write_spans cfg workload spans =
  if spans <> [] then
    Spans.write_jsonl
      (Filename.concat cfg.out_dir
         (Printf.sprintf "spans-%s-seed%d.jsonl" workload cfg.seed))
      spans

(* Outputs of later rounds must equal the first round's byte for byte
   (the pipelines are deterministic), so only first-round outputs need
   the oracle; a repeat that differs is a failure. Job [i] ran distinct
   job [distinct.(i)], whose first run was job [distinct.(i)]. *)
let count_failures ~distinct ~outputs ~verdicts =
  let failed = ref 0 in
  Array.iteri
    (fun i out ->
      let first = distinct.(i) in
      let ok =
        match (out, outputs.(first)) with
        | Some text, Some reference -> verdicts.(first) && String.equal text reference
        | _ -> false
      in
      if not ok then incr failed)
    outputs;
  !failed

(* lits_out and gates_out: the quality summed over the first pass's
   outputs that passed the oracle. *)
let sum_quality quality ~outputs ~verdicts =
  let lits = ref 0 and gates = ref 0 in
  Array.iteri
    (fun i ok ->
      match outputs.(i) with
      | Some text when ok ->
        let l, g = quality text in
        lits := !lits + l;
        gates := !gates + g
      | _ -> ())
    verdicts;
  (!lits, !gates)

(* ------------------------------------------------------------------ *)
(* optimize-suite                                                       *)
(* ------------------------------------------------------------------ *)

let step_name = function
  | Script.Sweep -> "sweep"
  | Script.Eliminate _ -> "eliminate"
  | Script.Simplify -> "simplify"
  | Script.Full_simplify -> "full_simplify"
  | Script.Gcx -> "gcx"
  | Script.Gkx -> "gkx"
  | Script.Resub -> "resub"

let suite_jobs = 2

(* The layer-by-layer pipeline the optimize-suite jobs run: the steps of
   Job.execute, split so each layer call gets its own span. *)
let suite_pipeline ?counters spans (c : Inputs.circuit) (m : Inputs.meth) =
  let net = Spans.record spans "network.blif_parse" (fun () -> Blif.parse c.text) in
  Spans.record spans "synth.script" (fun () ->
      List.iter
        (fun step ->
          Spans.record spans ("synth.script." ^ step_name step) (fun () ->
              Script.run net [ step ]))
        Script.script_a);
  Spans.record spans ("synth.resub." ^ m.label) (fun () ->
      Script.resub_command ~jobs:suite_jobs ?counters m.engine net);
  Spans.record spans "network.blif_write" (fun () -> Blif.to_string net)

let suite_request (c : Inputs.circuit) (m : Inputs.meth) =
  { (Protocol.default_request ~blif:c.text) with script = "a"; meth = m.wire; jobs = suite_jobs }

(* Byte identity of the pipeline against Job.run_cold, the reference a
   user-facing run must match. Returns the mismatching jobs. *)
let fidelity pass =
  List.filter_map
    (fun ((c : Inputs.circuit), (m : Inputs.meth)) ->
      let ours = suite_pipeline (Spans.create ~enabled:false ()) c m in
      match Job.run_cold (suite_request c m) with
      | Ok entry when String.equal entry.Cache.blif ours -> None
      | Ok _ -> Some (c.name, m.label, "output differs from Job.run_cold")
      | Error msg -> Some (c.name, m.label, msg)
      | exception e -> Some (c.name, m.label, Printexc.to_string e))
    pass

(* Three rounds at least, so every job has three chances at a quiet
   stretch of the host. *)
let suite_rounds = 3

let optimize_suite cfg =
  let pass, setup_s, setups =
    setup_best ~n:21 (fun () -> Inputs.suite_pass (Inputs.suite_timed ~seed:cfg.seed))
  in
  let pass = Array.of_list pass in
  let n = Array.length pass in
  let spans = Spans.create ~enabled:cfg.traced () in
  let pass_counters = Counters.create () in
  let outputs = ref [] in
  let job i j =
    let c, m = pass.(j) in
    let counters = if cfg.traced then Some (Counters.create ()) else None in
    Spans.set_job spans i;
    let out, wall, cpu =
      timed (fun () ->
          try Some (Spans.record spans "job" (fun () -> suite_pipeline ?counters spans c m))
          with _ -> None)
    in
    outputs := out :: !outputs;
    (match counters with
    | Some c when i < n -> add_job_counters pass_counters c
    | _ -> ());
    (wall, cpu)
  in
  let all = List.init n Fun.id in
  let ph =
    timed_phase (fun () ->
        rounds ~seconds:cfg.seconds ~min_rounds:suite_rounds ~round_jobs:(fun _ -> all) job)
  in
  let samples, nrounds = ph.result in
  let job_s_p50, jobs_per_s, cpu_s_per_job = best_of ~distinct:n samples in
  let outputs = Array.of_list (List.rev !outputs) in
  let t0 = Probe.now () in
  let verdicts =
    Array.init n (fun i ->
        match outputs.(i) with
        | Some output -> Oracle.blif ~input:(fst pass.(i)).Inputs.text ~output
        | None -> false)
  in
  let verify_s = Probe.now () -. t0 in
  let distinct = Array.map (fun s -> s.distinct) samples in
  let failed = count_failures ~distinct ~outputs ~verdicts in
  let lits, gates = sum_quality Oracle.blif_quality ~outputs ~verdicts in
  let spans = Spans.spans spans in
  let layers =
    if not cfg.traced then []
    else
      span_layers ~pass_len:n spans
        ~names:
          ([
             ("network.blif_parse_s", "network.blif_parse");
             ("network.blif_write_s", "network.blif_write");
             ("synth.script_s", "synth.script");
           ]
          @ List.map
              (fun step ->
                let s = "synth.script." ^ step_name step in
                (s ^ "_s", s))
              Script.script_a
          @ List.map
              (fun (m : Inputs.meth) ->
                let s = "synth.resub." ^ m.label in
                (s ^ "_s", s))
              Inputs.methods)
      @ counter_layers pass_counters
      @ [ ("bdd.verify_s", verify_s) ]
      @ gc_layers ph.gc_used (Array.length samples)
  in
  {
    attempted = Array.length outputs;
    failed;
    setup_s;
    setups;
    job_times = Array.map (fun s -> s.job_wall) samples;
    rounds = nrounds;
    elapsed = ph.wall;
    job_s_p50;
    jobs_per_s;
    cpu_s_per_job;
    distinct = n;
    lits_out = lits;
    gates_out = gates;
    peak_rss_mb = ph.rss;
    layers;
    spans;
  }

(* ------------------------------------------------------------------ *)
(* optimize-aig                                                         *)
(* ------------------------------------------------------------------ *)

let window_times trace_file ~start =
  let stamps =
    In_channel.with_open_text trace_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match Trace.fields_of_line line with
           | Some fields when List.assoc_opt "event" fields = Some (`String "aig_window") -> (
             match List.assoc_opt "t" fields with
             | Some (`Float t) -> Some t
             | _ -> None)
           | _ -> None)
  in
  let _, gaps =
    List.fold_left (fun (prev, acc) t -> (t, (t -. prev) :: acc)) (start, []) stamps
  in
  gaps

let aig_rounds = 2

let optimize_aig ?circuits cfg =
  let circuits, setup_s, setups =
    setup_best ~n:21 (fun () ->
        Array.of_list
          (match circuits with Some cs -> cs | None -> Inputs.aig ~seed:cfg.seed))
  in
  let n = Array.length circuits in
  let spans = Spans.create ~enabled:cfg.traced () in
  let pass_counters = Counters.create () in
  let outputs = ref [] and stats = ref [] and gaps = ref [] in
  let job i j =
    let c = circuits.(j) in
    let counters = if cfg.traced then Some (Counters.create ()) else None in
    let trace_file =
      Filename.concat cfg.out_dir (Printf.sprintf "aig-trace-%d.jsonl" i)
    in
    let trace = if cfg.traced then Trace.to_file trace_file else Trace.disabled in
    Spans.set_job spans i;
    let out, wall, cpu =
      timed @@ fun () ->
      try
        Some
          (Spans.record spans "job" (fun () ->
               let aig =
                 Spans.record spans "network.aiger_parse" (fun () ->
                     Aiger.parse c.Inputs.text)
               in
               let result, st =
                 Spans.record spans "synth.aig_opt" (fun () ->
                     Synth.Aig_opt.optimize ?counters ~trace aig)
               in
               let text =
                 Spans.record spans "network.aiger_write" (fun () ->
                     Aiger.to_string result)
               in
               (text, st)))
      with _ -> None
    in
    Trace.close trace;
    outputs := Option.map fst out :: !outputs;
    if i < n then begin
      Option.iter (fun (_, st) -> stats := st :: !stats) out;
      Option.iter (add_job_counters pass_counters) counters;
      if cfg.traced then begin
        let start =
          List.find_map
            (fun (s : Spans.span) ->
              if s.job = i && s.name = "synth.aig_opt" then Some s.start else None)
            (Spans.spans spans)
        in
        Option.iter (fun start -> gaps := window_times trace_file ~start @ !gaps) start
      end
    end;
    if cfg.traced then Sys.remove trace_file;
    (wall, cpu)
  in
  (* The medium circuit runs in the first round only: one run of it is
     long enough to average the host's slow stretches by itself, and
     repeating it would double the run. *)
  let round_jobs r =
    List.filter
      (fun j -> r = 0 || circuits.(j).Inputs.name <> Inputs.aig_medium)
      (List.init n Fun.id)
  in
  let ph =
    timed_phase (fun () -> rounds ~seconds:cfg.seconds ~min_rounds:aig_rounds ~round_jobs job)
  in
  let samples, nrounds = ph.result in
  let job_s_p50, jobs_per_s, cpu_s_per_job = best_of ~distinct:n samples in
  let outputs = Array.of_list (List.rev !outputs) in
  let t0 = Probe.now () in
  let verdicts =
    Array.init n (fun i ->
        match outputs.(i) with
        | Some output -> Oracle.aiger ~input:circuits.(i).Inputs.text ~output
        | None -> false)
  in
  let verify_s = Probe.now () -. t0 in
  let distinct = Array.map (fun s -> s.distinct) samples in
  let failed = count_failures ~distinct ~outputs ~verdicts in
  let lits, gates = sum_quality Oracle.aiger_quality ~outputs ~verdicts in
  let spans = Spans.spans spans in
  let layers =
    if not cfg.traced then []
    else begin
      let sum f = List.fold_left (fun acc st -> acc + f st) 0 !stats in
      let windows = float_of_int (sum (fun s -> s.Synth.Aig_opt.windows)) in
      let share f = Probe.ratio (float_of_int (sum f)) windows in
      let from_spans =
        span_layers ~pass_len:n spans
          ~names:
            [
              ("network.aiger_parse_s", "network.aiger_parse");
              ("network.aiger_write_s", "network.aiger_write");
              ("synth.aig_opt_s", "synth.aig_opt");
            ]
      in
      let aig_opt_s = List.assoc "synth.aig_opt_s" from_spans in
      let engine_s =
        Atomic.get pass_counters.division_seconds
        +. Atomic.get pass_counters.filter_seconds
        +. Atomic.get pass_counters.validation_seconds
      in
      let gaps_ms = Array.of_list (List.map (fun g -> 1000.0 *. g) !gaps) in
      from_spans
      @ [
          ("synth.aig_windows", windows);
          ("synth.aig_window_ms_p50", Probe.percentile gaps_ms 50.0);
          ("synth.aig_window_ms_p90", Probe.percentile gaps_ms 90.0);
          ("synth.aig_accept_ratio", share (fun s -> s.accepted));
          ("synth.aig_revert_ratio", share (fun s -> s.reverted));
          ("synth.aig_skip_ratio", share (fun s -> s.skipped));
          ("synth.aig_window_rest_s", aig_opt_s -. engine_s);
        ]
      @ counter_layers pass_counters
      @ [ ("bdd.verify_s", verify_s) ]
      @ gc_layers ph.gc_used (Array.length samples)
    end
  in
  {
    attempted = Array.length outputs;
    failed;
    setup_s;
    setups;
    job_times = Array.map (fun s -> s.job_wall) samples;
    rounds = nrounds;
    elapsed = ph.wall;
    job_s_p50;
    jobs_per_s;
    cpu_s_per_job;
    distinct = n;
    lits_out = lits;
    gates_out = gates;
    peak_rss_mb = ph.rss;
    layers;
    spans;
  }

(* ------------------------------------------------------------------ *)
(* daemon-mix                                                           *)
(* ------------------------------------------------------------------ *)

(* rarsubd --jobs 2. The pool behind it runs jobs - 1 worker domains. *)
let daemon_jobs = 2

let daemon_clients = 2

let daemon_config socket =
  {
    (Server.default_config ~socket_path:socket) with
    jobs = daemon_jobs;
    cache =
      Some
        {
          Cache.max_entries = Inputs.daemon_cache_entries;
          max_bytes = Cache.default_config.max_bytes;
        };
  }

type round_trip = {
  index : int;  (** position in the request stream *)
  key : int;
  start : float;
  seconds : float;
  hit : bool;
  ok : bool;  (** answered, and byte-identical to the cold reference *)
}

(* Room for more requests than any run makes at this size. *)
let stream_rounds = 2_000

(* The stream's rounds have identical content, so each complete round
   after the first (which fills the cache) is one repetition of the mix.
   job_s_p50 is the 25th percentile over those rounds of each round's
   median round trip: the host runs slow for seconds at a time, and the
   better quartile of the rounds leaves those stretches out. jobs_per_s
   is their requests over the wall seconds from the first one's start to
   the last reply: which keys miss differs from round to round, and a
   few expensive misses more or less move a single round's rate by a
   large step, so the rate is taken over all of them. A run too short
   for two rounds reports its whole stream. Returns (job_s_p50,
   jobs_per_s, rounds). *)
let round_stats ~round_length (trips : round_trip array) =
  let rate trips =
    let first = Array.fold_left (fun acc t -> Float.min acc t.start) Float.infinity trips in
    let last = Array.fold_left (fun acc t -> Float.max acc (t.start +. t.seconds)) 0.0 trips in
    Probe.ratio (float_of_int (Array.length trips)) (last -. first)
  in
  let median trips = Probe.median (Array.map (fun t -> t.seconds) trips) in
  let rounds = Array.length trips / round_length in
  if rounds < 2 then (median trips, rate trips, rounds)
  else
    let round r = Array.sub trips (r * round_length) round_length in
    let medians = Array.init (rounds - 1) (fun r -> median (round (r + 1))) in
    ( Probe.percentile medians 25.0,
      rate (Array.sub trips round_length ((rounds - 1) * round_length)),
      rounds )

let daemon_mix cfg =
  let socket = Filename.concat cfg.out_dir "daemon.sock" in
  let (keys, requests, references), setup_s, setups =
    setup_best ~n:5 (fun () ->
        let keys = Inputs.daemon_keys () in
        let requests =
          Array.map
            (fun ((c : Inputs.circuit), (m : Inputs.meth)) ->
              { (Protocol.default_request ~blif:c.text) with script = "a"; meth = m.wire; jobs = 1 })
            keys
        in
        let references =
          Array.map
            (fun request ->
              let t0 = Probe.now () in
              match Job.run_cold request with
              | Ok entry -> (entry, Probe.now () -. t0)
              | Error msg -> failwith ("daemon-mix reference: " ^ msg))
            requests
        in
        Server.with_server (daemon_config socket) ignore;
        (keys, requests, references))
  in
  let stream =
    Inputs.daemon_stream ~seed:cfg.seed ~keys:(Array.length keys) ~rounds:stream_rounds
  in
  let stream_length = Array.length stream in
  let next = Atomic.make 0 in
  let server_stats = ref None in
  let client id until () =
    let spans = Spans.create ~base:((id + 1) * 100_000_000) ~enabled:cfg.traced () in
    let samples = ref [] in
    let conn = ref (Server.Client.connect ~timeout:120.0 socket) in
    while Probe.now () < until do
      let index = Atomic.fetch_and_add next 1 in
      let r = stream.(index mod stream_length) in
      let request = { requests.(r.key) with use_cache = r.use_cache } in
      Spans.set_job spans index;
      let t0 = Probe.now () in
      let response =
        try Some (Spans.record spans "service.round_trip" (fun () -> Server.Client.request !conn request))
        with _ ->
          (try Server.Client.close !conn with _ -> ());
          conn := Server.Client.connect ~timeout:120.0 socket;
          None
      in
      let seconds = Probe.now () -. t0 in
      let hit, ok =
        match response with
        | Some (Protocol.Result { blif; cache_hit; _ }) ->
          (cache_hit, String.equal blif (fst references.(r.key)).Cache.blif)
        | Some (Protocol.Refused _) | None -> (false, false)
      in
      samples := { index; key = r.key; start = t0; seconds; hit; ok } :: !samples
    done;
    Server.Client.close !conn;
    (!samples, Spans.spans spans)
  in
  let ph, results =
    Server.with_server (daemon_config socket) (fun server ->
        let results = ref [] in
        let ph =
          timed_phase (fun () ->
              let until = Probe.now () +. cfg.seconds in
              results :=
                List.map Domain.join
                  (List.init daemon_clients (fun id -> Domain.spawn (client id until))))
        in
        server_stats := Some (Server.stats server);
        (ph, !results))
  in
  let samples =
    List.concat_map fst results
    |> List.sort (fun a b -> compare a.index b.index)
    |> Array.of_list
  in
  let spans = List.concat_map snd results in
  let t0 = Probe.now () in
  let verdicts =
    Array.mapi
      (fun i ((c : Inputs.circuit), _) ->
        Oracle.blif ~input:c.text ~output:(fst references.(i)).Cache.blif)
      keys
  in
  let verify_s = Probe.now () -. t0 in
  let failed =
    Array.fold_left
      (fun acc s -> if s.ok && verdicts.(s.key) then acc else acc + 1)
      0 samples
  in
  let lits, gates =
    Array.fold_left
      (fun (l, g) ((entry : Cache.entry), _) ->
        let l', g' = Oracle.blif_quality entry.blif in
        (l + l', g + g'))
      (0, 0) references
  in
  let times = Array.map (fun s -> s.seconds) samples in
  let job_s_p50, jobs_per_s, nrounds =
    round_stats ~round_length:(Inputs.daemon_round_length ~keys:(Array.length keys)) samples
  in
  let layers =
    if not cfg.traced then []
    else begin
      let pick p = Array.of_list (List.filter p (Array.to_list samples)) in
      let hits = Array.map (fun s -> s.seconds) (pick (fun s -> s.hit)) in
      let misses = pick (fun s -> not s.hit) in
      let miss_times = Array.map (fun s -> s.seconds) misses in
      let over_cold =
        Array.map (fun s -> s.seconds /. snd references.(s.key)) misses
      in
      let seen = Array.make (Array.length keys) false in
      let repeats =
        Array.fold_left
          (fun acc s ->
            let again = seen.(s.key) in
            seen.(s.key) <- true;
            if again then acc + 1 else acc)
          0 samples
      in
      let stats = Option.get !server_stats in
      let cache = Option.get stats.Server.cache in
      [
        ("service.hit_s_p50", Probe.percentile hits 50.0);
        ("service.hit_s_p90", Probe.percentile hits 90.0);
        ("service.miss_s_p50", Probe.percentile miss_times 50.0);
        ("service.miss_s_p90", Probe.percentile miss_times 90.0);
        ("service.job_s_p90", Probe.percentile times 90.0);
        ("service.miss_over_cold", Probe.median over_cold);
        ( "service.cache_hit_ratio",
          Probe.ratio (float_of_int cache.Cache.hits)
            (float_of_int (cache.hits + cache.misses)) );
        ("service.cache_insertions", float_of_int cache.insertions);
        ("service.cache_evictions", float_of_int cache.evictions);
        ( "service.repeat_share",
          Probe.ratio (float_of_int repeats) (float_of_int (Array.length samples)) );
        ("service.refused", float_of_int stats.refused);
        ("bdd.verify_s", verify_s);
      ]
      @ gc_layers ph.gc_used (Array.length samples)
    end
  in
  {
    attempted = Array.length samples;
    failed;
    setup_s;
    setups;
    job_times = times;
    rounds = nrounds;
    elapsed = ph.wall;
    job_s_p50;
    jobs_per_s;
    cpu_s_per_job = Probe.ratio ph.cpu_s (float_of_int (Array.length samples));
    distinct = Array.length keys;
    lits_out = lits;
    gates_out = gates;
    peak_rss_mb = ph.rss;
    layers;
    spans;
  }

let run cfg = function
  | "optimize-suite" -> optimize_suite cfg
  | "optimize-aig" -> optimize_aig cfg
  | "daemon-mix" -> daemon_mix cfg
  | other -> invalid_arg ("unknown workload " ^ other)
