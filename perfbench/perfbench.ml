(* Command-line driver of the benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
     perfbench --fidelity --seed N

   The first form runs one workload and prints a table of every metric
   with its unit and sample count, then, as the last line of standard
   output, one JSON object: {"correct", "attempted", "failed",
   "metrics"}. The untraced run reports the end-to-end metrics, the
   traced run the per-layer ones. The second form checks that the
   optimize-suite pipeline is byte-identical to Job.run_cold on every
   circuit x method. *)

open Perfbench_lib

let usage =
  "perfbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n\
  \       perfbench --fidelity --seed N"

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let end_to_end (r : Workloads.report) =
  let jobs = Array.length r.job_times in
  [
    ("setup_s", r.setup_s, r.setups);
    ("job_s_p50", r.job_s_p50, jobs);
    ("jobs_per_s", r.jobs_per_s, jobs);
    ("cpu_s_per_job", r.cpu_s_per_job, jobs);
    ("lits_out", float_of_int r.lits_out, r.distinct);
    ("gates_out", float_of_int r.gates_out, r.distinct);
    ("peak_rss_mb", r.peak_rss_mb, 1);
  ]

let print_table workload seed traced (r : Workloads.report) metrics =
  let jobs = Array.length r.job_times in
  Printf.printf "workload %s  seed %d  %s  jobs %d in %d rounds, %.3fs\n" workload
    seed
    (if traced then "traced" else "untraced")
    jobs r.rounds r.elapsed;
  List.iter
    (fun (name, value, count) ->
      let unit = List.assoc name (Catalogue.end_to_end @ Catalogue.per_layer) in
      Printf.printf "  %-34s %14s %-6s n=%d\n" name (json_number value) unit count)
    metrics;
  if Probe.has_p90 r.job_times then
    Printf.printf "  %-34s %14s %-6s n=%d\n" "job_s_p90"
      (json_number (Probe.percentile r.job_times 90.0))
      "s" jobs;
  Printf.printf "  %-34s %14s %-6s n=%d\n" "failed_frac"
    (json_number (Probe.ratio (float_of_int r.failed) (float_of_int r.attempted)))
    "ratio" r.attempted;
  if traced then begin
    Printf.printf "  traced job_s_p50 %s s n=%d\n" (json_number r.job_s_p50) jobs;
    Printf.printf "  self time by span (s, over the whole timed phase):\n";
    List.iter
      (fun (name, (count, incl, self)) ->
        Printf.printf "    %-32s n=%-6d incl %.6f self %.6f\n" name count incl self)
      (Spans.totals_by_name r.spans)
  end

let print_json (r : Workloads.report) metrics =
  let body =
    List.map
      (fun (name, value, _) ->
        let unit = List.assoc name (Catalogue.end_to_end @ Catalogue.per_layer) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed (String.concat ", " body)

let run_workload ~workload ~seed ~seconds ~traced ~out_dir =
  if not (List.mem workload Catalogue.workloads) then begin
    prerr_endline ("unknown workload " ^ workload);
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let cfg = { Workloads.seed; seconds; traced; out_dir } in
  let r = Workloads.run cfg workload in
  let metrics =
    if traced then
      let jobs = Array.length r.job_times in
      List.map
        (fun (name, _) ->
          (name, Option.value ~default:0.0 (List.assoc_opt name r.layers), jobs))
        Catalogue.per_layer
    else end_to_end r
  in
  if traced then Workloads.write_spans cfg workload r.spans;
  print_table workload seed traced r metrics;
  print_json r metrics

let run_fidelity ~seed =
  let pairs = Inputs.suite_pass (Inputs.suite ~seed) in
  let bad = Workloads.fidelity pairs in
  List.iter (fun (c, m, why) -> Printf.printf "MISMATCH %s %s: %s\n" c m why) bad;
  Printf.printf "fidelity: %d of %d circuit x method jobs byte-identical to Job.run_cold\n"
    (List.length pairs - List.length bad)
    (List.length pairs);
  if bad <> [] then exit 1

let () =
  let workload = ref "" and seed = ref Inputs.default_seed and seconds = ref 10.0 in
  let trace = ref 0 and out_dir = ref ".bench_out" and fidelity = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  one of the workloads");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--out", Arg.Set_string out_dir, "DIR  spans, trace files and socket");
      ("--fidelity", Arg.Set fidelity, " check the pipeline against Job.run_cold");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  if !fidelity then run_fidelity ~seed:!seed
  else if !workload = "" then begin
    prerr_endline usage;
    exit 2
  end
  else
    run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~traced:(!trace <> 0) ~out_dir:!out_dir
