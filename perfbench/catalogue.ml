(* Every metric the benchmark reports, with its unit. BENCHMARK.json
   lists the same names (the harness's tests hold the two together). *)

let workloads = [ "optimize-suite"; "optimize-aig"; "daemon-mix" ]

(* Reported by the untraced run. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("job_s_p50", "s");
    ("jobs_per_s", "1/s");
    ("cpu_s_per_job", "s");
    ("lits_out", "count");
    ("gates_out", "count");
    ("peak_rss_mb", "MB");
  ]

(* Reported by the traced run; a layer the workload does not run
   reports 0. *)
let per_layer =
  [
    ("network.blif_parse_s", "s");
    ("network.blif_write_s", "s");
    ("network.aiger_parse_s", "s");
    ("network.aiger_write_s", "s");
    ("synth.script_s", "s");
    ("synth.script.eliminate_s", "s");
    ("synth.script.simplify_s", "s");
    ("synth.resub.sis_s", "s");
    ("synth.resub.ext_s", "s");
    ("synth.resub.resub-k_s", "s");
    ("synth.kresub_candidates", "count");
    ("synth.kresub_validate_ratio", "ratio");
    ("synth.kresub_refinements", "count");
    ("synth.kresub_validation_s", "s");
    ("synth.aig_opt_s", "s");
    ("synth.aig_windows", "count");
    ("synth.aig_window_ms_p50", "ms");
    ("synth.aig_window_ms_p90", "ms");
    ("synth.aig_accept_ratio", "ratio");
    ("synth.aig_revert_ratio", "ratio");
    ("synth.aig_skip_ratio", "ratio");
    ("synth.aig_window_rest_s", "s");
    ("core.division_s", "s");
    ("core.divisions", "count");
    ("core.substitutions", "count");
    ("core.substitution_yield", "ratio");
    ("core.memo_hit_ratio", "ratio");
    ("core.passes", "count");
    ("core.speculative_s", "s");
    ("core.speculative_waste_ratio", "ratio");
    ("core.degradations", "count");
    ("sim.filter_s", "s");
    ("sim.pairs_considered", "count");
    ("sim.filter_prune_ratio", "ratio");
    ("bdd.verify_s", "s");
    ("atpg.imply_creates", "count");
    ("atpg.imply_resets", "count");
    ("atpg.checkpoints_per_division", "ratio");
    ("service.hit_s_p50", "s");
    ("service.hit_s_p90", "s");
    ("service.miss_s_p50", "s");
    ("service.miss_s_p90", "s");
    ("service.job_s_p90", "s");
    ("service.miss_over_cold", "ratio");
    ("service.cache_hit_ratio", "ratio");
    ("service.cache_insertions", "count");
    ("service.cache_evictions", "count");
    ("service.repeat_share", "ratio");
    ("service.refused", "count");
    ("gc.minor_mb", "MB");
    ("gc.promoted_mb", "MB");
    ("gc.major_collections", "count");
    ("bench.unattributed_s", "s");
  ]

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name
