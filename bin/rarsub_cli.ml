(* rarsub: Boolean division and substitution from the command line.

   Subcommands:
     list                          available circuits
     show  (-c NAME | -f FILE)     print a circuit and its statistics
     optimize (-c NAME | -f FILE)  run a script + resubstitution method
*)

module Network = Logic_network.Network
module Lit_count = Logic_network.Lit_count
module Suite = Bench_suite.Suite
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Circuit loading                                                     *)
(* ------------------------------------------------------------------ *)

(* [Error (exit_code, message)]: 1 for usage mistakes, 2 for unreadable
   or malformed circuit files (parse errors carry file:line: positions). *)
let load ~circuit ~file =
  match (circuit, file) with
  | Some _, Some _ ->
    Error (1, "pass either a circuit name or a BLIF file, not both")
  | None, None -> Error (1, "pass a circuit name (-c) or a BLIF file (-f)")
  | Some name, None -> (
    match Suite.find name with
    | Some row -> Ok (Suite.build row)
    | None -> (
      match List.assoc_opt name Bench_suite.Circuits.all with
      | Some builder -> Ok (builder ())
      | None ->
        Error
          (1, Printf.sprintf "unknown circuit %S (try 'rarsub list')" name)))
  | None, Some path -> (
    try Ok (Logic_network.Blif.read_file path) with
    | Logic_network.Blif.Parse_error { line; message } ->
      Error (2, Printf.sprintf "%s:%d: %s" path line message)
    | Sys_error msg -> Error (2, msg))

(* Like [load] but also returns the external don't-care view: the
   inline [.exdc] section of a BLIF file (named suite circuits carry
   none), with the cubes and EXOEC pairs of an [--exdc FILE] merged
   in. *)
let load_dc ~circuit ~file ~exdc =
  let base =
    match (circuit, file) with
    | None, Some path -> (
      try Ok (Logic_network.Blif.read_file_dc path) with
      | Logic_network.Blif.Parse_error { line; message } ->
        Error (2, Printf.sprintf "%s:%d: %s" path line message)
      | Sys_error msg -> Error (2, msg))
    | _ ->
      Result.map
        (fun net -> (net, Logic_network.Dont_care.create ()))
        (load ~circuit ~file)
  in
  match (base, exdc) with
  | (Error _ as e), _ | (Ok _ as e), None -> e
  | Ok (net, dc), Some path -> (
    try
      let extra = Logic_network.Blif.read_exdc_file net path in
      List.iter
        (Logic_network.Dont_care.add_excdc dc)
        (Logic_network.Dont_care.excdc extra);
      List.iter
        (fun (p1, p2) -> Logic_network.Dont_care.add_exoec_pair dc p1 p2)
        (Logic_network.Dont_care.exoec extra);
      Ok (net, dc)
    with
    | Logic_network.Blif.Parse_error { line; message } ->
      Error (2, Printf.sprintf "%s:%d: %s" path line message)
    | Sys_error msg -> Error (2, msg))

let print_counterexample output assignment =
  Printf.printf "counterexample: output %s differs under %s\n" output
    (String.concat " "
       (List.map
          (fun (name, v) -> Printf.sprintf "%s=%d" name (if v then 1 else 0))
          assignment))

let circuit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "circuit" ] ~docv:"NAME" ~doc:"Benchmark circuit name.")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Read the circuit from a BLIF file.")

let exdc_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "exdc" ] ~docv:"FILE"
        ~doc:
          "Read an external don't-care view (a BLIF $(b,.exdc) section) \
           from $(docv), merged with any inline section of the circuit \
           file. EXCDC cubes become forbidden input patterns for the \
           Boolean methods and mask the divisor filter; $(b,--verify) \
           checks modulo the view.")

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "benchmark rows (synthetic stand-ins unless noted):";
    List.iter
      (fun row ->
        let kind =
          match row.Suite.source with
          | Suite.Embedded _ -> "embedded"
          | Suite.Synthetic _ -> "synthetic"
        in
        Printf.printf "  %-14s (%s)\n" row.Suite.name kind)
      Suite.rows;
    print_endline "embedded circuits:";
    List.iter
      (fun (name, _) -> Printf.printf "  %s\n" name)
      Bench_suite.Circuits.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available circuits.")
    Term.(const (fun () -> run (); 0) $ const ())

(* ------------------------------------------------------------------ *)
(* show                                                                *)
(* ------------------------------------------------------------------ *)

let show_cmd =
  let run circuit file dump_blif =
    match load ~circuit ~file with
    | Error (code, msg) ->
      prerr_endline msg;
      code
    | Ok net ->
      if dump_blif then print_string (Logic_network.Blif.to_string net)
      else begin
        print_string (Network.to_string net);
        Printf.printf
          "\nnodes: %d   inputs: %d   outputs: %d\n\
           literals: %d flat, %d factored\n"
          (Network.node_count net)
          (List.length (Network.inputs net))
          (List.length (Network.outputs net))
          (Lit_count.flat net) (Lit_count.factored net)
      end;
      0
  in
  let blif_flag =
    Arg.(value & flag & info [ "blif" ] ~doc:"Dump as BLIF instead of equations.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a circuit and its statistics.")
    Term.(const run $ circuit_arg $ file_arg $ blif_flag)

(* ------------------------------------------------------------------ *)
(* optimize                                                            *)
(* ------------------------------------------------------------------ *)

let scripts =
  [
    ("none", []);
    ("a", Synth.Script.script_a);
    ("b", Synth.Script.script_b);
    ("c", Synth.Script.script_c);
    ("algebraic", Synth.Script.script_algebraic);
  ]

(* Method table: every entry takes the filter toggle and a counters
   record so optimize can report how much work the signature filter
   skipped. The "none" and "rar" methods have no divisor filtering. *)
let resubs =
  [ ("none", `Other (fun (_ : Network.t) -> ())) ]
  @ List.map
      (fun (name, meth) ->
        ((if name = "sis" then "resub" else name), `Method meth))
      Synth.Script.resub_methods
  @ [ ("rar", `Other (fun net -> ignore (Rewiring.Rar.optimize net))) ]

(* The counter line every optimize run ends with. Methods that rank
   divisors through the signature filter say whether it was on; the rest
   (none, rar, and resub-k, whose signatures generate candidates instead)
   print the same tallies unlabelled. *)
let print_counters ~filtered ~no_filter counters =
  let label =
    if filtered then
      Printf.sprintf "divisor filter (%s)" (if no_filter then "off" else "on")
    else "counters"
  in
  Printf.printf "%s: %s\n" label (Rar_util.Counters.to_string counters)

let optimize_cmd =
  let run circuit file exdc script method_name no_filter no_memo jobs
      sim_seed sim_words fault_budget deadline trace_file output verify
      verbose =
    if verbose then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Debug)
    end;
    match load_dc ~circuit ~file ~exdc with
    | Error (code, msg) ->
      prerr_endline msg;
      code
    | Ok (net, dc_view) -> (
      let dc =
        if Logic_network.Dont_care.is_empty dc_view then None
        else Some dc_view
      in
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
      let deadline_at =
        Option.map (fun s -> Unix.gettimeofday () +. s) deadline
      in
      let original = Network.copy net in
      let steps = List.assoc script scripts in
      let counters = Rar_util.Counters.create () in
      let jobs =
        match jobs with
        | Some 0 -> Rar_util.Pool.default_jobs ()
        | Some n -> max 1 n
        | None -> 1
      in
      let resub =
        match List.assoc method_name resubs with
        | `Other command -> command
        | `Method meth ->
          Synth.Script.resub_command ~use_filter:(not no_filter)
            ~use_memo:(not no_memo) ~jobs ~sim_seed ~sim_words
            ?fault_fuel:fault_budget ?deadline_at ~trace ~counters ?dc meth
      in
      Option.iter
        (fun dc ->
          Printf.printf "external don't cares: %d EXCDC cube(s), %d EXOEC pair(s)\n"
            (List.length (Logic_network.Dont_care.excdc dc))
            (List.length (Logic_network.Dont_care.exoec dc)))
        dc;
      Printf.printf "initial: %d factored literals\n" (Lit_count.factored net);
      let (), script_time =
        Rar_util.Stopwatch.time (fun () -> Synth.Script.run ~trace net steps)
      in
      if steps <> [] then
        Printf.printf "after script %s: %d literals (%.2fs)\n" script
          (Lit_count.factored net) script_time;
      let (), resub_time = Rar_util.Stopwatch.time (fun () -> resub net) in
      Printf.printf "after %s: %d literals (%.2fs)\n" method_name
        (Lit_count.factored net) resub_time;
      print_counters ~no_filter
        ~filtered:
          (match List.assoc method_name resubs with
          | `Method meth -> meth <> Synth.Script.Kresub
          | `Other _ -> false)
        counters;
      if verify then begin
        let result =
          match dc with
          | None -> Logic_sim.Equiv.check net original
          | Some dc -> Logic_sim.Equiv.check_dc dc net original
        in
        let label =
          match dc with
          | None -> "equivalence check"
          | Some _ -> "equivalence check (modulo DC)"
        in
        match result with
        | Logic_sim.Equiv.Equivalent -> Printf.printf "%s: pass\n" label
        | Logic_sim.Equiv.Counterexample { output; assignment } ->
          Printf.printf "%s: FAIL\n" label;
          print_counterexample output assignment;
          exit 2
      end;
      match output with
      | Some path ->
        (match dc with
        | None -> Logic_network.Blif.write_file path net
        | Some dc -> Logic_network.Blif.write_file_dc path net dc);
        Printf.printf "written to %s\n" path;
        0
      | None -> 0)
  in
  let script_arg =
    Arg.(
      value
      & opt (enum (List.map (fun (n, _) -> (n, n)) scripts)) "a"
      & info [ "s"; "script" ] ~docv:"SCRIPT"
          ~doc:"Starting script: $(b,none), $(b,a), $(b,b), $(b,c) or \
                $(b,algebraic).")
  in
  let method_arg =
    Arg.(
      value
      & opt (enum (List.map (fun (n, _) -> (n, n)) resubs)) "ext"
      & info [ "m"; "method" ] ~docv:"METHOD"
          ~doc:"Resubstitution method: $(b,none), $(b,resub) (algebraic), \
                $(b,basic), $(b,ext), $(b,ext-gdc), $(b,resub-k) \
                (constructive k-resubstitution) or $(b,rar).")
  in
  let no_filter_flag =
    Arg.(
      value & flag
      & info [ "no-filter" ]
          ~doc:
            "Disable the simulation-signature divisor filter (seed-style \
             exhaustive candidate ranking) for A/B comparisons.")
  in
  let no_memo_flag =
    Arg.(
      value & flag
      & info [ "no-memo" ]
          ~doc:
            "Disable the division-failure memo (re-attempt every pair on \
             every pass, as the seed did) for A/B comparisons. Final \
             networks are bit-identical either way.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Scan whole dividends speculatively on $(docv) domains \
             (default 1); commits stay serial in ascending dividend order, \
             so results are bit-identical for any value. $(b,0) means one \
             domain per core, negative values mean 1.")
  in
  let sim_seed_arg =
    Arg.(
      value
      & opt int Logic_sim.Signature.default_seed
      & info [ "sim-seed" ] ~docv:"SEED"
          ~doc:"RNG seed for the simulation-signature divisor filter.")
  in
  let sim_words_arg =
    Arg.(
      value
      & opt int Logic_sim.Signature.default_words
      & info [ "sim-words" ] ~docv:"N"
          ~doc:
            "Signature vector size in 64-bit words (default 8 = 512 \
             bits). Larger vectors make the signature engines more \
             discriminating at more simulation cost per node.")
  in
  let fault_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-budget" ] ~docv:"N"
          ~doc:
            "Cap the implication steps each division attempt may spend. \
             Exhausted attempts degrade to their algebraic result instead \
             of running on; the run always completes.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Soft wall-clock limit for the resubstitution phase. Work \
             still pending when it passes is skipped (degraded), never \
             aborted.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write structured JSON-lines trace events (phase spans, \
             per-unit timings, degradations, counter snapshots) to \
             $(docv). No overhead when absent.")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the result as BLIF.")
  in
  let verify_flag =
    Arg.(
      value & flag
      & info [ "verify" ] ~doc:"Equivalence-check the result (exit 2 on failure).")
  in
  let verbose_flag =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Log every committed substitution.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimise a circuit with a script and a method.")
    Term.(
      const run $ circuit_arg $ file_arg $ exdc_arg $ script_arg $ method_arg
      $ no_filter_flag $ no_memo_flag $ jobs_arg $ sim_seed_arg
      $ sim_words_arg $ fault_budget_arg $ deadline_arg $ trace_arg
      $ output_arg $ verify_flag $ verbose_flag)

(* ------------------------------------------------------------------ *)
(* optimize-aig                                                        *)
(* ------------------------------------------------------------------ *)

(* Windowed resubstitution over an ASCII-AIGER circuit: the same
   scripts and methods as [optimize], run per fanin-bounded window of
   the AIG (Synth.Aig_opt) so tens-of-thousands-of-gate benchmarks fit.
   Exit codes follow [optimize]: 1 usage, 2 unreadable input or failed
   verification. *)
let optimize_aig_cmd =
  let run file exdc script method_name no_filter no_memo jobs sim_seed
      sim_words fault_budget deadline max_window max_leaves trace_file output
      verify verbose =
    if verbose then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Debug)
    end;
    let aig =
      try Ok (Logic_network.Aiger.read_file file) with
      | Logic_network.Aiger.Parse_error { line; message } ->
        Error (Printf.sprintf "%s:%d: %s" file line message)
      | Sys_error msg -> Error msg
    in
    (* The view is resolved against a shell network holding just the
       AIG's input names: [.exdc] cubes are over primary inputs, which
       is all the per-window projection ever looks at. *)
    let dc =
      match (aig, exdc) with
      | Error _, _ | _, None -> Ok None
      | Ok aig, Some path -> (
        let shell = Network.create () in
        List.iter
          (fun (name, _) -> ignore (Network.add_input shell name))
          (Logic_network.Aig.inputs aig);
        try
          let dc = Logic_network.Blif.read_exdc_file shell path in
          if Logic_network.Dont_care.is_empty dc then Ok None
          else Ok (Some dc)
        with
        | Logic_network.Blif.Parse_error { line; message } ->
          Error (Printf.sprintf "%s:%d: %s" path line message)
        | Sys_error msg -> Error msg)
    in
    match
      match (aig, dc) with
      | (Error _ as e), _ | _, (Error _ as e) -> e
      | Ok aig, Ok dc -> Ok (aig, dc)
    with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok (aig, dc) -> (
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
        let deadline_at =
          Option.map (fun s -> Unix.gettimeofday () +. s) deadline
        in
        let counters = Rar_util.Counters.create () in
        let jobs =
          match jobs with
          | Some 0 -> Rar_util.Pool.default_jobs ()
          | Some n -> max 1 n
          | None -> 1
        in
        let config =
          {
            Synth.Aig_opt.default_config with
            Synth.Aig_opt.script = List.assoc script scripts;
            meth = List.assoc method_name Synth.Script.resub_methods;
            use_filter = not no_filter;
            use_memo = not no_memo;
            jobs;
            sim_seed;
            sim_words;
            max_gates = max_window;
            max_leaves;
            dc;
          }
        in
        Option.iter
          (fun dc ->
            Printf.printf "external don't cares: %d EXCDC cube(s)\n"
              (List.length (Logic_network.Dont_care.excdc dc)))
          dc;
        Printf.printf "initial: %d gates, %d inputs\n"
          (Logic_network.Aig.num_ands aig)
          (Logic_network.Aig.num_inputs aig);
        let (optimised, stats), seconds =
          Rar_util.Stopwatch.time (fun () ->
              Synth.Aig_opt.optimize ~config ?fault_fuel:fault_budget
                ?deadline_at ~trace ~counters aig)
        in
        Printf.printf
          "after %s/%s: %d gates (%.2fs)\n\
           windows: %d   accepted: %d   reverted: %d   skipped: %d\n"
          script method_name stats.Synth.Aig_opt.gates_after seconds
          stats.Synth.Aig_opt.windows stats.Synth.Aig_opt.accepted
          stats.Synth.Aig_opt.reverted stats.Synth.Aig_opt.skipped;
        print_counters ~no_filter
          ~filtered:
            (List.assoc method_name Synth.Script.resub_methods
            <> Synth.Script.Kresub)
          counters;
        if verify then begin
          let before = Logic_network.Aig.to_network aig
          and after = Logic_network.Aig.to_network optimised in
          let result =
            match dc with
            | None -> Logic_sim.Equiv.check before after
            | Some dc -> Logic_sim.Equiv.check_dc dc before after
          in
          let label =
            match dc with
            | None -> "equivalence check"
            | Some _ -> "equivalence check (modulo DC)"
          in
          match result with
          | Logic_sim.Equiv.Equivalent -> Printf.printf "%s: pass\n" label
          | Logic_sim.Equiv.Counterexample { output; assignment } ->
            Printf.printf "%s: FAIL\n" label;
            print_counterexample output assignment;
            exit 2
        end;
        match output with
        | Some path ->
          Logic_network.Aiger.write_file path optimised;
          Printf.printf "written to %s\n" path;
          0
        | None -> 0)
  in
  let file_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:"Read the circuit from an ASCII-AIGER ($(b,.aag)) file.")
  in
  let script_arg =
    Arg.(
      value
      & opt (enum (List.map (fun (n, _) -> (n, n)) scripts)) "a"
      & info [ "s"; "script" ] ~docv:"SCRIPT"
          ~doc:"Starting script run on each window: $(b,none), $(b,a), \
                $(b,b), $(b,c) or $(b,algebraic).")
  in
  let method_arg =
    Arg.(
      value
      & opt
          (enum
             (List.map (fun (n, _) -> (n, n)) Synth.Script.resub_methods))
          "ext"
      & info [ "m"; "method" ] ~docv:"METHOD"
          ~doc:"Resubstitution method per window: $(b,sis), $(b,basic), \
                $(b,ext), $(b,ext-gdc) or $(b,resub-k).")
  in
  let no_filter_flag =
    Arg.(
      value & flag
      & info [ "no-filter" ]
          ~doc:"Disable the simulation-signature divisor filter.")
  in
  let no_memo_flag =
    Arg.(
      value & flag
      & info [ "no-memo" ] ~doc:"Disable the division-failure memo.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Speculative dividend-scan parallelism inside each window \
             (default 1); windows run in order. Output bytes are \
             identical for any value; $(b,0) means one domain per core.")
  in
  let sim_seed_arg =
    Arg.(
      value
      & opt int Logic_sim.Signature.default_seed
      & info [ "sim-seed" ] ~docv:"SEED"
          ~doc:"RNG seed for the simulation-signature divisor filter.")
  in
  let sim_words_arg =
    Arg.(
      value
      & opt int Logic_sim.Signature.default_words
      & info [ "sim-words" ] ~docv:"N"
          ~doc:
            "Signature vector size in 64-bit words for the per-window \
             engines (default 8 = 512 bits).")
  in
  let fault_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-budget" ] ~docv:"N"
          ~doc:"Cap the implication steps each division attempt may spend.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Soft wall-clock limit. Windows not yet spliced when it \
             passes are skipped; the result so far is still written.")
  in
  let max_window_arg =
    Arg.(
      value
      & opt int Synth.Aig_opt.default_config.Synth.Aig_opt.max_gates
      & info [ "max-window" ] ~docv:"N"
          ~doc:"Gate cap per optimisation window.")
  in
  let max_leaves_arg =
    Arg.(
      value
      & opt int Synth.Aig_opt.default_config.Synth.Aig_opt.max_leaves
      & info [ "max-leaves" ] ~docv:"N"
          ~doc:"Leaf (window input) cap per optimisation window.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write structured JSON-lines trace events to $(docv).")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the result as ASCII AIGER.")
  in
  let verify_flag =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Equivalence-check the result (exit 2 on failure).")
  in
  let verbose_flag =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")
  in
  Cmd.v
    (Cmd.info "optimize-aig"
       ~doc:"Optimise an ASCII-AIGER circuit window by window.")
    Term.(
      const run $ file_arg $ exdc_arg $ script_arg $ method_arg
      $ no_filter_flag $ no_memo_flag $ jobs_arg $ sim_seed_arg
      $ sim_words_arg $ fault_budget_arg $ deadline_arg $ max_window_arg
      $ max_leaves_arg $ trace_arg $ output_arg $ verify_flag
      $ verbose_flag)

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

(* Submit one job to a running rarsubd and print the optimised BLIF on
   stdout (stderr carries the summary, so stdout pipes clean). The
   request mirrors the optimize flags; the daemon guarantees the reply
   is byte-identical to the corresponding cold [optimize -o] run. *)
let client_cmd =
  let read_all ic =
    let buf = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel buf ic 4096
       done
     with End_of_file -> ());
    buf
  in
  let run socket circuit file exdc script method_name no_filter no_memo jobs
      sim_seed sim_words fault_budget deadline no_cache timeout output =
    let blif =
      (* Inline [.exdc] sections ride along in the body (the daemon
         splits them back out); an [--exdc FILE] travels verbatim in the
         request's [exdc] field and is merged daemon-side. *)
      match (circuit, file) with
      | None, None -> Ok (Buffer.contents (read_all stdin))
      | _ ->
        Result.map
          (fun (net, dc) -> Logic_network.Blif.to_string_dc net dc)
          (load_dc ~circuit ~file ~exdc:None)
    in
    let exdc_text =
      match exdc with
      | None -> Ok None
      | Some path -> (
        try
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              Ok (Some (really_input_string ic (in_channel_length ic))))
        with Sys_error msg -> Error (2, msg))
    in
    match
      match (blif, exdc_text) with
      | (Error _ as e), _ | _, (Error _ as e) -> e
      | Ok blif, Ok exdc -> Ok (blif, exdc)
    with
    | Error (code, msg) ->
      prerr_endline msg;
      code
    | Ok (blif, exdc) -> (
      let request =
        {
          (Rar_service.Protocol.default_request ~blif) with
          script;
          meth = method_name;
          use_filter = not no_filter;
          use_memo = not no_memo;
          jobs = (match jobs with Some n -> max 0 n | None -> 1);
          sim_seed;
          sim_words;
          fault_budget;
          deadline;
          use_cache = not no_cache;
          exdc;
        }
      in
      match Rar_service.Server.Client.round_trip ?timeout ~socket request with
      | exception Rar_service.Server.Client.Timeout ->
        prerr_endline "rarsub client: timed out waiting for the daemon";
        3
      | exception Unix.Unix_error (err, _, _) ->
        Printf.eprintf "rarsub client: %s: %s\n" socket
          (Unix.error_message err);
        3
      | exception Rar_service.Protocol.Frame_error msg ->
        (* A daemon that vanished mid-session (SIGPIPE is ignored in
           [Client.connect]; EPIPE surfaces here as a [Frame_error])
           is reported like a malformed input, not a signal death. *)
        Printf.eprintf "rarsub client: %s: %s\n" socket msg;
        2
      | Rar_service.Protocol.Refused message ->
        Printf.eprintf "rarsub client: refused: %s\n" message;
        2
      | Rar_service.Protocol.Result { blif; literals; cache_hit; _ } ->
        Printf.eprintf "literals: %d (%s)\n" literals
          (if cache_hit then "cache hit" else "cache miss");
        (match output with
        | Some path ->
          let oc = open_out path in
          output_string oc blif;
          close_out oc
        | None -> print_string blif);
        0)
  in
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"The rarsubd Unix-domain socket.")
  in
  let script_arg =
    Arg.(
      value
      & opt (enum (List.map (fun (n, _) -> (n, n)) scripts)) "a"
      & info [ "s"; "script" ] ~docv:"SCRIPT" ~doc:"Starting script.")
  in
  let method_arg =
    Arg.(
      value
      & opt (enum (List.map (fun (n, _) -> (n, n)) resubs)) "ext"
      & info [ "m"; "method" ] ~docv:"METHOD" ~doc:"Resubstitution method.")
  in
  let no_filter_flag =
    Arg.(value & flag & info [ "no-filter" ] ~doc:"Disable the divisor filter.")
  in
  let no_memo_flag =
    Arg.(value & flag & info [ "no-memo" ] ~doc:"Disable the division memo.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains the job may use (default 1; $(b,0) means one \
             per daemon core). Output bytes are identical for any value.")
  in
  let sim_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "sim-seed" ] ~docv:"SEED"
          ~doc:"RNG seed for the divisor filter (default: the daemon's).")
  in
  let sim_words_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "sim-words" ] ~docv:"N"
          ~doc:
            "Signature vector size in 64-bit words (default: the \
             daemon's).")
  in
  let fault_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-budget" ] ~docv:"N"
          ~doc:"Cap the implication steps per division attempt.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Soft wall-clock limit for the job. Deadline jobs are never \
             served from or stored into the result cache.")
  in
  let no_cache_flag =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Bypass the daemon's result cache for this job.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Give up if the daemon has not replied within $(docv).")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the result BLIF to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Submit a job to a running rarsubd (reads BLIF from stdin unless \
          $(b,-c)/$(b,-f) is given).")
    Term.(
      const run $ socket_arg $ circuit_arg $ file_arg $ exdc_arg
      $ script_arg $ method_arg $ no_filter_flag $ no_memo_flag $ jobs_arg
      $ sim_seed_arg $ sim_words_arg $ fault_budget_arg $ deadline_arg
      $ no_cache_flag $ timeout_arg $ output_arg)

let () =
  let info =
    Cmd.info "rarsub" ~version:"1.0.0"
      ~doc:"Boolean division and substitution via redundancy addition and removal."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; show_cmd; optimize_cmd; optimize_aig_cmd; client_cmd ]))
