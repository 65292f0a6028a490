(* The benchmark harness's own tests: seeded inputs, the exact oracle and
   failure counting, metric names, and counts that must repeat. *)

open Perfbench_lib
module Blif = Logic_network.Blif
module Aig = Logic_network.Aig
module Aiger = Logic_network.Aiger

let texts cs = List.map (fun (c : Inputs.circuit) -> c.text) cs

let planted_texts seed =
  List.filter_map
    (fun ((row : Bench_suite.Suite.row), (c : Inputs.circuit)) ->
      match row.source with
      | Bench_suite.Suite.Synthetic _ -> Some c.text
      | Bench_suite.Suite.Embedded _ -> None)
    (List.combine Bench_suite.Suite.rows (Inputs.suite ~seed))

let stream seed = Inputs.daemon_stream ~seed ~keys:18 ~rounds:4

let test_same_seed () =
  Alcotest.(check (list string)) "suite" (texts (Inputs.suite ~seed:5)) (texts (Inputs.suite ~seed:5));
  Alcotest.(check (list string)) "aig" (texts (Inputs.aig ~seed:5)) (texts (Inputs.aig ~seed:5));
  Alcotest.(check bool) "daemon stream" true (stream 5 = stream 5)

let test_other_seed () =
  List.iter2
    (fun a b -> Alcotest.(check bool) "planted circuit differs" false (String.equal a b))
    (planted_texts 5) (planted_texts 6);
  let small seed =
    List.filter (fun (c : Inputs.circuit) -> c.name <> "medium") (Inputs.aig ~seed)
  in
  List.iter2
    (fun a b -> Alcotest.(check bool) "small aig differs" false (String.equal a b))
    (texts (small 5)) (texts (small 6));
  Alcotest.(check bool) "daemon stream differs" false (stream 5 = stream 6)

let test_default_seed () =
  List.iter2
    (fun (row : Bench_suite.Suite.row) (c : Inputs.circuit) ->
      Alcotest.(check string) row.name (Blif.to_string (Bench_suite.Suite.build row)) c.text)
    Bench_suite.Suite.rows
    (Inputs.suite ~seed:Inputs.default_seed)

let test_pass_covers () =
  let pairs =
    List.map
      (fun ((c : Inputs.circuit), (m : Inputs.meth)) -> (c.name, m.label))
      (Inputs.suite_pass (Inputs.suite ~seed:1))
  in
  Alcotest.(check int) "28 circuits x 3 methods" (28 * 3)
    (List.length (List.sort_uniq compare pairs));
  let timed =
    List.map
      (fun ((c : Inputs.circuit), (m : Inputs.meth)) -> (c.name, m.label))
      (Inputs.suite_pass (Inputs.suite_timed ~seed:1))
  in
  Alcotest.(check int) "14 timed circuits x 3 methods" (14 * 3)
    (List.length (List.sort_uniq compare timed));
  List.iter
    (fun pair -> Alcotest.(check bool) "timed job is in the full pass" true (List.mem pair pairs))
    timed

(* Each distinct job is timed by its best round; daemon-mix reads its
   rounds after the first. *)
let test_round_statistics () =
  let sample distinct job_wall job_cpu = { Workloads.distinct; job_wall; job_cpu } in
  let p50, rate, cpu =
    Workloads.best_of ~distinct:2 [| sample 0 2.0 2.0; sample 1 4.0 1.0; sample 0 1.0 3.0 |]
  in
  Alcotest.(check (float 1e-9)) "median of best wall" 2.5 p50;
  Alcotest.(check (float 1e-9)) "jobs over summed best wall" 0.4 rate;
  Alcotest.(check (float 1e-9)) "mean of best cpu" 1.5 cpu;
  let trip index start seconds =
    { Workloads.index; key = 0; start; seconds; hit = true; ok = true }
  in
  let trips =
    [| trip 0 0.0 9.0; trip 1 0.0 9.0; trip 2 10.0 1.0; trip 3 10.0 3.0;
       trip 4 20.0 4.0; trip 5 20.0 4.0; trip 6 30.0 1.0 |]
  in
  let p50, rate, rounds = Workloads.round_stats ~round_length:2 trips in
  Alcotest.(check int) "complete rounds" 3 rounds;
  (* Round 0 is left out; rounds 1 and 2 have medians 2 and 4, and their
     4 requests span 10 s to 24 s. *)
  Alcotest.(check (float 1e-9)) "25th percentile of round medians" 2.5 p50;
  Alcotest.(check (float 1e-9)) "rate over the rounds" (4.0 /. 14.0) rate

(* Complement the first output of an ASCII AIGER document. *)
let complement_first_output text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let inputs = Scanf.sscanf lines.(0) "aag %d %d" (fun _ i -> i) in
  let out = 1 + inputs in
  lines.(out) <- string_of_int (int_of_string lines.(out) lxor 1);
  String.concat "\n" (Array.to_list lines)

let blif_via_aig text f =
  let aig = Aig.of_network (Blif.parse text) in
  Blif.to_string (Aig.to_network (Aiger.parse (f (Aiger.to_string aig))))

let test_wrong_output_fails () =
  let input = Blif.to_string (Bench_suite.Circuits.alu_slice ()) in
  let same = blif_via_aig input Fun.id in
  let wrong = blif_via_aig input complement_first_output in
  Alcotest.(check bool) "oracle accepts a correct output" true (Oracle.blif ~input ~output:same);
  Alcotest.(check bool) "oracle rejects a complemented output" false
    (Oracle.blif ~input ~output:wrong);
  let count outputs verdicts =
    Workloads.count_failures ~distinct:(Array.map (fun _ -> 0) outputs) ~outputs ~verdicts
  in
  Alcotest.(check int) "counted as failed" 1 (count [| Some wrong |] [| Oracle.blif ~input ~output:wrong |]);
  Alcotest.(check int) "correct output not counted" 0
    (count [| Some same; Some same |] [| Oracle.blif ~input ~output:same |]);
  Alcotest.(check int) "repeat that differs is counted" 1
    (count [| Some same; Some wrong |] [| true |]);
  let aag = Aiger.to_string (Bench_suite.Generator.random_aig ~seed:3 ~n_gates:60 ()) in
  Alcotest.(check bool) "aiger oracle rejects a complemented output" false
    (Oracle.aiger ~input:aag ~output:(complement_first_output aag));
  Alcotest.(check bool) "unparsable output fails" false (Oracle.aiger ~input:aag ~output:"aag 1")

let test_metric_names () =
  let names = List.map fst (Catalogue.end_to_end @ Catalogue.per_layer) in
  List.iter (fun n -> Alcotest.(check bool) n true (Catalogue.valid_name n)) names;
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let manifest = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  let mentions needle =
    let n = String.length needle and m = String.length manifest in
    let rec scan i = i + n <= m && (String.sub manifest i n = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("BENCHMARK.json lists " ^ n) true
        (mentions (Printf.sprintf "\"name\": \"%s\"" n)))
    (names @ Catalogue.workloads)

let test_spans_self_time () =
  let t = Spans.create ~enabled:true () in
  Spans.record t "outer" (fun () ->
      Spans.record t "inner" (fun () -> Unix.sleepf 0.02);
      Unix.sleepf 0.01);
  let selfs = Spans.self_times (Spans.spans t) in
  let self name = List.assoc name (List.map (fun ((s : Spans.span), x) -> (s.name, x)) selfs) in
  Alcotest.(check bool) "outer self excludes inner" true (self "outer" < 0.018);
  Alcotest.(check bool) "inner self is its duration" true (self "inner" >= 0.02);
  let off = Spans.create ~enabled:false () in
  Spans.record off "x" ignore;
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Spans.spans off))

(* optimize-aig counts are deterministic: two runs of the traced
   pipeline on the same circuit agree exactly. *)
let test_aig_counts_repeat () =
  let circuit = List.hd (Inputs.aig ~seed:1) in
  let run () =
    let cfg = { Workloads.seed = 1; seconds = 0.0; traced = true; out_dir = "." } in
    let r = Workloads.optimize_aig ~circuits:[ circuit ] cfg in
    Alcotest.(check int) "no failures" 0 r.failed;
    (r.lits_out, r.gates_out, List.assoc "core.divisions" r.layers)
  in
  let l1, g1, d1 = run () and l2, g2, d2 = run () in
  Alcotest.(check int) "lits_out" l1 l2;
  Alcotest.(check int) "gates_out" g1 g2;
  Alcotest.(check (float 0.0)) "core.divisions" d1 d2;
  Alcotest.(check bool) "divisions were counted" true (d1 > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_same_seed;
          Alcotest.test_case "other seed, other circuits" `Quick test_other_seed;
          Alcotest.test_case "default seed is Suite.rows" `Quick test_default_seed;
          Alcotest.test_case "a pass covers every pair" `Quick test_pass_covers;
        ] );
      ( "checks",
        [
          Alcotest.test_case "wrong output counted as failed" `Quick test_wrong_output_fails;
          Alcotest.test_case "metric names" `Quick test_metric_names;
          Alcotest.test_case "span self time" `Quick test_spans_self_time;
          Alcotest.test_case "round statistics" `Quick test_round_statistics;
          Alcotest.test_case "aig counts repeat" `Slow test_aig_counts_repeat;
        ] );
    ]
