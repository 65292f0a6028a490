(* Division-memo soundness: a run with the memo enabled may skip an
   attempt only when the recorded failure is provably a replay, so the
   final network must be bit-identical to a memo-off run — same node
   names (the skipped attempts must replay their id burns), same covers,
   same literal totals — across random and planted circuits, both
   drivers, and both sequential and parallel evaluation. *)

module Network = Logic_network.Network
module Lit_count = Logic_network.Lit_count
module Generator = Bench_suite.Generator
module Equiv = Logic_sim.Equiv
module Counters = Rar_util.Counters

let test_jobs = 4

let planted_profile seed =
  Generator.planted ~seed
    {
      Generator.inputs = 8;
      noise_nodes = 6;
      algebraic_plants = 2;
      boolean_plants = 2;
      gdc_plants = 1;
      outputs = 4;
    }

(* 44 unstructured random circuits of varying shape plus 8 planted ones:
   the differential suite the memo must survive. *)
let differential_nets () =
  List.concat
    [
      List.map
        (fun seed ->
          ( Printf.sprintf "random-%d" seed,
            Generator.random ~seed ~n_inputs:5 ~n_nodes:10 ~n_outputs:3 () ))
        (List.init 15 (fun i -> i + 1));
      List.map
        (fun seed ->
          ( Printf.sprintf "random-wide-%d" seed,
            Generator.random ~seed ~n_inputs:8 ~n_nodes:16 ~n_outputs:5 () ))
        (List.init 15 (fun i -> i + 100));
      List.map
        (fun seed ->
          ( Printf.sprintf "random-deep-%d" seed,
            Generator.random ~seed ~n_inputs:4 ~n_nodes:20 ~n_outputs:2 () ))
        (List.init 14 (fun i -> i + 200));
      List.map
        (fun seed -> (Printf.sprintf "planted-%d" seed, planted_profile seed))
        (List.init 8 (fun i -> i + 300));
    ]

let check_identical ~label ~reference on off =
  Alcotest.(check int)
    (label ^ ": literal totals")
    (Lit_count.factored off) (Lit_count.factored on);
  Alcotest.(check string)
    (label ^ ": networks bit-identical")
    (Network.to_string off) (Network.to_string on);
  Alcotest.(check bool)
    (label ^ ": result equivalent")
    true (Equiv.equivalent on reference)

(* Memo-on vs memo-off over the whole differential suite. [run] gets the
   use_memo flag, the jobs count, and a counters record. Requires the
   memo to have actually skipped work somewhere across the suite, and to
   be completely inert when disabled. *)
let differential ~label ~jobs_on run () =
  let hits_on = ref 0 and ticks_off = ref 0 in
  List.iter
    (fun (name, net) ->
      let on = Network.copy net and off = Network.copy net in
      let c_on = Counters.create () and c_off = Counters.create () in
      run ~use_memo:true ~jobs:jobs_on ~counters:c_on on;
      run ~use_memo:false ~jobs:1 ~counters:c_off off;
      hits_on := !hits_on + Atomic.get c_on.Counters.memo_hits;
      ticks_off :=
        !ticks_off + Atomic.get c_off.Counters.memo_hits + Atomic.get c_off.Counters.memo_misses;
      check_identical
        ~label:(Printf.sprintf "%s/%s" label name)
        ~reference:net on off)
    (differential_nets ());
  Alcotest.(check bool) (label ^ ": memo hit at least once") true (!hits_on > 0);
  Alcotest.(check int) (label ^ ": memo inert when off") 0 !ticks_off

let resub_run ~use_memo ~jobs ~counters net =
  ignore (Synth.Resub.run ~use_memo ~jobs ~counters net)

let kresub_run ~use_memo ~jobs ~counters net =
  ignore (Synth.Kresub.run ~use_memo ~jobs ~counters net)

let substitute_run ~use_memo ~jobs ~counters net =
  let config =
    { Booldiv.Substitute.extended_config with use_memo; jobs }
  in
  ignore (Booldiv.Substitute.run ~config ~counters net)

(* The per-pass division trajectory must show the memo working: on a
   circuit where pass 1 commits rewrites, pass 2 re-proves quiescence
   with strictly fewer real attempts than a memo-off run needs. *)
let pass_trajectory () =
  let net = planted_profile 42 in
  let run use_memo =
    let scratch = Network.copy net in
    let counters = Counters.create () in
    ignore (Synth.Resub.run ~use_memo ~counters scratch);
    counters
  in
  let c_on = run true and c_off = run false in
  Alcotest.(check bool) "multiple passes ran" true (Atomic.get c_on.Counters.passes >= 2);
  Alcotest.(check int)
    "same pass count either way" (Atomic.get c_off.Counters.passes) (Atomic.get c_on.Counters.passes);
  let late l = match l with [] -> [] | _ :: tl -> tl in
  let sum = List.fold_left ( + ) 0 in
  Alcotest.(check bool)
    "later passes attempt fewer divisions with the memo" true
    (sum (late c_on.Counters.pass_divisions)
    < sum (late c_off.Counters.pass_divisions)
    || sum (late c_off.Counters.pass_divisions) = 0);
  Alcotest.(check bool) "memo hit on later passes" true
    (Atomic.get c_on.Counters.memo_hits > 0)

let () =
  Alcotest.run "memo"
    [
      ( "differential",
        [
          Alcotest.test_case "resub memo on/off, jobs=1" `Quick
            (differential ~label:"resub" ~jobs_on:1 resub_run);
          Alcotest.test_case "resub memo on/off, jobs=4" `Quick
            (differential ~label:"resub-par" ~jobs_on:test_jobs resub_run);
          Alcotest.test_case "substitute ext memo on/off, jobs=1" `Quick
            (differential ~label:"ext" ~jobs_on:1 substitute_run);
          Alcotest.test_case "substitute ext memo on/off, jobs=4" `Quick
            (differential ~label:"ext-par" ~jobs_on:test_jobs substitute_run);
          Alcotest.test_case "resub-k memo on/off, jobs=1" `Quick
            (differential ~label:"resub-k" ~jobs_on:1 kresub_run);
          Alcotest.test_case "resub-k memo on/off, jobs=4" `Quick
            (differential ~label:"resub-k-par" ~jobs_on:test_jobs kresub_run);
        ] );
      ( "trajectory",
        [ Alcotest.test_case "per-pass divisions drop" `Quick pass_trajectory ]
      );
    ]
