(* Parallel-speculation determinism: Substitute.run / Resub.run with
   [jobs > 1] must produce networks bit-identical to a sequential run —
   the whole point of the serial rank-order commit protocol — and the
   results must stay equivalent to the original circuit. *)

module Network = Logic_network.Network
module Lit_count = Logic_network.Lit_count
module Generator = Bench_suite.Generator
module Equiv = Logic_sim.Equiv

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

let networks () =
  List.concat
    [
      List.map
        (fun seed ->
          ( Printf.sprintf "random-%d" seed,
            Generator.random ~seed ~n_inputs:7 ~n_nodes:14 ~n_outputs:4 () ))
        [ 1; 2; 3 ];
      List.map
        (fun seed -> (Printf.sprintf "planted-%d" seed, planted_profile seed))
        [ 11; 12 ];
    ]

let check_identical ~label ~reference seq par =
  Alcotest.(check int)
    (label ^ ": literal totals")
    (Lit_count.factored seq) (Lit_count.factored par);
  Alcotest.(check string)
    (label ^ ": networks bit-identical")
    (Network.to_string seq) (Network.to_string par);
  Alcotest.(check bool)
    (label ^ ": parallel result equivalent")
    true
    (Equiv.equivalent par reference)

let substitute_determinism config_name config () =
  List.iter
    (fun (name, net) ->
      let seq = Network.copy net and par = Network.copy net in
      ignore
        (Booldiv.Substitute.run
           ~config:{ config with Booldiv.Substitute.jobs = 1 }
           seq);
      ignore
        (Booldiv.Substitute.run
           ~config:{ config with Booldiv.Substitute.jobs = test_jobs }
           par);
      check_identical
        ~label:(Printf.sprintf "%s/%s" config_name name)
        ~reference:net seq par)
    (networks ())

let resub_determinism () =
  List.iter
    (fun (name, net) ->
      let seq = Network.copy net and par = Network.copy net in
      let n_seq = Synth.Resub.run ~jobs:1 seq in
      let n_par = Synth.Resub.run ~jobs:test_jobs par in
      Alcotest.(check int) (name ^ ": substitution counts") n_seq n_par;
      check_identical ~label:("resub/" ^ name) ~reference:net seq par)
    (networks ())

(* The sim-seed knob must actually steer the filter: whatever it selects,
   results stay equivalent, and the default equals the documented seed. *)
let sim_seed_soundness () =
  List.iter
    (fun (name, net) ->
      let with_seed seed =
        let scratch = Network.copy net in
        ignore
          (Booldiv.Substitute.run
             ~config:
               { Booldiv.Substitute.extended_config with sim_seed = seed }
             scratch);
        scratch
      in
      let default = with_seed Logic_sim.Signature.default_seed in
      let other = with_seed 0xBAD5EED in
      Alcotest.(check bool)
        (name ^ ": default-seed result equivalent")
        true
        (Equiv.equivalent default net);
      Alcotest.(check bool)
        (name ^ ": alternate-seed result equivalent")
        true
        (Equiv.equivalent other net))
    (networks ())

(* The work pool itself: ordering, exception propagation, reuse. *)
let pool_basics () =
  let pool = Rar_util.Pool.create ~jobs:test_jobs in
  Fun.protect ~finally:(fun () -> Rar_util.Pool.shutdown pool) @@ fun () ->
  let results =
    Rar_util.Pool.run pool
      (List.init 40 (fun i () ->
           let acc = ref 0 in
           for k = 1 to 1000 + i do
             acc := !acc + k
           done;
           (i, !acc)))
  in
  List.iteri
    (fun i (j, sum) ->
      Alcotest.(check int) "result order" i j;
      Alcotest.(check int) "result value"
        ((1000 + i) * (1001 + i) / 2)
        sum)
    results;
  (* Batches can be re-run on the same pool. *)
  let again = Rar_util.Pool.run pool [ (fun () -> 42) ] in
  Alcotest.(check (list int)) "reuse" [ 42 ] again;
  (* An exception in one task is re-raised after the batch completes. *)
  match
    Rar_util.Pool.run pool
      [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
  with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "exn" "boom" msg

(* A raising task must never wedge the pool: the batch completes, the
   first (lowest-index) exception propagates, and the same pool keeps
   serving batches afterwards — exercised at the machine's full domain
   count, where a missed completion signal would deadlock [run]. *)
exception Task_failed of int

let pool_raise_no_hang () =
  let jobs = max 2 (Rar_util.Pool.default_jobs ()) in
  let pool = Rar_util.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Rar_util.Pool.shutdown pool) @@ fun () ->
  let batch_with_raises () =
    Rar_util.Pool.run pool
      (List.init (4 * jobs) (fun i () ->
           if i mod 3 = 1 then failwith (Printf.sprintf "task %d" i) else i))
  in
  (match batch_with_raises () with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "first exception wins" "task 1" msg);
  (* Every task raising is the worst case for completion accounting. *)
  (match
     Rar_util.Pool.run pool (List.init jobs (fun i () -> raise (Task_failed i)))
   with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Task_failed 0 -> ()
  | exception Task_failed i ->
    Alcotest.failf "lowest-index exception expected, got task %d" i);
  (* The pool is still fully functional. *)
  let results =
    Rar_util.Pool.run pool (List.init (2 * jobs) (fun i () -> i * i))
  in
  Alcotest.(check (list int))
    "pool reusable after exceptions"
    (List.init (2 * jobs) (fun i -> i * i))
    results

(* ------------------------------------------------------------------ *)
(* The scheduler against a scripted driver                             *)
(* ------------------------------------------------------------------ *)

module Scheduler = Booldiv.Scheduler
module Division_memo = Booldiv.Division_memo
module Counters = Rar_util.Counters

(* Three dividends a < b < c. a and b share input y, so their
   footprints overlap; c's footprint is disjoint from both. *)
let fake_net () =
  Logic_network.Builder.of_spec
    ~inputs:[ "x"; "y"; "z"; "v"; "w" ]
    ~nodes:[ ("a", "x y"); ("b", "y z"); ("c", "v w") ]
    ~outputs:[ "a"; "b"; "c" ]

let node net name = Logic_network.Builder.node net name

(* A fake commit: replace the one-cube cover of a dividend by two cubes.
   A dividend "would commit" while its cover still has one cube. *)
let committed net f = Twolevel.Cover.cube_count (Network.cover net f) > 1

let commit net f =
  let lit i = Twolevel.Cube.of_literals_exn [ Twolevel.Literal.pos i ] in
  Network.set_function net f ~fanins:(Network.fanins net f)
    (Twolevel.Cover.of_cubes [ lit 0; lit 1 ])

(* Run the scheduler with a driver whose scan is [script]; returns the
   counters and every scan as (live, dividend name), in call order per
   domain (worker scans interleave, so compare counts, not order). *)
let run_fake ?(jobs = 2) ?(use_memo = false) ?(max_passes = 1) ?stop net
    script =
  let counters = Counters.create () in
  let calls = ref [] and lock = Mutex.create () in
  let scan (ctx : Scheduler.ctx) f =
    Mutex.protect lock (fun () ->
        calls := (ctx.live, Network.name ctx.net f) :: !calls);
    script ctx (Network.name ctx.net f) f
  in
  Scheduler.run ~counters ~jobs ~use_memo ~max_passes net
    {
      Scheduler.name = "fake";
      tally = counters.Counters.divisions_attempted;
      generation = (fun () -> 0);
      stop = Option.value stop ~default:(fun () -> false);
      scan;
    };
  (counters, List.rev !calls)

let count calls ~live name =
  List.length (List.filter (fun c -> c = (live, name)) calls)

let quiet reads = { Scheduler.outcome = Scheduler.Quiet; reads }

(* [a] commits once; everyone else is quiet with [reads name]. *)
let a_commits ?(reads = fun _ -> Scheduler.Unbounded) (ctx : Scheduler.ctx)
    name f =
  if name = "a" && not (committed ctx.net f) then begin
    if ctx.live then commit ctx.net f;
    { Scheduler.outcome = Committed; reads = reads name }
  end
  else quiet (reads name)

let test_commit_reexecuted_live () =
  let net = fake_net () in
  let _, calls = run_fake net a_commits in
  Alcotest.(check int) "a scanned once on a snapshot" 1
    (count calls ~live:false "a");
  Alcotest.(check int) "a re-executed once live" 1 (count calls ~live:true "a");
  Alcotest.(check int) "nothing else live" 1
    (List.length (List.filter fst calls));
  Alcotest.(check bool) "the live re-execution committed" true
    (committed net (node net "a"))

let test_unbounded_rerounded () =
  let net = fake_net () in
  let counters, calls = run_fake net a_commits in
  Alcotest.(check int) "b re-rounded after a's commit" 2
    (count calls ~live:false "b");
  Alcotest.(check int) "c in the next batch only" 1
    (count calls ~live:false "c");
  Alcotest.(check int) "wasted: a's discarded scan + b's stale one" 2
    (Atomic.get counters.Counters.speculative_wasted)

let test_disjoint_set_survives () =
  let set net names =
    Scheduler.Set
      (Network.Node_set.of_list (List.map (node net) names))
  in
  let run b_reads =
    let net = fake_net () in
    let reads = function
      | "a" -> set net [ "a" ]
      | _ -> set net b_reads
    in
    run_fake net (a_commits ~reads)
  in
  let counters, calls = run [ "b"; "z" ] in
  Alcotest.(check int) "disjoint b survives a's commit" 1
    (count calls ~live:false "b");
  Alcotest.(check int) "only a's scan wasted" 1
    (Atomic.get counters.Counters.speculative_wasted);
  let counters, calls = run [ "b"; "y" ] in
  Alcotest.(check int) "b reading y (in a's footprint) re-rounded" 2
    (count calls ~live:false "b");
  Alcotest.(check int) "a's and b's scans wasted" 2
    (Atomic.get counters.Counters.speculative_wasted)

let test_burn_replay () =
  (* Every scan burns a dividend-specific number of ids, before a's one
     commit, and is memoised as one whole-dividend unit through
     Division_memo.attempt, the way Kresub's scan is: quiet snapshot
     verdicts and memo replays must leave the allocator exactly where
     the sequential run does. *)
  let burning (ctx : Scheduler.ctx) name f =
    let verdict = ref (quiet Scheduler.Unbounded) in
    ignore
      (Division_memo.attempt ctx.memo ~counters:ctx.counters ctx.net ~f
         (Division_memo.Divisor (f, Division_memo.Both))
         ~meth:Division_memo.Kresub
         ~reads:(fun () -> Division_memo.all_nodes)
         (fun () ->
           Network.reserve_ids ctx.net
             (String.length name + (Char.code name.[0] mod 3));
           verdict := a_commits ctx name f;
           !verdict.Scheduler.outcome <> Scheduler.Quiet));
    !verdict
  in
  let limit ?(use_memo = true) jobs =
    let net = fake_net () in
    let counters, _ = run_fake ~jobs ~use_memo ~max_passes:3 net burning in
    (Network.id_limit net, Atomic.get counters.Counters.memo_hits)
  in
  let seq_limit, seq_hits = limit 1 and par_limit, par_hits = limit 2 in
  let off_limit, _ = limit ~use_memo:false 1 in
  Alcotest.(check bool) "the memo replayed scans" true
    (seq_hits > 0 && par_hits > 0);
  Alcotest.(check int) "id_limit jobs=2 = jobs=1" seq_limit par_limit;
  Alcotest.(check int) "id_limit memo on = off" off_limit seq_limit

let test_stop_halts () =
  List.iter
    (fun jobs ->
      let net = fake_net () in
      let stop () = committed net (node net "a") in
      let counters, calls = run_fake ~jobs ~max_passes:4 ~stop net a_commits in
      let label = Printf.sprintf "jobs=%d: " jobs in
      Alcotest.(check int) (label ^ "one pass") 1
        (Atomic.get counters.Counters.passes);
      Alcotest.(check int) (label ^ "b never scanned live") 0
        (count calls ~live:true "b");
      Alcotest.(check int) (label ^ "c never scanned") 0
        (count calls ~live:true "c" + count calls ~live:false "c"))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Structural gate: one scheduler                                      *)
(* ------------------------------------------------------------------ *)

(* The drivers supply only their per-dividend scans; pools, batching and
   speculative accounting live in Booldiv.Scheduler alone, and memo
   replay, recording and the id burn in Division_memo.attempt alone.
   Source files are declared as dune deps of this test, so the paths
   resolve inside _build. *)
let test_drivers_have_no_scheduler () =
  let forbidden =
    [
      "Pool.run"; "Pool.create"; "speculative_wasted"; "split_at";
      "Division_memo.replay_failure"; "Division_memo.record_failure";
      "Network.reserve_ids"; "Partition.shard";
    ]
  in
  let read path =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun path ->
      let text = read path in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "%s free of %S" path needle)
            false (contains text needle))
        forbidden)
    [
      "../lib/core/substitute.ml"; "../lib/synth/resub.ml";
      "../lib/synth/kresub.ml";
    ]

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "substitute ext jobs:1 = jobs:4" `Slow
            (substitute_determinism "ext" Booldiv.Substitute.extended_config);
          Alcotest.test_case "substitute basic jobs:1 = jobs:4" `Slow
            (substitute_determinism "basic" Booldiv.Substitute.basic_config);
          Alcotest.test_case "substitute gdc jobs:1 = jobs:4" `Slow
            (substitute_determinism "gdc"
               Booldiv.Substitute.extended_gdc_config);
          Alcotest.test_case "resub jobs:1 = jobs:4" `Slow resub_determinism;
        ] );
      ( "sim-seed",
        [ Alcotest.test_case "seed steers filter soundly" `Quick
            sim_seed_soundness ] );
      ( "pool",
        [
          Alcotest.test_case "order, reuse, exceptions" `Quick pool_basics;
          Alcotest.test_case "raising tasks at jobs max" `Quick
            pool_raise_no_hang;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "would-be commit re-executed live" `Quick
            test_commit_reexecuted_live;
          Alcotest.test_case "unbounded verdicts re-rounded" `Quick
            test_unbounded_rerounded;
          Alcotest.test_case "disjoint read set survives" `Quick
            test_disjoint_set_survives;
          Alcotest.test_case "replayed id burn = jobs:1" `Quick
            test_burn_replay;
          Alcotest.test_case "stop predicate halts the pass" `Quick
            test_stop_halts;
          Alcotest.test_case "drivers carry no scheduler" `Quick
            test_drivers_have_no_scheduler;
        ] );
    ]
