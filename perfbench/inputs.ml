(* Seeded workload inputs. Everything the program receives is BLIF or
   AIGER text built here from the benchmark seed; equal seeds give
   byte-identical inputs. *)

module Suite = Bench_suite.Suite
module Generator = Bench_suite.Generator
module Blif = Logic_network.Blif
module Aiger = Logic_network.Aiger
module Rng = Rar_util.Rng

let default_seed = 0

(* The default seed keeps every base seed, so optimize-suite at the
   default seed is exactly Suite.rows; any other seed mixes itself in. *)
let derive ~seed base =
  if seed = default_seed then base else Hashtbl.hash (seed, base)

type circuit = { name : string; text : string }

(* ------------------------------------------------------------------ *)
(* Methods                                                              *)
(* ------------------------------------------------------------------ *)

type meth = {
  label : string;  (** the paper's name: sis, ext, resub-k *)
  wire : string;  (** the spelling a service request carries *)
  engine : Synth.Script.resub_method;
}

let methods =
  [
    { label = "sis"; wire = "resub"; engine = Synth.Script.Algebraic };
    { label = "ext"; wire = "ext"; engine = Synth.Script.Ext };
    { label = "resub-k"; wire = "resub-k"; engine = Synth.Script.Kresub };
  ]

(* ------------------------------------------------------------------ *)
(* optimize-suite                                                       *)
(* ------------------------------------------------------------------ *)

let suite_circuit ~seed (row : Suite.row) =
  let net =
    match row.source with
    | Suite.Embedded build -> build ()
    | Suite.Synthetic profile ->
      Generator.planted ~seed:(derive ~seed row.seed) profile
  in
  { name = row.name; text = Blif.to_string net }

let suite ~seed = List.map (suite_circuit ~seed) Suite.rows

(* The rows optimize-suite times: the embedded circuits and the planted
   ones of the two smallest profiles (weights 2 and 3, at most 21
   inputs), so that a run holds three rounds of every job. The fidelity
   check covers all of Suite.rows. *)
let timed_rows =
  List.filter
    (fun (row : Suite.row) ->
      match row.source with
      | Suite.Embedded _ -> true
      | Suite.Synthetic profile -> profile.inputs <= 21)
    Suite.rows

let suite_timed ~seed = List.map (suite_circuit ~seed) timed_rows

(* One pass: every circuit with each of the three methods, circuit by
   circuit in Suite.rows order. *)
let suite_pass circuits =
  List.concat_map (fun c -> List.map (fun m -> (c, m)) methods) circuits

(* ------------------------------------------------------------------ *)
(* optimize-aig                                                         *)
(* ------------------------------------------------------------------ *)

(* One circuit in the shape of bench/fixtures/random_medium.aag and
   [aig_small] in the shape of random_small.aag. The seed varies the small
   circuits; the medium one, which takes most of the first round, is the
   default-seed instance, so a run's cost does not hinge on one draw. It
   runs mid-round, so the small ones sample both ends of the round. *)
let aig_small = 4

let aig_medium = "medium"

let aig_circuit ~seed ~name ~base ~inputs ~gates =
  let aig =
    Generator.random_aig ~seed:(derive ~seed base) ~n_inputs:inputs
      ~n_gates:gates ()
  in
  { name; text = Aiger.to_string aig }

let aig ~seed =
  let small i =
    aig_circuit ~seed ~name:(Printf.sprintf "small%d" i) ~base:(300 + i)
      ~inputs:24 ~gates:300
  in
  let half = aig_small / 2 in
  List.init half small
  @ [
      aig_circuit ~seed:default_seed ~name:aig_medium ~base:2000 ~inputs:48
        ~gates:2000;
    ]
  @ List.init (aig_small - half) (fun i -> small (half + i))

(* ------------------------------------------------------------------ *)
(* daemon-mix                                                           *)
(* ------------------------------------------------------------------ *)

(* The daemon serves Suite.rows circuits as they are (the seed drives
   only the request order): the six embedded circuits times the three
   methods, 18 distinct jobs. *)
let daemon_circuit_names =
  [ "c17"; "adder4"; "alu_slice"; "comparator2"; "mult2"; "bcd7seg" ]

let daemon_keys () =
  List.concat_map
    (fun name ->
      let row = Option.get (Suite.find name) in
      let c = suite_circuit ~seed:default_seed row in
      List.map (fun m -> (c, m)) methods)
    daemon_circuit_names
  |> Array.of_list

(* The cache splits its capacity over 16 stripes, rounding up: 24
   entries hold two per stripe. The 18 keys hash to 10 stripes, two of
   them holding three and four keys, so the effective capacity is 15,
   below the 18 distinct jobs, and the keys of those two stripes evict
   each other. With one entry per stripe (a capacity of 16 or less) a
   fifth of all requests miss, the daemon's one worker is busy most of
   the time, and the median round trip sits on the edge between a hit
   and a hit queued behind a miss. *)
let daemon_cache_entries = 24

(* The stream is a sequence of rounds with the same content. In a round
   the key of popularity rank [r] (a fixed shuffle of the keys) is
   requested [round_copies r] times — Zipf skew, exponent 1.5 — and
   [daemon_bypass] requests, on keys that rotate from round to round,
   set use_cache=false. The seed only shuffles each round. *)
let round_copies rank =
  max 1 (int_of_float (Float.round (48.0 *. (float_of_int (rank + 1) ** -1.5))))

let daemon_bypass = 2

let daemon_round_length ~keys =
  List.fold_left ( + ) 0 (List.init keys round_copies)

type request = { key : int; use_cache : bool }

let daemon_stream ~seed ~keys ~rounds =
  let by_rank = Array.init keys Fun.id in
  Rng.shuffle (Rng.create 7) by_rank;
  let rng = Rng.create (derive ~seed 77) in
  Array.concat
    (List.init rounds (fun round ->
         let bypassed = List.init daemon_bypass (fun j -> ((round * daemon_bypass) + j) mod keys) in
         let requests =
           Array.of_list
             (List.concat
                (List.init keys (fun rank ->
                     let key = by_rank.(rank) in
                     List.init (round_copies rank) (fun copy ->
                         { key; use_cache = not (copy = 0 && List.mem key bypassed) }))))
         in
         Rng.shuffle rng requests;
         requests))
