module Network = Logic_network.Network
module Dirty = Logic_network.Dirty
module Node_set = Network.Node_set
module Counters = Rar_util.Counters

type phase = Pos | Neg | Both

type meth = Algebraic | Boolean | Kresub

type target = Divisor of Network.node_id * phase | Pool of Network.node_id list

type reads = All_nodes | Nodes of Network.node_id array

type entry = { at : int; reads : reads; burn : int }

(* The trailing int is the caller's refinement generation (0 for the
   division drivers): the kresub driver bumps it whenever a
   counterexample refines the signature vectors, which retires every
   entry recorded against the coarser signatures without touching the
   Dirty clock. *)
type key = Network.node_id * meth * target * int

(* The failure table is striped so worker domains can record and replay
   concurrently: each stripe owns a disjoint slice of the key space
   behind its own mutex, so two lookups only contend when their keys
   hash to the same stripe. 64 stripes is far above any realistic worker
   count, and the per-operation critical section is a single Hashtbl
   probe. *)
let n_stripes = 64

type stripe = { lock : Mutex.t; entries : (key, entry) Hashtbl.t }

type t = { dirty : Dirty.t; stripes : stripe array }

let reads_of_set s = Nodes (Array.of_list (Node_set.elements s))

let all_nodes = All_nodes

let create dirty =
  {
    dirty;
    stripes =
      Array.init n_stripes (fun _ ->
          { lock = Mutex.create (); entries = Hashtbl.create 61 });
  }

let stripe_of t key = t.stripes.(Hashtbl.hash key land (n_stripes - 1))

let fresh t at = function
  | All_nodes -> Dirty.clock t.dirty = at
  | Nodes arr ->
    let ok = ref true in
    let i = ref 0 in
    let n = Array.length arr in
    while !ok && !i < n do
      if Dirty.stamp t.dirty arr.(!i) > at then ok := false;
      incr i
    done;
    !ok

let replay_failure t key =
  let s = stripe_of t key in
  (* The freshness test reads Dirty stamps, which only the driver's
     domain advances and never during a parallel batch — so running it
     under the stripe lock cannot deadlock and keeps the
     probe-test-evict sequence atomic against a concurrent record. *)
  Mutex.protect s.lock (fun () ->
      match Hashtbl.find_opt s.entries key with
      | None -> None
      | Some e ->
        if fresh t e.at e.reads then Some e.burn
        else begin
          Hashtbl.remove s.entries key;
          None
        end)

let record_failure t key e =
  let s = stripe_of t key in
  Mutex.protect s.lock (fun () -> Hashtbl.replace s.entries key e)

let attempt ?(gen = fun () -> 0) memo ~counters net ~f target ~meth ~reads
    run =
  match memo with
  | None -> run ()
  | Some t -> (
    match replay_failure t (f, meth, target, gen ()) with
    | Some burn ->
      Counters.add counters.Counters.memo_hits 1;
      if burn > 0 then Network.reserve_ids net burn;
      false
    | None ->
      Counters.add counters.Counters.memo_misses 1;
      let id0 = Network.id_limit net in
      let landed = run () in
      if not landed then
        record_failure t
          (f, meth, target, gen ())
          {
            at = Dirty.clock t.dirty;
            reads = reads ();
            burn = Network.id_limit net - id0;
          };
      landed)
