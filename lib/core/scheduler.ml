module Network = Logic_network.Network
module Node_set = Network.Node_set
module Dirty = Logic_network.Dirty
module Counters = Rar_util.Counters
module Pool = Rar_util.Pool
module Trace = Rar_util.Trace

type outcome = Committed | Refined | Quiet

type reads = Unbounded | Set of Node_set.t

type verdict = { outcome : outcome; reads : reads }

type ctx = {
  net : Network.t;
  live : bool;
  counters : Counters.t;
  memo : Division_memo.t option;
  speculating : (unit -> bool) -> bool;
  nodes : Network.node_id list;
}

type driver = {
  name : string;
  tally : int Atomic.t;
  generation : unit -> int;
  stop : unit -> bool;
  scan : ctx -> Network.node_id -> verdict;
}

(* A worker's verdict on one dividend, scanned on a private snapshot of
   the frozen live network, with what resolving it needs. *)
type spec = {
  verdict : verdict;
  burn : int;  (* node ids the scan consumed *)
  spec_counters : Counters.t;
  seconds : float;
}

let deadline ?(trace = Trace.disabled) ~counters ~name = function
  | None -> fun () -> false
  | Some t ->
    let hit = ref false in
    fun () ->
      !hit
      || Unix.gettimeofday () > t
         && begin
              hit := true;
              Counters.add counters.Counters.degradations 1;
              Trace.emit trace "degrade"
                [
                  ("unit", Trace.String name);
                  ("reason", Trace.String "deadline");
                ];
              true
            end

let run ?(trace = Trace.disabled) ~counters ~jobs ~use_memo ~max_passes net d
    =
  let dirty = if use_memo then Some (Dirty.create net) else None in
  Fun.protect ~finally:(fun () -> Option.iter Dirty.detach dirty)
  @@ fun () ->
  let memo = Option.map Division_memo.create dirty in
  let wpool = if jobs > 1 then Some (Pool.create ~jobs) else None in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown wpool)
  @@ fun () ->
  let live_ctx nodes =
    {
      net;
      live = true;
      counters;
      memo;
      speculating =
        (match dirty with
        | Some dt -> fun real -> Dirty.speculating dt ~committed:Fun.id real
        | None -> fun real -> real ());
      nodes;
    }
  in
  (* One live step for one dividend: the sequential pass, and the
     re-execution of every snapshot verdict that does not resolve on its
     own. Returns whether the step invalidates later verdicts of a
     batch: it committed, or moved the driver's generation. *)
  let process ctx changed f =
    if d.stop () || not (Network.mem net f) then false
    else
      let gen0 = d.generation () in
      let outcome = (d.scan ctx f).outcome in
      if outcome = Committed then changed := true;
      outcome = Committed || d.generation () <> gen0
  in
  (* A whole-dividend scan on [snap], a private copy of the batch
     snapshot (taken after the pending list was filtered, so [f] is
     live in it). Runs on a worker domain: it reads and records into
     the shared memo but writes only its own counters and snapshot. *)
  let speculate snap ~nodes f =
    let t0 = Unix.gettimeofday () in
    let wc = Counters.create () in
    let id0 = Network.id_limit snap in
    let verdict =
      d.scan
        {
          net = snap;
          live = false;
          counters = wc;
          memo;
          speculating = (fun real -> real ());
          nodes;
        }
        f
    in
    {
      verdict;
      burn = Network.id_limit snap - id0;
      spec_counters = wc;
      seconds = Unix.gettimeofday () -. t0;
    }
  in
  let waste r =
    Counters.add counters.Counters.speculative_wasted 1;
    Counters.add_seconds counters.Counters.speculative_seconds r.seconds
  in
  (* jobs > 1. Whole dividends are scanned speculatively and resolved
     here in ascending id order — the order the sequential pass visits
     them. A quiet verdict resolves by replaying its id burn; any other
     is discarded and re-executed through [process], i.e. the jobs=1
     code at the jobs=1 live state. Once something commits, a later
     verdict of the batch survives only if the commit provably cannot
     have changed it (DESIGN.md §12); the rest are re-rounded. *)
  let pass_parallel pool_t changed nodes =
    let ctx = live_ctx nodes in
    let rec drive pending =
      if d.stop () then ()
      else
        match List.filter (Network.mem net) pending with
        | [] -> ()
        | pending ->
          let rec take n acc = function
            | f :: tl when n > 0 -> take (n - 1) (f :: acc) tl
            | rest -> (List.rev acc, rest)
          in
          let batch, rest = take (Pool.jobs pool_t) [] pending in
          (* One frozen snapshot per batch; each worker copies from it
             rather than from the live network ({!Network.copy} is a pure
             read of its source, so concurrent copies are race-free). *)
          let snap = Network.copy net in
          let results =
            Pool.run pool_t
              (List.map
                 (fun f () -> speculate (Network.copy snap) ~nodes f)
                 batch)
          in
          (* What the batch's commits so far can have changed: the union
             of their read closures and post-commit footprints, or
             everything once one of them had no bounded closure. *)
          let c_accum = ref Node_set.empty in
          let c_unbounded = ref false in
          let any_commit = ref false in
          let re_round = ref [] in
          List.iter2
            (fun f r ->
              let survives =
                (not !any_commit)
                || (not !c_unbounded)
                   &&
                   match r.verdict.reads with
                   | Unbounded -> false
                   | Set reads -> Node_set.disjoint !c_accum reads
              in
              if not survives then begin
                waste r;
                re_round := f :: !re_round
              end
              else if r.verdict.outcome <> Quiet then begin
                (* The prediction says this scan changes something:
                   discard the snapshot work and run the scan for real.
                   The live state matches what the worker saw on
                   everything the scan can read, so this is the jobs=1
                   execution, byte for byte. *)
                waste r;
                if process ctx changed f then begin
                  any_commit := true;
                  match r.verdict.reads with
                  | Set reads ->
                    let post =
                      if Network.mem net f then Partition.footprint net f
                      else Node_set.empty
                    in
                    c_accum :=
                      Node_set.union !c_accum (Node_set.union reads post)
                  | Unbounded -> c_unbounded := true
                end
              end
              else begin
                (* A scan that found nothing, and whose re-run now would
                   provably find nothing: consume its id burn so the
                   allocator stays id-for-id with jobs=1, and fold its
                   tallies. *)
                Counters.accumulate counters r.spec_counters;
                if r.burn > 0 then Network.reserve_ids net r.burn
              end)
            batch results;
          drive (List.rev !re_round @ rest)
    in
    drive nodes
  in
  let pass () =
    let changed = ref false in
    let nodes = List.sort Int.compare (Network.logic_ids net) in
    (match wpool with
    | Some pool_t -> pass_parallel pool_t changed nodes
    | None ->
      let ctx = live_ctx nodes in
      List.iter (fun f -> ignore (process ctx changed f)) nodes);
    !changed
  in
  let rec loop remaining =
    if remaining > 0 && not (d.stop ()) then begin
      let tally0 = Atomic.get d.tally in
      let hits0 = Atomic.get counters.Counters.memo_hits in
      let misses0 = Atomic.get counters.Counters.memo_misses in
      let cp0 = Atomic.get counters.Counters.imply_checkpoints in
      let rs0 = Atomic.get counters.Counters.imply_resets in
      let again = pass () in
      Counters.add counters.Counters.passes 1;
      counters.Counters.pass_divisions <-
        counters.Counters.pass_divisions @ [ Atomic.get d.tally - tally0 ];
      if Trace.enabled trace then begin
        let pass_no = Trace.Int (Atomic.get counters.Counters.passes) in
        Trace.emit trace "memo"
          [
            ("driver", Trace.String d.name);
            ("pass", pass_no);
            ( "hits",
              Trace.Int (Atomic.get counters.Counters.memo_hits - hits0) );
            ( "misses",
              Trace.Int (Atomic.get counters.Counters.memo_misses - misses0) );
          ];
        Trace.emit trace "checkpoint"
          [
            ("pass", pass_no);
            ( "pops",
              Trace.Int (Atomic.get counters.Counters.imply_checkpoints - cp0)
            );
            ( "resets",
              Trace.Int (Atomic.get counters.Counters.imply_resets - rs0) );
          ]
      end;
      if again then loop (remaining - 1)
    end
  in
  loop max_passes;
  Trace.emit trace "counters"
    [ ("counters", Trace.Raw (Counters.to_json counters)) ]
