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
  scoped : bool;
  tally : int Atomic.t;
  generation : unit -> int;
  stop : unit -> bool;
  scan : ctx -> Network.node_id -> verdict;
}

(* A worker's verdict on one dividend, scanned on a private snapshot of
   the frozen live network, with what resolving it needs. *)
type spec = {
  verdict : verdict;
  replayed : bool;
      (* resolved from the dividend memo: its closure was not
         recomputed, but lies inside the dividend's static region *)
  burn : int;  (* node ids the scan consumed *)
  units : int;  (* memo hits + real attempts the scan resolved *)
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

let units_of (c : Counters.t) =
  Atomic.get c.Counters.memo_hits + Atomic.get c.Counters.memo_misses

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
     own. With the memo on, a scan whose whole read closure is unchanged
     since it last ran to quiescence is skipped outright, reserving its
     total id burn; a fresh quiescent scan is recorded. Returns whether
     the step invalidates later verdicts of a batch: it committed, or
     moved the driver's generation. *)
  let process ctx changed f =
    if d.stop () || not (Network.mem net f) then false
    else
      let gen0 = d.generation () in
      let outcome =
        match memo with
        | None -> (d.scan ctx f).outcome
        | Some m -> (
          match Division_memo.replay_dividend ~gen:gen0 m ~f with
          | Some (burn, units) ->
            Counters.add counters.Counters.memo_hits units;
            if burn > 0 then Network.reserve_ids net burn;
            Quiet
          | None ->
            let clock0 = Dirty.clock (Division_memo.dirty m) in
            let id0 = Network.id_limit net in
            let units0 = units_of counters in
            let v = d.scan ctx f in
            if
              v.outcome = Quiet
              && Dirty.clock (Division_memo.dirty m) = clock0
              && Network.mem net f
            then
              Division_memo.record_dividend ~gen:(d.generation ()) m ~f
                ~at:clock0
                ~burn:(Network.id_limit net - id0)
                ~units:(units_of counters - units0);
            v.outcome)
      in
      if outcome = Committed then changed := true;
      outcome = Committed || d.generation () <> gen0
  in
  (* A whole-dividend scan on [snap], a private copy of the batch
     snapshot (taken after the pending list was filtered, so [f] is
     live in it). Runs on a worker domain: it reads the shared memo
     but writes only its own counters and snapshot. *)
  let speculate snap ~gen ~nodes f =
    let t0 = Unix.gettimeofday () in
    let wc = Counters.create () in
    let finish ?(replayed = false) verdict ~burn ~units =
      {
        verdict;
        replayed;
        burn;
        units;
        spec_counters = wc;
        seconds = Unix.gettimeofday () -. t0;
      }
    in
    match
      Option.bind memo (fun m -> Division_memo.replay_dividend ~gen m ~f)
    with
    | Some (burn, units) ->
      Counters.add wc.Counters.memo_hits units;
      finish ~replayed:true { outcome = Quiet; reads = Unbounded } ~burn ~units
    | None ->
      let id0 = Network.id_limit snap in
      let v =
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
      finish v ~burn:(Network.id_limit snap - id0) ~units:(units_of wc)
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
    let jobs_n = Pool.jobs pool_t in
    (* Static regions over the still-pending dividends (scoped drivers
       only); recomputed after any commit, since a rewrite can
       restructure cones across the old region boundaries. *)
    let part = ref None in
    let rec drive pending =
      if d.stop () then ()
      else
        match List.filter (Network.mem net) pending with
        | [] -> ()
        | pending ->
          let region_of =
            if not d.scoped then fun _ -> None
            else begin
              let p =
                match !part with
                | Some p -> p
                | None ->
                  let p = Partition.shard net pending in
                  part := Some p;
                  p
              in
              fun f ->
                match Partition.region_of p f with
                | r -> Some r
                | exception Not_found -> None
            end
          in
          (* Fill a batch up to [jobs_n] dividends, extending to twice
             that while every member comes from a distinct region —
             pairwise-disjoint footprints cannot invalidate one another,
             so oversubscribing the pool with them is free. *)
          let rec take acc regs n rest =
            match rest with
            | f :: tl when n < 2 * jobs_n ->
              (* [regs]: the batch's regions while all distinct *)
              let regs =
                match (regs, region_of f) with
                | Some rs, Some r when not (List.mem r rs) -> Some (r :: rs)
                | _ -> None
              in
              if n < jobs_n || regs <> None then take (f :: acc) regs (n + 1) tl
              else (List.rev acc, rest)
            | _ -> (List.rev acc, rest)
          in
          let batch, rest = take [] (Some []) 0 pending in
          (* One frozen snapshot per batch; each worker copies from it
             rather than from the live network ({!Network.copy} is a pure
             read of its source, so concurrent copies are race-free). *)
          let snap = Network.copy net in
          let gen = d.generation () in
          let results =
            Pool.run pool_t
              (List.map
                 (fun f () -> speculate (Network.copy snap) ~gen ~nodes f)
                 batch)
          in
          let c_accum = ref Node_set.empty in
          let c_unbounded = ref false in
          let committed_regions = ref [] in
          let any_commit = ref false in
          let re_round = ref [] in
          List.iter2
            (fun f r ->
              let other_region () =
                match region_of f with
                | Some reg -> not (List.mem reg !committed_regions)
                | None -> false
              in
              let survives =
                (not !any_commit)
                || (not !c_unbounded)
                   &&
                   if r.replayed then other_region ()
                   else
                     match r.verdict.reads with
                     | Unbounded -> false
                     | Set reads ->
                       other_region () || Node_set.disjoint !c_accum reads
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
                  part := None;
                  (match r.verdict.reads with
                  | Set reads ->
                    let post =
                      if Network.mem net f then Partition.footprint net f
                      else Node_set.empty
                    in
                    c_accum :=
                      Node_set.union !c_accum (Node_set.union reads post)
                  | Unbounded -> c_unbounded := true);
                  match region_of f with
                  | Some reg -> committed_regions := reg :: !committed_regions
                  | None -> c_unbounded := true
                end
              end
              else begin
                (* A scan that found nothing, and whose re-run now would
                   provably find nothing: consume its id burn so the
                   allocator stays id-for-id with jobs=1, fold its
                   tallies, and remember the quiescent scan. *)
                Counters.accumulate counters r.spec_counters;
                if r.burn > 0 then Network.reserve_ids net r.burn;
                match memo with
                | Some m when Network.mem net f ->
                  Division_memo.record_dividend ~gen:(d.generation ()) m ~f
                    ~at:(Dirty.clock (Division_memo.dirty m))
                    ~burn:r.burn ~units:r.units
                | _ -> ()
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
