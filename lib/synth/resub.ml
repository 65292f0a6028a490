open Twolevel
module Network = Logic_network.Network
module Fanin_cache = Logic_network.Fanin_cache
module Division_memo = Booldiv.Division_memo
module Scheduler = Booldiv.Scheduler
module Lit_count = Logic_network.Lit_count
module Signature = Logic_sim.Signature
module Counters = Rar_util.Counters
module Trace = Rar_util.Trace

let complement_limit = 64

let default_max_candidates = 32

(* One algebraic division attempt of f by the given lifted divisor cover,
   substituting the literal [d_lit] for it on success. *)
let attempt net ~f ~d_cover ~d_lit =
  let f_cover = Lift.cover net f in
  let q, r = Algebraic.divide f_cover d_cover in
  if Cover.is_zero q then false
  else begin
    let d_single = Cover.of_cubes [ Cube.of_literals_exn [ d_lit ] ] in
    let rebuilt = Cover.union (Cover.product q d_single) r in
    let before_cover = Network.cover net f in
    let before_fanins = Network.fanins net f in
    let before_lits = Lit_count.node_factored net f in
    match Lift.set_cover net f rebuilt with
    | exception Network.Cyclic _ -> false
    | () ->
      if Lit_count.node_factored net f < before_lits then true
      else begin
        Network.set_function net f ~fanins:before_fanins before_cover;
        false
      end
  end

(* Structural rejection shared by {!try_substitute} and the driver: a
   pair passing it is safe to attempt in either polarity. *)
let pair_guarded ?cache net ~f ~d =
  let depends_on d f =
    match cache with
    | Some c -> Fanin_cache.depends_on c d ~on:f
    | None -> Network.depends_on net d f
  in
  f = d || Network.is_input net f || Network.is_input net d || depends_on d f

let attempt_direct net ~f ~d =
  attempt net ~f ~d_cover:(Lift.cover net d) ~d_lit:(Literal.pos d)

let attempt_complement net ~f ~d =
  match Complement.cover_limited ~limit:complement_limit (Lift.cover net d) with
  | None -> false
  | Some d_not ->
    attempt net ~f ~d_cover:(Minimize.simplify d_not) ~d_lit:(Literal.neg d)

let try_substitute ?(use_complement = true) ?cache net ~f ~d =
  if pair_guarded ?cache net ~f ~d then false
  else if attempt_direct net ~f ~d then true
  else if use_complement then attempt_complement net ~f ~d
  else false

(* Candidate divisors for one dividend. Unfiltered (the seed behaviour)
   every logic node is tried in id order; with the signature engine,
   incompatible pairs are dropped and the survivors are ranked by
   signature overlap, keeping the top [max_candidates]. *)
let candidates ~counters ~cache ?sigs ~use_complement ~max_candidates net
    ~f ~nodes =
  match sigs with
  | None -> nodes
  | Some s ->
    Counters.timed counters `Filter @@ fun () ->
    let scored =
      List.filter_map
        (fun d ->
          if d = f || not (Network.mem net d) then None
          else begin
            Counters.add counters.Counters.pairs_considered 1;
            if
              Fanin_cache.depends_on cache d ~on:f
              || not (Signature.compatible s ~use_complement ~f ~d)
            then begin
              Counters.add counters.Counters.pairs_filtered 1;
              None
            end
            else Some (d, Signature.score s ~use_complement ~f ~d)
          end)
        nodes
    in
    let sorted = List.sort (fun (_, a) (_, b) -> Int.compare b a) scored in
    List.filteri (fun i _ -> i < max_candidates) (List.map fst sorted)

let run ?(use_complement = true) ?(use_filter = true)
    ?(max_candidates = default_max_candidates) ?(max_passes = 4) ?(jobs = 1)
    ?(sim_seed = Signature.default_seed) ?(sim_words = Signature.default_words)
    ?(use_memo = true) ?deadline_at ?(trace = Trace.disabled) ?counters ?dc net
    =
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  (* Algebraic attempts are individually cheap, so the only budget that
     applies here is the shared wall deadline, polled once per dividend
     node. Crossing it stops the remaining work (one degradation) while
     every committed rewrite stands. *)
  let stop =
    Scheduler.deadline ~trace ~counters ~name:"resub" deadline_at
  in
  let signatures net =
    if use_filter then
      Some (Signature.create ~seed:sim_seed ~words:sim_words ?dc net)
    else None
  in
  let cache = Fanin_cache.create net in
  let sigs = signatures net in
  Fun.protect ~finally:(fun () -> Option.iter Signature.detach sigs)
  @@ fun () ->
  let subs0 = Atomic.get counters.Counters.substitutions in
  (* An algebraic attempt reads only the two lifted covers — cover and
     fanin array of [f] and of [d] ({!Lift.cover}) — and any change to
     either stamps the node itself, so {f, d} is the whole read set.
     The structural guard (cycle check over the fanin cone) is
     re-evaluated live before every replay, so it needs no stamps. *)
  let pair_reads f d =
    Division_memo.reads_of_set
      (Network.Node_set.add f (Network.Node_set.singleton d))
  in
  (* One pair against [ctx.net], each polarity a memoised attempt.
     Failures recorded by a worker land in the shared striped table at
     the frozen clock — true facts even if the worker's whole scan is
     later discarded. *)
  let pair_attempt (ctx : Scheduler.ctx) ~cache f d =
    let net = ctx.net and c = ctx.counters in
    if pair_guarded ~cache net ~f ~d then begin
      Counters.add c.Counters.divisions_attempted 1;
      false
    end
    else begin
      let ran = ref false in
      let phase_attempt ph real =
        Division_memo.attempt ctx.memo ~counters:c net ~f
          (Division_memo.Divisor (d, ph))
          ~meth:Division_memo.Algebraic
          ~reads:(fun () -> pair_reads f d)
          (fun () ->
            ran := true;
            Counters.timed c `Division @@ fun () -> ctx.speculating real)
      in
      let ok =
        phase_attempt Division_memo.Pos (fun () -> attempt_direct net ~f ~d)
      in
      let ok =
        ok
        || use_complement
           && phase_attempt Division_memo.Neg (fun () ->
                  attempt_complement net ~f ~d)
      in
      if !ran then Counters.add c.Counters.divisions_attempted 1;
      ok
    end
  in
  (* The scan of one dividend: rank its candidates among the pass's
     nodes, then attempt each pair in order — all of them live, up to
     the first would-be commit on a snapshot. Algebraic candidate
     selection reads every node's signature with no structural gate, so
     no bounded read closure exists. *)
  let scan (ctx : Scheduler.ctx) f =
    let net = ctx.net in
    let cache, sigs =
      if ctx.live then (cache, sigs)
      else (Fanin_cache.create net, signatures net)
    in
    Fun.protect
      ~finally:(fun () ->
        if not ctx.live then Option.iter Signature.detach sigs)
    @@ fun () ->
    let divisors =
      candidates ~counters:ctx.counters ~cache ?sigs ~use_complement
        ~max_candidates net ~f ~nodes:ctx.nodes
    in
    let landed = ref false in
    List.iter
      (fun d ->
        if
          (ctx.live || not !landed)
          && Network.mem net f && Network.mem net d
          && pair_attempt ctx ~cache f d
        then begin
          landed := true;
          Counters.add ctx.counters.Counters.substitutions 1
        end)
      divisors;
    {
      Scheduler.outcome =
        (if !landed then Scheduler.Committed else Quiet);
      reads = Unbounded;
    }
  in
  let jobs = max 1 jobs in
  Trace.span trace "resub"
    ~fields:[ ("jobs", Trace.Int jobs) ]
    (fun () ->
      Scheduler.run ~trace ~counters ~jobs ~use_memo ~max_passes net
        {
          Scheduler.name = "resub";
          tally = counters.Counters.divisions_attempted;
          generation = (fun () -> 0);
          stop;
          scan;
        });
  Atomic.get counters.Counters.substitutions - subs0
