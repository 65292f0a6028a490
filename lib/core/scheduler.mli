(** The speculative dividend scheduler shared by every resubstitution
    driver ({!Substitute}, [Synth.Resub], [Synth.Kresub]).

    A driver pass visits every live dividend in ascending id order and
    runs one {e scan} per dividend: try its candidate rewrites and
    commit on a literal gain. Only the scan differs between drivers;
    everything around it lives here once —

    {ul
    {- the pass/fixpoint loop, with the [passes] / [pass_divisions]
       counters and the per-pass [memo] / [checkpoint] trace events;}
    {- the run's {!Division_memo} and its Dirty tracker, handed to every
       scan; the scans replay and record through {!Division_memo.attempt}
       themselves;}
    {- at [jobs > 1], the worker pool's lifetime, batches of [jobs]
       dividends with one {!Network.copy} snapshot each, speculative
       scans on private copies of it, resolution in ascending id order
       with id-burn replay, the survival / re-round rule, and
       [speculative_wasted] / [speculative_seconds] accounting.}}

    Determinism: a snapshot verdict that found nothing resolves by
    reserving its id burn; any other verdict is discarded and the scan
    re-executed on the live network (the jobs=1 code path at the
    jobs=1 live state). So any [jobs] value yields a network
    byte-identical to [jobs = 1] — soundness argument in DESIGN.md §12. *)

module Network = Logic_network.Network

type outcome =
  | Committed
      (** the scan rewrote the network (live), or would have
          (snapshot) *)
  | Refined
      (** the scan moved driver state that later scans read — without
          rewriting the network — or would have. Never memoised. *)
  | Quiet  (** nothing: the scan is a replayable no-op *)

(** What a snapshot scan could have read. Decides whether its verdict
    survives a commit made earlier in the same batch. *)
type reads =
  | Unbounded  (** anything: survives only while nothing commits *)
  | Set of Network.Node_set.t
      (** an explicit read closure: survives while it is disjoint from
          the closure and post-commit {!Partition.footprint} of every
          commit made earlier in the batch *)

type verdict = { outcome : outcome; reads : reads }

(** Where a scan runs. *)
type ctx = {
  net : Network.t;  (** the live network, or a private snapshot of it *)
  live : bool;
      (** live scans commit and may run on past a commit; snapshot
          scans stop at their first would-be commit and must not touch
          driver-owned state *)
  counters : Rar_util.Counters.t;
      (** the run's record (live) or the scan's private one, folded in
          only if its verdict resolves without a re-run *)
  memo : Division_memo.t option;
      (** the run's failure memo, shared by every domain *)
  speculating : (unit -> bool) -> bool;
      (** wrap a mutate-and-maybe-restore attempt returning whether it
          committed: on the live network with the memo on, Dirty events
          are buffered and dropped on failure; otherwise a plain call *)
  nodes : Network.node_id list;
      (** the pass's dividends in ascending id order, as of its start *)
}

type driver = {
  name : string;  (** the [driver] field of the per-pass [memo] event *)
  tally : int Atomic.t;
      (** the counter cell whose per-pass delta becomes
          [pass_divisions] *)
  generation : unit -> int;
      (** the driver's refinement generation (constant for drivers
          without one); a live scan that moves it invalidates the rest
          of its batch *)
  stop : unit -> bool;
      (** polled before every pass, batch and dividend; [true] halts
          the run with every committed rewrite standing *)
  scan : ctx -> Network.node_id -> verdict;
      (** one dividend scan; called only when the dividend is live in
          [ctx.net]. On a snapshot its burn is measured around it as the
          id-limit delta. *)
}

val deadline :
  ?trace:Rar_util.Trace.t ->
  counters:Rar_util.Counters.t ->
  name:string ->
  float option ->
  unit ->
  bool
(** A [stop] predicate for an absolute {!Unix.gettimeofday} deadline:
    [false] until the instant passes, then [true] for good. The crossing
    is tallied once in [degradations] and reported as a [degrade] trace
    event whose [unit] field is [name]. [None] never stops. *)

val run :
  ?trace:Rar_util.Trace.t ->
  counters:Rar_util.Counters.t ->
  jobs:int ->
  use_memo:bool ->
  max_passes:int ->
  Network.t ->
  driver ->
  unit
(** Run passes until one commits nothing, [max_passes] is reached, or
    [stop] fires, then emit the final [counters] trace event. The memo
    (with its Dirty tracker) lives for the run when [use_memo]; a pool
    of [jobs] domains lives for the run when [jobs > 1]. *)
