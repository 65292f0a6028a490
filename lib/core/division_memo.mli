(** Revision-keyed memoisation of failed resubstitution attempts.

    The fixpoint drivers re-attempt every (dividend, divisor) pair each
    pass; after the first pass most attempts are byte-for-byte replays
    of failures whose inputs did not change. This table records each
    failure together with the {!Logic_network.Dirty} clock at which it
    ran and the set of nodes the attempt could have read; a later
    attempt with the same key is skipped iff none of those stamps moved
    past the recorded clock — the failure is then provably a replay
    (soundness argument in DESIGN.md §11).

    Every driver goes through {!attempt}, the one place that replays,
    records and keeps the id burn. Failed Boolean attempts burn node ids
    on the main network (a transient quotient node advances the
    allocator, and node names are derived from ids), so each entry
    records the id burn and a replay reserves it with
    {!Logic_network.Network.reserve_ids}: memo-on and memo-off runs stay
    bit-identical, at every [--jobs] value.

    The table's lifetime is one driver run: entries key on node ids,
    which are never recycled within a run.

    The table is safe to share across worker domains: it is striped (a
    mutex per stripe, keys hashed onto stripes), so a failure proven by
    one worker is a hit in every other. Freshness tests read
    {!Logic_network.Dirty} stamps without locking them — sound because
    the drivers only advance stamps on the scheduling domain, never
    while a parallel batch is in flight. *)

module Network = Logic_network.Network

type t

type phase = Pos | Neg | Both
(** Which polarity of the divisor the attempt covered. [Both] keys
    whole units that internally try both phases. *)

type meth = Algebraic | Boolean | Kresub
(** [Kresub] keys the constructive simulation-guided driver's
    whole-dividend scans ([Divisor (f, Both)]) apart from the division
    drivers sharing the same table. *)

type target =
  | Divisor of Network.node_id * phase
  | Pool of Network.node_id list
      (** multi-divisor extended unit; the pool list is part of the key *)

type reads
(** What a recorded attempt could have read. *)

val reads_of_set : Network.Node_set.t -> reads

val all_nodes : reads
(** For attempts whose read set cannot be bounded (global-don't-care
    configurations derive implications across the whole network): valid
    only while the clock is unchanged. *)

val create : Logic_network.Dirty.t -> t

val attempt :
  ?gen:(unit -> int) ->
  t option ->
  counters:Rar_util.Counters.t ->
  Network.t ->
  f:Network.node_id ->
  target ->
  meth:meth ->
  reads:(unit -> reads) ->
  (unit -> bool) ->
  bool
(** [attempt memo ~counters net ~f target ~meth ~reads run] runs one
    memoised attempt on [net] and returns whether it landed. With
    [memo = None] it is just [run ()]. Otherwise, when a fresh failure
    is recorded for the key, its id burn is reserved on [net],
    [memo_hits] ticks and the result is [false] without running.
    Failing that, [memo_misses] ticks, [run ()] executes, and when it
    returns [false] the failure is recorded at the current clock with
    [reads ()] and the id-limit delta [run] caused as its burn. A failed
    [run] must leave [net] as it found it, modulo that burn.

    [gen] (default constant 0) is part of the key, read before the
    lookup and again at record time: the kresub driver passes its
    refinement generation so failures proven against pre-refinement
    signatures never replay once a counterexample sharpened them. *)
