(** Per-node change stamps driving event-driven resubstitution.

    A [Dirty.t] subscribes to a network's mutation observers and keeps a
    logical clock: every applied mutation advances the clock and stamps
    the nodes whose observable neighbourhood changed. A division attempt
    that recorded the set of nodes it read, together with the clock at
    which it ran, can later be skipped iff none of those stamps moved —
    the attempt is then provably a replay (see {!Division_memo} in
    lib/core and DESIGN.md §11).

    Stamping is fanout-sensitive: mutating node [x] also stamps [x]'s
    old and new fanins, because attaching or detaching a consumer
    changes the transitive-fanout membership and dominator structure of
    those fanins even though their own functions are untouched. The
    tracker keeps a shadow snapshot of each node's fanin array — so the
    *old* fanins are still known when a [Function_changed] or
    [Node_removed] event arrives — and its cover by reference. The
    cover reference lets an {!Network.overwrite} ([Rebuilt]) be diffed:
    commits arrive as copy → mutate-the-scratch → overwrite, which
    physically shares the covers of untouched nodes, so only nodes
    whose cover or fanins actually differ are stamped. A rebuild the
    diff cannot attribute (the input/output orders moved) falls back to
    raising a global stamp floor, invalidating every node at once.

    Speculative attempts that mutate and then restore the network must
    not move any stamps (the restored state is byte-identical, and
    poisoned stamps would defeat the memo): wrap them in
    {!speculating}, which buffers the observer events and discards them
    when the attempt reports failure. *)

type t

val create : Network.t -> t
(** Attach a tracker to [net]. All current nodes start with stamp 0 and
    the clock at 0. *)

val detach : t -> unit
(** Unsubscribe from the network's observers. The tracker keeps
    answering queries but stops updating. *)

val clock : t -> int
(** Count of mutations applied (and not discarded) since {!create}. *)

val stamp : t -> Network.node_id -> int
(** Clock value at which [id]'s observable neighbourhood last changed;
    0 if never. Never below the floor set by the last [Rebuilt]. Ids
    that were removed keep their removal stamp. *)

val speculating : t -> committed:('a -> bool) -> (unit -> 'a) -> 'a
(** [speculating t ~committed f] runs [f] with observer events buffered.
    If [committed result] is true the buffered events are applied (in
    order) to the stamps; otherwise they are discarded — [f] must have
    restored the network to its pre-call state in that case. If [f]
    raises, the events are conservatively applied before re-raising.
    Calls must not nest. *)
