(** Structural footprints of dividends.

    A scan of dividend [f] reads, and a commit at [f] can restamp, only
    nodes in [f]'s structural {e footprint}: transitive fanin,
    transitive fanout, and the fanin of that fanout (the side cones a
    rewrite of [f] can restructure). {!Substitute} builds its snapshot
    read closures on it, and the {!Scheduler} adds a committed
    dividend's post-commit footprint to what the batch's commits may
    have changed. The footprint is a pure function of the network
    structure: no simulation signatures, seeds or revision stamps enter
    it. *)

val footprint :
  Logic_network.Network.t ->
  Logic_network.Network.node_id ->
  Logic_network.Network.Node_set.t
(** [TFI(f) ∪ TFO(f) ∪ TFI(TFO(f))] — every node a scan of [f] can
    read through its own cones and every node a commit at [f] can
    restamp. Includes [f] itself. *)
