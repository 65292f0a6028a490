module Network = Logic_network.Network
module Node_set = Network.Node_set

let footprint net f =
  let tfi = Network.transitive_fanin net [ f ] in
  let tfo = Network.transitive_fanout net [ f ] in
  (* TFI of the fanout cone: a rewrite of [f] re-expresses nodes above
     it, and the divisors ranked for those nodes live in their fanins —
     the side cones. Seeding the DFS with the whole fanout cone gets
     its closure in one sweep. *)
  let side = Network.transitive_fanin net (Node_set.elements tfo) in
  Node_set.union tfi (Node_set.union tfo side)
