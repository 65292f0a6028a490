(* Exact correctness checks. Every output is re-parsed and compared to
   its input with the BDD oracle, which is exact at any input count
   (unlike Equiv.check, which samples above 22 inputs). A job's output
   fails on a parse error, an interface mismatch or a functional
   difference. *)

module Blif = Logic_network.Blif
module Aiger = Logic_network.Aiger
module Aig = Logic_network.Aig

let equivalent a b = try Robdd.Of_network.equivalent a b with _ -> false

let blif ~input ~output =
  match Blif.parse output with
  | exception _ -> false
  | out -> equivalent (Blif.parse input) out

let aiger ~input ~output =
  match Aiger.parse output with
  | exception _ -> false
  | out ->
    equivalent (Aig.to_network (Aiger.parse input)) (Aig.to_network out)

(* Quality of an output that passed the oracle: factored literals and
   AND gates of its compacted AIG. *)
let blif_quality output =
  let net = Blif.parse output in
  ( Logic_network.Lit_count.factored net,
    Aig.num_ands (Aig.compact (Aig.of_network net)) )

let aiger_quality output =
  let aig = Aiger.parse output in
  (Logic_network.Lit_count.factored (Aig.to_network aig), Aig.num_ands aig)
