(* Property test for the structural footprints the scheduler's
   survival rule and Substitute's read closures are built on: a
   dividend's footprint must contain itself and its transitive fanin
   and fanout cones. *)

module Network = Logic_network.Network
module Node_set = Network.Node_set
module Partition = Booldiv.Partition
module Suite = Bench_suite.Suite

let benches () =
  List.map
    (fun row ->
      let net = Suite.build row in
      Synth.Script.run net Synth.Script.script_a;
      (row.Suite.name, net))
    Suite.quick_rows

let dividends net = List.sort Int.compare (Network.logic_ids net)

let test_footprint_covers_cones () =
  List.iter
    (fun (name, net) ->
      List.iter
        (fun f ->
          let fp = Partition.footprint net f in
          Alcotest.(check bool)
            (Printf.sprintf "%s: footprint of %d contains itself" name f)
            true (Node_set.mem f fp);
          let tfi = Network.transitive_fanin net [ f ] in
          let tfo = Network.transitive_fanout net [ f ] in
          Alcotest.(check bool)
            (Printf.sprintf "%s: footprint of %d contains its TFI" name f)
            true
            (Node_set.subset tfi fp);
          Alcotest.(check bool)
            (Printf.sprintf "%s: footprint of %d contains its TFO" name f)
            true
            (Node_set.subset tfo fp))
        (dividends net))
    (benches ())

let () =
  Alcotest.run "partition"
    [
      ( "regions",
        [
          Alcotest.test_case "footprint covers TFI/TFO" `Quick
            test_footprint_covers_cones;
        ] );
    ]
