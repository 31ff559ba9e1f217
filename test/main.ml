(* Aggregated alcotest runner for every library in the repository. *)

let () =
  Alcotest.run "merlin-repro"
    [ Test_geometry.suite;
      Test_tech.suite;
      Test_curves.suite;
      Test_curve_kernel.suite;
      Test_order.suite;
      Test_net.suite;
      Test_rtree.suite;
      Test_lttree.suite;
      Test_ptree.suite;
      Test_ginneken.suite;
      Test_core.suite;
      Test_report.suite;
      Test_serve.suite;
      Test_flows.suite;
      Test_hier.suite;
      Test_circuit.suite;
      Test_exec.suite;
      Test_check.suite ]
