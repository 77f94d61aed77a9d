let suites =
  Test_wire.suite @ Test_jir.suite @ Test_ssa.suite @ Test_heap.suite
  @ Test_cycle.suite @ Test_escape.suite @ Test_codegen.suite
  @ Test_serial.suite @ Test_arena.suite @ Test_runtime.suite
  @ Test_apps.suite @ Test_net.suite @ Test_stats.suite @ Test_harness.suite
  @ Test_soundness.suite @ Test_jfront.suite @ Test_differential.suite
  @ Test_faults.suite @ Test_reliable.suite @ Test_internals.suite
  @ Test_edge.suite @ Test_distributed.suite @ Test_optim.suite
  @ Test_futures.suite @ Test_crash.suite @ Test_tiers.suite
  @ Test_load.suite @ Test_transport.suite @ Test_chaos.suite
  @ Test_totality.suite

(* a per-suite census up front, so a run that silently drops a suite
   (or a registration that forgets one) is visible at a glance *)
let () =
  let total =
    List.fold_left
      (fun acc (name, cases) ->
        Printf.printf "%-24s %3d tests\n" name (List.length cases);
        acc + List.length cases)
      0 suites
  in
  Printf.printf "%-24s %3d tests in %d suites\n%!" "total" total
    (List.length suites);
  Alcotest.run "rmi-repro" suites
