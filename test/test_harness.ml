(* Harness tests: paper data integrity, gain computation, rendering,
   and the microbenchmark tables end to end (small sizes). *)

module E = Rmi_harness.Experiment
module Gate = Rmi_harness.Gate
module P = Rmi_harness.Paper_data
module Config = Rmi_runtime.Config

let paper_data_integrity () =
  (* every timing table has the five rows, class first at 0% gain *)
  List.iter
    (fun table ->
      Alcotest.(check int) "five rows" 5 (List.length table);
      List.iter
        (fun (c : Config.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "row %s present" c.Config.name)
            true
            (P.seconds_for table c.Config.name <> None))
        Config.all;
      match P.gain_over_class table "class" with
      | Some g -> Alcotest.(check (float 1e-9)) "class gain 0" 0.0 g
      | None -> Alcotest.fail "no class row")
    [ P.table1_seconds; P.table2_seconds; P.table3_seconds; P.table5_seconds;
      P.table7_us_per_page ]

let paper_gains_match_printed () =
  (* the paper prints 43.3% for the reuse rows of Table 1 *)
  (match P.gain_over_class P.table1_seconds "site + reuse" with
  | Some g -> Alcotest.(check bool) "43.3%" true (Float.abs (g -. 43.3) < 0.1)
  | None -> Alcotest.fail "missing row");
  (* and 18.7% for all optimizations in Table 3 *)
  match P.gain_over_class P.table3_seconds "site + reuse + cycle" with
  | Some g -> Alcotest.(check bool) "18.7%" true (Float.abs (g -. 18.7) < 0.1)
  | None -> Alcotest.fail "missing row"

let stats_tables_have_five_rows () =
  List.iter
    (fun t -> Alcotest.(check int) "rows" 5 (List.length t))
    [ P.table4_stats; P.table6_stats; P.table8_stats ]

let table1_end_to_end () =
  let t = E.table1 () in
  Alcotest.(check int) "five rows" 5 (List.length t.E.rows);
  (* gains relative to class; class itself is 0 *)
  let class_row = List.hd t.E.rows in
  Alcotest.(check string) "class first" "class"
    class_row.E.config.Config.name;
  Alcotest.(check (float 1e-9)) "class gain" 0.0 (E.modeled_gain t class_row);
  (* the reuse rows must dominate: the paper's Table 1 story *)
  let gain name =
    E.modeled_gain t
      (List.find (fun r -> r.E.config.Config.name = name) t.E.rows)
  in
  Alcotest.(check bool) "reuse > site" true
    (gain "site + reuse" > gain "site");
  Alcotest.(check bool) "cycle ~ site (false positive)" true
    (Float.abs (gain "site + cycle" -. gain "site") < 2.0);
  (* rendering mentions every config and the shape summary is all ok *)
  let rendered = E.render_timing t in
  List.iter
    (fun (c : Config.t) ->
      let name = c.Config.name in
      Alcotest.(check bool)
        (Printf.sprintf "mentions %s" name)
        true
        (let n = String.length name in
         let rec has i =
           i + n <= String.length rendered
           && (String.sub rendered i n = name || has (i + 1))
         in
         has 0))
    Config.all;
  let summary = E.shape_summary t in
  Alcotest.(check bool) "no mismatch" true
    (let rec has i =
       i + 8 <= String.length summary
       && (String.sub summary i 8 = "MISMATCH" || has (i + 1))
     in
     not (has 0))

let table2_end_to_end () =
  let t = E.table2 () in
  let gain name =
    E.modeled_gain t
      (List.find (fun r -> r.E.config.Config.name = name) t.E.rows)
  in
  (* Table 2's ordering: everything helps, full opt wins *)
  Alcotest.(check bool) "site > 0" true (gain "site" > 0.0);
  Alcotest.(check bool) "cycle > site" true (gain "site + cycle" > gain "site");
  Alcotest.(check bool) "full is best" true
    (List.for_all
       (fun r -> E.modeled_gain t r <= gain "site + reuse + cycle" +. 1e-9)
       t.E.rows)

let stats_rendering () =
  let t = E.table1 () in
  let s = E.stats_table ~id:"x" ~title:"T" t P.table4_stats in
  Alcotest.(check bool) "has content" true (String.length s > 200)

let shape_summary_detects_mismatch () =
  (* hand-build a table whose measured winner contradicts the paper *)
  let mk name modeled =
    {
      E.config =
        (match Config.find name with Some c -> c | None -> assert false);
      wall_seconds = modeled;
      modeled_seconds = modeled;
      stats = Rmi_stats.Metrics.zero;
    }
  in
  let t =
    {
      E.id = "fake";
      title = "fake";
      unit_label = "s";
      rows =
        [ mk "class" 1.0; mk "site" 2.0 (* slower than class: wrong *) ;
          mk "site + cycle" 2.0; mk "site + reuse" 2.0;
          mk "site + reuse + cycle" 2.0 ];
      paper = P.table2_seconds;
      per_unit = Fun.id;
    }
  in
  let summary = E.shape_summary t in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mismatch reported" true (contains summary "MISMATCH")

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let faults_compose_with_pipeline () =
  (* --faults alongside --pipeline: every issue discipline rides the
     same seeded lossy schedule and the checksums must agree across
     variants — the gate the CLI enforces with a nonzero exit *)
  let r =
    E.pipeline_compare ~scale:E.Small ~window:4
      ~faults:(42, Rmi_net.Fault_sim.default_lossy)
      ()
  in
  Alcotest.(check int) "two workloads x three variants" 6
    (List.length r.Gate.rows);
  let checksums = Gate.check r "checksums_equal" in
  Alcotest.(check int) "every non-sequential row compared" 4
    (List.length checksums.Gate.items);
  List.iter
    (fun (item, ok) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s checksum matches under faults" item)
        true ok)
    checksums.Gate.items;
  Alcotest.(check bool) "gate verdict" true (Gate.ok r);
  List.iter
    (fun workload ->
      (* the lossy schedule actually fired: the reliable layer had to
         recover at least once in each workload *)
      let recovered =
        List.exists
          (fun (row : Gate.row) ->
            row.workload = workload
            && (Gate.field row "retries" <> Gate.Int 0
               || Gate.field row "dup_drops" <> Gate.Int 0))
          r.Gate.rows
      in
      Alcotest.(check bool) (workload ^ ": faults were injected") true recovered)
    [ "array16x16"; "list100" ];
  Alcotest.(check bool) "title records the seed" true
    (contains r.Gate.title "faults seed=42")

let crash_compare_end_to_end () =
  let r = E.crash_compare ~seed:42 ~calls:40 ~window:8 () in
  Alcotest.(check int) "three variants" 3 (List.length r.Gate.rows);
  Alcotest.(check bool) "durable row ok" true
    (Gate.holds (Gate.check r "durable_ok"));
  Alcotest.(check bool) "seeded replay byte-identical" true
    (Gate.holds (Gate.check r "replay_equal"));
  Alcotest.(check bool) "digest non-empty" true
    (String.length (Gate.show (Gate.fact r "digest")) > 0);
  Alcotest.(check bool) "gate verdict" true (Gate.ok r);
  let rendered = Gate.render r in
  Alcotest.(check bool) "renders" true (String.length rendered > 100)

(* ------------------------------------------------------------------ *)
(* the gate combinator, its JSON writer and validate                    *)
(* ------------------------------------------------------------------ *)

let toy_report checks =
  {
    Gate.gate = "toy";
    title = "toy \"gate\", two rows";
    facts = [ ("calls", Gate.Int 2) ];
    rows =
      [
        { Gate.workload = "w"; variant = "a";
          fields = [ ("n", Gate.Int 1); ("digest", Gate.Text "x") ] };
        { Gate.workload = "w"; variant = "b";
          fields = [ ("n", Gate.Int 2); ("digest", Gate.Text "y") ] };
      ];
    checks;
  }

let failing_checks_are_named () =
  let r =
    toy_report
      [
        Gate.equal "digests_equal" "digests agree"
          [ ("w/b", Gate.Text "y", Gate.Text "x") ];
        Gate.bound "size_bound" "n stays small" [ ("w/b n", 2.0, Gate.Le, 1.0) ];
        Gate.bound "fine" "n positive" [ ("w/a n", 1.0, Gate.Gt, 0.0) ];
      ]
  in
  Alcotest.(check bool) "report not ok" false (Gate.ok r);
  Alcotest.(check (list string)) "both failures named"
    [ "digests_equal"; "size_bound" ] (Gate.failed r);
  let out = Gate.render r in
  Alcotest.(check bool) "render names the failed equal check" true
    (contains out "[FAIL] digests_equal" && contains out "w/b: y <> x");
  Alcotest.(check bool) "render names the failed bound" true
    (contains out "[FAIL] size_bound" && contains out "w/b n: 2 <= 1");
  Alcotest.(check bool) "render marks the passing check" true
    (contains out "[ok]   fine");
  (* each kind alone also fails the report *)
  List.iter
    (fun c -> Alcotest.(check bool) c.Gate.name false (Gate.ok (toy_report [ c ])))
    (List.filter (fun c -> not (Gate.holds c)) r.Gate.checks)

let reported_bound_does_not_fail () =
  let r =
    toy_report
      [
        Gate.bound ~enforcement:(Gate.Reported "host too small") "perf_ok"
          "speedup" [ ("speedup", 0.5, Gate.Ge, 2.0) ];
      ]
  in
  Alcotest.(check bool) "the bound itself fails" false
    (Gate.holds (Gate.check r "perf_ok"));
  Alcotest.(check bool) "report still ok" true (Gate.ok r);
  Alcotest.(check bool) "reported, with its reason" true
    (contains (Gate.render r) "[info] perf_ok"
    && contains (Gate.render r) "host too small")

let validate_toy ?rows json =
  Gate.validate ~gate:"toy" ~keys:[ "calls"; "fine" ] ~row_keys:[ "n"; "digest" ]
    ?rows json

let writer_output_validates () =
  let r = toy_report [ Gate.bound "fine" "n positive" [ ("n", 1.0, Gate.Gt, 0.0) ] ] in
  Alcotest.(check (result unit string)) "valid" (Ok ())
    (validate_toy ~rows:2 (Gate.to_json r));
  (* a gate's own schema accepts what the gate writes *)
  let wire =
    {
      Gate.gate = "wire";
      title = "wire";
      facts = [ ("calls", Gate.Int 1) ];
      rows =
        [
          {
            Gate.workload = "chain100";
            variant = "raw/zero-copy";
            fields =
              List.map
                (fun k -> (k, Gate.Num (1, 0.5)))
                [
                  "ns_per_op"; "bytes_copied_per_call"; "minor_words_per_call";
                  "major_words_per_call"; "promoted_words_per_call";
                  "pool_hits"; "pool_misses";
                ];
          };
        ];
      checks = [];
    }
  in
  Alcotest.(check (result unit string)) "wire schema" (Ok ())
    (E.validate ~gate:"wire" ~rows:1 (Gate.to_json wire))

let validate_rejects () =
  let good = toy_report [ Gate.bound "fine" "n positive" [ ("n", 1.0, Gate.Gt, 0.0) ] ] in
  let rejects what json =
    Alcotest.(check bool) what true (Result.is_error (validate_toy ~rows:2 json))
  in
  (* a row without one of its keys *)
  rejects "missing row key"
    (Gate.to_json
       {
         good with
         Gate.rows =
           List.map
             (fun (row : Gate.row) ->
               { row with fields = List.remove_assoc "digest" row.fields })
             good.rows;
       });
  (* a report without one of its check keys *)
  rejects "missing report key" (Gate.to_json { good with Gate.checks = [] });
  rejects "wrong row count"
    (Gate.to_json { good with Gate.rows = List.tl good.rows });
  rejects "failed verdict"
    (Gate.to_json
       { good with Gate.checks = [ Gate.bound "fine" "n" [ ("n", 0.0, Gate.Gt, 0.0) ] ] });
  rejects "wrong gate" (Gate.to_json { good with Gate.gate = "other" });
  rejects "truncated" (let j = Gate.to_json good in String.sub j 0 (String.length j / 2))

(* the checked-in artifacts still match their gates' schemas *)
let bench_artifacts_validate () =
  List.iter
    (fun (gate, file, rows) ->
      Alcotest.(check (result unit string)) file (Ok ())
        (E.validate ~gate ~rows
           (In_channel.with_open_bin ("../" ^ file) In_channel.input_all)))
    [
      ("wire", "BENCH_wire.json", 4);
      ("alloc", "BENCH_alloc.json", 8);
      ("load", "BENCH_load.json", 12);
      ("transport", "BENCH_transport.json", 12);
    ]

(* [Gate.measure] counts minor words exactly: a closure reads the same
   words per call whether or not other work ran before it (a
   [Gc.quick_stat] delta advances only at minor collections, 256k
   words at a time) *)
let sampler_minor_words_order_free () =
  let calls = 1000 in
  let closure () =
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (List.init 40 Fun.id))
    done
  in
  let per () = (Gate.measure closure).Gate.minor_words /. float_of_int calls in
  let alone = per () in
  ignore (Sys.opaque_identity (Array.init 70_001 (fun i -> [ i ])));
  let after = per () in
  Alcotest.(check (float 0.0)) "same words/call after other work" alone after;
  Alcotest.(check bool)
    (Printf.sprintf "40 cons cells = 120 words/call (read %.3f)" alone)
    true
    (Float.abs (alone -. 120.0) < 1.0)

let suite =
  [
    ( "harness.paper_data",
      [
        Alcotest.test_case "integrity" `Quick paper_data_integrity;
        Alcotest.test_case "printed gains" `Quick paper_gains_match_printed;
        Alcotest.test_case "stats tables" `Quick stats_tables_have_five_rows;
      ] );
    ( "harness.tables",
      [
        Alcotest.test_case "table1 end to end" `Quick table1_end_to_end;
        Alcotest.test_case "table2 end to end" `Quick table2_end_to_end;
        Alcotest.test_case "stats rendering" `Quick stats_rendering;
        Alcotest.test_case "shape mismatch detected" `Quick
          shape_summary_detects_mismatch;
        Alcotest.test_case "--faults composes with --pipeline" `Quick
          faults_compose_with_pipeline;
        Alcotest.test_case "crash compare end to end" `Quick
          crash_compare_end_to_end;
      ] );
    ( "harness.gate",
      [
        Alcotest.test_case "failed checks are named" `Quick
          failing_checks_are_named;
        Alcotest.test_case "reported bound does not fail" `Quick
          reported_bound_does_not_fail;
        Alcotest.test_case "writer output validates" `Quick
          writer_output_validates;
        Alcotest.test_case "validate rejects" `Quick validate_rejects;
        Alcotest.test_case "BENCH artifacts validate" `Quick
          bench_artifacts_validate;
        Alcotest.test_case "sampler minor words order-free" `Quick
          sampler_minor_words_order_free;
      ] );
  ]
