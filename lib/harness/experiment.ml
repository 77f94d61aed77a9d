module Config = Rmi_runtime.Config
module Fabric = Rmi_runtime.Fabric
module Node = Rmi_runtime.Node
module Remote_ref = Rmi_runtime.Remote_ref
module Metrics = Rmi_stats.Metrics
module Costmodel = Rmi_net.Costmodel
module Fault_sim = Rmi_net.Fault_sim
module Chaos = Rmi_net.Chaos
module Value = Rmi_serial.Value
module Plan = Rmi_core.Plan

type scale = Small | Paper

type row = {
  config : Config.t;
  wall_seconds : float;
  modeled_seconds : float;
  stats : Metrics.snapshot;
}

type timing_table = {
  id : string;
  title : string;
  unit_label : string;
  rows : row list;
  paper : (string * float) list;
  per_unit : float -> float;
}

let model = Costmodel.myrinet_2003

let run_all_configs run_one =
  List.map
    (fun config ->
      let wall, stats = run_one config in
      {
        config;
        wall_seconds = wall;
        modeled_seconds = Costmodel.modeled_seconds model stats;
        stats;
      })
    Config.all

let find_class_row t =
  match List.find_opt (fun r -> r.config.Config.name = "class") t.rows with
  | Some r -> r
  | None -> invalid_arg "timing table without a class row"

let modeled_gain t row =
  let base = (find_class_row t).modeled_seconds in
  if base = 0.0 then 0.0 else 100.0 *. (base -. row.modeled_seconds) /. base

let wall_gain t row =
  let base = (find_class_row t).wall_seconds in
  if base = 0.0 then 0.0 else 100.0 *. (base -. row.wall_seconds) /. base

(* ------------------------------------------------------------------ *)
(* the five timing tables                                              *)
(* ------------------------------------------------------------------ *)

let table1 ?(scale = Small) ?(mode = Fabric.Sync) ?backend () =
  let params =
    match scale with
    | Small -> { Rmi_apps.Linked_list.elements = 100; repetitions = 200 }
    | Paper -> { Rmi_apps.Linked_list.elements = 100; repetitions = 2000 }
  in
  let rows =
    run_all_configs (fun config ->
        let r = Rmi_apps.Linked_list.run ?backend ~config ~mode params in
        (r.Rmi_apps.Linked_list.wall_seconds, r.Rmi_apps.Linked_list.stats))
  in
  {
    id = "table1";
    title =
      Printf.sprintf "Table 1: LinkedList, %d elements, %d repetitions, 2 CPUs"
        params.elements params.repetitions;
    unit_label = "s";
    rows;
    paper = Paper_data.table1_seconds;
    per_unit = Fun.id;
  }

let table2 ?(scale = Small) ?(mode = Fabric.Sync) ?backend () =
  let params =
    match scale with
    | Small -> { Rmi_apps.Array_bench.n = 16; repetitions = 200 }
    | Paper -> { Rmi_apps.Array_bench.n = 16; repetitions = 2000 }
  in
  let rows =
    run_all_configs (fun config ->
        let r = Rmi_apps.Array_bench.run ?backend ~config ~mode params in
        (r.Rmi_apps.Array_bench.wall_seconds, r.Rmi_apps.Array_bench.stats))
  in
  {
    id = "table2";
    title =
      Printf.sprintf "Table 2: 2D array transmission, %dx%d, %d repetitions, 2 CPUs"
        params.n params.n params.repetitions;
    unit_label = "s";
    rows;
    paper = Paper_data.table2_seconds;
    per_unit = Fun.id;
  }

let table3 ?(scale = Small) ?(mode = Fabric.Sync) ?backend () =
  let params =
    match scale with
    | Small -> { Rmi_apps.Lu.n = 256; block_size = 16 }
    | Paper -> { Rmi_apps.Lu.n = 1024; block_size = 16 }
  in
  let rows =
    run_all_configs (fun config ->
        let r = Rmi_apps.Lu.run ?backend ~config ~mode params in
        if r.Rmi_apps.Lu.residual > 1e-6 then
          failwith
            (Printf.sprintf "LU diverged under %s: residual %g"
               config.Config.name r.Rmi_apps.Lu.residual);
        (r.Rmi_apps.Lu.wall_seconds, r.Rmi_apps.Lu.stats))
  in
  {
    id = "table3";
    title =
      Printf.sprintf "Table 3: LU runtime, %dx%d matrix (block %d), 2 CPUs"
        params.n params.n params.block_size;
    unit_label = "s";
    rows;
    paper = Paper_data.table3_seconds;
    per_unit = Fun.id;
  }

let table5 ?(scale = Small) ?(mode = Fabric.Sync) ?backend () =
  let params =
    match scale with
    | Small ->
        { Rmi_apps.Superopt.default_params with max_len = 2; max_candidates = 20_000 }
    | Paper ->
        (* the paper tests 10.5M sequences of up to three instructions *)
        { Rmi_apps.Superopt.default_params with max_len = 3;
          max_candidates = 10_500_000 }
  in
  let rows =
    run_all_configs (fun config ->
        let r = Rmi_apps.Superopt.run ?backend ~config ~mode params in
        (r.Rmi_apps.Superopt.wall_seconds, r.Rmi_apps.Superopt.stats))
  in
  {
    id = "table5";
    title = "Table 5: Superoptimizer exhaustive search, 2 CPUs";
    unit_label = "s";
    rows;
    paper = Paper_data.table5_seconds;
    per_unit = Fun.id;
  }

let table7 ?(scale = Small) ?(mode = Fabric.Sync) ?backend () =
  let params =
    match scale with
    | Small -> { Rmi_apps.Webserver.pages = 64; page_bytes = 2048; requests = 5000 }
    | Paper -> { Rmi_apps.Webserver.pages = 64; page_bytes = 2048; requests = 100_000 }
  in
  let requests = params.requests in
  let rows =
    run_all_configs (fun config ->
        let r = Rmi_apps.Webserver.run ?backend ~config ~mode params in
        (r.Rmi_apps.Webserver.wall_seconds, r.Rmi_apps.Webserver.stats))
  in
  {
    id = "table7";
    title =
      Printf.sprintf "Table 7: Webserver, us per webpage retrieval (%d requests), 2 CPUs"
        requests;
    unit_label = "us/page";
    rows;
    paper = Paper_data.table7_us_per_page;
    per_unit = (fun wall -> wall *. 1e6 /. float_of_int requests);
  }

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)
(* ------------------------------------------------------------------ *)

let f2 v = Printf.sprintf "%.2f" v
let f1pct v = Printf.sprintf "%.1f%%" v

let render_timing t =
  let headers =
    [
      "Compiler Optimization"; "paper " ^ t.unit_label; "paper gain";
      "model s"; "model gain"; "wall " ^ t.unit_label; "wall gain";
    ]
  in
  let rows =
    List.map
      (fun r ->
        let name = r.config.Config.name in
        let paper_v =
          match Paper_data.seconds_for t.paper name with
          | Some v -> f2 v
          | None -> "-"
        in
        let paper_g =
          match Paper_data.gain_over_class t.paper name with
          | Some g -> f1pct g
          | None -> "-"
        in
        [
          name; paper_v; paper_g;
          Printf.sprintf "%.4f" r.modeled_seconds;
          f1pct (modeled_gain t r);
          Printf.sprintf "%.4f" (t.per_unit r.wall_seconds);
          f1pct (wall_gain t r);
        ])
      t.rows
  in
  t.title ^ "\n" ^ Rmi_stats.Ascii_table.render ~headers rows

let stats_table ~id ~title (t : timing_table) (paper : Paper_data.stats_row list) =
  let headers =
    [
      "Optimization"; "reused objs"; "(paper)"; "local rpcs"; "(paper)";
      "remote rpcs"; "(paper)"; "new MBytes"; "(paper)"; "cycle lookups";
      "(paper)"; "ser calls";
    ]
  in
  let rows =
    List.map
      (fun r ->
        let name = r.config.Config.name in
        let p =
          List.find_opt (fun (pr : Paper_data.stats_row) -> pr.cfg = name) paper
        in
        let pi f = match p with Some p -> string_of_int (f p) | None -> "-" in
        let pf f = match p with Some p -> f2 (f p) | None -> "-" in
        [
          name;
          string_of_int r.stats.Metrics.reused_objs;
          pi (fun p -> p.Paper_data.reused_objs);
          string_of_int r.stats.Metrics.local_rpcs;
          pi (fun p -> p.Paper_data.local_rpcs);
          string_of_int r.stats.Metrics.remote_rpcs;
          pi (fun p -> p.Paper_data.remote_rpcs);
          f2 (float_of_int r.stats.Metrics.new_bytes /. 1048576.0);
          pf (fun p -> p.Paper_data.new_mbytes);
          string_of_int r.stats.Metrics.cycle_lookups;
          pi (fun p -> p.Paper_data.cycle_lookups);
          (* the paper reports the serializer-invocation reduction in
             prose ("a notable reduction ... due to method inlining") *)
          string_of_int r.stats.Metrics.ser_invocations;
        ])
      t.rows
  in
  ignore id;
  title ^ "\n" ^ Rmi_stats.Ascii_table.render ~headers rows

let shape_summary t =
  let checks = ref [] in
  let note ok what =
    checks := (Printf.sprintf "  [%s] %s" (if ok then "ok" else "MISMATCH") what) :: !checks
  in
  let by name = List.find_opt (fun r -> r.config.Config.name = name) t.rows in
  (match (by "class", by "site") with
  | Some c, Some s ->
      note (s.modeled_seconds < c.modeled_seconds) "site beats class (modeled)"
  | _ -> ());
  (match (by "site", by "site + reuse + cycle") with
  | Some s, Some f ->
      note
        (f.modeled_seconds <= s.modeled_seconds)
        "all optimizations beat site alone (modeled)"
  | _ -> ());
  (* does the measured winner match the paper's winner? *)
  let winner rows value =
    List.fold_left
      (fun acc r -> match acc with
        | None -> Some r
        | Some best -> if value r < value best then Some r else acc)
      None rows
  in
  (match
     ( winner t.rows (fun r -> r.modeled_seconds),
       List.fold_left
         (fun acc (name, v) ->
           match acc with
           | None -> Some (name, v)
           | Some (_, best) -> if v < best then Some (name, v) else acc)
         None t.paper )
   with
  | Some r, Some (pname, _) ->
      note
        (String.equal r.config.Config.name pname
        ||
        (* ties in the paper: reuse rows equal within noise *)
        match Paper_data.seconds_for t.paper r.config.Config.name with
        | Some v ->
            Float.abs
              (v -. (match Paper_data.seconds_for t.paper pname with Some b -> b | None -> v))
            /. v
            < 0.02
        | None -> false)
        (Printf.sprintf "winner matches paper (%s)" pname)
  | _ -> ());
  String.concat "\n" (List.rev !checks)

(* ------------------------------------------------------------------ *)
(* the gates: workloads x variants -> Gate.report                      *)
(* ------------------------------------------------------------------ *)

let num d x = Gate.Num (d, x)
let md5 s = Gate.Text (Digest.to_hex (Digest.string s))

(* each gate's JSON key set, checked by [validate]: report-level keys
   (facts and check names), then the keys every row carries besides
   "workload" and "variant" *)
let schemas =
  [
    ( "wire",
      [ "calls" ],
      [
        "ns_per_op"; "bytes_copied_per_call"; "minor_words_per_call";
        "major_words_per_call"; "promoted_words_per_call"; "pool_hits";
        "pool_misses";
      ] );
    ( "alloc",
      [ "baseline_minor_words_per_call"; "frames_ok"; "results_ok"; "gate_ok";
        "arena_ok" ],
      [
        "minor_words_per_call_heap"; "minor_words_per_call_arena";
        "arena_allocs"; "arena_resets"; "arena_fallbacks"; "gated"; "digest";
      ] );
    ( "load",
      [
        "servers"; "calls"; "digest_ok"; "speedup"; "speedup_floor";
        "tail_ratio"; "tail_tol"; "perf_enforced"; "perf_ok";
      ],
      [
        "domains"; "throughput_rps"; "p50_us"; "p99_us"; "p999_us";
        "dispatches"; "steals"; "rejects"; "queue_depth_hwm"; "digest";
      ] );
    ( "transport",
      [ "digest_ok"; "model_ok" ],
      [ "backend"; "msgs"; "bytes"; "modeled_s"; "wall_s"; "digest" ] );
    ( "chaos",
      [ "replay_equal"; "parity_equal"; "digest"; "sweep_seeds"; "sweep_failed" ],
      [
        "checksum"; "executions"; "crashes"; "restarts"; "arq_retries";
        "dup_drops"; "stale_drops";
      ] );
  ]

let validate ~gate ?rows text =
  match List.find_opt (fun (g, _, _) -> String.equal g gate) schemas with
  | Some (_, keys, row_keys) -> Gate.validate ~gate ~keys ~row_keys ?rows text
  | None ->
      Error
        (Printf.sprintf "no schema for gate %S (known: %s)" gate
           (String.concat ", " (List.map (fun (g, _, _) -> g) schemas)))

(* ------------------------------------------------------------------ *)
(* pipelining / batching comparison                                    *)
(* ------------------------------------------------------------------ *)

(* the same N-RMI workload three ways: synchronous, pipelined futures,
   pipelined futures over coalescing envelopes.  The checksum column
   proves all three computed the same thing; msgs_sent x the cost
   model's per-message latency is where batching pays.

   [faults] composes the comparison with a seeded lossy network: every
   variant switches to the reliable transport and gets a {e fresh}
   simulator from the same seed (the schedules diverge with the
   traffic, the checksums must not). *)
let pipeline_compare ?(scale = Small) ?(mode = Fabric.Sync) ?(window = 16)
    ?faults () =
  let config =
    match faults with
    | None -> Config.site_reuse_cycle
    | Some _ -> Config.with_reliable Config.site_reuse_cycle
  in
  let batched = Config.with_batching config in
  let sim () =
    match faults with
    | None -> None
    | Some (seed, profile) -> Some (Fault_sim.create ~seed ~n:2 profile)
  in
  let repetitions = match scale with Small -> 200 | Paper -> 2000 in
  let row workload variant (wall, (stats : Metrics.snapshot), checksum) =
    {
      Gate.workload;
      variant;
      fields =
        [
          ("msgs", Gate.Int stats.msgs_sent);
          ("batches", Gate.Int stats.batches_sent);
          ("max_inflight", Gate.Int stats.outstanding_hwm);
          ("bytes", Gate.Int stats.bytes_sent);
          ("retries", Gate.Int stats.retries);
          ("dup_drops", Gate.Int stats.dup_drops);
          ("model_s", num 4 (Costmodel.modeled_seconds model stats));
          ("wall_s", num 4 wall);
          ("checksum", num 0 checksum);
        ];
    }
  in
  let array_rows =
    let params = { Rmi_apps.Array_bench.n = 16; repetitions } in
    let r (x : Rmi_apps.Array_bench.result) =
      (x.wall_seconds, x.stats, x.sum_received)
    in
    let w = "array16x16" in
    [
      row w "sequential"
        (r (Rmi_apps.Array_bench.run ?faults:(sim ()) ~config ~mode params));
      row w "pipelined"
        (r
           (Rmi_apps.Array_bench.run_pipelined ~window ?faults:(sim ()) ~config
              ~mode params));
      row w "pipelined + batch"
        (r
           (Rmi_apps.Array_bench.run_pipelined ~window ?faults:(sim ())
              ~config:batched ~mode params));
    ]
  in
  let list_rows =
    let params = { Rmi_apps.Linked_list.elements = 100; repetitions } in
    let r (x : Rmi_apps.Linked_list.result) =
      (x.wall_seconds, x.stats, float_of_int x.cells_received)
    in
    let w = "list100" in
    [
      row w "sequential"
        (r (Rmi_apps.Linked_list.run ?faults:(sim ()) ~config ~mode params));
      row w "pipelined"
        (r
           (Rmi_apps.Linked_list.run_pipelined ~window ?faults:(sim ()) ~config
              ~mode params));
      row w "pipelined + batch"
        (r
           (Rmi_apps.Linked_list.run_pipelined ~window ?faults:(sim ())
              ~config:batched ~mode params));
    ]
  in
  let same_as_first = function
    | (first : Gate.row) :: rest ->
        List.map
          (fun (r : Gate.row) ->
            ( r.workload ^ "/" ^ r.variant,
              Gate.field r "checksum",
              Gate.field first "checksum" ))
          rest
    | [] -> []
  in
  {
    Gate.gate = "pipeline";
    title =
      Printf.sprintf
        "pipeline: 2D array 16x16 and LinkedList of 100 cells, %d repetitions \
         each, window %d, site + reuse + cycle%s"
        repetitions window
        (match faults with
        | None -> ""
        | Some (seed, _) -> Printf.sprintf ", faults seed=%d" seed);
    facts = [];
    rows = array_rows @ list_rows;
    checks =
      [
        Gate.equal "checksums_equal"
          "every issue discipline computed the sequential checksum"
          (same_as_first array_rows @ same_as_first list_rows);
      ];
  }

(* ------------------------------------------------------------------ *)
(* crash / restart / failover comparison                               *)
(* ------------------------------------------------------------------ *)

let crash_meta =
  lazy (Rmi_serial.Class_meta.make [ ("Box", [ ("v", Jir.Types.Tint) ]) ])

let crash_box v =
  let b = Value.new_obj ~cls:0 ~nfields:1 in
  b.Value.fields.(0) <- Value.Int v;
  Value.Obj b

let m_echo = 1

(* [calls] pipelined echo RMIs from machine 0 to machine 1 over the
   reliable transport, optionally under a crash schedule ([?sim] on
   the simulated backend, [?chaos] over real sockets).  Returns the
   reply checksum, how often the handler actually ran (exactly-once
   evidence) and how many calls failed despite retries.  [?record] is
   called with the boxed value on every handler execution (per-value
   exactly-once evidence — the checksum alone cannot distinguish a
   re-execution of an idempotent echo); [?replies] accumulates the
   issue-order reply stream for byte-identical replay comparison. *)
let run_crash_variant ?sim ?chaos ?(backend = Fabric.Sim)
    ?(record = fun _ -> ()) ?replies ~calls ~window () =
  let metrics = Metrics.create () in
  let config =
    (* a restart outage can outlast one transport budget; give the RPC
       layer enough resends to ride through it *)
    Config.with_failover
      { Config.default_failover with Config.max_call_retries = 4 }
      (Config.with_reliable Config.class_)
  in
  let fabric =
    Fabric.create ~mode:Fabric.Sync ~backend ?faults:sim ?chaos ~n:2
      ~meta:(Lazy.force crash_meta) ~config ~plans:(Hashtbl.create 4) ~metrics
      ()
  in
  let execs = ref 0 in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_echo ~has_ret:true
    (fun args ->
      incr execs;
      match args.(0) with
      | Value.Obj o -> (
          match o.Value.fields.(0) with
          | Value.Int v ->
              record v;
              Some (Value.Int (v + 1))
          | _ -> failwith "bad box")
      | _ -> failwith "bad arg");
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let sum = ref 0 and failed = ref 0 in
  Fabric.run fabric (fun _ ->
      let i = ref 1 in
      while !i <= calls do
        let k = min window (calls - !i + 1) in
        let futures =
          List.init k (fun j ->
              Node.call_async caller ~dest ~meth:m_echo ~callsite:1
                ~has_ret:true [| crash_box (!i + j) |])
        in
        List.iteri
          (fun j f ->
            let note s =
              Option.iter
                (fun b ->
                  Buffer.add_string b (Printf.sprintf "%d:%s;" (!i + j) s))
                replies
            in
            match Node.Future.await f with
            | Some (Value.Int v) ->
                sum := !sum + v;
                note (string_of_int v)
            | Some _ | None ->
                incr failed;
                note "fail"
            | exception (Node.Rpc_timeout _ | Node.Peer_down _) ->
                incr failed;
                note "fail")
          futures;
        i := !i + k
      done);
  Fabric.shutdown_net fabric;
  (Metrics.snapshot metrics, !sum, !execs, !failed)

let echo_row variant ((s : Metrics.snapshot), sum, execs, failed) =
  {
    Gate.workload = "echo";
    variant;
    fields =
      [
        ("checksum", Gate.Int sum);
        ("failed", Gate.Int failed);
        ("executions", Gate.Int execs);
        ("crashes", Gate.Int s.crashes);
        ("restarts", Gate.Int s.restarts);
        ("rpc_retries", Gate.Int s.call_retries);
        ("arq_retries", Gate.Int s.retries);
        ("cache_hits", Gate.Int s.reply_cache_hits);
        ("dup_drops", Gate.Int s.dup_drops);
        ("stale_drops", Gate.Int s.stale_drops);
      ];
  }

(* checksum equal to the fault-free run's and no failed call *)
let echo_matches ~base (variant, (_, sum, _, failed)) =
  let _, base_sum, _, _ = base in
  [
    (variant ^ " checksum", Gate.Int sum, Gate.Int base_sum);
    (variant ^ " failed calls", Gate.Int failed, Gate.Int 0);
  ]

(* the same workload three ways: fault-free, under a seeded durable
   crash/restart schedule (results must match the baseline exactly —
   the reply cache survives), and under the same schedule with an
   amnesiac victim (retried calls may re-execute).  The durable run is
   replayed from its seed to pin determinism. *)
let crash_compare ?(seed = 42) ?(crashes = 1) ?(calls = 80) ?(window = 8) () =
  let sim durability =
    let s = Fault_sim.create ~seed ~n:2 Fault_sim.lossless in
    Fault_sim.set_crash_plan s
      (Fault_sim.seeded_crash_plan ~seed ~n:2 ~crashes ~durability ());
    s
  in
  let base = run_crash_variant ~calls ~window () in
  let dsim = sim Fault_sim.Durable in
  let durable = run_crash_variant ~sim:dsim ~calls ~window () in
  let dsim2 = sim Fault_sim.Durable in
  let _, d_sum2, _, _ = run_crash_variant ~sim:dsim2 ~calls ~window () in
  let amnesia =
    run_crash_variant ~sim:(sim Fault_sim.Amnesia) ~calls ~window ()
  in
  let _, d_sum, _, _ = durable in
  let log s = md5 (Fault_sim.digest s) in
  {
    Gate.gate = "crash";
    title =
      Printf.sprintf
        "crash/restart: %d echo calls, window %d, seed %d, %d crash(es)" calls
        window seed crashes;
    facts = [ ("digest", log dsim) ];
    rows =
      [
        echo_row "fault-free" base;
        echo_row "durable crash" durable;
        echo_row "amnesia crash" amnesia;
      ];
    checks =
      [
        Gate.equal "durable_ok"
          "the durable crash run matches fault-free with no failed call"
          (echo_matches ~base ("durable crash", durable));
        Gate.equal "replay_equal" "seeded replay byte-identical"
          [
            ("fault-decision log", log dsim2, log dsim);
            ("checksum", Gate.Int d_sum2, Gate.Int d_sum);
          ];
        Gate.equal
          ~enforcement:
            (Gate.Reported "an amnesiac server may re-execute retried calls")
          "amnesia_ok" "the amnesia crash run matches fault-free"
          (echo_matches ~base ("amnesia crash", amnesia));
      ];
  }

(* ------------------------------------------------------------------ *)
(* chaos: the crash workloads over real TCP (PR 8)                     *)
(* ------------------------------------------------------------------ *)

(* the full injector one seed buys: a moderately lossy link schedule, a
   seeded durable (or amnesiac) kill/restart and a seeded connection
   plan of TCP severs and endpoint stalls, all on one frame clock *)
let chaos_injector ~seed durability =
  let n = 2 in
  let fs = Fault_sim.create ~seed ~n Fault_sim.default_lossy in
  Fault_sim.set_crash_plan fs
    (Fault_sim.seeded_crash_plan ~seed ~n ~crashes:1 ~durability ());
  Chaos.of_fault_sim ~n ~plan:(Chaos.seeded_plan ~seed ~n ()) fs

(* the durable exactly-once property over real sockets, one seed: no
   call failed, the reply checksum is the closed form
   [calls * (calls + 3) / 2], the handler ran exactly [calls] times
   and no boxed value executed twice.  The chaos gate sweeps this over
   a seed range; test/test_chaos.ml drives it as a QCheck property. *)
let chaos_exactly_once ?(calls = 24) ?(window = 6) ~seed () =
  let counts = Hashtbl.create 64 in
  let record v =
    Hashtbl.replace counts v
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  in
  let _, sum, execs, failed =
    run_crash_variant ~backend:Fabric.Sock
      ~chaos:(chaos_injector ~seed Fault_sim.Durable)
      ~record ~calls ~window ()
  in
  Gate.equal "exactly_once"
    (Printf.sprintf "durable chaos seed %d is exactly-once" seed)
    [
      ("failed calls", Gate.Int failed, Gate.Int 0);
      ("checksum", Gate.Int sum, Gate.Int (calls * (calls + 3) / 2));
      ("handler executions", Gate.Int execs, Gate.Int calls);
      ("distinct values executed", Gate.Int (Hashtbl.length counts), Gate.Int calls);
      ( "values executed more than once",
        Gate.Int (Hashtbl.fold (fun _ c n -> if c > 1 then n + 1 else n) counts 0),
        Gate.Int 0 );
    ]

(* the crash comparison lifted onto the socket transport: the echo
   workload fault-free over loopback TCP, under a seeded chaos injector
   with a durable victim (exactly-once must survive injected loss,
   severed connections, stalls and the kill/restart), under the same
   schedule with an amnesiac victim (checksum must still match — the
   echo is idempotent), plus the determinism gates: the durable run
   replayed from its seed must produce the identical issue-order reply
   stream, the chaos frame schedule must be byte-identical to the bare
   [Fault_sim] schedule on a synthetic parity run, and every seed of
   [sweep] must pass {!chaos_exactly_once}. *)
let chaos_compare ?(seed = 42) ?(calls = 80) ?(window = 8) ?(sweep = 300) () =
  let sock ?replies durability =
    run_crash_variant ~backend:Fabric.Sock
      ?chaos:(Option.map (chaos_injector ~seed) durability)
      ?replies ~calls ~window ()
  in
  let base = sock None in
  let rep1 = Buffer.create 1024 and rep2 = Buffer.create 1024 in
  let durable = sock ~replies:rep1 (Some Fault_sim.Durable) in
  let _, d_sum2, _, _ = sock ~replies:rep2 (Some Fault_sim.Durable) in
  let amnesia = sock (Some Fault_sim.Amnesia) in
  let chaos_schedule, bare_schedule = Chaos.sim_parity ~seed ~n:2 ~frames:400 () in
  let sweep_failed =
    List.filter
      (fun s -> not (Gate.holds (chaos_exactly_once ~seed:s ())))
      (List.init sweep (fun i -> (seed * 1000) + i))
  in
  let digest b = md5 (Buffer.contents b) in
  let _, _, base_execs, base_failed = base in
  let _, d_sum, d_execs, _ = durable in
  {
    Gate.gate = "chaos";
    title =
      Printf.sprintf
        "chaos over loopback TCP: %d echo calls, window %d, seed %d, %d-seed \
         sweep"
        calls window seed sweep;
    facts =
      [
        ("digest", digest rep1);
        ("sweep_seeds", Gate.Int sweep);
        ( "sweep_failed",
          Gate.Text (String.concat "," (List.map string_of_int sweep_failed)) );
      ];
    rows =
      [
        echo_row "fault-free" base;
        echo_row "durable chaos" durable;
        echo_row "amnesia chaos" amnesia;
      ];
    checks =
      [
        Gate.equal "rows_ok"
          "every run computed the fault-free checksum with no failed call"
          (("fault-free failed calls", Gate.Int base_failed, Gate.Int 0)
           :: (echo_matches ~base ("durable chaos", durable)
              @ echo_matches ~base ("amnesia chaos", amnesia)));
        Gate.equal "exactly_once"
          "durable chaos ran the handler exactly as often as fault-free"
          [ ("handler executions", Gate.Int d_execs, Gate.Int base_execs) ];
        Gate.equal "replay_equal" "same-seed replay byte-identical"
          [
            ("issue-order reply stream", digest rep2, digest rep1);
            ("checksum", Gate.Int d_sum2, Gate.Int d_sum);
          ];
        Gate.equal "parity_equal"
          "chaos frame schedule identical to the bare fault-simulator schedule"
          [ ("schedule", md5 chaos_schedule, md5 bare_schedule) ];
        Gate.bound "sweep"
          (Printf.sprintf "exactly-once sweep: %d/%d seeds"
             (sweep - List.length sweep_failed)
             sweep)
          [
            ( "seeds failing exactly-once",
              float_of_int (List.length sweep_failed),
              Gate.Le,
              0.0 );
          ];
      ];
  }

(* ------------------------------------------------------------------ *)
(* tier comparison: generic vs AOT vs adaptive                         *)
(* ------------------------------------------------------------------ *)

let tier_meta =
  lazy
    (Rmi_serial.Class_meta.make
       [ ("Pair", [ ("a", Jir.Types.Tint); ("b", Jir.Types.Tint) ]) ])

let m_swap = 1
let tier_site = 1

(* the compiled plan an AOT run would install for the swap site: both
   the argument and the return are a statically-known Pair *)
let tier_plan =
  let pair = Plan.S_obj { cls = 0; fields = [| Plan.S_int; Plan.S_int |] } in
  {
    Plan.callsite = tier_site;
    defs = [||];
    args = [| pair |];
    ret = Some pair;
    cycle_args = false;
    cycle_ret = false;
    reuse_args = [| false |];
    reuse_ret = false;
    non_escaping = false;
    version = 1;
    polluted = false;
  }

let tier_pair a b =
  let p = Value.new_obj ~cls:0 ~nfields:2 in
  p.Value.fields.(0) <- Value.Int a;
  p.Value.fields.(1) <- Value.Int b;
  Value.Obj p

(* structural rendering for reply digests: [Value.pp] prints global
   allocation ids, which differ between variants even for equal values *)
let rec render_value buf v =
  match v with
  | Value.Null -> Buffer.add_string buf "null"
  | Value.Bool b -> Buffer.add_string buf (string_of_bool b)
  | Value.Int i -> Buffer.add_string buf (string_of_int i)
  | Value.Double f -> Buffer.add_string buf (string_of_float f)
  | Value.Str s -> Buffer.add_string buf s
  | Value.Obj o ->
      Buffer.add_string buf (Printf.sprintf "obj(%d){" o.Value.cls);
      Array.iter
        (fun f ->
          render_value buf f;
          Buffer.add_char buf ';')
        o.Value.fields;
      Buffer.add_char buf '}'
  | Value.Darr a ->
      Buffer.add_string buf "d[";
      Array.iter (fun x -> Buffer.add_string buf (string_of_float x ^ ";")) a.Value.d;
      Buffer.add_char buf ']'
  | Value.Iarr a ->
      Buffer.add_string buf "i[";
      Array.iter (fun x -> Buffer.add_string buf (string_of_int x ^ ";")) a.Value.ia;
      Buffer.add_char buf ']'
  | Value.Rarr a ->
      Buffer.add_string buf "r[";
      Array.iter
        (fun x ->
          render_value buf x;
          Buffer.add_char buf ';')
        a.Value.ra;
      Buffer.add_char buf ']'

(* [calls] swap RMIs from machine 0 to machine 1, snapshotting the wire
   counters every [window] calls: the per-window (calls, bytes, msgs)
   deltas are the warmup curve.  Replies are folded into an
   order-sensitive digest so the three variants can be compared byte
   for byte. *)
let run_tier_variant ~config ~calls ~window =
  let metrics = Metrics.create () in
  let plans = Hashtbl.create 4 in
  Hashtbl.replace plans tier_site tier_plan;
  let fabric =
    Fabric.create ~mode:Fabric.Sync ~n:2 ~meta:(Lazy.force tier_meta) ~config
      ~plans ~metrics ()
  in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_swap ~has_ret:true
    (fun args ->
      match args.(0) with
      | Value.Obj o ->
          let a = o.Value.fields.(0) and b = o.Value.fields.(1) in
          let r = Value.new_obj ~cls:0 ~nfields:2 in
          r.Value.fields.(0) <- b;
          r.Value.fields.(1) <- a;
          Some (Value.Obj r)
      | _ -> failwith "bad pair");
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let buf = Buffer.create 256 in
  let windows = ref [] in
  let last_bytes = ref 0 and last_msgs = ref 0 in
  Fabric.run fabric (fun _ ->
      for i = 1 to calls do
        (match
           Node.call caller ~dest ~meth:m_swap ~callsite:tier_site
             ~has_ret:true
             [| tier_pair i (i * 3) |]
         with
        | Some v ->
            render_value buf v;
            Buffer.add_char buf ';'
        | None -> Buffer.add_string buf "none;");
        if i mod window = 0 || i = calls then begin
          let s = Metrics.snapshot metrics in
          windows :=
            ( (if i mod window = 0 then window else i mod window),
              s.Metrics.bytes_sent - !last_bytes,
              s.Metrics.msgs_sent - !last_msgs )
            :: !windows;
          last_bytes := s.Metrics.bytes_sent;
          last_msgs := s.Metrics.msgs_sent
        end
      done);
  ( Metrics.snapshot metrics,
    Digest.to_hex (Digest.string (Buffer.contents buf)),
    List.rev !windows )

let tiers_compare ?(calls = 64) ?(window = 8) ?hot_threshold () =
  let hot =
    match hot_threshold with
    | Some h -> h
    | None -> Config.default_hot_threshold
  in
  let generic = { Config.class_ with Config.name = "generic" } in
  let aot = { Config.site_reuse_cycle with Config.name = "aot" } in
  let adaptive =
    {
      (Config.with_adaptive ~hot_threshold:hot Config.site_reuse_cycle) with
      Config.name = "adaptive";
    }
  in
  let run config = run_tier_variant ~config ~calls ~window in
  let ((_, g_digest, g_windows) as g) = run generic in
  let ((_, a_digest, a_windows) as a) = run aot in
  let ((d_stats, d_digest, d_windows) as d) = run adaptive in
  let summary name ((s : Metrics.snapshot), digest, _) =
    {
      Gate.workload = "swap";
      variant = name;
      fields =
        [
          ("bytes", Gate.Int s.bytes_sent);
          ("msgs", Gate.Int s.msgs_sent);
          ("promoted", Gate.Int s.tier_promotions);
          ("deopts", Gate.Int s.tier_deopts);
          ("cache_hits", Gate.Int s.plan_cache_hits);
          ("cache_misses", Gate.Int s.plan_cache_misses);
          ("digest", Gate.Text digest);
        ];
    }
  in
  (* the warmup curve: wire bytes per call in each window *)
  let per_call (c, bytes, _) = num 1 (float_of_int bytes /. float_of_int c) in
  let curve =
    List.mapi
      (fun i ((gw, aw), dw) ->
        {
          Gate.workload = "swap warmup";
          variant = Printf.sprintf "window %d" (i + 1);
          fields =
            [
              ("generic_B_per_call", per_call gw);
              ("aot_B_per_call", per_call aw);
              ("adaptive_B_per_call", per_call dw);
            ];
        })
      (List.combine (List.combine g_windows a_windows) d_windows)
  in
  let final ws = match List.rev ws with w :: _ -> [ w ] | [] -> [] in
  {
    Gate.gate = "tiers";
    title =
      Printf.sprintf
        "tiers: %d swap calls, warmup window %d, hot threshold %d" calls
        window hot;
    facts = [];
    rows = [ summary "generic" g; summary "aot" a; summary "adaptive" d ] @ curve;
    checks =
      [
        Gate.equal "replies_equal" "replies byte-identical across the tiers"
          [
            ("aot", Gate.Text a_digest, Gate.Text g_digest);
            ("adaptive", Gate.Text d_digest, Gate.Text g_digest);
          ];
        (* post-warmup the adaptive tier must spend exactly the AOT
           bytes per window (same plan, same wire encoding) *)
        Gate.equal "converged"
          "adaptive's final window costs exactly aot's bytes and messages"
          (List.concat_map
             (fun ((_, ab, am), (_, db, dm)) ->
               [
                 ("final window bytes", Gate.Int db, Gate.Int ab);
                 ("final window msgs", Gate.Int dm, Gate.Int am);
               ])
             (List.combine (final a_windows) (final d_windows)));
        Gate.bound "promoted" "the adaptive tier promoted the swap site"
          [
            ( "adaptive promotions",
              float_of_int d_stats.Metrics.tier_promotions,
              Gate.Gt,
              0.0 );
          ];
      ];
  }

(* ------------------------------------------------------------------ *)
(* the wire workloads and the one run driver                           *)
(* ------------------------------------------------------------------ *)

(* the paper-table message shapes: Table 1's linked chain and Table 2's
   2D double matrix, sent through the generic serializer so the
   comparison isolates the wire path from plan specialization *)
let wire_meta =
  lazy
    (Rmi_serial.Class_meta.make
       [ ("Cell", [ ("v", Jir.Types.Tint); ("next", Jir.Types.Tobject 0) ]) ])

let wire_chain n =
  let rec go acc k =
    if k = 0 then acc
    else begin
      let c = Value.new_obj ~cls:0 ~nfields:2 in
      c.Value.fields.(0) <- Value.Int k;
      c.Value.fields.(1) <- acc;
      go (Value.Obj c) (k - 1)
    end
  in
  go Value.Null n

let rec wire_chain_sum = function
  | Value.Null -> 0
  | Value.Obj o ->
      (match o.Value.fields.(0) with Value.Int v -> v | _ -> 0)
      + wire_chain_sum o.Value.fields.(1)
  | _ -> 0

let wire_matrix n =
  let outer = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) n in
  for i = 0 to n - 1 do
    let inner = Value.new_darr n in
    for j = 0 to n - 1 do
      inner.Value.d.(j) <- float_of_int ((i * n) + j)
    done;
    outer.Value.ra.(i) <- Value.Darr inner
  done;
  Value.Rarr outer

let wire_matrix_sum = function
  | Value.Rarr outer ->
      Array.fold_left
        (fun acc row ->
          match row with
          | Value.Darr inner -> acc +. Array.fold_left ( +. ) 0.0 inner.Value.d
          | _ -> acc)
        0.0 outer.Value.ra
  | _ -> 0.0

type wire_workload = {
  ww_name : string;
  ww_arg : Value.t lazy_t;
  ww_fold : Value.t option -> float;
  ww_handler : Value.t array -> Value.t option;
}

let wire_workloads =
  [
    {
      ww_name = "chain100";
      ww_arg = lazy (wire_chain 100);
      ww_fold = (function Some (Value.Int v) -> float_of_int v | _ -> nan);
      ww_handler =
        (fun args -> Some (Value.Int (wire_chain_sum args.(0))));
    };
    {
      ww_name = "matrix16x16";
      ww_arg = lazy (wire_matrix 16);
      ww_fold = (function Some (Value.Double v) -> v | _ -> nan);
      ww_handler = (fun args -> Some (Value.Double (wire_matrix_sum args.(0))));
    };
  ]

let m_wire = 1
let wire_site = 1

(* each call folds the same reply, so a fault-free run's checksum is
   this sum, added in the same order *)
let expected_checksum ww ~calls =
  let v = ww.ww_fold (ww.ww_handler [| Lazy.force ww.ww_arg |]) in
  let acc = ref 0.0 in
  for _ = 1 to calls do
    acc := !acc +. v
  done;
  !acc

(* [calls] RMIs of [ww] from [caller], issued in windows of [window]
   futures round-robin over [dests] and awaited in issue order.  Each
   reply is folded into [checksum] and, when [replies] names a
   separator, rendered into [buf] followed by it (the load and tiers
   digests use ';', transport and proc '|'). *)
let issue ~caller ~dests ~meth ~callsite ~window ?replies ~buf ~checksum ww
    calls =
  let arg = Lazy.force ww.ww_arg in
  let servers = Array.length dests in
  let i = ref 0 in
  while !i < calls do
    let k = min window (calls - !i) in
    let futures =
      List.init k (fun j ->
          Node.call_async caller ~dest:dests.((!i + j) mod servers) ~meth
            ~callsite ~has_ret:true [| arg |])
    in
    List.iter
      (fun f ->
        let r = Node.Future.await f in
        (match replies with
        | None -> ()
        | Some sep ->
            (match r with
            | Some v -> render_value buf v
            | None -> Buffer.add_string buf "none");
            Buffer.add_char buf sep);
        checksum := !checksum +. ww.ww_fold r)
      futures;
    i := !i + k
  done

type drive = {
  frames : string;
      (* chained MD5 over every physical frame in transmit order, taken
         before the fault-simulator stage; "-" when not digested *)
  replies : string;  (* issue-order reply digest *)
  checksum : float;  (* fold of the measured replies *)
  stats : Metrics.snapshot;
  sample : Gate.sample;  (* the measured calls, after the warmup *)
}

(* The one driver behind wirecost, alloc, load and transport: a fabric
   of machine 0 (the client) and [servers] machines exporting [ww]'s
   handler (re-run [spin] times, to make dispatch CPU-bound), [plan]
   installed for the call site, [warmup] unmeasured calls, then
   [calls] measured ones.  [frames] digests the pre-fault frame
   stream; [replies] the issue-order replies (see [issue]). *)
let drive ?(mode = Fabric.Sync) ?backend ?faults ?plan ?(frames = false)
    ?replies ?(servers = 1) ?(spin = 1) ?(warmup = 0) ~config ~window ~calls
    ww =
  let metrics = Metrics.create () in
  let n = servers + 1 in
  let plans = Hashtbl.create 4 in
  Option.iter (Hashtbl.replace plans wire_site) plan;
  let sim =
    Option.map (fun (seed, profile) -> Fault_sim.create ~seed ~n profile) faults
  in
  let fabric =
    Fabric.create ~mode ?backend ?faults:sim ~n ~meta:(Lazy.force wire_meta)
      ~config ~plans ~metrics ()
  in
  let digest = ref "" in
  if frames then
    Rmi_net.Transport.set_fault_hook (Fabric.net fabric)
      (fun ~src:_ ~dest:_ frame ->
        digest := Digest.string (!digest ^ Digest.bytes frame);
        [ frame ]);
  let handler =
    if spin <= 1 then ww.ww_handler
    else fun args ->
      let r = ref (ww.ww_handler args) in
      for _ = 2 to spin do
        r := ww.ww_handler args
      done;
      !r
  in
  for s = 1 to servers do
    Node.export (Fabric.node fabric s) ~obj:0 ~meth:m_wire ~has_ret:true handler
  done;
  let dests =
    Array.init servers (fun s -> Remote_ref.make ~machine:(s + 1) ~obj:0)
  in
  let buf = Buffer.create 1024 and checksum = ref 0.0 in
  let issue =
    issue ~caller:(Fabric.node fabric 0) ~dests ~meth:m_wire ~callsite:wire_site
      ~window ?replies ~buf ~checksum ww
  in
  let sample = ref None in
  Fabric.run fabric (fun _ ->
      issue warmup;
      Buffer.clear buf;
      checksum := 0.0;
      sample := Some (Gate.measure (fun () -> issue calls)));
  let stats = Metrics.snapshot metrics in
  Fabric.shutdown_net fabric;
  {
    frames = (if String.length !digest = 0 then "-" else Digest.to_hex !digest);
    replies = Digest.to_hex (Digest.string (Buffer.contents buf));
    checksum = !checksum;
    stats;
    sample = Option.get !sample;
  }

let per_call ~calls x = x /. float_of_int calls

(* ------------------------------------------------------------------ *)
(* wirecost: the zero-copy wire path against pinned frame streams      *)
(* ------------------------------------------------------------------ *)

(* The frame-stream digest and total copied bytes of every row, for
   the argument sets CI runs: (calls, window, seed) -> rows.  Recorded
   while the copy-based framing still existed (both framings put
   identical frames on the wire) and required exactly. *)
let wire_pins =
  [
    ( (48, 16, 42),
      [
        ("chain100", "raw", "677a90e65ef636f6eb1bf0ee5e6fcc27", 22032);
        ("chain100", "reliable", "d5727579418b9caf772d3b2fa28c768f", 45144);
        ("chain100", "reliable+batch", "f2423a528baa3c3593ef4b488a57935a", 66365);
        ("chain100", "reliable+faults", "ddc00d61eb2988600aceda5b10d4f955", 45144);
        ("matrix16x16", "raw", "65eb2e0e7c59cb19e2513d8c13f0a1b2", 101376);
        ("matrix16x16", "reliable", "c9f1557dac70e90e5391fcd06eb687e5", 203825);
        ("matrix16x16", "reliable+batch", "e46027e8137b85b86b1b487de8ff6c39", 304643);
        ("matrix16x16", "reliable+faults", "868d818e535e36628e0d8b1c2b79d0ab", 203825);
      ] );
    ( (24, 8, 42),
      [
        ("chain100", "raw", "bab1fcdbaf2f752a94c50de33a9afb34", 11016);
        ("chain100", "reliable", "43ac90dd0d293a346c4921a6a9eae30c", 22576);
        ("chain100", "reliable+batch", "f9f8e73cf653568dc72261331cf3b9fe", 33199);
        ("chain100", "reliable+faults", "a34d5bf7a6a8c290abe4ab36f95cb956", 22576);
        ("matrix16x16", "raw", "16eab4bd565c638c6abcda764b5f4e1a", 50688);
        ("matrix16x16", "reliable", "f07500cad422d395af0b4630e9e4164f", 101913);
        ("matrix16x16", "reliable+batch", "51e5595fcf1c3d575f50dcd362ead3a7", 152342);
        ("matrix16x16", "reliable+faults", "d1d69d4cf45c2da0b0aa6db4711af78b", 101913);
      ] );
    ( (24, 16, 1234),
      [
        ("chain100", "raw", "bab1fcdbaf2f752a94c50de33a9afb34", 11016);
        ("chain100", "reliable", "43ac90dd0d293a346c4921a6a9eae30c", 22576);
        ("chain100", "reliable+batch", "890c0c7ef4c3ad77663514fe3bbc83f3", 33188);
        ("chain100", "reliable+faults", "63b15324c00a4e302d3af82b2bed7081", 22576);
        ("matrix16x16", "raw", "16eab4bd565c638c6abcda764b5f4e1a", 50688);
        ("matrix16x16", "reliable", "f07500cad422d395af0b4630e9e4164f", 101913);
        ("matrix16x16", "reliable+batch", "79fb52412344c165b2d986c6f1cdf35c", 152327);
        ("matrix16x16", "reliable+faults", "4c4b0a3ae25c41760f1924b9a2aacd3f", 101913);
      ] );
  ]

(* Copied B/call of the retired copy-based framing on each enveloped
   row, the smallest over the pinned argument sets; any run must copy
   at most half of it. *)
let wire_legacy_copied =
  [
    (("chain100", "reliable"), 2295.0);
    (("chain100", "reliable+batch"), 4144.5);
    (("chain100", "reliable+faults"), 2408.25);
    (("matrix16x16", "reliable"), 10560.0);
    (("matrix16x16", "reliable+batch"), 19024.5);
    (("matrix16x16", "reliable+faults"), 11085.75);
  ]

(* the pin of [(workload, variant)] under these arguments, if any *)
let find_pin pins args workload variant =
  Option.bind (List.assoc_opt args pins)
    (List.find_map (fun (w, v, digest, x) ->
         if w = workload && v = variant then Some (digest, x) else None))

(* every paper-table message shape x every transport variant.  The
   verdicts are the [wirecost] gate: frame streams and copied bytes
   equal to the pins (for pinned arguments), every result equal to the
   fault-free fold, and every enveloped row at or below half the
   copy-based framing's copied bytes per call *)
let wirecost_compare ?(calls = 48) ?(window = 8) ?(seed = 42) () =
  let base = Config.class_ in
  let variants =
    [
      ("raw", base, None, 1);
      ("reliable", Config.with_reliable base, None, 1);
      ( "reliable+batch",
        Config.with_batching (Config.with_reliable base),
        None, window );
      ( "reliable+faults",
        Config.with_reliable base,
        Some (seed, Fault_sim.default_lossy),
        1 );
    ]
  in
  let runs =
    List.concat_map
      (fun ww ->
        List.map
          (fun (vname, config, faults, win) ->
            (ww, vname, drive ~config ?faults ~frames:true ~window:win ~calls ww))
          variants)
      wire_workloads
  in
  let copied (d : drive) = per_call ~calls (float_of_int d.stats.bytes_copied) in
  let pinned f =
    List.filter_map
      (fun (ww, v, d) ->
        Option.map (f ww v d) (find_pin wire_pins (calls, window, seed) ww.ww_name v))
      runs
  in
  let where ww v = ww.ww_name ^ "/" ^ v in
  {
    Gate.gate = "wirecost";
    title =
      Printf.sprintf
        "wirecost: zero-copy wire path, %d calls, batch window %d, fault \
         seed %d"
        calls window seed;
    facts = [];
    rows =
      List.map
        (fun (ww, v, (d : drive)) ->
          {
            Gate.workload = ww.ww_name;
            variant = v;
            fields =
              [
                ("copied_per_call", num 1 (copied d));
                ("minor_per_call", num 0 (per_call ~calls d.sample.minor_words));
                ("pool_hits", Gate.Int d.stats.pool_hits);
                ("pool_misses", Gate.Int d.stats.pool_misses);
                ("us_per_call", num 1 (per_call ~calls (d.sample.wall_s *. 1e6)));
                ("checksum", num 1 d.checksum);
                ("frames", Gate.Text d.frames);
              ];
          })
        runs;
    checks =
      [
        Gate.equal "frames_ok" "frame streams equal to the pins"
          (pinned (fun ww v d (digest, _) ->
               (where ww v, Gate.Text d.frames, Gate.Text digest)));
        Gate.equal "copied_ok" "copied bytes equal to the pins"
          (pinned (fun ww v d (_, total) ->
               ( where ww v,
                 num 1 (copied d),
                 num 1 (per_call ~calls (float_of_int total)) )));
        Gate.equal "results_ok" "results equal to the fault-free fold"
          (List.map
             (fun (ww, v, d) ->
               (where ww v, num 1 d.checksum, num 1 (expected_checksum ww ~calls)))
             runs);
        Gate.bound "copy_bound"
          "enveloped variants copy <= 50% of the copy-based framing's bytes \
           per call"
          (List.filter_map
             (fun (ww, v, d) ->
               Option.map
                 (fun legacy -> (where ww v, copied d, Gate.Le, legacy /. 2.0))
                 (List.assoc_opt (ww.ww_name, v) wire_legacy_copied))
             runs);
      ];
  }

(* ------------------------------------------------------------------ *)
(* alloc: arena decoding against pinned frames and heap words (PR 10)  *)
(* ------------------------------------------------------------------ *)

(* The checked-in BENCH_wire.json baseline for the gated row — minor
   words per call of matrix16x16 over the reliable transport under
   site+reuse+cycle, measured before the allocation work.  The [alloc]
   gate requires at least a 50% cut against it. *)
let alloc_baseline_minor = 14_457.4

(* Frame-stream digest and reply checksum of every row for the argument
   sets CI and the library defaults use: (calls, window, seed) -> rows.
   Recorded while the GC-heap decoder still ran beside the arena (both
   put identical frames on the wire and returned identical checksums)
   and required exactly. *)
let alloc_pins =
  [
    ( (192, 16, 42),
      [
        ("chain100", "raw site", "def71d2b958c4178ad987065cdbbd720", 969600.);
        ("chain100", "reliable site", "6dc280761581922d395b9692148adcc6", 969600.);
        ("chain100", "reliable site+faults", "4d450767cc7170c47e07807bba592184", 969600.);
        ("chain100", "reliable site+reuse+cycle", "6dc280761581922d395b9692148adcc6", 969600.);
        ("matrix16x16", "raw site", "5f96c535051d9762d3fb77e24a1e4e0f", 6266880.);
        ("matrix16x16", "reliable site", "adaadc05e319296decc805ad6bdfcd1f", 6266880.);
        ("matrix16x16", "reliable site+faults", "6f5463b5de680b75b4e73f82076635e8", 6266880.);
        ("matrix16x16", "reliable site+reuse+cycle", "adaadc05e319296decc805ad6bdfcd1f", 6266880.);
      ] );
    ( (192, 8, 42),
      [
        ("chain100", "raw site", "143baed07180de4f486c0a61efe05c30", 969600.);
        ("chain100", "reliable site", "877eef6670cd2d478b91cde9bceb8352", 969600.);
        ("chain100", "reliable site+faults", "b81116247d32aeb0c2b03709a4cbcd04", 969600.);
        ("chain100", "reliable site+reuse+cycle", "877eef6670cd2d478b91cde9bceb8352", 969600.);
        ("matrix16x16", "raw site", "11f1ac5d9dd8cba17c0f4812ec293bf6", 6266880.);
        ("matrix16x16", "reliable site", "11eafb41047fc7ec15c3e14f0918f6ce", 6266880.);
        ("matrix16x16", "reliable site+faults", "d54dcd1cf197e2ce99e09bcfa115cf36", 6266880.);
        ("matrix16x16", "reliable site+reuse+cycle", "11eafb41047fc7ec15c3e14f0918f6ce", 6266880.);
      ] );
  ]

(* Minor words per call of the retired GC-heap decoder on every row,
   [alloc --seed 42] (192 calls, window 16; the smaller of the two
   pinned sets), OCaml 5.1.1, rounded down.  On the rows where the
   arena engages it must allocate strictly less. *)
let alloc_heap_minor =
  [
    (("chain100", "raw site"), 3908.6);
    (("chain100", "reliable site"), 4526.1);
    (("chain100", "reliable site+faults"), 5549.8);
    (("chain100", "reliable site+reuse+cycle"), 3732.1);
    (("matrix16x16", "raw site"), 1966.0);
    (("matrix16x16", "reliable site"), 2550.0);
    (("matrix16x16", "reliable site+faults"), 3571.2);
    (("matrix16x16", "reliable site+reuse+cycle"), 2177.0);
  ]

(* Site-specialized plans for the two paper-table message shapes.  Both
   carry the escape analysis verdict ([reuse_args] all true, hence
   [non_escaping]): the handlers fold their argument and return a
   scalar, so nothing outlives the dispatch. *)
let alloc_chain_plan =
  {
    Plan.callsite = wire_site;
    defs = [| Plan.S_obj { cls = 0; fields = [| Plan.S_int; Plan.S_ref 0 |] } |];
    args = [| Plan.S_ref 0 |];
    ret = Some Plan.S_int;
    cycle_args = false;
    cycle_ret = false;
    reuse_args = [| true |];
    reuse_ret = false;
    non_escaping = true;
    version = 1;
    polluted = false;
  }

let alloc_matrix_plan =
  {
    Plan.callsite = wire_site;
    defs = [||];
    args = [| Plan.S_flat_array { felem = Plan.F_darr } |];
    ret = Some Plan.S_double;
    cycle_args = false;
    cycle_ret = false;
    reuse_args = [| true |];
    reuse_ret = false;
    non_escaping = true;
    version = 1;
    polluted = false;
  }

(* Every paper-table message shape through its site-specialized plan x
   four transport/optimization variants.  Each run issues a warmup
   quarter first, so the minor words cover steady-state calls only.
   The verdicts are the [alloc] gate: frame streams and checksums equal
   to the pins (checksums equal to the fault-free fold for unpinned
   arguments); at least a 50% cut in minor words per call on the gated
   row against the checked-in pre-arena baseline; and, on the no-reuse
   rows where the arena is licensed to engage, the arena actually
   recycling (allocs counted, wholesale resets happening, <= 10% heap
   fallbacks, fewer minor words than the GC-heap decoder spent). *)
let alloc_compare ?(calls = 192) ?(window = 8) ?(seed = 42) () =
  let site = Config.site in
  let variants =
    [
      ("raw site", site, None, false, true);
      ("reliable site", Config.with_reliable site, None, false, true);
      ( "reliable site+faults",
        Config.with_reliable site,
        Some (seed, Fault_sim.default_lossy),
        false, true );
      ( "reliable site+reuse+cycle",
        Config.with_reliable Config.site_reuse_cycle,
        None, true, false );
    ]
  in
  let runs =
    List.concat_map
      (fun (ww, plan) ->
        List.map
          (fun (vname, config, faults, gated, arena_active) ->
            let d =
              drive ~config ?faults ~plan ~frames:true
                ~warmup:(max window (calls / 4)) ~window ~calls ww
            in
            ( ww,
              vname,
              gated && String.equal ww.ww_name "matrix16x16",
              arena_active,
              d ))
          variants)
      (match wire_workloads with
      | [ chain; matrix ] -> [ (chain, alloc_chain_plan); (matrix, alloc_matrix_plan) ]
      | _ -> assert false)
  in
  let minor (d : drive) = per_call ~calls d.sample.minor_words in
  let heap ww v = List.assoc (ww.ww_name, v) alloc_heap_minor in
  let pin ww v = find_pin alloc_pins (calls, window, seed) ww.ww_name v in
  let where ww v = ww.ww_name ^ "/" ^ v in
  {
    Gate.gate = "alloc";
    title =
      Printf.sprintf
        "alloc: arena decoding, %d calls per row, window %d, fault seed %d"
        calls window seed;
    facts =
      [ ("baseline_minor_words_per_call", num 1 alloc_baseline_minor) ];
    rows =
      List.map
        (fun (ww, v, gated, _, (d : drive)) ->
          let s = d.stats in
          {
            Gate.workload = ww.ww_name;
            variant = v;
            fields =
              [
                ("minor_words_per_call_heap", num 1 (heap ww v));
                ("minor_words_per_call_arena", num 1 (minor d));
                ("arena_allocs", Gate.Int s.arena_allocs);
                ("arena_resets", Gate.Int s.arena_resets);
                ("arena_fallbacks", Gate.Int s.arena_fallbacks);
                ("gated", Gate.Flag gated);
                ("checksum", num 1 d.checksum);
                ("digest", Gate.Text d.frames);
              ];
          })
        runs;
    checks =
      [
        Gate.equal "frames_ok" "frame streams equal to the pins"
          (List.filter_map
             (fun (ww, v, _, _, d) ->
               Option.map
                 (fun (digest, _) ->
                   (where ww v, Gate.Text d.frames, Gate.Text digest))
                 (pin ww v))
             runs);
        Gate.equal "results_ok"
          "results equal to the pins (the fault-free fold when unpinned)"
          (List.map
             (fun (ww, v, _, _, d) ->
               ( where ww v,
                 num 1 d.checksum,
                 num 1
                   (match pin ww v with
                   | Some (_, c) -> c
                   | None -> expected_checksum ww ~calls) ))
             runs);
        Gate.bound "gate_ok"
          (Printf.sprintf "gate row <= 50%% of the %.1f minor w/call baseline"
             alloc_baseline_minor)
          (List.filter_map
             (fun (ww, v, gated, _, d) ->
               if gated then
                 Some (where ww v, minor d, Gate.Le, 0.5 *. alloc_baseline_minor)
               else None)
             runs);
        Gate.bound "arena_ok"
          "the arena engages on the no-reuse rows: allocs and resets counted, \
           <= 10% fallbacks, fewer minor words than the GC-heap decoder"
          (List.concat_map
             (fun (ww, v, _, active, (d : drive)) ->
               let s = d.stats and w = where ww v in
               if not active then []
               else
                 [
                   (w ^ " allocs", float_of_int s.arena_allocs, Gate.Gt, 0.0);
                   (w ^ " resets", float_of_int s.arena_resets, Gate.Gt, 0.0);
                   ( w ^ " fallbacks",
                     float_of_int s.arena_fallbacks,
                     Gate.Le,
                     float_of_int s.arena_allocs /. 10.0 );
                   (w ^ " minor w/call", minor d, Gate.Lt, heap ww v);
                 ])
             runs);
      ];
  }

(* ------------------------------------------------------------------ *)
(* load: multi-domain dispatch throughput and tail latency (PR 6)      *)
(* ------------------------------------------------------------------ *)

(* chain100/matrix16x16 x reliable/batched/faulty, each at one domain
   and at [domains] domains: one client (machine 0) drives [calls]
   pipelined RMIs round-robin across [servers] served machines, every
   reply folded into the structural digest in ISSUE order — so the
   digest is independent of how the dispatch pool interleaved execution
   and comparable across domain counts.  The handler re-folds its
   argument [spin] times to give the servers a CPU-bound body: without
   it the single client domain is the bottleneck and no worker count
   could change throughput.  Verdicts:
   - digests byte-identical across domain counts on every row (always
     enforced — this is the correctness substitution argument);
   - on matrix16x16/reliable, hi-domain throughput >= [speedup_floor] x
     single-domain and p999 within [tail_tol] x — enforced only when
     the host has cores for client + [domains] workers
     ([Domain.recommended_domain_count]); on smaller hosts the numbers
     are reported but not enforced, since no scheduler can extract
     parallel speedup from one core. *)
let load_compare ?(calls = 600) ?(window = 32) ?(servers = 8)
    ?(domains = 4) ?queue_depth ?(spin = 24) ?(seed = 42)
    ?(speedup_floor = 2.0) ?(tail_tol = 8.0) () =
  if servers < 1 then invalid_arg "load_compare: servers < 1";
  if domains < 1 then invalid_arg "load_compare: domains < 1";
  (* overload is expected under a bounded queue: a breaker tripping on
     rejects mid-run would divert calls and fork the digest, so the
     load runs raise the threshold out of reach *)
  let failover =
    { Config.default_failover with Config.breaker_threshold = max_int / 2 }
  in
  let base = Config.with_failover failover Config.class_ in
  let variants =
    [
      ("reliable", Config.with_reliable base, None);
      ("reliable+batch", Config.with_batching (Config.with_reliable base), None);
      ( "reliable+faults",
        Config.with_reliable base,
        Some (seed, Fault_sim.default_lossy) );
    ]
  in
  let domain_counts = if domains = 1 then [ 1 ] else [ 1; domains ] in
  let runs =
    List.concat_map
      (fun ww ->
        List.map
          (fun (vname, config, faults) ->
            ( ww.ww_name,
              vname,
              List.map
                (fun d ->
                  ( d,
                    drive ~mode:Fabric.Parallel
                      ~config:(Config.with_domains ?queue_depth d config)
                      ?faults ~replies:';' ~servers ~spin ~window ~calls ww ))
                domain_counts ))
          variants)
      wire_workloads
  in
  let throughput (d : drive) =
    if d.sample.wall_s > 0.0 then float_of_int calls /. d.sample.wall_s
    else 0.0
  in
  let q (d : drive) p = Metrics.lat_quantile d.stats.lat_hist p /. 1e3 in
  let speedup, tail_ratio =
    match
      List.find_opt
        (fun (w, v, _) -> w = "matrix16x16" && v = "reliable")
        runs
    with
    | Some (_, _, (_, lo) :: (_ :: _ as rest)) ->
        let _, hi = List.nth rest (List.length rest - 1) in
        ( (if throughput lo > 0.0 then throughput hi /. throughput lo else 0.0),
          if q lo 0.999 > 0.0 then q hi 0.999 /. q lo 0.999 else 0.0 )
    | _ -> (0.0, 0.0)
  in
  let cores_ok =
    domains = 1 || Domain.recommended_domain_count () >= domains + 1
  in
  {
    Gate.gate = "load";
    title =
      Printf.sprintf
        "load: %d calls, window %d, %d servers, domains 1 vs %d, spin %d, \
         fault seed %d"
        calls window servers domains spin seed;
    facts =
      [
        ("servers", Gate.Int servers);
        ("calls", Gate.Int calls);
        ("speedup", num 3 speedup);
        ("speedup_floor", num 1 speedup_floor);
        ("tail_ratio", num 3 tail_ratio);
        ("tail_tol", num 1 tail_tol);
        ("perf_enforced", Gate.Flag cores_ok);
      ];
    rows =
      List.concat_map
        (fun (w, v, ds) ->
          List.map
            (fun (domains, (d : drive)) ->
              let s = d.stats in
              {
                Gate.workload = w;
                variant = v;
                fields =
                  [
                    ("domains", Gate.Int domains);
                    ("throughput_rps", num 1 (throughput d));
                    ("p50_us", num 1 (q d 0.5));
                    ("p99_us", num 1 (q d 0.99));
                    ("p999_us", num 1 (q d 0.999));
                    ("dispatches", Gate.Int s.dispatches);
                    ("steals", Gate.Int s.steals);
                    ("rejects", Gate.Int s.queue_rejects);
                    ("queue_depth_hwm", Gate.Int s.queue_depth_hwm);
                    ("digest", Gate.Text d.replies);
                  ];
              })
            ds)
        runs;
    checks =
      [
        Gate.equal "digest_ok" "reply digests identical across domain counts"
          (List.concat_map
             (fun (w, v, ds) ->
               match ds with
               | (_, first) :: rest ->
                   List.map
                     (fun (k, (d : drive)) ->
                       ( Printf.sprintf "%s/%s at %d domains" w v k,
                         Gate.Text d.replies,
                         Gate.Text first.replies ))
                     rest
               | [] -> [])
             runs);
        Gate.bound
          ~enforcement:
            (if cores_ok then Gate.Enforced
             else
               Gate.Reported
                 (Printf.sprintf "host recommends %d domains, run needs %d"
                    (Domain.recommended_domain_count ())
                    (domains + 1)))
          "perf_ok"
          (Printf.sprintf
             "matrix16x16/reliable at %d domains: speedup >= %.1fx, p999 \
              ratio <= %.1fx"
             domains speedup_floor tail_tol)
          (if domains = 1 then []
           else
             [
               ("speedup", speedup, Gate.Ge, speedup_floor);
               ("p999 ratio", tail_ratio, Gate.Le, tail_tol);
             ]);
      ];
  }

(* ------------------------------------------------------------------ *)
(* transport_compare (PR 7): the Transport.S substitution gate          *)
(* ------------------------------------------------------------------ *)

(* one backend of one (workload, variant) pair: [calls] pipelined RMIs
   from machine 0 to machine 1 under the parallel fabric, replies
   awaited in issue order.  The digest is over the structurally
   rendered replies in that order, so it is deterministic whatever the
   kernel's TCP scheduling or the serve domain's interleaving did —
   the same trick the load gate uses across domain counts. *)
let transport_compare ?(calls = 64) ?(window = 8) ?(seed = 42) () =
  let base = Config.class_ in
  let variants =
    [
      ("sequential", base, 1);
      ("pipelined", base, window);
      ("pipelined+batch", Config.with_batching base, window);
    ]
  in
  let pairs =
    List.concat_map
      (fun ww ->
        List.map
          (fun (vname, config, win) ->
            let run backend =
              drive ~mode:Fabric.Parallel ~backend ~replies:'|' ~config
                ~window:win ~calls ww
            in
            let sim = run Fabric.Sim in
            (ww.ww_name, vname, sim, run Fabric.Sock))
          variants)
      wire_workloads
  in
  let modeled (d : drive) = Costmodel.modeled_seconds model d.stats in
  let row w v backend (d : drive) =
    {
      Gate.workload = w;
      variant = v;
      fields =
        [
          ("backend", Gate.Text backend);
          ("msgs", Gate.Int d.stats.msgs_sent);
          ("bytes", Gate.Int d.stats.bytes_sent);
          ("modeled_s", num 6 (modeled d));
          ("wall_s", num 6 d.sample.wall_s);
          ("checksum", num 1 d.checksum);
          ("digest", Gate.Text d.replies);
        ];
    }
  in
  let both f =
    List.concat_map
      (fun (w, v, (sim : drive), (sock : drive)) ->
        List.map
          (fun (what, get) -> (w ^ "/" ^ v ^ " " ^ what, get sock, get sim))
          f)
      pairs
  in
  {
    Gate.gate = "transport";
    title =
      Printf.sprintf
        "transport: sim vs sock loopback, %d calls, window %d, seed %d" calls
        window seed;
    facts = [];
    rows =
      List.concat_map
        (fun (w, v, sim, sock) -> [ row w v "sim" sim; row w v "sock" sock ])
        pairs;
    checks =
      [
        Gate.equal "digest_ok"
          "issue-order reply digests and checksums identical (sock = sim)"
          (both
             [
               ("digest", fun (d : drive) -> Gate.Text d.replies);
               ("checksum", fun d -> num 1 d.checksum);
             ]);
        Gate.equal "model_ok"
          "wire counters and modeled seconds identical (sock = sim)"
          (both
             [
               ("msgs", fun (d : drive) -> Gate.Int d.stats.msgs_sent);
               ("bytes", fun d -> Gate.Int d.stats.bytes_sent);
               ("modeled s", fun d -> num 6 (modeled d));
             ]);
      ];
  }

(* ------------------------------------------------------------------ *)
(* multi-process mode: the same workloads over real OS processes        *)
(* ------------------------------------------------------------------ *)

(* machine [self] of a TCP cluster described by [addrs].  Servers
   (self > 0) export the wire workloads and serve until the client
   shuts them down; the client (machine 0) drives [calls] pipelined
   RMIs per workload round-robin across the servers and returns the
   issue-order digests.  Method/callsite ids are 1 + workload index so
   both workloads coexist on one mesh. *)
let transport_proc ?(calls = 64) ?(window = 8) ?(reliable = false) ?epoch
    ?listen ~self ~addrs () =
  let n = Array.length addrs in
  if n < 2 then invalid_arg "Experiment.transport_proc: need >= 2 machines";
  if self < 0 || self >= n then
    invalid_arg "Experiment.transport_proc: self out of range";
  let metrics = Metrics.create () in
  let config =
    if reliable then
      (* ride through a server kill/restart: the ARQ retransmits
         across the outage and the RPC layer retries across give-ups *)
      Config.with_failover
        { Config.default_failover with Config.max_call_retries = 6 }
        (Config.with_reliable Config.class_)
    else Config.class_
  in
  let fabric =
    Fabric.create_process ?epoch ?listen ~self ~addrs
      ~meta:(Lazy.force wire_meta) ~config ~plans:(Hashtbl.create 4) ~metrics
      ()
  in
  let result =
    if self > 0 then begin
      let me = Fabric.node fabric self in
      List.iteri
        (fun k ww ->
          Node.export me ~obj:0 ~meth:(m_wire + k) ~has_ret:true ww.ww_handler)
        wire_workloads;
      Node.serve_loop me;
      None
    end
    else begin
      let caller = Fabric.node fabric 0 in
      let dests =
        Array.init (n - 1) (fun s -> Remote_ref.make ~machine:(s + 1) ~obj:0)
      in
      let rows =
        List.mapi
          (fun k ww ->
            let buf = Buffer.create 1024 and checksum = ref 0.0 in
            let sample =
              Gate.measure (fun () ->
                  issue ~caller ~dests ~meth:(m_wire + k)
                    ~callsite:(wire_site + k) ~window ~replies:'|' ~buf
                    ~checksum ww calls)
            in
            {
              Gate.workload = ww.ww_name;
              variant = (if reliable then "reliable" else "raw");
              fields =
                [
                  ("calls", Gate.Int calls);
                  ("wall_s", num 4 sample.wall_s);
                  ("checksum", num 1 !checksum);
                  ( "digest",
                    Gate.Text (Digest.to_hex (Digest.string (Buffer.contents buf)))
                  );
                ];
            })
          wire_workloads
      in
      for dest = 1 to n - 1 do
        Node.send_shutdown caller ~dest
      done;
      Some
        {
          Gate.gate = "proc";
          title =
            Printf.sprintf "proc: client of %d machines, window %d" n window;
          facts = [];
          rows;
          checks = [];
        }
    end
  in
  Fabric.shutdown_net fabric;
  result
