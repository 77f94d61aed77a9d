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
(* pipelining / batching comparison                                    *)
(* ------------------------------------------------------------------ *)

type pipeline_row = {
  variant : string;
  p_stats : Metrics.snapshot;
  p_modeled : float;
  p_wall : float;
  checksum : float;
}

type pipeline_report = { p_title : string; p_rows : pipeline_row list }

let pipeline_row variant (wall, stats, checksum) =
  {
    variant;
    p_stats = stats;
    p_modeled = Costmodel.modeled_seconds model stats;
    p_wall = wall;
    checksum;
  }

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
  let fault_suffix =
    match faults with
    | None -> ""
    | Some (seed, _) -> Printf.sprintf ", faults seed=%d" seed
  in
  let array_report =
    let params =
      match scale with
      | Small -> { Rmi_apps.Array_bench.n = 16; repetitions = 200 }
      | Paper -> { Rmi_apps.Array_bench.n = 16; repetitions = 2000 }
    in
    let of_result (r : Rmi_apps.Array_bench.result) =
      (r.wall_seconds, r.stats, r.sum_received)
    in
    {
      p_title =
        Printf.sprintf
          "2D array transmission, %dx%d, %d repetitions, window %d%s"
          params.n params.n params.repetitions window fault_suffix;
      p_rows =
        [
          pipeline_row "sequential"
            (of_result
               (Rmi_apps.Array_bench.run ?faults:(sim ()) ~config ~mode params));
          pipeline_row "pipelined"
            (of_result
               (Rmi_apps.Array_bench.run_pipelined ~window ?faults:(sim ())
                  ~config ~mode params));
          pipeline_row "pipelined + batch"
            (of_result
               (Rmi_apps.Array_bench.run_pipelined ~window ?faults:(sim ())
                  ~config:batched ~mode params));
        ];
    }
  in
  let list_report =
    let params =
      match scale with
      | Small -> { Rmi_apps.Linked_list.elements = 100; repetitions = 200 }
      | Paper -> { Rmi_apps.Linked_list.elements = 100; repetitions = 2000 }
    in
    let of_result (r : Rmi_apps.Linked_list.result) =
      (r.wall_seconds, r.stats, float_of_int r.cells_received)
    in
    {
      p_title =
        Printf.sprintf "LinkedList, %d elements, %d repetitions, window %d%s"
          params.elements params.repetitions window fault_suffix;
      p_rows =
        [
          pipeline_row "sequential"
            (of_result
               (Rmi_apps.Linked_list.run ?faults:(sim ()) ~config ~mode params));
          pipeline_row "pipelined"
            (of_result
               (Rmi_apps.Linked_list.run_pipelined ~window ?faults:(sim ())
                  ~config ~mode params));
          pipeline_row "pipelined + batch"
            (of_result
               (Rmi_apps.Linked_list.run_pipelined ~window ?faults:(sim ())
                  ~config:batched ~mode params));
        ];
    }
  in
  [ array_report; list_report ]

let render_pipeline (r : pipeline_report) =
  let headers =
    [
      "variant"; "msgs"; "batches"; "max inflight"; "bytes"; "model s";
      "wall s"; "checksum";
    ]
  in
  let base =
    match r.p_rows with row :: _ -> Some row.checksum | [] -> None
  in
  let rows =
    List.map
      (fun row ->
        let ok =
          match base with
          | Some c -> if Float.equal c row.checksum then "" else "  MISMATCH"
          | None -> ""
        in
        [
          row.variant;
          string_of_int row.p_stats.Metrics.msgs_sent;
          string_of_int row.p_stats.Metrics.batches_sent;
          string_of_int row.p_stats.Metrics.outstanding_hwm;
          string_of_int row.p_stats.Metrics.bytes_sent;
          Printf.sprintf "%.4f" row.p_modeled;
          Printf.sprintf "%.4f" row.p_wall;
          Printf.sprintf "%.0f%s" row.checksum ok;
        ])
      r.p_rows
  in
  r.p_title ^ "\n" ^ Rmi_stats.Ascii_table.render ~headers rows

(* ------------------------------------------------------------------ *)
(* crash / restart / failover comparison                               *)
(* ------------------------------------------------------------------ *)

type crash_row = {
  c_variant : string;
  c_stats : Metrics.snapshot;
  c_checksum : int;
  c_executions : int;
  c_failed : int;
  c_ok : bool;
}

type crash_report = {
  c_title : string;
  c_rows : crash_row list;
  c_digest : string;
  c_replay_equal : bool;
}

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

(* the same workload three ways: fault-free, under a seeded durable
   crash/restart schedule (results and execution counts must match the
   baseline exactly — the reply cache survives), and under the same
   schedule with an amnesiac victim (retried calls may re-execute).
   The durable run is replayed from its seed to pin determinism. *)
let crash_compare ?(seed = 42) ?(crashes = 1) ?(calls = 80) ?(window = 8) () =
  let sim durability =
    let s = Fault_sim.create ~seed ~n:2 Fault_sim.lossless in
    Fault_sim.set_crash_plan s
      (Fault_sim.seeded_crash_plan ~seed ~n:2 ~crashes ~durability ());
    s
  in
  let base_stats, base_sum, base_execs, base_failed =
    run_crash_variant ~calls ~window ()
  in
  let dsim = sim Fault_sim.Durable in
  let d_stats, d_sum, d_execs, d_failed =
    run_crash_variant ~sim:dsim ~calls ~window ()
  in
  let dsim2 = sim Fault_sim.Durable in
  let _, d_sum2, _, _ = run_crash_variant ~sim:dsim2 ~calls ~window () in
  let asim = sim Fault_sim.Amnesia in
  let a_stats, a_sum, a_execs, a_failed =
    run_crash_variant ~sim:asim ~calls ~window ()
  in
  let row variant (stats, sum, execs, failed) =
    {
      c_variant = variant;
      c_stats = stats;
      c_checksum = sum;
      c_executions = execs;
      c_failed = failed;
      c_ok = sum = base_sum && failed = 0;
    }
  in
  {
    c_title =
      Printf.sprintf
        "crash/restart: %d echo calls, window %d, seed %d, %d crash(es)" calls
        window seed crashes;
    c_rows =
      [
        row "fault-free" (base_stats, base_sum, base_execs, base_failed);
        row "durable crash" (d_stats, d_sum, d_execs, d_failed);
        row "amnesia crash" (a_stats, a_sum, a_execs, a_failed);
      ];
    c_digest = Fault_sim.digest dsim;
    c_replay_equal =
      String.equal (Fault_sim.digest dsim) (Fault_sim.digest dsim2)
      && d_sum = d_sum2;
  }

let render_crash (r : crash_report) =
  let headers =
    [
      "variant"; "checksum"; "failed"; "handler execs"; "crashes"; "restarts";
      "rpc retries"; "cache hits"; "stale drops";
    ]
  in
  let base =
    match r.c_rows with row :: _ -> Some row.c_checksum | [] -> None
  in
  let rows =
    List.map
      (fun row ->
        let ok =
          match base with
          | Some c -> if c = row.c_checksum then "" else "  MISMATCH"
          | None -> ""
        in
        [
          row.c_variant;
          Printf.sprintf "%d%s" row.c_checksum ok;
          string_of_int row.c_failed;
          string_of_int row.c_executions;
          string_of_int row.c_stats.Metrics.crashes;
          string_of_int row.c_stats.Metrics.restarts;
          string_of_int row.c_stats.Metrics.call_retries;
          string_of_int row.c_stats.Metrics.reply_cache_hits;
          string_of_int row.c_stats.Metrics.stale_drops;
        ])
      r.c_rows
  in
  Printf.sprintf "%s\n%s\nseeded replay byte-identical: %s" r.c_title
    (Rmi_stats.Ascii_table.render ~headers rows)
    (if r.c_replay_equal then "yes" else "NO")

(* ------------------------------------------------------------------ *)
(* chaos: the crash workloads over real TCP (PR 8)                     *)
(* ------------------------------------------------------------------ *)

type chaos_report = {
  h_title : string;
  h_rows : crash_row list;
  h_digest : string;
  h_replay_equal : bool;
  h_parity_equal : bool;
  h_sweep_seeds : int;
  h_sweep_failed : int list;
}

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
  failed = 0
  && sum = calls * (calls + 3) / 2
  && execs = calls
  && Hashtbl.length counts = calls
  && Hashtbl.fold (fun _ c ok -> ok && c = 1) counts true

(* the PR 3 crash comparison lifted onto the socket transport: the
   echo workload fault-free over loopback TCP, under a seeded chaos
   injector with a durable victim (exactly-once must survive injected
   loss, severed connections, stalls and the kill/restart), under the
   same schedule with an amnesiac victim (checksum must still match —
   the echo is idempotent), plus the determinism gates: the durable
   run replayed from its seed must produce the identical issue-order
   reply stream, the chaos frame schedule must be byte-identical to
   the bare [Fault_sim] schedule on a synthetic parity run, and every
   seed of [sweep] must pass {!chaos_exactly_once}. *)
let chaos_compare ?(seed = 42) ?(calls = 80) ?(window = 8) ?(sweep = 300) () =
  let base_stats, base_sum, base_execs, base_failed =
    run_crash_variant ~backend:Fabric.Sock ~calls ~window ()
  in
  let rep1 = Buffer.create 1024 and rep2 = Buffer.create 1024 in
  let d_stats, d_sum, d_execs, d_failed =
    run_crash_variant ~backend:Fabric.Sock
      ~chaos:(chaos_injector ~seed Fault_sim.Durable)
      ~replies:rep1 ~calls ~window ()
  in
  let _, d_sum2, _, _ =
    run_crash_variant ~backend:Fabric.Sock
      ~chaos:(chaos_injector ~seed Fault_sim.Durable)
      ~replies:rep2 ~calls ~window ()
  in
  let a_stats, a_sum, a_execs, a_failed =
    run_crash_variant ~backend:Fabric.Sock
      ~chaos:(chaos_injector ~seed Fault_sim.Amnesia)
      ~calls ~window ()
  in
  let parity_equal =
    let chaos_digest, bare_digest =
      Chaos.sim_parity ~seed ~n:2 ~frames:400 ()
    in
    String.equal chaos_digest bare_digest
  in
  let sweep_failed = ref [] in
  for i = 0 to sweep - 1 do
    let s = (seed * 1000) + i in
    if not (chaos_exactly_once ~seed:s ()) then
      sweep_failed := s :: !sweep_failed
  done;
  let row variant (stats, sum, execs, failed) =
    {
      c_variant = variant;
      c_stats = stats;
      c_checksum = sum;
      c_executions = execs;
      c_failed = failed;
      c_ok = sum = base_sum && failed = 0;
    }
  in
  {
    h_title =
      Printf.sprintf
        "chaos over loopback TCP: %d echo calls, window %d, seed %d, %d-seed \
         sweep"
        calls window seed sweep;
    h_rows =
      [
        row "fault-free" (base_stats, base_sum, base_execs, base_failed);
        row "durable chaos" (d_stats, d_sum, d_execs, d_failed);
        row "amnesia chaos" (a_stats, a_sum, a_execs, a_failed);
      ];
    h_digest = Digest.to_hex (Digest.string (Buffer.contents rep1));
    h_replay_equal =
      String.equal (Buffer.contents rep1) (Buffer.contents rep2)
      && d_sum = d_sum2;
    h_parity_equal = parity_equal;
    h_sweep_seeds = sweep;
    h_sweep_failed = List.rev !sweep_failed;
  }

let chaos_ok (r : chaos_report) =
  match r.h_rows with
  | base :: (durable :: _ as faulted) ->
      List.for_all (fun row -> row.c_ok) (base :: faulted)
      (* exactly-once under the durable injector: the handler ran
         precisely as often as in the fault-free baseline *)
      && durable.c_executions = base.c_executions
      && r.h_replay_equal && r.h_parity_equal && r.h_sweep_failed = []
  | _ -> false

let render_chaos (r : chaos_report) =
  let headers =
    [
      "variant"; "checksum"; "failed"; "handler execs"; "crashes"; "restarts";
      "rpc retries"; "arq retries"; "dup drops"; "stale drops";
    ]
  in
  let base =
    match r.h_rows with row :: _ -> Some row.c_checksum | [] -> None
  in
  let rows =
    List.map
      (fun row ->
        let ok =
          match base with
          | Some c -> if c = row.c_checksum then "" else "  MISMATCH"
          | None -> ""
        in
        [
          row.c_variant;
          Printf.sprintf "%d%s" row.c_checksum ok;
          string_of_int row.c_failed;
          string_of_int row.c_executions;
          string_of_int row.c_stats.Metrics.crashes;
          string_of_int row.c_stats.Metrics.restarts;
          string_of_int row.c_stats.Metrics.call_retries;
          string_of_int row.c_stats.Metrics.retries;
          string_of_int row.c_stats.Metrics.dup_drops;
          string_of_int row.c_stats.Metrics.stale_drops;
        ])
      r.h_rows
  in
  Printf.sprintf
    "%s\n%s\nsame-seed replay byte-identical: %s\nchaos/sim schedule parity: \
     %s\nexactly-once sweep: %d/%d seeds%s"
    r.h_title
    (Rmi_stats.Ascii_table.render ~headers rows)
    (if r.h_replay_equal then "yes" else "NO")
    (if r.h_parity_equal then "identical" else "DIVERGED")
    (r.h_sweep_seeds - List.length r.h_sweep_failed)
    r.h_sweep_seeds
    (match r.h_sweep_failed with
    | [] -> ""
    | l ->
        "  FAILED: "
        ^ String.concat "," (List.map string_of_int l))

(* the CI socket-chaos artifact: gate verdicts plus the per-variant
   rows and the durable run's reply digest *)
let chaos_json (r : chaos_report) =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"title\": %S,\n  \"ok\": %b,\n  \"replay_equal\": %b,\n  \
        \"parity_equal\": %b,\n  \"digest\": %S,\n  \"sweep_seeds\": %d,\n  \
        \"sweep_failed\": [%s],\n"
       r.h_title (chaos_ok r) r.h_replay_equal r.h_parity_equal r.h_digest
       r.h_sweep_seeds
       (String.concat ", " (List.map string_of_int r.h_sweep_failed)));
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"variant\": %S, \"checksum\": %d, \"failed\": %d, \
            \"executions\": %d, \"crashes\": %d, \"restarts\": %d, \
            \"arq_retries\": %d, \"dup_drops\": %d, \"stale_drops\": %d, \
            \"ok\": %b}"
           row.c_variant row.c_checksum row.c_failed row.c_executions
           row.c_stats.Metrics.crashes row.c_stats.Metrics.restarts
           row.c_stats.Metrics.retries row.c_stats.Metrics.dup_drops
           row.c_stats.Metrics.stale_drops row.c_ok))
    r.h_rows;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* tier comparison: generic vs AOT vs adaptive                         *)
(* ------------------------------------------------------------------ *)

type tier_window = { w_calls : int; w_bytes : int; w_msgs : int }

type tier_row = {
  t_variant : string;
  t_stats : Metrics.snapshot;
  t_digest : string;
  t_windows : tier_window list;
}

type tier_report = {
  t_title : string;
  t_rows : tier_row list;
  t_equal : bool;
  t_converged : bool;
}

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

(* structural rendering for the reply digest: [Value.pp] prints global
   allocation ids, which differ between variants even for equal values *)
let rec tier_render buf v =
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
          tier_render buf f;
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
          tier_render buf x;
          Buffer.add_char buf ';')
        a.Value.ra;
      Buffer.add_char buf ']'

(* [calls] swap RMIs from machine 0 to machine 1, snapshotting the wire
   counters every [window] calls: the per-window byte deltas are the
   warmup curve.  Replies are folded into an order-sensitive digest so
   the three variants can be compared byte for byte. *)
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
            tier_render buf v;
            Buffer.add_char buf ';'
        | None -> Buffer.add_string buf "none;");
        if i mod window = 0 || i = calls then begin
          let s = Metrics.snapshot metrics in
          windows :=
            {
              w_calls = (if i mod window = 0 then window else i mod window);
              w_bytes = s.Metrics.bytes_sent - !last_bytes;
              w_msgs = s.Metrics.msgs_sent - !last_msgs;
            }
            :: !windows;
          last_bytes := s.Metrics.bytes_sent;
          last_msgs := s.Metrics.msgs_sent
        end
      done);
  {
    t_variant = config.Config.name;
    t_stats = Metrics.snapshot metrics;
    t_digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    t_windows = List.rev !windows;
  }

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
  let rows =
    List.map
      (fun config -> run_tier_variant ~config ~calls ~window)
      [ generic; aot; adaptive ]
  in
  let t_equal =
    match rows with
    | first :: rest ->
        List.for_all (fun r -> String.equal r.t_digest first.t_digest) rest
    | [] -> true
  in
  (* post-warmup the adaptive tier must spend exactly the AOT bytes per
     window (same plan, same wire encoding) *)
  let t_converged =
    match rows with
    | [ _; aot_row; ad_row ] -> (
        match (List.rev aot_row.t_windows, List.rev ad_row.t_windows) with
        | aw :: _, dw :: _ ->
            aw.w_bytes = dw.w_bytes
            && aw.w_msgs = dw.w_msgs
            && ad_row.t_stats.Metrics.tier_promotions > 0
        | _ -> false)
    | _ -> false
  in
  {
    t_title =
      Printf.sprintf
        "tiers: %d swap calls, warmup window %d, hot threshold %d" calls
        window hot;
    t_rows = rows;
    t_equal;
    t_converged;
  }

let render_tiers (r : tier_report) =
  let headers =
    [
      "variant"; "bytes"; "msgs"; "promoted"; "deopts"; "cache h/m";
      "digest";
    ]
  in
  let rows =
    List.map
      (fun row ->
        [
          row.t_variant;
          string_of_int row.t_stats.Metrics.bytes_sent;
          string_of_int row.t_stats.Metrics.msgs_sent;
          string_of_int row.t_stats.Metrics.tier_promotions;
          string_of_int row.t_stats.Metrics.tier_deopts;
          Printf.sprintf "%d/%d" row.t_stats.Metrics.plan_cache_hits
            row.t_stats.Metrics.plan_cache_misses;
          String.sub row.t_digest 0 12;
        ])
      r.t_rows
  in
  let curve =
    let windows_of v =
      match List.find_opt (fun row -> String.equal row.t_variant v) r.t_rows with
      | Some row -> row.t_windows
      | None -> []
    in
    let gw = windows_of "generic"
    and aw = windows_of "aot"
    and dw = windows_of "adaptive" in
    let n = List.length dw in
    let cell ws i =
      match List.nth_opt ws i with
      | Some w when w.w_calls > 0 ->
          Printf.sprintf "%.1f" (float_of_int w.w_bytes /. float_of_int w.w_calls)
      | _ -> "-"
    in
    Rmi_stats.Ascii_table.render
      ~headers:[ "window"; "generic B/call"; "aot B/call"; "adaptive B/call" ]
      (List.init n (fun i ->
           [ string_of_int (i + 1); cell gw i; cell aw i; cell dw i ]))
  in
  Printf.sprintf
    "%s\n%s\nwarmup curve (wire bytes per call, per window):\n%s\nreplies byte-identical: %s\nadaptive converged to aot: %s"
    r.t_title
    (Rmi_stats.Ascii_table.render ~headers rows)
    curve
    (if r.t_equal then "yes" else "NO")
    (if r.t_converged then "yes" else "NO")

(* ------------------------------------------------------------------ *)
(* wirecost: the zero-copy wire path against pinned frame streams      *)
(* ------------------------------------------------------------------ *)

type wire_run = {
  u_digest : string;
  u_checksum : float;
  u_copied_per_call : float;
  u_minor_per_call : float;
  u_pool_hits : int;
  u_pool_misses : int;
  u_us_per_call : float;
}

type wire_row = {
  wr_workload : string;
  wr_variant : string;
  wr_run : wire_run;
  wr_pin : (string * int) option;
  wr_bound : float option;
}

type wire_report = {
  u_title : string;
  u_rows : wire_row list;
  u_pinned : bool;
  u_frames_ok : bool;
  u_copied_ok : bool;
  u_results_ok : bool;
  u_gate_ok : bool;
}

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

(* one variant: run [calls] RMIs, digest every physical frame leaving
   the transmit path (the hook runs before the fault-simulator stage,
   so the digest covers the deterministic pre-fault frame stream) and
   report the per-call copy, allocation and pool telemetry *)
let run_wire_run ~config ?faults ~window ~calls (ww : wire_workload) =
  let metrics = Metrics.create () in
  let sim =
    Option.map
      (fun (seed, profile) -> Fault_sim.create ~seed ~n:2 profile)
      faults
  in
  let fabric =
    Fabric.create ~mode:Fabric.Sync ?faults:sim ~n:2
      ~meta:(Lazy.force wire_meta) ~config ~plans:(Hashtbl.create 4) ~metrics
      ()
  in
  let digest = ref "" in
  Rmi_net.Transport.set_fault_hook (Fabric.net fabric)
    (fun ~src:_ ~dest:_ frame ->
      digest := Digest.string (!digest ^ Digest.bytes frame);
      [ frame ]);
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_wire ~has_ret:true
    ww.ww_handler;
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let arg = Lazy.force ww.ww_arg in
  let checksum = ref 0.0 in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Fabric.run fabric (fun _ ->
      let i = ref 0 in
      while !i < calls do
        let k = min window (calls - !i) in
        let futures =
          List.init k (fun _ ->
              Node.call_async caller ~dest ~meth:m_wire ~callsite:wire_site
                ~has_ret:true [| arg |])
        in
        List.iter
          (fun f -> checksum := !checksum +. ww.ww_fold (Node.Future.await f))
          futures;
        i := !i + k
      done);
  let wall = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. minor0 in
  let s = Metrics.snapshot metrics in
  let per c = float_of_int c /. float_of_int calls in
  {
    u_digest =
      (if String.length !digest = 0 then "-" else Digest.to_hex !digest);
    u_checksum = !checksum;
    u_copied_per_call = per s.Metrics.bytes_copied;
    u_minor_per_call = minor /. float_of_int calls;
    u_pool_hits = s.Metrics.pool_hits;
    u_pool_misses = s.Metrics.pool_misses;
    u_us_per_call = wall *. 1e6 /. float_of_int calls;
  }

(* every paper-table message shape x every transport variant.  The
   report's verdicts are the [wirecost] gate: frame streams and copied
   bytes equal to the pins (for pinned arguments), every result equal
   to the fault-free fold, and every enveloped row at or below half the
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
  let pins = List.assoc_opt (calls, window, seed) wire_pins in
  let rows =
    List.concat_map
      (fun ww ->
        List.map
          (fun (vname, config, faults, win) ->
            {
              wr_workload = ww.ww_name;
              wr_variant = vname;
              wr_run = run_wire_run ~config ?faults ~window:win ~calls ww;
              wr_pin =
                Option.bind pins
                  (List.find_map (fun (w, v, digest, copied) ->
                       if w = ww.ww_name && v = vname then Some (digest, copied)
                       else None));
              wr_bound =
                Option.map
                  (fun legacy -> legacy /. 2.0)
                  (List.assoc_opt (ww.ww_name, vname) wire_legacy_copied);
            })
          variants)
      wire_workloads
  in
  (* each call folds the same reply, so the run's checksum is this
     sum, added in the same order *)
  let expected_checksum name =
    let ww = List.find (fun w -> w.ww_name = name) wire_workloads in
    let v = ww.ww_fold (ww.ww_handler [| Lazy.force ww.ww_arg |]) in
    let acc = ref 0.0 in
    for _ = 1 to calls do
      acc := !acc +. v
    done;
    !acc
  in
  let pinned ok =
    List.for_all
      (fun r -> match r.wr_pin with None -> true | Some pin -> ok r.wr_run pin)
      rows
  in
  {
    u_title =
      Printf.sprintf
        "wirecost: zero-copy wire path, %d calls, batch window %d, fault \
         seed %d"
        calls window seed;
    u_rows = rows;
    u_pinned = pins <> None;
    u_frames_ok = pinned (fun run (digest, _) -> String.equal run.u_digest digest);
    u_copied_ok =
      pinned (fun run (_, copied) ->
          Float.equal run.u_copied_per_call
            (float_of_int copied /. float_of_int calls));
    u_results_ok =
      List.for_all
        (fun r ->
          Float.equal r.wr_run.u_checksum (expected_checksum r.wr_workload))
        rows;
    u_gate_ok =
      List.for_all
        (fun r ->
          match r.wr_bound with
          | None -> true
          | Some b -> r.wr_run.u_copied_per_call <= b)
        rows;
  }

let render_wirecost (r : wire_report) =
  let headers =
    [
      "workload"; "variant"; "copied B/call"; "bound"; "minor w/call";
      "pool h/m"; "us/call"; "frames";
    ]
  in
  let rows =
    List.map
      (fun row ->
        let run = row.wr_run in
        [
          row.wr_workload;
          row.wr_variant;
          Printf.sprintf "%.1f" run.u_copied_per_call;
          (match row.wr_bound with
          | None -> "-"
          | Some b ->
              Printf.sprintf "%.1f%s" b
                (if run.u_copied_per_call > b then "  ABOVE" else ""));
          Printf.sprintf "%.0f" run.u_minor_per_call;
          Printf.sprintf "%d/%d" run.u_pool_hits run.u_pool_misses;
          Printf.sprintf "%.1f" run.u_us_per_call;
          (match row.wr_pin with
          | None -> "unpinned"
          | Some (digest, _) when String.equal digest run.u_digest -> "= pin"
          | Some _ -> "DRIFT");
        ])
      r.u_rows
  in
  let pinned ok =
    if not r.u_pinned then "n/a (no pins for these arguments)"
    else if ok then "yes"
    else "NO"
  in
  Printf.sprintf
    "%s\n%s\nframe streams equal to the pins: %s\ncopied bytes equal to the \
     pins: %s\nresults equal to the fault-free fold: %s\n<=50%% of the \
     copy-based framing's copied bytes per call (enveloped variants): %s"
    r.u_title
    (Rmi_stats.Ascii_table.render ~headers rows)
    (pinned r.u_frames_ok) (pinned r.u_copied_ok)
    (if r.u_results_ok then "yes" else "NO")
    (if r.u_gate_ok then "yes" else "NO")

(* ------------------------------------------------------------------ *)
(* alloc: GC-heap decoding vs arena decoding (PR 10)                   *)
(* ------------------------------------------------------------------ *)

type alloc_run = {
  al_digest : string;
  al_checksum : float;
  al_minor_per_call : float;
  al_arena_allocs : int;
  al_arena_resets : int;
  al_arena_fallbacks : int;
}

type alloc_row = {
  al_workload : string;
  al_variant : string;
  al_heap : alloc_run;
  al_arena : alloc_run;
  al_gated : bool;
  al_arena_active : bool;
}

type alloc_report = {
  al_title : string;
  al_rows : alloc_row list;
  al_frames_ok : bool;
  al_results_ok : bool;
  al_gate_ok : bool;
  al_arena_ok : bool;
}

(* The checked-in BENCH_wire.json baseline for the gated row — minor
   words per call of matrix16x16 over the reliable transport under
   site+reuse+cycle, measured before this PR's allocation work.  The
   [alloc] gate requires at least a 50% cut against it. *)
let alloc_baseline_minor = 14_457.4

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

let alloc_workloads =
  match wire_workloads with
  | [ chain; matrix ] -> [ (chain, alloc_chain_plan); (matrix, alloc_matrix_plan) ]
  | _ -> assert false

(* one allocator mode of one variant: [calls] specialized RMIs after a
   warmup quarter, digesting every pre-fault frame; minor words are
   measured over the post-warmup phase only, so one-time plan/context
   setup is excluded — the same discipline as the bench harness *)
let run_alloc_run ~config ?faults ~window ~calls (ww : wire_workload) plan =
  let metrics = Metrics.create () in
  let plans = Hashtbl.create 4 in
  Hashtbl.replace plans wire_site plan;
  let sim =
    Option.map
      (fun (seed, profile) -> Fault_sim.create ~seed ~n:2 profile)
      faults
  in
  let fabric =
    Fabric.create ~mode:Fabric.Sync ?faults:sim ~n:2
      ~meta:(Lazy.force wire_meta) ~config ~plans ~metrics ()
  in
  let digest = ref "" in
  Rmi_net.Transport.set_fault_hook (Fabric.net fabric)
    (fun ~src:_ ~dest:_ frame ->
      digest := Digest.string (!digest ^ Digest.bytes frame);
      [ frame ]);
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_wire ~has_ret:true
    ww.ww_handler;
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let arg = Lazy.force ww.ww_arg in
  let checksum = ref 0.0 in
  let minor = ref 0.0 in
  let warmup = max window (calls / 4) in
  Fabric.run fabric (fun _ ->
      let batch k =
        let futures =
          List.init k (fun _ ->
              Node.call_async caller ~dest ~meth:m_wire ~callsite:wire_site
                ~has_ret:true [| arg |])
        in
        List.iter
          (fun f -> checksum := !checksum +. ww.ww_fold (Node.Future.await f))
          futures
      in
      let run n =
        let i = ref 0 in
        while !i < n do
          let k = min window (n - !i) in
          batch k;
          i := !i + k
        done
      in
      run warmup;
      checksum := 0.0;
      let minor0 = Gc.minor_words () in
      run calls;
      minor := Gc.minor_words () -. minor0);
  let s = Metrics.snapshot metrics in
  {
    al_digest =
      (if String.length !digest = 0 then "-" else Digest.to_hex !digest);
    al_checksum = !checksum;
    al_minor_per_call = !minor /. float_of_int calls;
    al_arena_allocs = s.Metrics.arena_allocs;
    al_arena_resets = s.Metrics.arena_resets;
    al_arena_fallbacks = s.Metrics.arena_fallbacks;
  }

(* Every paper-table message shape x three transport/optimization
   variants, each run under both allocator modes.  The verdicts are the
   [alloc] gate: byte-identical frame streams and results between the
   GC-heap and arena runs; at least a 50% cut in minor words per call
   on the gated row against the checked-in pre-PR baseline; and, on the
   no-reuse rows where the arena is licensed to engage, the arena
   actually recycling (allocs counted, wholesale resets happening,
   steady state off the GC heap). *)
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
  let rows =
    List.concat_map
      (fun (ww, plan) ->
        List.map
          (fun (vname, config, faults, gated, arena_active) ->
            let heap =
              run_alloc_run ~config:(Config.legacy_heap config) ?faults ~window
                ~calls ww plan
            in
            let arena =
              run_alloc_run ~config:(Config.with_arena true config) ?faults
                ~window ~calls ww plan
            in
            {
              al_workload = ww.ww_name;
              al_variant = vname;
              al_heap = heap;
              al_arena = arena;
              al_gated = gated && String.equal ww.ww_name "matrix16x16";
              al_arena_active = arena_active;
            })
          variants)
      alloc_workloads
  in
  {
    al_title =
      Printf.sprintf
        "alloc: GC-heap decoding vs arena decoding, %d calls per row, window \
         %d, fault seed %d (baseline %.1f minor w/call)"
        calls window seed alloc_baseline_minor;
    al_rows = rows;
    al_frames_ok =
      List.for_all
        (fun r -> String.equal r.al_heap.al_digest r.al_arena.al_digest)
        rows;
    al_results_ok =
      List.for_all
        (fun r -> Float.equal r.al_heap.al_checksum r.al_arena.al_checksum)
        rows;
    al_gate_ok =
      List.for_all
        (fun r ->
          (not r.al_gated)
          || r.al_arena.al_minor_per_call <= 0.5 *. alloc_baseline_minor)
        rows;
    al_arena_ok =
      List.for_all
        (fun r ->
          (not r.al_arena_active)
          || r.al_arena.al_arena_allocs > 0
             && r.al_arena.al_arena_resets > 0
             && r.al_arena.al_arena_fallbacks * 10
                <= r.al_arena.al_arena_allocs
             && r.al_arena.al_minor_per_call < r.al_heap.al_minor_per_call)
        rows;
  }

let render_alloc (r : alloc_report) =
  let headers =
    [
      "workload"; "variant"; "minor w/call heap"; "arena"; "cut";
      "arena allocs"; "resets"; "fallbacks"; "frames";
    ]
  in
  let rows =
    List.map
      (fun row ->
        let cut =
          if row.al_heap.al_minor_per_call <= 0.0 then 0.0
          else
            100.0
            *. (row.al_heap.al_minor_per_call
               -. row.al_arena.al_minor_per_call)
            /. row.al_heap.al_minor_per_call
        in
        [
          row.al_workload;
          row.al_variant;
          Printf.sprintf "%.1f" row.al_heap.al_minor_per_call;
          Printf.sprintf "%.1f" row.al_arena.al_minor_per_call;
          Printf.sprintf "%.1f%%%s" cut
            (if row.al_gated then "  (gate row)" else "");
          string_of_int row.al_arena.al_arena_allocs;
          string_of_int row.al_arena.al_arena_resets;
          string_of_int row.al_arena.al_arena_fallbacks;
          (if String.equal row.al_heap.al_digest row.al_arena.al_digest then
             "identical"
           else "MISMATCH");
        ])
      r.al_rows
  in
  Printf.sprintf
    "%s\n%s\nframe streams byte-identical: %s\nresults identical: %s\ngate \
     row <= 50%% of %.1f minor w/call baseline: %s\narena engaged on \
     no-reuse rows: %s"
    r.al_title
    (Rmi_stats.Ascii_table.render ~headers rows)
    (if r.al_frames_ok then "yes" else "NO")
    (if r.al_results_ok then "yes" else "NO")
    alloc_baseline_minor
    (if r.al_gate_ok then "yes" else "NO")
    (if r.al_arena_ok then "yes" else "NO")

let alloc_json (r : alloc_report) =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"title\": %S,\n" r.al_title);
  Buffer.add_string b
    (Printf.sprintf
       "  \"baseline_minor_words_per_call\": %.1f,\n  \"frames_ok\": %b,\n  \
        \"results_ok\": %b,\n  \"gate_ok\": %b,\n  \"arena_ok\": %b,\n"
       alloc_baseline_minor r.al_frames_ok r.al_results_ok r.al_gate_ok
       r.al_arena_ok);
  Buffer.add_string b "  \"rows\": [\n";
  let first = ref true in
  List.iter
    (fun row ->
      if not !first then Buffer.add_string b ",\n";
      first := false;
      Buffer.add_string b
        (Printf.sprintf
           "    {\"workload\": %S, \"variant\": %S, \
            \"minor_words_per_call_heap\": %.1f, \
            \"minor_words_per_call_arena\": %.1f, \"arena_allocs\": %d, \
            \"arena_resets\": %d, \"arena_fallbacks\": %d, \"gated\": %b, \
            \"digest\": %S}"
           row.al_workload row.al_variant row.al_heap.al_minor_per_call
           row.al_arena.al_minor_per_call row.al_arena.al_arena_allocs
           row.al_arena.al_arena_resets row.al_arena.al_arena_fallbacks
           row.al_gated row.al_arena.al_digest))
    r.al_rows;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

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
(* load: multi-domain dispatch throughput and tail latency (PR 6)      *)
(* ------------------------------------------------------------------ *)

type load_run = {
  l_domains : int;
  l_throughput : float;  (* completed calls per second *)
  l_p50_us : float;
  l_p99_us : float;
  l_p999_us : float;
  l_digest : string;  (* structural reply digest, issue order *)
  l_dispatches : int;
  l_steals : int;
  l_rejects : int;
  l_queue_hwm : int;
}

type load_row = {
  lr_workload : string;
  lr_variant : string;
  lr_runs : load_run list;  (* ascending domain count *)
}

type load_report = {
  l_title : string;
  l_rows : load_row list;
  l_servers : int;
  l_calls : int;
  l_hi_domains : int;
  l_digest_ok : bool;
  l_speedup : float;  (* matrix16x16/reliable: hi-domain vs 1-domain *)
  l_speedup_floor : float;
  l_tail_ratio : float;  (* p999 hi-domain / p999 1-domain *)
  l_tail_tol : float;
  l_cores_ok : bool;  (* host can actually run hi_domains + client *)
  l_gate_ok : bool;
}

(* One cluster under load: one client (machine 0) drives [calls]
   pipelined RMIs round-robin across [servers] served machines, every
   reply folded into the structural digest in ISSUE order — so the
   digest is independent of how the dispatch pool interleaved execution
   and comparable across domain counts.  The handler re-folds its
   argument [spin] times to give the servers a CPU-bound body: without
   it the single client domain is the bottleneck and no worker count
   could change throughput. *)
let run_load_run ~config ?faults ~servers ~calls ~window ~spin
    (ww : wire_workload) =
  let metrics = Metrics.create () in
  let n = servers + 1 in
  let sim =
    Option.map
      (fun (seed, profile) -> Fault_sim.create ~seed ~n profile)
      faults
  in
  let fabric =
    Fabric.create ~mode:Fabric.Parallel ?faults:sim ~n
      ~meta:(Lazy.force wire_meta) ~config ~plans:(Hashtbl.create 4) ~metrics
      ()
  in
  for s = 1 to servers do
    Node.export (Fabric.node fabric s) ~obj:0 ~meth:m_wire ~has_ret:true
      (fun args ->
        let r = ref (ww.ww_handler args) in
        for _ = 2 to spin do
          r := ww.ww_handler args
        done;
        !r)
  done;
  let caller = Fabric.node fabric 0 in
  let arg = Lazy.force ww.ww_arg in
  let buf = Buffer.create 4096 in
  let wall = ref 0.0 in
  Fabric.run fabric (fun _ ->
      let t0 = Unix.gettimeofday () in
      let i = ref 0 in
      while !i < calls do
        let k = min window (calls - !i) in
        let futures =
          List.init k (fun j ->
              let dest =
                Remote_ref.make ~machine:(1 + ((!i + j) mod servers)) ~obj:0
              in
              Node.call_async caller ~dest ~meth:m_wire ~callsite:wire_site
                ~has_ret:true [| arg |])
        in
        List.iter
          (fun f ->
            match Node.Future.await f with
            | Some v ->
                tier_render buf v;
                Buffer.add_char buf ';'
            | None -> Buffer.add_string buf "none;")
          futures;
        i := !i + k
      done;
      wall := Unix.gettimeofday () -. t0);
  let s = Metrics.snapshot metrics in
  let q p = Metrics.lat_quantile s.Metrics.lat_hist p /. 1e3 in
  {
    l_domains = config.Config.domains;
    l_throughput =
      (if !wall > 0.0 then float_of_int calls /. !wall else 0.0);
    l_p50_us = q 0.5;
    l_p99_us = q 0.99;
    l_p999_us = q 0.999;
    l_digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    l_dispatches = s.Metrics.dispatches;
    l_steals = s.Metrics.steals;
    l_rejects = s.Metrics.queue_rejects;
    l_queue_hwm = s.Metrics.queue_depth_hwm;
  }

(* chain100/matrix16x16 x reliable/batched/faulty, each at one domain
   and at [domains] domains.  Verdicts:
   - digests byte-identical across domain counts on every row (always
     enforced — this is the correctness substitution argument);
   - on matrix16x16/reliable, hi-domain throughput >= [speedup_floor] x
     single-domain and p999 within [tail_tol] x — enforced only when
     the host has cores for client + [domains] workers
     ([Domain.recommended_domain_count]); on smaller hosts the numbers
     are reported but the perf verdict is recorded as skipped, since no
     scheduler can extract parallel speedup from one core. *)
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
  let rows =
    List.concat_map
      (fun ww ->
        List.map
          (fun (vname, config, faults) ->
            let runs =
              List.map
                (fun d ->
                  run_load_run
                    ~config:(Config.with_domains ?queue_depth d config)
                    ?faults ~servers ~calls ~window ~spin ww)
                domain_counts
            in
            { lr_workload = ww.ww_name; lr_variant = vname; lr_runs = runs })
          variants)
      wire_workloads
  in
  let l_digest_ok =
    List.for_all
      (fun row ->
        match row.lr_runs with
        | first :: rest ->
            List.for_all (fun r -> String.equal r.l_digest first.l_digest) rest
        | [] -> true)
      rows
  in
  let perf_row =
    List.find_opt
      (fun r ->
        String.equal r.lr_workload "matrix16x16"
        && String.equal r.lr_variant "reliable")
      rows
  in
  let speedup, tail_ratio =
    match perf_row with
    | Some { lr_runs = base :: rest; _ } when rest <> [] ->
        let hi = List.nth rest (List.length rest - 1) in
        ( (if base.l_throughput > 0.0 then hi.l_throughput /. base.l_throughput
           else 0.0),
          if base.l_p999_us > 0.0 then hi.l_p999_us /. base.l_p999_us else 0.0
        )
    | _ -> (0.0, 0.0)
  in
  let cores_ok =
    domains = 1 || Domain.recommended_domain_count () >= domains + 1
  in
  let perf_ok =
    domains = 1
    || (speedup >= speedup_floor && tail_ratio <= tail_tol)
  in
  {
    l_title =
      Printf.sprintf
        "load: %d calls, window %d, %d servers, domains 1 vs %d, spin %d, \
         fault seed %d"
        calls window servers domains spin seed;
    l_rows = rows;
    l_servers = servers;
    l_calls = calls;
    l_hi_domains = domains;
    l_digest_ok;
    l_speedup = speedup;
    l_speedup_floor = speedup_floor;
    l_tail_ratio = tail_ratio;
    l_tail_tol = tail_tol;
    l_cores_ok = cores_ok;
    l_gate_ok = l_digest_ok && ((not cores_ok) || perf_ok);
  }

let render_load (r : load_report) =
  let headers =
    [
      "workload"; "variant"; "domains"; "rps"; "p50 us"; "p99 us";
      "p999 us"; "dispatched"; "stolen"; "rejected"; "q hwm"; "digest";
    ]
  in
  let rows =
    List.concat_map
      (fun row ->
        List.map
          (fun run ->
            [
              row.lr_workload;
              row.lr_variant;
              string_of_int run.l_domains;
              Printf.sprintf "%.0f" run.l_throughput;
              Printf.sprintf "%.0f" run.l_p50_us;
              Printf.sprintf "%.0f" run.l_p99_us;
              Printf.sprintf "%.0f" run.l_p999_us;
              string_of_int run.l_dispatches;
              string_of_int run.l_steals;
              string_of_int run.l_rejects;
              string_of_int run.l_queue_hwm;
              String.sub run.l_digest 0 12;
            ])
          row.lr_runs)
      r.l_rows
  in
  let perf_note =
    if r.l_hi_domains = 1 then "skipped (single-domain run)"
    else if not r.l_cores_ok then
      Printf.sprintf
        "reported only; not enforced (host recommends %d domains, run needs \
         %d)"
        (Domain.recommended_domain_count ())
        (r.l_hi_domains + 1)
    else "enforced"
  in
  Printf.sprintf
    "%s\n%s\nreply digests identical across domain counts: %s\nmatrix16x16 \
     speedup at %d domains: %.2fx (floor %.1fx)\np999 ratio: %.2fx \
     (tolerance %.1fx)\nperf gate: %s\ngate: %s"
    r.l_title
    (Rmi_stats.Ascii_table.render ~headers rows)
    (if r.l_digest_ok then "yes" else "NO")
    r.l_hi_domains r.l_speedup r.l_speedup_floor r.l_tail_ratio r.l_tail_tol
    perf_note
    (if r.l_gate_ok then "PASS" else "FAIL")

(* BENCH_load.json: one object per (workload, variant, domains) run,
   wrapped with the gate verdicts — the artifact the CI load-smoke job
   checks in and validates *)
let load_json (r : load_report) =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"title\": %S,\n  \"servers\": %d,\n  \"calls\": %d,\n"
       r.l_title r.l_servers r.l_calls);
  Buffer.add_string b
    (Printf.sprintf
       "  \"digest_ok\": %b,\n  \"speedup\": %.3f,\n  \"speedup_floor\": \
        %.1f,\n  \"tail_ratio\": %.3f,\n  \"tail_tol\": %.1f,\n  \
        \"perf_enforced\": %b,\n  \"gate_ok\": %b,\n"
       r.l_digest_ok r.l_speedup r.l_speedup_floor r.l_tail_ratio r.l_tail_tol
       r.l_cores_ok r.l_gate_ok);
  Buffer.add_string b "  \"rows\": [\n";
  let first = ref true in
  List.iter
    (fun row ->
      List.iter
        (fun run ->
          if not !first then Buffer.add_string b ",\n";
          first := false;
          Buffer.add_string b
            (Printf.sprintf
               "    {\"workload\": %S, \"variant\": %S, \"domains\": %d, \
                \"throughput_rps\": %.1f, \"p50_us\": %.1f, \"p99_us\": \
                %.1f, \"p999_us\": %.1f, \"dispatches\": %d, \"steals\": %d, \
                \"rejects\": %d, \"queue_depth_hwm\": %d, \"digest\": %S}"
               row.lr_workload row.lr_variant run.l_domains run.l_throughput
               run.l_p50_us run.l_p99_us run.l_p999_us run.l_dispatches
               run.l_steals run.l_rejects run.l_queue_hwm run.l_digest))
        row.lr_runs)
    r.l_rows;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* transport_compare (PR 7): the Transport.S substitution gate          *)
(* ------------------------------------------------------------------ *)

type transport_run = {
  x_digest : string;
  x_checksum : float;
  x_msgs : int;
  x_bytes : int;
  x_modeled : float;
  x_wall : float;
}

type transport_row = {
  xr_workload : string;
  xr_variant : string;
  xr_sim : transport_run;
  xr_sock : transport_run;
}

type transport_report = {
  x_title : string;
  x_rows : transport_row list;
  x_digest_ok : bool;
  x_model_ok : bool;
}

(* one backend of one (workload, variant) pair: [calls] pipelined RMIs
   from machine 0 to machine 1 under the parallel fabric, replies
   awaited in issue order.  The digest is over the structurally
   rendered replies in that order, so it is deterministic whatever the
   kernel's TCP scheduling or the serve domain's interleaving did —
   the same trick the load gate uses across domain counts. *)
let run_transport_run ~backend ~config ~window ~calls (ww : wire_workload) =
  let metrics = Metrics.create () in
  let fabric =
    Fabric.create ~mode:Fabric.Parallel ~backend ~n:2
      ~meta:(Lazy.force wire_meta) ~config ~plans:(Hashtbl.create 4) ~metrics
      ()
  in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_wire ~has_ret:true
    ww.ww_handler;
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let arg = Lazy.force ww.ww_arg in
  let buf = Buffer.create 1024 in
  let checksum = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  Fabric.run fabric (fun _ ->
      let i = ref 0 in
      while !i < calls do
        let k = min window (calls - !i) in
        let futures =
          List.init k (fun _ ->
              Node.call_async caller ~dest ~meth:m_wire ~callsite:wire_site
                ~has_ret:true [| arg |])
        in
        List.iter
          (fun f ->
            let r = Node.Future.await f in
            (match r with
            | Some v -> tier_render buf v
            | None -> Buffer.add_string buf "none");
            Buffer.add_char buf '|';
            checksum := !checksum +. ww.ww_fold r)
          futures;
        i := !i + k
      done);
  let wall = Unix.gettimeofday () -. t0 in
  Fabric.shutdown_net fabric;
  let s = Metrics.snapshot metrics in
  {
    x_digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    x_checksum = !checksum;
    x_msgs = s.Metrics.msgs_sent;
    x_bytes = s.Metrics.bytes_sent;
    x_modeled = Costmodel.modeled_seconds model s;
    x_wall = wall;
  }

let transport_compare ?(calls = 64) ?(window = 8) ?(seed = 42) () =
  let base = Config.class_ in
  let variants =
    [
      ("sequential", base, 1);
      ("pipelined", base, window);
      ("pipelined+batch", Config.with_batching base, window);
    ]
  in
  let rows =
    List.concat_map
      (fun ww ->
        List.map
          (fun (vname, config, win) ->
            let sim =
              run_transport_run ~backend:Fabric.Sim ~config ~window:win ~calls
                ww
            in
            let sock =
              run_transport_run ~backend:Fabric.Sock ~config ~window:win
                ~calls ww
            in
            { xr_workload = ww.ww_name; xr_variant = vname; xr_sim = sim;
              xr_sock = sock })
          variants)
      wire_workloads
  in
  {
    x_title =
      Printf.sprintf
        "transport: sim vs sock loopback, %d calls, window %d, seed %d" calls
        window seed;
    x_rows = rows;
    x_digest_ok =
      List.for_all
        (fun r ->
          String.equal r.xr_sim.x_digest r.xr_sock.x_digest
          && Float.equal r.xr_sim.x_checksum r.xr_sock.x_checksum)
        rows;
    x_model_ok =
      List.for_all
        (fun r ->
          r.xr_sim.x_msgs = r.xr_sock.x_msgs
          && r.xr_sim.x_bytes = r.xr_sock.x_bytes
          && Float.equal r.xr_sim.x_modeled r.xr_sock.x_modeled)
        rows;
  }

let render_transport (r : transport_report) =
  let headers =
    [
      "workload"; "variant"; "msgs sim/sock"; "bytes sim/sock";
      "modeled s sim/sock"; "wall s sim"; "sock"; "replies";
    ]
  in
  let rows =
    List.map
      (fun row ->
        [
          row.xr_workload;
          row.xr_variant;
          Printf.sprintf "%d/%d" row.xr_sim.x_msgs row.xr_sock.x_msgs;
          Printf.sprintf "%d/%d" row.xr_sim.x_bytes row.xr_sock.x_bytes;
          Printf.sprintf "%.4f/%.4f" row.xr_sim.x_modeled row.xr_sock.x_modeled;
          Printf.sprintf "%.4f" row.xr_sim.x_wall;
          Printf.sprintf "%.4f" row.xr_sock.x_wall;
          (if String.equal row.xr_sim.x_digest row.xr_sock.x_digest then
             "identical"
           else "MISMATCH");
        ])
      r.x_rows
  in
  Printf.sprintf
    "%s\n%s\nissue-order reply digests byte-identical: %s\nwire counters and \
     modeled seconds identical: %s"
    r.x_title
    (Rmi_stats.Ascii_table.render ~headers rows)
    (if r.x_digest_ok then "yes" else "NO")
    (if r.x_model_ok then "yes" else "NO")

(* BENCH_transport.json: the modeled-vs-wall-clock report per backend,
   wrapped with the gate verdicts — the CI socket-smoke artifact *)
let transport_json (r : transport_report) =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"title\": %S,\n  \"digest_ok\": %b,\n  \"model_ok\": %b,\n"
       r.x_title r.x_digest_ok r.x_model_ok);
  Buffer.add_string b "  \"rows\": [\n";
  let first = ref true in
  List.iter
    (fun row ->
      List.iter
        (fun (backend, run) ->
          if not !first then Buffer.add_string b ",\n";
          first := false;
          Buffer.add_string b
            (Printf.sprintf
               "    {\"workload\": %S, \"variant\": %S, \"backend\": %S, \
                \"msgs\": %d, \"bytes\": %d, \"modeled_s\": %.6f, \
                \"wall_s\": %.6f, \"digest\": %S}"
               row.xr_workload row.xr_variant backend run.x_msgs run.x_bytes
               run.x_modeled run.x_wall run.x_digest))
        [ ("sim", row.xr_sim); ("sock", row.xr_sock) ])
    r.x_rows;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* multi-process mode: the same workloads over real OS processes        *)
(* ------------------------------------------------------------------ *)

type proc_run = {
  pr_workload : string;
  pr_calls : int;
  pr_digest : string;
  pr_checksum : float;
  pr_wall : float;
}

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
      let runs =
        List.mapi
          (fun k ww ->
            let arg = Lazy.force ww.ww_arg in
            let buf = Buffer.create 1024 in
            let checksum = ref 0.0 in
            let t0 = Unix.gettimeofday () in
            let i = ref 0 in
            while !i < calls do
              let burst = min window (calls - !i) in
              let futures =
                List.init burst (fun j ->
                    let machine = 1 + ((!i + j) mod (n - 1)) in
                    Node.call_async caller
                      ~dest:(Remote_ref.make ~machine ~obj:0)
                      ~meth:(m_wire + k) ~callsite:(wire_site + k)
                      ~has_ret:true [| arg |])
              in
              List.iter
                (fun f ->
                  let r = Node.Future.await f in
                  (match r with
                  | Some v -> tier_render buf v
                  | None -> Buffer.add_string buf "none");
                  Buffer.add_char buf '|';
                  checksum := !checksum +. ww.ww_fold r)
                futures;
              i := !i + burst
            done;
            {
              pr_workload = ww.ww_name;
              pr_calls = calls;
              pr_digest = Digest.to_hex (Digest.string (Buffer.contents buf));
              pr_checksum = !checksum;
              pr_wall = Unix.gettimeofday () -. t0;
            })
          wire_workloads
      in
      for dest = 1 to n - 1 do
        Node.send_shutdown caller ~dest
      done;
      Some runs
    end
  in
  Fabric.shutdown_net fabric;
  result

let render_proc (runs : proc_run list) =
  let headers = [ "workload"; "calls"; "wall s"; "checksum"; "digest" ] in
  let rows =
    List.map
      (fun r ->
        [
          r.pr_workload;
          string_of_int r.pr_calls;
          Printf.sprintf "%.4f" r.pr_wall;
          Printf.sprintf "%.1f" r.pr_checksum;
          r.pr_digest;
        ])
      runs
  in
  Rmi_stats.Ascii_table.render ~headers rows
