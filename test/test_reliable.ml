(* The reliable transport over the deterministic fault simulator.

   The paper's runtime assumes Myrinet/GM delivery; these tests prove
   the new ack/retransmit layer gives the same RPC semantics over lossy
   links, property-style over hundreds of random fault schedules, each
   replayable from its seed. *)

open Rmi_runtime
module Value = Rmi_serial.Value
module Metrics = Rmi_stats.Metrics
module Cluster = Rmi_net.Cluster
module Fault_sim = Rmi_net.Fault_sim

let meta = Rmi_serial.Class_meta.make [ ("Box", [ ("v", Jir.Types.Tint) ]) ]
let m_double = 1

let box v =
  let b = Value.new_obj ~cls:0 ~nfields:1 in
  b.fields.(0) <- Value.Int v;
  Value.Obj b

let unbox = function
  | Some (Value.Obj o) -> (
      match o.Value.fields.(0) with
      | Value.Int v -> v
      | _ -> Alcotest.fail "bad box field")
  | _ -> Alcotest.fail "no boxed reply"

(* a synchronous 2-machine pair over the simulated interconnect, with
   Reliable.wrap stacked on it when [reliable]; machine 1 exports
   "double the box and add one" and logs how many times each logical
   call id executed *)
let run_batch ~reliable ?sim ids =
  let metrics = Metrics.create () in
  let cluster = Cluster.create ~n:2 metrics in
  Option.iter (Cluster.set_faults cluster) sim;
  let net = Rmi_net.Sim.pack cluster in
  let net = if reliable then Rmi_net.Reliable.wrap net else net in
  let plans = Hashtbl.create 4 in
  let n0 = Node.create net ~id:0 ~meta ~config:Config.class_ ~plans in
  let n1 = Node.create net ~id:1 ~meta ~config:Config.class_ ~plans in
  Node.set_pump n0 (fun () -> Node.serve_pending n1);
  Node.set_pump n1 (fun () -> Node.serve_pending n0);
  let execs : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Node.export n1 ~obj:0 ~meth:m_double ~has_ret:true (fun args ->
      match args.(0) with
      | Value.Obj o -> (
          match o.Value.fields.(0) with
          | Value.Int v ->
              Hashtbl.replace execs v
                (1 + Option.value ~default:0 (Hashtbl.find_opt execs v));
              Some (box ((2 * v) + 1))
          | _ -> failwith "bad box")
      | _ -> failwith "bad arg");
  let results =
    List.map
      (fun id ->
        unbox
          (Node.call n0
             ~dest:(Remote_ref.make ~machine:1 ~obj:0)
             ~meth:m_double ~callsite:1 ~has_ret:true [| box id |]))
      ids
  in
  (results, execs, Metrics.snapshot metrics)

let ids = List.init 8 (fun i -> i + 1)
let expected = List.map (fun v -> (2 * v) + 1) ids

let check_seed seed =
  let sim = Fault_sim.create ~seed ~n:2 Fault_sim.default_lossy in
  let results, execs, _ = run_batch ~reliable:true ~sim ids in
  results = expected
  && List.for_all (fun id -> Hashtbl.find_opt execs id = Some 1) ids

(* the headline property: over 500 random fault schedules every batch
   completes with the lossless results and every remote body ran
   exactly once per logical call.  QCheck prints the failing seed. *)
let prop_fault_schedules =
  QCheck.Test.make
    ~name:"500 fault seeds: lossless results, at-most-once execution"
    ~count:500
    QCheck.(int_bound 1_000_000)
    check_seed

(* pin one seed forever so a regression in the recovery path fails
   deterministically, without waiting for the random sweep to find it *)
let fixed_seed_regression () =
  Alcotest.(check bool) "seed 1337 recovers" true (check_seed 1337)

let replay_is_deterministic () =
  let once () =
    let sim = Fault_sim.create ~seed:4242 ~n:2 Fault_sim.default_lossy in
    let results, _, snap = run_batch ~reliable:true ~sim ids in
    (results, Fault_sim.digest sim, snap)
  in
  let r1, d1, s1 = once () in
  let r2, d2, s2 = once () in
  Alcotest.(check (list int)) "same results" r1 r2;
  Alcotest.(check string) "byte-identical fault schedule" d1 d2;
  (* the latency histogram is wall-clock data: bucket placement may
     differ between identical replays, but the sample count (one per
     settled call) may not *)
  Alcotest.(check bool) "identical metrics snapshot" true
    (Metrics.strip_timing s1 = Metrics.strip_timing s2);
  Alcotest.(check int) "same latency sample count"
    (Metrics.lat_count s1.Metrics.lat_hist)
    (Metrics.lat_count s2.Metrics.lat_hist);
  Alcotest.(check bool) "schedule actually contains faults" true
    (String.length d1 > 0)

(* differential: reliable transport, empty fault schedule — the wire
   bytes per logical call and every pre-existing counter must match the
   raw transport exactly; the reliability machinery may only show up in
   its own counters *)
let lossless_reliable_matches_raw () =
  let raw_results, _, raw = run_batch ~reliable:false ids in
  let rel_results, _, rel = run_batch ~reliable:true ids in
  Alcotest.(check (list int)) "same results" raw_results rel_results;
  Alcotest.(check int) "same messages" raw.Metrics.msgs_sent rel.Metrics.msgs_sent;
  Alcotest.(check int) "same wire bytes" raw.Metrics.bytes_sent rel.Metrics.bytes_sent;
  (* the wire-path telemetry (bytes_copied, pool traffic) is also
     transport-specific: enveloping physically copies frames the raw
     path never makes *)
  Alcotest.(check bool) "all pre-existing counters identical" true
    (Metrics.strip_timing
       { rel with Metrics.retries = 0; timeouts = 0; dup_drops = 0;
                  acks_sent = 0;
                  bytes_copied = raw.Metrics.bytes_copied;
                  pool_hits = raw.Metrics.pool_hits;
                  pool_misses = raw.Metrics.pool_misses }
    = Metrics.strip_timing raw);
  Alcotest.(check int) "no spurious retransmits" 0 rel.Metrics.retries;
  Alcotest.(check int) "no spurious timeouts" 0 rel.Metrics.timeouts;
  Alcotest.(check int) "no spurious dup drops" 0 rel.Metrics.dup_drops;
  (* one ack per data frame: request + reply per call *)
  Alcotest.(check int) "one ack per data frame" rel.Metrics.msgs_sent
    rel.Metrics.acks_sent

let faulty_run_counts_recovery_work () =
  let sim = Fault_sim.create ~seed:7 ~n:2 Fault_sim.default_lossy in
  let results, _, snap = run_batch ~reliable:true ~sim ids in
  Alcotest.(check (list int)) "recovered results" expected results;
  Alcotest.(check bool) "recovery happened and was counted" true
    (snap.Metrics.retries > 0 || snap.Metrics.dup_drops > 0);
  (* logical accounting unchanged by loss: one request + one reply per
     call, payload bytes only *)
  Alcotest.(check int) "logical messages unaffected by loss"
    (2 * List.length ids) snap.Metrics.msgs_sent

(* the reliable transport must also work when machines are real OCaml
   domains: blocked receivers wait in slices and keep their retransmit
   timers alive instead of parking on a condition variable forever *)
let parallel_mode_over_reliable () =
  let metrics = Metrics.create () in
  let fabric =
    Fabric.create ~mode:Fabric.Parallel ~n:2 ~meta
      ~config:(Config.with_reliable Config.class_)
      ~plans:(Hashtbl.create 4) ~metrics ()
  in
  for i = 0 to 1 do
    Node.export (Fabric.node fabric i) ~obj:0 ~meth:m_double ~has_ret:true
      (fun args ->
        match args.(0) with
        | Value.Obj o -> (
            match o.Value.fields.(0) with
            | Value.Int v -> Some (box ((2 * v) + 1))
            | _ -> failwith "bad box")
        | _ -> failwith "bad arg")
  done;
  Fabric.run fabric (fun fabric ->
      let caller = Fabric.node fabric 0 in
      for v = 1 to 20 do
        Alcotest.(check int)
          (Printf.sprintf "call %d" v)
          ((2 * v) + 1)
          (unbox
             (Node.call caller
                ~dest:(Remote_ref.make ~machine:1 ~obj:0)
                ~meth:m_double ~callsite:1 ~has_ret:true [| box v |]))
      done)

(* --- Reliable.wrap's retransmit timers --------------------------- *)

module Reliable = Rmi_net.Reliable
module Rto = Reliable.Rto
module Transport = Rmi_net.Transport

let us n = n * 1_000

let rto_first_sample () =
  let e = Rto.sample Rto.initial ~rtt_ns:(us 600) in
  Alcotest.(check int) "srtt = r" (us 600) e.Rto.srtt;
  Alcotest.(check int) "rttvar = r/2" (us 300) e.Rto.rttvar;
  Alcotest.(check int) "rto = srtt + 4 rttvar" (us 1800) (e.Rto.srtt + (4 * e.Rto.rttvar));
  Alcotest.(check int) "rto clamped" (max Rto.floor_ns (us 1800)) e.Rto.rto

let rto_smoothing () =
  let e = Rto.sample (Rto.sample Rto.initial ~rtt_ns:(us 1000)) ~rtt_ns:(us 1400) in
  (* rttvar = 3/4 * 500 + 1/4 * |1000 - 1400|; srtt = 7/8 * 1000 + 1/8 * 1400 *)
  Alcotest.(check int) "rttvar" (us 475) e.Rto.rttvar;
  Alcotest.(check int) "srtt" (us 1050) e.Rto.srtt;
  Alcotest.(check int) "rto" (us 2950) e.Rto.rto;
  (* a steady round trip: srtt converges on it and the variance decays,
     leaving the RTO at the floor *)
  let rec steady e k =
    if k = 0 then e else steady (Rto.sample e ~rtt_ns:(us 300)) (k - 1)
  in
  let e = steady e 200 in
  Alcotest.(check bool) "srtt converged" true (abs (e.Rto.srtt - us 300) < us 1);
  Alcotest.(check bool) "variance decayed" true (e.Rto.rttvar < us 1);
  Alcotest.(check int) "rto at the floor" Rto.floor_ns e.Rto.rto

let rto_clamps () =
  Alcotest.(check int) "floor" Rto.floor_ns
    (Rto.sample Rto.initial ~rtt_ns:(us 10)).Rto.rto;
  Alcotest.(check int) "cap" Rto.cap_ns
    (Rto.sample Rto.initial ~rtt_ns:(us 50_000)).Rto.rto;
  Alcotest.(check bool) "initial inside the clamp" true
    (Rto.floor_ns <= Rto.initial.Rto.rto && Rto.initial.Rto.rto <= Rto.cap_ns)

let rto_backoff () =
  Alcotest.(check int) "doubles" (min Rto.cap_ns (2 * Rto.floor_ns))
    (Rto.backoff Rto.floor_ns);
  let rec back r k = if k = 0 then r else back (Rto.backoff r) (k - 1) in
  Alcotest.(check int) "capped" Rto.cap_ns (back Rto.floor_ns Rto.max_attempts);
  Alcotest.(check int) "cap is a fixed point" Rto.cap_ns (Rto.backoff Rto.cap_ns)

(* the adapter over the raw simulated interconnect: nothing moves unless
   the test receives or idles *)
let with_adapter f =
  let metrics = Metrics.create () in
  let r = Reliable.wrap_t (Rmi_net.Sim.create ~n:2 metrics) in
  f r (Reliable.pack r) metrics

let recv_now net ~self =
  Option.map Bytes.to_string (Transport.try_recv net ~self)

(* a receive that waits for a frame in flight on a socket; [None]
   after [seconds] *)
let recv_within ?(seconds = 1.0) net ~self =
  Option.map Bytes.to_string (Transport.recv_deadline net ~self ~seconds)

(* Karn's rule: the ack of a retransmitted frame gives no sample.  The
   monotonic timers belong to a wall-clock backend, so this runs over a
   loopback socket pair; receives wait on deadlines for frames in
   flight, and nothing resends unless the test idles. *)
let karn_rule () =
  let metrics = Metrics.create () in
  let r = Reliable.wrap_t (Rmi_net.Sock.create_loopback ~n:2 metrics) in
  let net = Reliable.pack r in
  Fun.protect ~finally:(fun () -> Transport.shutdown net) @@ fun () ->
  Transport.send net ~src:0 ~dest:1 (Bytes.of_string "a");
  Unix.sleepf (2.0 *. float_of_int Rto.initial_ns *. 1e-9);
  (match Transport.idle net ~self:0 with
  | Transport.Retransmitted 1 -> ()
  | _ -> Alcotest.fail "expected one retransmission");
  Alcotest.(check (option string)) "first copy" (Some "a") (recv_within net ~self:1);
  Alcotest.(check (option string)) "second copy dropped" None
    (recv_within ~seconds:0.2 net ~self:1);
  Alcotest.(check (option string)) "acks consumed" None
    (recv_within ~seconds:0.2 net ~self:0);
  Alcotest.(check int) "one dup drop" 1 (Metrics.snapshot metrics).Metrics.dup_drops;
  Alcotest.(check bool) "no sample from the resent frame" true
    (Reliable.rtt_estimate r ~src:0 ~dest:1 = Rto.initial);
  Transport.send net ~src:0 ~dest:1 (Bytes.of_string "b");
  Alcotest.(check (option string)) "second frame" (Some "b") (recv_within net ~self:1);
  ignore (recv_within ~seconds:0.2 net ~self:0 : string option);
  Alcotest.(check bool) "a frame sent once is sampled" true
    ((Reliable.rtt_estimate r ~src:0 ~dest:1).Rto.srtt > 0)

let dedup_bounded () =
  with_adapter @@ fun r net _ ->
  for i = 0 to 499 do
    Transport.send net ~src:0 ~dest:1 (Bytes.of_string (string_of_int i))
  done;
  for i = 0 to 499 do
    Alcotest.(check (option string))
      "in order" (Some (string_of_int i)) (recv_now net ~self:1)
  done;
  Alcotest.(check int) "nothing held above the low-water mark" 0
    (Reliable.dedup_held r ~self:1 ~src:0)

(* a lossless loopback mesh must not resend: with the timers on the
   monotonic clock, an ack that arrives in a normal round trip beats
   the timeout.  One trial is 400 pipelined calls on a fresh fabric;
   returns (retransmits, data frames). *)
let loopback_trial () =
  let metrics = Metrics.create () in
  let fabric =
    Fabric.create ~mode:Fabric.Parallel ~backend:Fabric.Sock ~n:2 ~meta
      ~config:(Config.with_domains 1 (Config.with_reliable Config.class_))
      ~plans:(Hashtbl.create 4) ~metrics ()
  in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_double ~has_ret:true
    (fun args -> Some (box ((2 * unbox (Some args.(0))) + 1)));
  Fabric.run fabric (fun fabric ->
      let caller = Fabric.node fabric 0 in
      let dest = Remote_ref.make ~machine:1 ~obj:0 in
      for burst = 0 to 49 do
        List.iter
          (fun (v, f) ->
            Alcotest.(check int) "reply" ((2 * v) + 1) (unbox (Node.Future.await f)))
          (List.init 8 (fun j ->
               let v = (burst * 8) + j in
               ( v,
                 Node.call_async caller ~dest ~meth:m_double ~callsite:1
                   ~has_ret:true [| box v |] )))
      done);
  Fabric.shutdown_net fabric;
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "data frames" 800 s.Metrics.msgs_sent;
  (s.Metrics.retries, s.Metrics.msgs_sent)

(* A virtual host can lose its CPU for tens of milliseconds; every
   timer that expires meanwhile resends frames whose acks are merely
   late, whatever the RTO.  So the bound must hold in one of three
   trials.  The idle-tick timer this replaced resent about one frame
   per call in every trial. *)
let loopback_no_spurious_retransmits () =
  let rec go k seen =
    let retries, frames = loopback_trial () in
    let seen = Printf.sprintf "%s %d/%d" seen retries frames in
    if retries * 100 <= frames then ()
    else if k > 1 then go (k - 1) seen
    else Alcotest.fail ("retransmits/data frames above 1% in every trial:" ^ seen)
  in
  go 3 ""

let suite =
  [
    ( "reliable.timers",
      [
        Alcotest.test_case "rto: first sample" `Quick rto_first_sample;
        Alcotest.test_case "rto: smoothing" `Quick rto_smoothing;
        Alcotest.test_case "rto: floor and cap" `Quick rto_clamps;
        Alcotest.test_case "rto: backoff cap" `Quick rto_backoff;
        Alcotest.test_case "karn: resent frames give no sample" `Quick karn_rule;
        Alcotest.test_case "dedup set bounded after in-order traffic" `Quick
          dedup_bounded;
        Alcotest.test_case "lossless loopback: no spurious retransmits" `Quick
          loopback_no_spurious_retransmits;
      ] );
    ( "reliable",
      [
        Fixtures.qcheck_case prop_fault_schedules;
        Alcotest.test_case "fixed-seed regression (1337)" `Quick
          fixed_seed_regression;
        Alcotest.test_case "same seed => identical schedule and metrics" `Quick
          replay_is_deterministic;
        Alcotest.test_case "lossless reliable == raw (bytes and counters)"
          `Quick lossless_reliable_matches_raw;
        Alcotest.test_case "faulty run counts retries/dups" `Quick
          faulty_run_counts_recovery_work;
        Alcotest.test_case "parallel mode (domains) over reliable" `Quick
          parallel_mode_over_reliable;
      ] );
  ]
