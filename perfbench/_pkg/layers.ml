(* The traced run: per-layer metrics.

   Each layer is measured from the benchmark's own files, around calls
   into the layer's public functions:

   - core: the model compiled through jfront and [App_common.compile]
     ([Optimizer]/[Pass_manager]), per pass;
   - serial, wire, net: probes that replay the workload's real
     arguments, replies and frames through [Codec], [Protocol] and
     [Envelope], and echo one request/reply frame pair over the bare
     transport;
   - runtime: the workload itself, once untraced and once with the
     runtime's [Trace] collector attached through [Node.set_trace];
     [Metrics] and GC deltas per call come from the untraced phase.

   One batch of every probe runs after each slice of the traced phase,
   so the replayed layers and the traced calls they are compared with
   are measured under the same conditions.  Spans around every probe
   batch and around each traced call's request and reply paths are
   written as Chrome trace events when a span directory is given. *)

open Pb_util
module W = Workloads
module Value = Rmi.Value
module Codec = Rmi.Internals.Codec
module Msgbuf = Rmi.Internals.Msgbuf
module Protocol = Rmi.Internals.Protocol
module Plan = Rmi.Internals.Plan
module Envelope = Rmi_net.Envelope
module Transport = Rmi_net.Transport
module Metrics = Rmi.Metrics
module Config = Rmi.Config

type budget = {
  seconds : float;  (* whole run, split over the phases below *)
  calls : int option;  (* smoke mode: fixed call counts instead *)
  compiles : int;
  warmup_s : float;
}

(* ------------------------------------------------------------------ *)
(* core                                                                *)
(* ------------------------------------------------------------------ *)

let core_layer (spec : W.spec) budget =
  Spans.span "core" @@ fun parent ->
  let compile_ms = ref [] and passes = Hashtbl.create 8 in
  for _ = 1 to budget.compiles do
    let prog = Jfront.Lower.compile spec.W.model in
    let t0 = now_ns () in
    let c = Rmi_apps.App_common.compile prog in
    let t1 = now_ns () in
    ignore
      (Spans.add ~parent "core.compile" ~t0_us:(float_of_int t0 /. 1e3)
         ~t1_us:(float_of_int t1 /. 1e3) ()
        : int);
    compile_ms := (float_of_int (t1 - t0) /. 1e6) :: !compile_ms;
    List.iter
      (fun (s : Rmi.Internals.Pass_manager.stat) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt passes s.pass_name) in
        Hashtbl.replace passes s.pass_name (s.pass_ms :: prev))
      c.Rmi_apps.App_common.opt.Rmi.Internals.Optimizer.passes
  done;
  let pass name =
    median_list (Option.value ~default:[] (Hashtbl.find_opt passes name))
  in
  [
    m "core.compile_ms" "ms" (median_list !compile_ms);
    m "core.ssa_ms" "ms" (pass "ssa");
    m "core.heap_ms" "ms" (pass "heap");
    m "core.codegen_ms" "ms" (pass "codegen");
  ]

(* ------------------------------------------------------------------ *)
(* probes: one layer operation replayed in timed batches               *)
(* ------------------------------------------------------------------ *)

let batch_ops = 32

type probe = {
  pname : string;
  op : unit -> unit;
  mutable per_op_ns : float list;  (* one sample per batch *)
  mutable words : float;  (* minor words of this domain, all batches *)
  mutable ops : int;
}

let probe pname op = { pname; op; per_op_ns = []; words = 0.0; ops = 0 }

let sample p =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  for _ = 1 to batch_ops do
    p.op ()
  done;
  let t1 = now_ns () in
  p.words <- p.words +. (Gc.minor_words () -. w0);
  p.ops <- p.ops + batch_ops;
  p.per_op_ns <- (float_of_int (t1 - t0) /. float_of_int batch_ops) :: p.per_op_ns;
  ignore
    (Spans.add p.pname ~t0_us:(float_of_int t0 /. 1e3)
       ~t1_us:(float_of_int t1 /. 1e3) ()
      : int)

(* batch means averaged over the batches, like the end-to-end latency
   windows *)
let ns p =
  List.fold_left ( +. ) 0.0 p.per_op_ns /. float_of_int (List.length p.per_op_ns)

let words p = p.words /. float_of_int (max 1 p.ops)

(* the compiled (un)marshaler of one plan position, with the node's
   cycle and reuse decisions; the unmarshal probe recycles its previous
   result as the reuse candidate, as the node's reuse cache does *)
let serial_probes ~name ~meta ~defs ~step ~cycle ~reuse values =
  let metrics = Metrics.create () in
  let wctx = Codec.make_wctx ~defs meta metrics ~cycle in
  let write = Codec.compile_write ~defs step in
  let w = Msgbuf.create_writer () in
  let encode v =
    Msgbuf.clear w;
    Codec.reset_wctx wctx;
    write wctx w v
  in
  let payloads =
    Array.map
      (fun v ->
        encode v;
        Msgbuf.contents w)
      values
  in
  let n = Array.length values in
  let km = ref 0 and ku = ref 0 in
  let next k = k := if !k + 1 >= n then 0 else !k + 1 in
  let marshal =
    probe (name ^ ".marshal") (fun () ->
        encode values.(!km);
        next km)
  in
  let rctx = Codec.make_rctx ~defs meta metrics ~cycle in
  let read = Codec.compile_read ~defs step in
  let r = Msgbuf.reader_of_bytes payloads.(0) in
  let cand = ref Value.Null in
  let unmarshal =
    probe (name ^ ".unmarshal") (fun () ->
        Msgbuf.reset_reader r payloads.(!ku);
        Codec.reset_rctx rctx;
        let v = read rctx r ~cand:!cand in
        if reuse then cand := v;
        next ku)
  in
  (marshal, unmarshal, payloads)

(* an ack-only site has no reply value: its reply side is the empty
   payload (a cleared writer, a re-aimed reader) *)
let empty_probes ~name =
  let w = Msgbuf.create_writer () in
  let r = Msgbuf.reader_of_bytes Bytes.empty in
  ( probe (name ^ ".marshal") (fun () -> Msgbuf.clear w),
    probe (name ^ ".unmarshal") (fun () -> Msgbuf.reset_reader r Bytes.empty),
    [| Bytes.empty |] )

(* an RPC message as the transport carries it: [Envelope.gap] bytes
   reserved, then the header and the payload; returns the writer and
   the message's offset *)
let frame_writer hdr payload =
  let w = Msgbuf.create_writer () in
  let off = Msgbuf.reserve w Envelope.gap + Envelope.gap in
  Protocol.write_header w hdr;
  Msgbuf.write_bytes w payload 0 (Bytes.length payload);
  (w, off)

type probes = {
  marshal : probe;
  unmarshal : probe;
  reply_marshal : probe;
  reply_unmarshal : probe;
  header : probe;
  envelope : probe;
  echo : probe;
  payload_bytes : float;  (* mean request payload over the inputs *)
  echo_net : Transport.t;  (* the bare transport the echo runs over *)
}

let all_probes p =
  [ p.marshal; p.unmarshal; p.reply_marshal; p.reply_unmarshal; p.header;
    p.envelope; p.echo ]

let make_probes (inst : W.inst) (inputs : W.inputs) =
  let spec = inst.W.spec and c = inst.W.compiled in
  let plan = Hashtbl.find c.Rmi_apps.App_common.plans inst.W.site in
  let cfg = spec.W.config in
  let site_mode = cfg.Config.serializer = Config.Site_specific in
  let cycle_of flag = if site_mode && cfg.Config.elide_cycle then flag else true in
  let reuse_of flag = site_mode && cfg.Config.reuse && flag in
  let meta = c.Rmi_apps.App_common.meta and defs = plan.Plan.defs in
  let n = min inputs.W.count 64 in
  let marshal, unmarshal, arg_payloads =
    serial_probes ~name:"serial.request" ~meta ~defs ~step:plan.Plan.args.(0)
      ~cycle:(cycle_of plan.Plan.cycle_args)
      ~reuse:(reuse_of plan.Plan.reuse_args.(0))
      (Array.init n (fun k -> inputs.W.args.(k).(0)))
  in
  let reply_marshal, reply_unmarshal, reply_payloads =
    match (plan.Plan.ret, inputs.W.reply 0) with
    | Some step, Some _ ->
        serial_probes ~name:"serial.reply" ~meta ~defs ~step
          ~cycle:(cycle_of plan.Plan.cycle_ret)
          ~reuse:(reuse_of plan.Plan.reuse_ret)
          (Array.init n (fun k -> Option.get (inputs.W.reply k)))
    | _ -> empty_probes ~name:"serial.reply"
  in
  let req_hdr =
    {
      Protocol.kind = Protocol.Request;
      src = 0;
      epoch = 0;
      seq = 4242;
      target_obj = 0;
      method_id = inst.W.meth;
      callsite = inst.W.site;
      nargs = 1;
      plan_ver = plan.Plan.version;
    }
  in
  let rep_hdr =
    {
      req_hdr with
      Protocol.kind = (if spec.W.has_ret then Protocol.Reply else Protocol.Ack);
      src = 1;
    }
  in
  let header =
    let w = Msgbuf.create_writer () in
    let r = Msgbuf.reader_of_bytes Bytes.empty in
    probe "wire.header" (fun () ->
        Msgbuf.clear w;
        Protocol.write_header w req_hdr;
        Msgbuf.reset_reader r ~len:(Msgbuf.length w) (Msgbuf.unsafe_storage w);
        ignore (Protocol.read_header r : Protocol.header))
  in
  let req_w, req_off = frame_writer req_hdr arg_payloads.(0) in
  let rep_w, rep_off = frame_writer rep_hdr reply_payloads.(0) in
  let envelope =
    let lseq = ref 0 in
    let env w off =
      incr lseq;
      let start =
        Envelope.encode_around w ~kind:Envelope.Data ~src:0 ~lseq:!lseq
          ~payload_off:off ()
      in
      match
        Envelope.decode_slice (Msgbuf.unsafe_storage w) ~off:start
          ~len:(Msgbuf.length w - start)
      with
      | Some _ -> ()
      | None -> failwith "envelope probe: frame did not decode"
    in
    probe "net.envelope" (fun () ->
        env req_w req_off;
        env rep_w rep_off)
  in
  (* the bare transport of the workload's backend, without ARQ or
     faults: the request frame out, the reply frame back *)
  let req_frame = Msgbuf.sub req_w ~off:req_off ~len:(Msgbuf.length req_w - req_off) in
  let rep_frame = Msgbuf.sub rep_w ~off:rep_off ~len:(Msgbuf.length rep_w - rep_off) in
  let echo_metrics = Metrics.create () in
  let echo_net =
    match spec.W.backend with
    | Rmi.Fabric.Sim ->
        Rmi_net.Sim.pack
          (Rmi_net.Cluster.create ~transport:Rmi_net.Cluster.Raw ~n:2 echo_metrics)
    | Rmi.Fabric.Sock -> Rmi_net.Sock.create_loopback ~n:2 echo_metrics
  in
  let echo =
    probe "net.frame_echo" (fun () ->
        Transport.send echo_net ~src:0 ~dest:1 req_frame;
        ignore (Transport.recv_blocking_slice echo_net ~self:1 : bytes * int * int);
        Transport.send echo_net ~src:1 ~dest:0 rep_frame;
        ignore (Transport.recv_blocking_slice echo_net ~self:0 : bytes * int * int))
  in
  let payload_bytes =
    float_of_int (Array.fold_left (fun acc p -> acc + Bytes.length p) 0 arg_payloads)
    /. float_of_int n
  in
  { marshal; unmarshal; reply_marshal; reply_unmarshal; header; envelope; echo;
    payload_bytes; echo_net }

(* the replayed blocking path of one call, us *)
let layer_sum_us p ~reliable =
  (ns p.marshal +. ns p.unmarshal +. ns p.reply_marshal +. ns p.reply_unmarshal
  +. (2.0 *. ns p.header)
  +. (if reliable then ns p.envelope else 0.0)
  +. ns p.echo)
  /. 1e3

(* ------------------------------------------------------------------ *)
(* runtime: the workload, untraced then traced                         *)
(* ------------------------------------------------------------------ *)

(* Pair the i-th [Call_start] of machine 0 with the i-th [Served] on
   machine 1 and the i-th [Call_end] back on machine 0.  Within a burst
   the calls queue behind each other, so the paths include that wait. *)
let trace_paths ~req_base ~spans_left entries req_path reply_path =
  let starts = Queue.create () and served = Queue.create () in
  let ends = Queue.create () in
  List.iter
    (fun (e : Rmi.Trace.entry) ->
      match e.event with
      | Rmi.Trace.Call_start { machine = 0; _ } -> Queue.push e.at_us starts
      | Rmi.Trace.Served { machine = 1; _ } -> Queue.push e.at_us served
      | Rmi.Trace.Call_end { machine = 0; _ } -> Queue.push e.at_us ends
      | _ -> ())
    entries;
  let n = min (Queue.length starts) (min (Queue.length served) (Queue.length ends)) in
  for i = 0 to n - 1 do
    let s = Queue.pop starts and v = Queue.pop served and e = Queue.pop ends in
    req_path := (v -. s) :: !req_path;
    reply_path := (e -. v) :: !reply_path;
    if !spans_left > 0 then begin
      decr spans_left;
      let req = req_base + i + 1 in
      let clock = Spans.Runtime_trace in
      let call = Spans.add ~req ~clock "call" ~t0_us:s ~t1_us:e () in
      ignore (Spans.add ~parent:call ~req ~clock "runtime.request_path" ~t0_us:s ~t1_us:v () : int);
      ignore (Spans.add ~parent:call ~req ~clock "runtime.reply_path" ~t0_us:v ~t1_us:e () : int)
    end
  done;
  n

type phases = {
  untraced : E2e.timed;
  traced : W.loop;
  slices : E2e.window list;  (* the traced phase's slices *)
  queue_depth_hwm : int;
  queue_rejects : int;
  req_path : float list;
  reply_path : float list;
}

let min_batches = 4

(* The untraced phase is the end-to-end timed loop.  The traced phase
   runs in slices so the trace stays small; after each slice one batch
   of every probe runs.  Only the time spent calling counts toward the
   traced rate. *)
let run_phases (inst : W.inst) inputs probes ~phase_s ~calls ~warmup_s =
  let u =
    E2e.timed_loop inst inputs
      { E2e.seconds = phase_s; calls; setups = 1; warmup_s }
  in
  let tr = Rmi.Trace.create () in
  Rmi.Node.set_trace inst.W.caller tr;
  Rmi.Node.set_trace (Rmi.Fabric.node inst.W.fabric 1) tr;
  let t = W.new_loop ~capacity:(u.E2e.loop.W.nlat + 1024) in
  t.W.next <- u.E2e.loop.W.next;
  let req_path = ref [] and reply_path = ref [] in
  let spans_left = ref 2000 and paired = ref 0 in
  let traced_ns = ref 0 and slices = ref [] in
  let slice_ns = 50_000_000 in
  let finished () =
    match calls with
    | Some n -> t.W.calls >= n
    | None -> !traced_ns >= int_of_float (phase_s *. 1e9)
  in
  while not (finished ()) do
    let c0 = t.W.calls - t.W.failed and lat0 = t.W.nlat in
    let s0 = now_ns () in
    W.run_bursts inst inputs t
      ~stop:(fun () -> finished () || now_ns () - s0 >= slice_ns);
    let wns = now_ns () - s0 in
    traced_ns := !traced_ns + wns;
    slices :=
      { E2e.wcalls = t.W.calls - t.W.failed - c0; wns; lat0; lat1 = t.W.nlat;
        speed = nan; steal = 0 }
      :: !slices;
    let entries = Rmi.Trace.entries tr in
    Rmi.Trace.clear tr;
    paired := !paired + trace_paths ~req_base:!paired ~spans_left entries req_path reply_path;
    List.iter sample (all_probes probes)
  done;
  List.iter
    (fun p ->
      while p.ops < min_batches * batch_ops do
        sample p
      done)
    (all_probes probes);
  let s2 = Metrics.snapshot inst.W.metrics in
  {
    untraced = u;
    traced = t;
    slices = List.rev !slices;
    queue_depth_hwm = s2.Metrics.queue_depth_hwm;
    queue_rejects = s2.Metrics.queue_rejects;
    req_path = !req_path;
    reply_path = !reply_path;
  }

(* ------------------------------------------------------------------ *)
(* the traced run                                                      *)
(* ------------------------------------------------------------------ *)

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  problems : string list;
  warnings : string list;  (* measurement inconsistencies, not failures *)
}

let run (spec : W.spec) ~seed budget =
  let inputs = spec.W.make_inputs ~seed in
  let core = core_layer spec budget in
  let inst, _ = W.setup_checked spec ~seed inputs in
  let probes, ph =
    Fun.protect
      ~finally:(fun () -> W.teardown inst)
      (fun () ->
        let probes = make_probes inst inputs in
        Fun.protect
          ~finally:(fun () -> Transport.shutdown probes.echo_net)
          (fun () ->
            ( probes,
              Spans.span "runtime" @@ fun _ ->
              run_phases inst inputs probes ~phase_s:(budget.seconds *. 0.45)
                ~calls:budget.calls ~warmup_s:budget.warmup_s )))
  in
  let u = ph.untraced.E2e.loop and t = ph.traced and dm = ph.untraced.E2e.dm in
  let calls = u.W.calls in
  let fcalls = float_of_int (max 1 calls) in
  let per_call x = float_of_int x /. fcalls in
  let untraced_cps = E2e.calls_per_s ~norm:false ph.untraced.E2e.windows in
  let traced_cps = E2e.calls_per_s ~norm:false ph.slices in
  let traced_p50, _, _ = E2e.latency_stats ~norm:false t ph.slices in
  let traced_p50_us = traced_p50 /. 1e3 in
  let sum_us =
    layer_sum_us probes ~reliable:(spec.W.config.Config.transport = Config.Reliable)
  in
  let residual_us = traced_p50_us -. sum_us in
  let metrics =
    core
    @ [
        m "serial.marshal_ns" "ns" (ns probes.marshal);
        m "serial.unmarshal_ns" "ns" (ns probes.unmarshal);
        m "serial.marshal_words" "words" (words probes.marshal);
        m "serial.unmarshal_words" "words" (words probes.unmarshal);
        m "serial.payload_bytes" "B" probes.payload_bytes;
        m "serial.reply_marshal_ns" "ns" (ns probes.reply_marshal);
        m "serial.reply_unmarshal_ns" "ns" (ns probes.reply_unmarshal);
        m "serial.allocs_per_call" "count" (per_call dm.Metrics.allocs);
        m "serial.reused_per_call" "count" (per_call dm.Metrics.reused_objs);
        m "serial.reuse_ratio" "ratio"
          (ratio dm.Metrics.reused_objs (dm.Metrics.reused_objs + dm.Metrics.allocs));
        m "serial.cycle_lookups_per_call" "count" (per_call dm.Metrics.cycle_lookups);
        m "serial.type_bytes_per_call" "B" (per_call dm.Metrics.type_bytes);
        m "serial.arena_fallback_ratio" "ratio"
          (ratio dm.Metrics.arena_fallbacks dm.Metrics.arena_allocs);
        m "wire.header_ns" "ns" (ns probes.header);
        m "wire.pool_hit_ratio" "ratio"
          (ratio dm.Metrics.pool_hits (dm.Metrics.pool_hits + dm.Metrics.pool_misses));
        m "wire.copied_bytes_per_call" "B" (per_call dm.Metrics.bytes_copied);
        m "net.envelope_ns" "ns" (ns probes.envelope);
        m "net.frame_echo_us" "us" (ns probes.echo /. 1e3);
        m "net.msgs_per_call" "count" (per_call dm.Metrics.msgs_sent);
        m "net.acks_per_call" "count" (per_call dm.Metrics.acks_sent);
        m "net.retries_per_call" "count" (per_call dm.Metrics.retries);
        m "net.dup_drops_per_call" "count" (per_call dm.Metrics.dup_drops);
        m "net.batch_ratio" "ratio"
          (ratio dm.Metrics.batched_msgs (dm.Metrics.batched_msgs + dm.Metrics.unbatched_msgs));
        m "runtime.request_path_us" "us" (median_list ph.req_path);
        m "runtime.reply_path_us" "us" (median_list ph.reply_path);
        m "runtime.residual_us" "us" residual_us;
        m "runtime.dispatches_per_call" "count" (per_call dm.Metrics.dispatches);
        m "runtime.queue_rejects" "count" (float_of_int ph.queue_rejects);
        m "runtime.queue_depth_hwm" "count" (float_of_int ph.queue_depth_hwm);
        m "runtime.major_words_per_call" "words"
          (ph.untraced.E2e.major_words /. fcalls);
        m "runtime.promoted_words_per_call" "words"
          (ph.untraced.E2e.promoted_words /. fcalls);
        m "trace.overhead_frac" "ratio"
          (1.0 -. (traced_cps /. untraced_cps));
      ]
  in
  let failed = u.W.failed + u.W.wrong + t.W.failed + t.W.wrong + Atomic.get inst.W.bad in
  let problems =
    List.concat
      [
        (match (u.W.first_error, t.W.first_error) with
        | Some e, _ | None, Some e ->
            [ Printf.sprintf "%d calls failed, first: %s" (u.W.failed + t.W.failed) e ]
        | None, None -> []);
        (if u.W.wrong + t.W.wrong > 0 then
           [ Printf.sprintf "%d replies failed the client check" (u.W.wrong + t.W.wrong) ]
         else []);
        W.delivery_problems inst;
      ]
  in
  let warnings =
    if residual_us < 0.0 then
      [
        Printf.sprintf
          "layer split broken: replayed layer sum %.2f us exceeds the traced \
           call_p50_us %.2f us"
          sum_us traced_p50_us;
      ]
    else []
  in
  { metrics; attempted = u.W.calls + t.W.calls; failed; problems; warnings }
