(* The Reliable envelope layer: the one ARQ in the repository, a
   stackable adapter over any {!Transport.t}.  Over the [Sim] backend
   ([Cluster], a raw simulated interconnect) it recovers the seeded
   fault simulator's drops, duplicates, reorders, corruptions and
   crash/restarts; over the [Sock] backend it recovers what TCP alone
   does not — frames lost with a severed connection, frames a chaos
   injector swallowed, and whole machine kill/restarts.  Per-link
   sequence numbers and checksums in an {!Envelope}, acks for every
   data frame, duplicate suppression (at-most-once up), retransmission
   with backoff, heartbeat-driven Alive/Suspect/Down, and epoch fencing
   of dead incarnations.

   Two retransmit timer policies, picked by the lower transport
   ({!Transport.S.idle_clock}):
   - [Ticks] (Sim): timers count {!idle} calls.  In the synchronous
     fabric those calls are deterministic, so a lossy run, its
     retransmits included, replays byte for byte from the fault seed.
     The first RTO is 2 ticks, doubling to 32; a frame is abandoned
     after 12 transmissions.
   - [Monotonic] (Sock): per-link RFC 6298 timers on the monotonic
     clock ({!Rto}).  A real round trip is a wall-time quantity, and a
     timer counted in idle calls fires as often as the caller happens
     to poll, so a busy waiter would resend frames whose acks are only
     a few hundred microseconds away.
   The failure detector runs on the shared idle tick under both.

   All control traffic (envelopes carrying retransmits, acks,
   heartbeats) leaves through the lower transport's [send_raw], so the
   logical counters ([msgs_sent]/[bytes_sent]) are charged once, here,
   with the payload — byte-identical accounting to the raw
   transport. *)

module Msgbuf = Rmi_wire.Msgbuf
module Protocol = Rmi_wire.Protocol
module Metrics = Rmi_stats.Metrics

(* ------------------------------------------------------------------ *)
(* retransmit timing: every timer constant, and the RTO estimator      *)
(* ------------------------------------------------------------------ *)

module Rto = struct
  (* Nanoseconds.  Loopback round trips take 0.1-0.5 ms, but on a
     small shared host a thread can wait a millisecond for a core, and
     a timer shorter than that wait resends a whole window of frames
     whose acks are merely late: the 1 ms floor keeps such spurious
     resends rare.  Before a link's first sample its frames wait 4 ms
     (the first calls of a fresh fabric are slow).  Backoff doubles per
     resend up to a 4 ms cap: the cap bounds how long recovery from a
     loss can stall, and under the chaos injector, whose frame clock
     advances only as frames are sent, how long a stall or an outage
     lasts.  A frame is abandoned after 12 transmissions, but not before
     500 ms have passed since the first: twelve capped timeouts span
     only ~45 ms, shorter than it takes a killed peer process to
     restart and redial, and the RPC layer's few resends would all be
     spent inside one outage. *)
  let floor_ns = 1_000_000
  let initial_ns = 4_000_000
  let cap_ns = 4_000_000
  let max_attempts = 12
  let give_up_ns = 500_000_000

  (* [srtt = 0]: no sample yet *)
  type t = { srtt : int; rttvar : int; rto : int }

  let initial = { srtt = 0; rttvar = 0; rto = initial_ns }
  let clamp ns = max floor_ns (min cap_ns ns)

  (* RFC 6298 section 2, with alpha = 1/8, beta = 1/4, K = 4 *)
  let sample e ~rtt_ns =
    let r = max 1 rtt_ns in
    if e.srtt = 0 then
      let rttvar = r / 2 in
      { srtt = r; rttvar; rto = clamp (r + (4 * rttvar)) }
    else
      let rttvar = ((3 * e.rttvar) + abs (e.srtt - r)) / 4 in
      let srtt = ((7 * e.srtt) + r) / 8 in
      { srtt; rttvar; rto = clamp (srtt + (4 * rttvar)) }

  let backoff rto_ns = min cap_ns (2 * rto_ns)
end

(* the retransmit timeout over an idle-clock backend, in idle ticks *)
module Ticks = struct
  let initial = 2
  let cap = 32
  let max_attempts = 12
  let backoff rto = min cap (2 * rto)
end

type timers = Ticks | Monotonic

(* what [self] believes about [peer]: when it last heard anything, how
   it is classified, and the highest incarnation seen (the fence) *)
type det_cell = {
  mutable last_heard : int;
  mutable last_ping : int;
  mutable health : Transport.peer_health;
  mutable known_epoch : int;
}

(* a sent-but-unacknowledged data frame; times in the timer policy's
   unit (idle ticks or monotonic ns) *)
type pending = {
  frame : bytes;
  epoch : int;  (* the sender's incarnation stamped on [frame] *)
  sent : int;  (* first transmission *)
  mutable attempts : int;
  mutable rto : int;
  mutable due : int;
}

type link_tx = {
  mutable next_lseq : int;
  unacked : (int, pending) Hashtbl.t;
  mutable est : Rto.t;
}

(* dedup memory: every lseq below [floor] was delivered, and [above]
   holds the delivered lseqs past it, so in-order traffic keeps the
   table empty.  A gap (a frame the sender abandoned, or a receiver
   wiped mid-stream while the sender's numbering runs on) pins the
   floor, and the lseqs past it are kept. *)
type link_rx = { mutable floor : int; above : (int, unit) Hashtbl.t }

let rx_reset r =
  r.floor <- 0;
  Hashtbl.reset r.above

(* [true] if [lseq] is new: record it and advance the floor over the
   contiguous run *)
let rx_admit r lseq =
  if lseq < r.floor || Hashtbl.mem r.above lseq then false
  else begin
    Hashtbl.replace r.above lseq ();
    while Hashtbl.mem r.above r.floor do
      Hashtbl.remove r.above r.floor;
      r.floor <- r.floor + 1
    done;
    true
  end

module M = struct
  type t = {
    lower : Transport.t;
    n : int;
    timers : timers;
    tx : link_tx array array;   (* tx.(src).(dest) *)
    rx : link_rx array array;   (* rx.(self).(src) *)
    det : det_cell array array; (* det.(self).(peer) *)
    mutable hb : Transport.hb_params;
    mutable tick : int;
    lock : Mutex.t;
    (* messages unpacked from an already-received batch envelope,
       served ahead of the lower transport *)
    inbox : (bytes * int * int) Queue.t array;
    imutex : Mutex.t array;
    mutable batcher : Batcher.t option;
    mutable peer_hooks :
      (self:int -> peer:int -> Transport.peer_event -> unit) list;
  }

  let name = "reliable"
  let size t = t.n
  let metrics t = Transport.metrics t.lower
  let idle_clock t = Transport.idle_clock t.lower
  let pool t = Transport.pool t.lower
  let is_reliable _ = true
  let is_hosted t m = Transport.is_hosted t.lower m
  let charge t n = Metrics.add_bytes_copied (metrics t) n

  let check t who =
    if who < 0 || who >= t.n then
      invalid_arg (Printf.sprintf "Reliable: bad machine id %d" who)

  let fire_peer t ~self ~peer ev =
    List.iter (fun f -> f ~self ~peer ev) t.peer_hooks

  let self_epoch t m = Transport.self_epoch t.lower m

  (* ---------------------------------------------------------------- *)
  (* send path: envelope, register for retransmission, ship raw        *)
  (* ---------------------------------------------------------------- *)

  let control_frame t ~kind ~src ~lseq =
    Msgbuf.Pool.with_writer (pool t) (fun w ->
        let start =
          Envelope.encode_into w ~kind ~src ~epoch:(self_epoch t src) ~lseq
            ~payload:Bytes.empty ()
        in
        Msgbuf.sub w ~off:start ~len:(Msgbuf.length w - start))

  (* the current time in the timer policy's unit; with [t.lock] held *)
  let now t =
    match t.timers with Ticks -> t.tick | Monotonic -> Clock.now_ns ()

  (* with [t.lock] held *)
  let register_unacked t ~lseq ~ltx ~epoch envelope =
    let now = now t in
    let rto =
      match t.timers with Ticks -> Ticks.initial | Monotonic -> ltx.est.Rto.rto
    in
    Hashtbl.replace ltx.unacked lseq
      { frame = envelope; epoch; sent = now; attempts = 1; rto; due = now + rto }

  (* envelope a payload already materialized as bytes: one blit into a
     pooled writer plus the single frame snapshot shared by the lower
     transport and the retransmit buffer *)
  let send_frame_zc t ~src ~dest frame =
    let envelope =
      Msgbuf.Pool.with_writer (pool t) (fun w ->
          Mutex.lock t.lock;
          let ltx = t.tx.(src).(dest) in
          let lseq = ltx.next_lseq in
          ltx.next_lseq <- lseq + 1;
          let epoch = self_epoch t src in
          let start =
            Envelope.encode_into w ~kind:Data ~src ~epoch ~lseq ~payload:frame
              ()
          in
          let envelope =
            Msgbuf.sub w ~off:start ~len:(Msgbuf.length w - start)
          in
          charge t (Bytes.length frame + Bytes.length envelope);
          register_unacked t ~lseq ~ltx ~epoch envelope;
          Mutex.unlock t.lock;
          envelope)
    in
    Transport.send_raw t.lower ~src ~dest envelope

  (* the zero-copy fast path: the payload sits in [w] after a reserved
     {!Envelope.gap}; the envelope header is back-filled in place and
     the frame snapshotted exactly once (the copy the lower transport
     and the retransmit buffer share) *)
  let send_frame_writer t ~src ~dest w ~payload_off =
    Mutex.lock t.lock;
    let ltx = t.tx.(src).(dest) in
    let lseq = ltx.next_lseq in
    ltx.next_lseq <- lseq + 1;
    let epoch = self_epoch t src in
    let start =
      Envelope.encode_around w ~kind:Data ~src ~epoch ~lseq ~payload_off ()
    in
    let envelope = Msgbuf.sub w ~off:start ~len:(Msgbuf.length w - start) in
    charge t (Bytes.length envelope);
    register_unacked t ~lseq ~ltx ~epoch envelope;
    Mutex.unlock t.lock;
    Transport.send_raw t.lower ~src ~dest envelope

  (* logical-traffic accounting: payload bytes, counted once *)
  let account_send t len =
    Metrics.incr_msgs_sent (metrics t);
    Metrics.add_bytes_sent (metrics t) len;
    Metrics.incr_unbatched (metrics t)

  let send t ~src ~dest msg =
    check t src;
    check t dest;
    account_send t (Bytes.length msg);
    send_frame_zc t ~src ~dest msg

  (* control traffic of a layer stacked above this one (none exists
     today); ships enveloped all the same so reliability is preserved *)
  let send_raw t ~src ~dest frame =
    check t src;
    check t dest;
    send_frame_zc t ~src ~dest frame

  let send_writer t ~src ~dest w ~payload_off =
    check t src;
    check t dest;
    account_send t (Msgbuf.length w - payload_off);
    send_frame_writer t ~src ~dest w ~payload_off

  (* ---------------------------------------------------------------- *)
  (* batching: one flushed group = one envelope = one seq/ack unit     *)
  (* ---------------------------------------------------------------- *)

  let enable_batching ?(max_bytes = Cluster.default_batch_bytes) t =
    if max_bytes < 1 then invalid_arg "Reliable.enable_batching: max_bytes < 1";
    t.batcher <- Some (Batcher.create ~max_bytes)

  let batching_enabled t = t.batcher <> None

  let flush_group t ~src ~dest msgs bytes =
    let k = List.length msgs in
    Metrics.incr_msgs_sent (metrics t);
    Metrics.add_bytes_sent (metrics t) bytes;
    Metrics.record_batch (metrics t) ~msgs:k;
    (match msgs with
    | [ m ] -> send_frame_zc t ~src ~dest m
    | _ ->
        Msgbuf.Pool.with_writer (pool t) (fun w ->
            ignore (Msgbuf.reserve w Envelope.gap : int);
            Protocol.encode_batch_into w msgs;
            charge t bytes;
            send_frame_writer t ~src ~dest w ~payload_off:Envelope.gap));
    (dest, k, bytes)

  let flush t ~src =
    check t src;
    match t.batcher with
    | None -> []
    | Some b ->
        List.map
          (fun (dest, msgs, bytes) -> flush_group t ~src ~dest msgs bytes)
          (Batcher.take b ~src)

  let disable_batching t =
    (match t.batcher with
    | None -> ()
    | Some _ ->
        for src = 0 to t.n - 1 do
          ignore (flush t ~src)
        done);
    t.batcher <- None

  let send_buffered t ~src ~dest msg =
    check t src;
    check t dest;
    match t.batcher with
    | None ->
        send t ~src ~dest msg;
        []
    | Some b -> (
        match Batcher.add b ~src ~dest msg with
        | None -> []
        | Some (msgs, bytes) -> [ flush_group t ~src ~dest msgs bytes ])

  (* ---------------------------------------------------------------- *)
  (* receive path: unwrap, fence, ack, dedup, split batches            *)
  (* ---------------------------------------------------------------- *)

  let pop_inbox t ~self =
    Mutex.lock t.imutex.(self);
    let m =
      if Queue.is_empty t.inbox.(self) then None
      else Some (Queue.pop t.inbox.(self))
    in
    Mutex.unlock t.imutex.(self);
    m

  (* a decoded payload slice: either a single message, handed straight
     up, or a batch whose first message returns and whose rest queue
     ahead of the lower transport — slices sharing the frame bytes *)
  let unpack t ~self ((buf, off, len) as slice) =
    if not (Protocol.is_batch_at buf ~off ~len) then Some slice
    else
      match Protocol.decode_batch_slice buf ~off ~len with
      | None | Some [] -> None  (* garbled batch: drop whole *)
      | Some ((o, l) :: rest) ->
          if rest <> [] then begin
            Mutex.lock t.imutex.(self);
            List.iter (fun (o, l) -> Queue.push (buf, o, l) t.inbox.(self)) rest;
            Mutex.unlock t.imutex.(self)
          end;
          Some (buf, o, l)

  (* [Some payload_slice] to hand up, [None] when the frame was
     consumed here (ack, heartbeat, duplicate, stale epoch, or
     checksum failure — the sender's timer recovers the latter) *)
  let filter_frame t ~self (buf, off, len) =
    match Envelope.decode_slice buf ~off ~len with
    | None -> None
    | Some ({ Envelope.src; _ }, _) when src < 0 || src >= t.n ->
        (* checksum-valid but naming no machine of this cluster: no
           link state to charge it to and no one to ack *)
        Metrics.incr_bad_src_drops (metrics t);
        None
    | Some ({ Envelope.kind; src; epoch; lseq }, (poff, plen)) ->
        Mutex.lock t.lock;
        let d = t.det.(self).(src) in
        (* fence: a frame from an incarnation older than the best one
           we have seen is a ghost of a dead process *)
        let stale = epoch < d.known_epoch in
        let recovered = ref false in
        if not stale then begin
          if epoch > d.known_epoch then begin
            d.known_epoch <- epoch;
            (* the new incarnation restarts its lseq space at 0, so the
               old dedup memory would wrongly swallow its fresh frames *)
            rx_reset t.rx.(self).(src)
          end;
          d.last_heard <- t.tick;
          if d.health <> Transport.Alive then begin
            d.health <- Transport.Alive;
            recovered := true
          end
        end;
        Mutex.unlock t.lock;
        if !recovered then fire_peer t ~self ~peer:src Transport.Peer_recovered;
        if stale then begin
          Metrics.incr_stale_drops (metrics t);
          None
        end
        else
          match kind with
          | Envelope.Hb ->
              if lseq = Envelope.hb_ping then begin
                Metrics.incr_heartbeats_sent (metrics t);
                Transport.send_raw t.lower ~src:self ~dest:src
                  (control_frame t ~kind:Envelope.Hb ~src:self
                     ~lseq:Envelope.hb_pong)
              end;
              None
          | Envelope.Ack ->
              Mutex.lock t.lock;
              let ltx = t.tx.(self).(src) in
              (match Hashtbl.find_opt ltx.unacked lseq with
              | Some p ->
                  Hashtbl.remove ltx.unacked lseq;
                  (* Karn's rule: the ack of a resent frame may answer
                     any of its copies, so it measures nothing *)
                  if t.timers = Monotonic && p.attempts = 1 then
                    ltx.est <- Rto.sample ltx.est ~rtt_ns:(now t - p.sent)
              | None -> ());
              Mutex.unlock t.lock;
              None
          | Envelope.Data ->
              (* always ack, even duplicates: the earlier ack may have
                 been lost *)
              Metrics.incr_acks_sent (metrics t);
              Transport.send_raw t.lower ~src:self ~dest:src
                (control_frame t ~kind:Envelope.Ack ~src:self ~lseq);
              Mutex.lock t.lock;
              let dup = not (rx_admit t.rx.(self).(src) lseq) in
              Mutex.unlock t.lock;
              if dup then begin
                Metrics.incr_dup_drops (metrics t);
                None
              end
              else Some (buf, poff, plen)

  let admit t ~self slice =
    match filter_frame t ~self slice with
    | Some payload_slice -> unpack t ~self payload_slice
    | None -> None

  let try_recv_slice t ~self =
    check t self;
    match pop_inbox t ~self with
    | Some m -> Some m
    | None ->
        let rec go () =
          match Transport.try_recv_slice t.lower ~self with
          | None -> None
          | Some slice -> (
              match admit t ~self slice with Some m -> Some m | None -> go ())
        in
        go ()

  let recv_deadline_slice t ~self ~seconds =
    check t self;
    (* one non-blocking pass first, so a zero or negative deadline
       still drains anything already deliverable *)
    match try_recv_slice t ~self with
    | Some m -> Some m
    | None ->
        let deadline = Clock.now () +. seconds in
        let rec go () =
          let remain = deadline -. Clock.now () in
          if remain <= 0.0 then None
          else
            match Transport.recv_deadline_slice t.lower ~self ~seconds:remain with
            | None -> None
            | Some slice -> (
                match admit t ~self slice with Some m -> Some m | None -> go ())
        in
        go ()

  let buffered_anywhere t =
    match t.batcher with None -> false | Some b -> Batcher.any b

  let pending_anywhere t =
    Transport.pending_anywhere t.lower
    || Array.exists (fun q -> not (Queue.is_empty q)) t.inbox
    || buffered_anywhere t

  (* ---------------------------------------------------------------- *)
  (* the retransmit timers and the failure-detector tick               *)
  (* ---------------------------------------------------------------- *)

  (* sweep the detector on the shared tick, covering every observer:
     in Sync mode one machine drives everyone's timers; with [t.lock]
     held *)
  let detector_sweep t =
    let pings = ref [] in
    let events = ref [] in
    (* a crashed machine's timers freeze; a machine another process
       hosts is that process's concern — acting for it here would try
       to ship frames over links this process does not have *)
    let skip m =
      (not (Transport.is_hosted t.lower m))
      ||
      match Transport.faults t.lower with
      | None -> false
      | Some sim -> Fault_sim.is_down sim m
    in
    Array.iteri
      (fun observer row ->
        if not (skip observer) then
          Array.iteri
            (fun peer d ->
              if observer <> peer then begin
                let quiet = t.tick - d.last_heard in
                if quiet >= t.hb.down_after && d.health = Transport.Suspect
                then begin
                  d.health <- Transport.Down;
                  events :=
                    (observer, peer, Transport.Peer_confirmed_down) :: !events
                end
                else if quiet >= t.hb.suspect_after && d.health = Transport.Alive
                then begin
                  d.health <- Transport.Suspect;
                  events := (observer, peer, Transport.Peer_suspected) :: !events
                end;
                if
                  quiet >= t.hb.ping_every
                  && t.tick - d.last_ping >= t.hb.ping_every
                then begin
                  d.last_ping <- t.tick;
                  pings := (observer, peer) :: !pings
                end
              end)
            row)
      t.det;
    (List.rev !pings, List.rev !events)

  (* whether [p], due again, is given up instead of resent; [epoch] is
     its sender's current incarnation *)
  let abandon t p ~now ~epoch =
    match t.timers with
    | Ticks -> p.attempts >= Ticks.max_attempts
    | Monotonic ->
        (p.attempts >= Rto.max_attempts && now - p.sent >= Rto.give_up_ns)
        (* stamped by an incarnation of [src] that has since died:
           every peer fences it, so no ack will come *)
        || p.epoch < epoch

  let backoff t rto =
    match t.timers with Ticks -> Ticks.backoff rto | Monotonic -> Rto.backoff rto

  (* under tick timers, frames the simulator's fault schedule holds
     back for reordering are still in flight: the next transmission
     releases them *)
  let nothing_held t =
    match (t.timers, Transport.faults t.lower) with
    | Ticks, Some sim -> Fault_sim.held_frames sim = 0
    | _ -> true

  let idle t ~self =
    check t self;
    (* the lower transport first: a chaos injector drains its due
       connection actions and crash transitions there *)
    ignore (Transport.idle t.lower ~self : Transport.idle_outcome);
    Mutex.lock t.lock;
    t.tick <- t.tick + 1;
    let now = now t in
    let resend = ref [] in
    let gave_up = ref [] in
    let unacked = ref 0 in
    Array.iteri
      (fun src row ->
        let epoch = self_epoch t src in
        Array.iteri
          (fun dest ltx ->
            let expired = ref [] in
            Hashtbl.iter
              (fun lseq p ->
                if p.due > now then incr unacked
                else if abandon t p ~now ~epoch then expired := lseq :: !expired
                else begin
                  p.attempts <- p.attempts + 1;
                  p.rto <- backoff t p.rto;
                  p.due <- now + p.rto;
                  incr unacked;
                  resend := (src, dest, p.frame) :: !resend
                end)
              ltx.unacked;
            List.iter
              (fun lseq ->
                Hashtbl.remove ltx.unacked lseq;
                Metrics.incr_timeouts (metrics t);
                gave_up := dest :: !gave_up)
              !expired)
          row)
      t.tx;
    let pings, events = detector_sweep t in
    Mutex.unlock t.lock;
    List.iter
      (fun (src, dest, frame) ->
        Metrics.incr_retries (metrics t);
        Transport.send_raw t.lower ~src ~dest frame)
      (List.rev !resend);
    List.iter
      (fun (observer, peer) ->
        Metrics.incr_heartbeats_sent (metrics t);
        Transport.send_raw t.lower ~src:observer ~dest:peer
          (control_frame t ~kind:Envelope.Hb ~src:observer
             ~lseq:Envelope.hb_ping))
      pings;
    List.iter
      (fun (observer, peer, ev) ->
        (match ev with
        | Transport.Peer_suspected -> Metrics.incr_suspects (metrics t)
        | Transport.Peer_confirmed_down -> Metrics.incr_peer_downs (metrics t)
        | Transport.Peer_recovered -> ());
        fire_peer t ~self:observer ~peer ev)
      events;
    if !gave_up <> [] then Transport.Gave_up (List.sort_uniq compare !gave_up)
    else if !resend <> [] then Transport.Retransmitted (List.length !resend)
    else if !unacked = 0 && nothing_held t && not (pending_anywhere t) then
      Transport.Dead
    else Transport.Waiting

  let inbox_queued t m =
    Mutex.lock t.imutex.(m);
    let any = not (Queue.is_empty t.inbox.(m)) in
    Mutex.unlock t.imutex.(m);
    any

  (* the earliest retransmit deadline on links out of [selves]
     (monotonic ns) *)
  let next_due_ns t selves =
    Mutex.lock t.lock;
    let due =
      List.fold_left
        (fun acc src ->
          Array.fold_left
            (fun acc ltx ->
              Hashtbl.fold (fun _ p acc -> min acc p.due) ltx.unacked acc)
            acc t.tx.(src))
        max_int selves
    in
    Mutex.unlock t.lock;
    due

  (* sleep in the lower transport until an arrival, or until the next
     of our timers falls due and [idle] has a frame to resend.  Frames
     already queued win over a due timer: one of them may be the ack
     that cancels it.  Tick timers have no wall-time deadline; an
     idle-clock backend's own wait is short enough to keep them
     ticking. *)
  let wait t ~selves ~seconds =
    List.iter (check t) selves;
    List.exists (inbox_queued t) selves
    ||
    match t.timers with
    | Ticks -> Transport.wait t.lower ~selves ~seconds
    | Monotonic ->
        let until_due =
          float_of_int (next_due_ns t selves - Clock.now_ns ()) *. 1e-9
        in
        Transport.wait t.lower ~selves
          ~seconds:(Float.max 0.0 (Float.min seconds until_due))

  let recv_blocking_slice t ~self =
    check t self;
    match pop_inbox t ~self with
    | Some m -> m
    | None ->
        (* chop the wait into slices so a blocked machine keeps driving
           its own retransmit timers (a server whose reply was dropped
           must resend it even though it is only receiving) *)
        let rec go () =
          match recv_deadline_slice t ~self ~seconds:0.002 with
          | Some payload -> payload
          | None ->
              ignore (idle t ~self : Transport.idle_outcome);
              go ()
        in
        go ()

  (* ---------------------------------------------------------------- *)
  (* everything else: the adapter's own state or pure delegation       *)
  (* ---------------------------------------------------------------- *)

  let peer_health t ~self ~peer =
    check t self;
    check t peer;
    t.det.(self).(peer).health

  let set_detector t hb = t.hb <- hb
  let on_peer_event t f = t.peer_hooks <- t.peer_hooks @ [ f ]
  let on_process_event t f = Transport.on_process_event t.lower f
  let set_faults t fs = Transport.set_faults t.lower fs
  let clear_faults t = Transport.clear_faults t.lower
  let faults t = Transport.faults t.lower
  let set_fault_hook t hook = Transport.set_fault_hook t.lower hook
  let clear_fault_hook t = Transport.clear_fault_hook t.lower
  let shutdown t = Transport.shutdown t.lower

  (* bytes-returning receive wrappers: the shared Transport defaults *)
  include Transport.Recv_defaults (struct
    type nonrec t = t

    let metrics = metrics
    let try_recv_slice = try_recv_slice
    let recv_blocking_slice = recv_blocking_slice
    let recv_deadline_slice = recv_deadline_slice
  end)
end

include M

(* a machine just crashed: everything it held in flight dies with it —
   unpacked-batch inbox, unflushed batch buffers, link send state and
   dedup memory.  Peers' state about it survives (their retransmit
   timers are the recovery path). *)
let wipe_machine (t : M.t) m =
  Mutex.lock t.M.imutex.(m);
  Queue.clear t.M.inbox.(m);
  Mutex.unlock t.M.imutex.(m);
  Option.iter (fun b -> Batcher.drop_source b ~src:m) t.M.batcher;
  Mutex.lock t.M.lock;
  Array.iter
    (fun ltx ->
      ltx.next_lseq <- 0;
      Hashtbl.reset ltx.unacked;
      ltx.est <- Rto.initial)
    t.M.tx.(m);
  Array.iter rx_reset t.M.rx.(m);
  Array.iter
    (fun d ->
      d.last_heard <- t.M.tick;
      d.last_ping <- t.M.tick;
      d.health <- Transport.Alive)
    t.M.det.(m);
  Mutex.unlock t.M.lock

let wrap_t lower =
  let n = Transport.size lower in
  let t =
    {
      M.lower;
      n;
      timers = (if Transport.idle_clock lower then Ticks else Monotonic);
      tx =
        Array.init n (fun _ ->
            Array.init n (fun _ ->
                {
                  next_lseq = 0;
                  unacked = Hashtbl.create 8;
                  est = Rto.initial;
                }));
      rx =
        Array.init n (fun _ ->
            Array.init n (fun _ -> { floor = 0; above = Hashtbl.create 8 }));
      det =
        Array.init n (fun _ ->
            Array.init n (fun _ ->
                {
                  last_heard = 0;
                  last_ping = 0;
                  health = Transport.Alive;
                  known_epoch = 0;
                }));
      hb = Transport.default_hb;
      tick = 0;
      lock = Mutex.create ();
      inbox = Array.init n (fun _ -> Queue.create ());
      imutex = Array.init n (fun _ -> Mutex.create ());
      batcher = None;
      peer_hooks = [];
    }
  in
  (* registered before any runtime hook, so a crashed machine's ARQ
     state is already wiped when node-level hooks drop their caches *)
  Transport.on_process_event lower (function
    | Transport.Proc_crashed { machine; _ } -> wipe_machine t machine
    | Transport.Proc_restarted _ -> ());
  t

let pack (t : M.t) = Transport.pack (module M) t
let wrap lower = pack (wrap_t lower)

let rtt_estimate (t : M.t) ~src ~dest =
  M.check t src;
  M.check t dest;
  Mutex.lock t.M.lock;
  let e = t.M.tx.(src).(dest).est in
  Mutex.unlock t.M.lock;
  e

let dedup_held (t : M.t) ~self ~src =
  M.check t self;
  M.check t src;
  Mutex.lock t.M.lock;
  let k = Hashtbl.length t.M.rx.(self).(src).above in
  Mutex.unlock t.M.lock;
  k
