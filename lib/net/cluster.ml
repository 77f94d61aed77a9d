type transport = Raw | Reliable of params
and params = { rto : int; backoff_cap : int; max_attempts : int }

let default_params = { rto = 2; backoff_cap = 32; max_attempts = 12 }

(* the outcome/health/event vocabulary is owned by {!Transport} (it is
   part of the backend-neutral signature); re-exported here so code
   written against [Cluster] keeps naming the constructors directly *)
type idle_outcome = Transport.idle_outcome =
  | Retransmitted of int
  | Waiting
  | Gave_up of int list
  | Dead
  | Raw_transport

(* ------------------------------------------------------------------ *)
(* failure detector                                                    *)
(* ------------------------------------------------------------------ *)

type peer_health = Transport.peer_health = Alive | Suspect | Down

type hb_params = Transport.hb_params = {
  ping_every : int;
  suspect_after : int;
  down_after : int;
}

let default_hb = Transport.default_hb

type peer_event = Transport.peer_event =
  | Peer_suspected
  | Peer_confirmed_down
  | Peer_recovered

type process_event = Transport.process_event =
  | Proc_crashed of { machine : int; durability : Fault_sim.durability }
  | Proc_restarted of {
      machine : int;
      epoch : int;
      durability : Fault_sim.durability;
    }

(* what [self] believes about [peer]: when it last heard anything, how
   it is classified, and the highest incarnation seen (the fence) *)
type det_cell = {
  mutable last_heard : int;
  mutable last_ping : int;
  mutable health : peer_health;
  mutable known_epoch : int;
}

(* a sent-but-unacknowledged data frame, waiting on its retransmit
   timer *)
type pending = {
  frame : bytes;
  mutable attempts : int;
  mutable rto_now : int;
  mutable due : int;  (* tick at which the timer expires *)
}

type link_tx = {
  mutable next_lseq : int;
  unacked : (int, pending) Hashtbl.t;
}

type link_rx = { seen : (int, unit) Hashtbl.t }

type rel = {
  params : params;
  tx : link_tx array array;   (* tx.(src).(dest) *)
  rx : link_rx array array;   (* rx.(self).(src) *)
  det : det_cell array array; (* det.(self).(peer) *)
  mutable hb : hb_params;
  mutable tick : int;
  lock : Mutex.t;
}

type t = {
  n : int;
  boxes : Mailbox.t array;
  metrics : Rmi_stats.Metrics.t;
  (* zero-copy wire path: frame envelopes in place around payloads
     sitting in pooled writers, and hand payloads up as slices.  Off =
     the pre-PR copy-based framing, kept for the wirecost comparison. *)
  zero_copy : bool;
  pool : Rmi_wire.Msgbuf.Pool.buffers;
  mutable fault : (src:int -> dest:int -> bytes -> bytes list) option;
  mutable sim : Fault_sim.t option;
  rel : rel option;
  (* per-(src,dest) coalescing buffers; one flush = one wire envelope =
     one reliable seq/ack unit *)
  mutable batcher : Batcher.t option;
  (* messages unpacked from an already-received batch envelope, served
     ahead of the mailbox; [(frame, off, len)] slices sharing the frame
     bytes so splitting a batch copies nothing *)
  inbox : (bytes * int * int) Queue.t array;
  imutex : Mutex.t array;
  mutable process_hooks : (process_event -> unit) list;
  mutable peer_hooks : (self:int -> peer:int -> peer_event -> unit) list;
}

let create ?(transport = Raw) ?(zero_copy = true) ~n metrics =
  if n < 1 then invalid_arg "Cluster.create: need at least one machine";
  let rel =
    match transport with
    | Raw -> None
    | Reliable params ->
        Some
          {
            params;
            tx =
              Array.init n (fun _ ->
                  Array.init n (fun _ ->
                      { next_lseq = 0; unacked = Hashtbl.create 8 }));
            rx =
              Array.init n (fun _ ->
                  Array.init n (fun _ -> { seen = Hashtbl.create 64 }));
            det =
              Array.init n (fun _ ->
                  Array.init n (fun _ ->
                      {
                        last_heard = 0;
                        last_ping = 0;
                        health = Alive;
                        known_epoch = 0;
                      }));
            hb = default_hb;
            tick = 0;
            lock = Mutex.create ();
          }
  in
  {
    n;
    boxes = Array.init n (fun _ -> Mailbox.create ());
    metrics;
    zero_copy;
    pool = Rmi_wire.Msgbuf.Pool.create ~metrics;
    fault = None;
    sim = None;
    rel;
    batcher = None;
    inbox = Array.init n (fun _ -> Queue.create ());
    imutex = Array.init n (fun _ -> Mutex.create ());
    process_hooks = [];
    peer_hooks = [];
  }

let size t = t.n
let metrics t = t.metrics
let zero_copy t = t.zero_copy
let pool t = t.pool

(* every physical payload copy on the wire path is charged here, under
   both modes — the quantity the wirecost experiment compares *)
let charge t n = Rmi_stats.Metrics.add_bytes_copied t.metrics n

let transport t =
  match t.rel with None -> Raw | Some rel -> Reliable rel.params

let is_reliable t = t.rel <> None

(* the simulated cluster lives in one address space *)
let is_hosted _ _ = true

let check t who =
  if who < 0 || who >= t.n then
    invalid_arg (Printf.sprintf "Cluster: bad machine id %d" who)

let on_process_event t f = t.process_hooks <- t.process_hooks @ [ f ]
let on_peer_event t f = t.peer_hooks <- t.peer_hooks @ [ f ]
let fire_process t ev = List.iter (fun f -> f ev) t.process_hooks
let fire_peer t ~self ~peer ev =
  List.iter (fun f -> f ~self ~peer ev) t.peer_hooks

(* the epoch stamped on frames machine [m] emits *)
let self_epoch t m =
  match t.sim with None -> 0 | Some sim -> Fault_sim.epoch_of sim m

let set_detector t hb =
  match t.rel with None -> () | Some rel -> rel.hb <- hb

let peer_health t ~self ~peer =
  check t self;
  check t peer;
  match t.rel with None -> Alive | Some rel -> rel.det.(self).(peer).health

(* ------------------------------------------------------------------ *)
(* the physical layer: fault hook, then fault schedule, then mailbox   *)
(* ------------------------------------------------------------------ *)

(* a machine just crashed: everything it held in flight dies with it —
   mailbox, unpacked-batch inbox, unflushed batch buffers, link send
   state and dedup memory.  Peers' state about it survives (their
   retransmit timers are the recovery path). *)
let wipe_machine t m =
  Mailbox.clear t.boxes.(m);
  Mutex.lock t.imutex.(m);
  Queue.clear t.inbox.(m);
  Mutex.unlock t.imutex.(m);
  Option.iter (fun b -> Batcher.drop_source b ~src:m) t.batcher;
  match t.rel with
  | None -> ()
  | Some rel ->
      Mutex.lock rel.lock;
      Array.iter
        (fun ltx ->
          ltx.next_lseq <- 0;
          Hashtbl.reset ltx.unacked)
        rel.tx.(m);
      Array.iter (fun lrx -> Hashtbl.reset lrx.seen) rel.rx.(m);
      Array.iter
        (fun d ->
          d.last_heard <- rel.tick;
          d.last_ping <- rel.tick;
          d.health <- Alive)
        rel.det.(m);
      Mutex.unlock rel.lock

(* drain crash/restart events from the simulator and apply them; called
   after every physical transmission (the only place the frame clock
   advances) and at the top of [idle] *)
let poll_crashes t =
  match t.sim with
  | None -> ()
  | Some sim -> (
      match Fault_sim.take_transitions sim with
      | [] -> ()
      | transitions ->
          List.iter
            (fun tr ->
              match tr with
              | Fault_sim.Crashed { machine; durability } ->
                  Rmi_stats.Metrics.incr_crashes t.metrics;
                  wipe_machine t machine;
                  fire_process t (Proc_crashed { machine; durability })
              | Fault_sim.Restarted { machine; epoch; durability } ->
                  Rmi_stats.Metrics.incr_restarts t.metrics;
                  fire_process t
                    (Proc_restarted { machine; epoch; durability }))
            transitions)

let transmit t ~src ~dest frame =
  let frames =
    match t.fault with None -> [ frame ] | Some hook -> hook ~src ~dest frame
  in
  let frames =
    match t.sim with
    | None -> frames
    | Some sim ->
        List.concat_map (fun f -> Fault_sim.on_send sim ~src ~dest f) frames
  in
  List.iter (Mailbox.send t.boxes.(dest)) frames;
  (* a send may have pushed the frame clock over a scheduled crash *)
  poll_crashes t

(* test/diagnostic backdoor: deliver a raw frame to [dest]'s mailbox,
   bypassing hook, simulator and link state *)
let inject_frame t ~dest frame =
  check t dest;
  Mailbox.send t.boxes.(dest) frame

(* control frames (acks, heartbeats): empty payload, so no payload
   copies either way — but the zero-copy mode builds them in a pooled
   writer instead of allocating a throwaway one per frame *)
let control_frame t ~kind ~src ~lseq =
  if t.zero_copy then
    Rmi_wire.Msgbuf.Pool.with_writer t.pool (fun w ->
        let start =
          Envelope.encode_into w ~kind ~src ~epoch:(self_epoch t src) ~lseq
            ~payload:Bytes.empty ()
        in
        Rmi_wire.Msgbuf.sub w ~off:start
          ~len:(Rmi_wire.Msgbuf.length w - start))
  else
    Envelope.encode ~kind ~src ~epoch:(self_epoch t src) ~lseq
      ~payload:Bytes.empty ()

(* reserve the next link sequence number and register [envelope] for
   retransmission; returns after the caller may transmit it *)
let register_unacked rel ~lseq ~ltx envelope =
  Hashtbl.replace ltx.unacked lseq
    {
      frame = envelope;
      attempts = 1;
      rto_now = rel.params.rto;
      due = rel.tick + rel.params.rto;
    }

(* ship one wire frame (a single message or a batch envelope) through
   the configured transport — the legacy copy-based framing: the
   payload is snapshotted three times on its way into an envelope
   ([Bytes.to_string], the length-prefixed blit, and the final
   [contents]), each charged to [bytes_copied] *)
let send_frame t ~src ~dest frame =
  match t.rel with
  | None -> transmit t ~src ~dest frame
  | Some rel ->
      Mutex.lock rel.lock;
      let ltx = rel.tx.(src).(dest) in
      let lseq = ltx.next_lseq in
      ltx.next_lseq <- lseq + 1;
      let envelope =
        Envelope.encode ~kind:Data ~src ~epoch:(self_epoch t src) ~lseq
          ~payload:frame ()
      in
      charge t (3 * Bytes.length frame);
      register_unacked rel ~lseq ~ltx envelope;
      Mutex.unlock rel.lock;
      transmit t ~src ~dest envelope

(* zero-copy variant for a payload already materialized as bytes (a
   buffered batch member, a resent request): one blit into a pooled
   writer plus the single frame snapshot, instead of [send_frame]'s
   three copies *)
let send_frame_zc t ~src ~dest frame =
  match t.rel with
  | None -> transmit t ~src ~dest frame
  | Some rel ->
      let envelope =
        Rmi_wire.Msgbuf.Pool.with_writer t.pool (fun w ->
            Mutex.lock rel.lock;
            let ltx = rel.tx.(src).(dest) in
            let lseq = ltx.next_lseq in
            ltx.next_lseq <- lseq + 1;
            let start =
              Envelope.encode_into w ~kind:Data ~src
                ~epoch:(self_epoch t src) ~lseq ~payload:frame ()
            in
            let envelope =
              Rmi_wire.Msgbuf.sub w ~off:start
                ~len:(Rmi_wire.Msgbuf.length w - start)
            in
            charge t (Bytes.length frame + Bytes.length envelope);
            register_unacked rel ~lseq ~ltx envelope;
            Mutex.unlock rel.lock;
            envelope)
      in
      transmit t ~src ~dest envelope

(* the zero-copy fast path: the payload already sits in [w] after a
   reserved {!Envelope.gap}, the envelope header is back-filled into
   the gap in place, and the frame is snapshotted exactly once (the
   immutable copy the mailbox and the retransmit buffer share) *)
let send_frame_writer t ~src ~dest w ~payload_off =
  let payload_len = Rmi_wire.Msgbuf.length w - payload_off in
  match t.rel with
  | None ->
      let frame = Rmi_wire.Msgbuf.sub w ~off:payload_off ~len:payload_len in
      charge t payload_len;
      transmit t ~src ~dest frame
  | Some rel ->
      Mutex.lock rel.lock;
      let ltx = rel.tx.(src).(dest) in
      let lseq = ltx.next_lseq in
      ltx.next_lseq <- lseq + 1;
      let start =
        Envelope.encode_around w ~kind:Data ~src ~epoch:(self_epoch t src)
          ~lseq ~payload_off ()
      in
      let envelope =
        Rmi_wire.Msgbuf.sub w ~off:start ~len:(Rmi_wire.Msgbuf.length w - start)
      in
      charge t (Bytes.length envelope);
      register_unacked rel ~lseq ~ltx envelope;
      Mutex.unlock rel.lock;
      transmit t ~src ~dest envelope

(* logical-traffic accounting, identical under both transports and both
   framing modes: payload bytes, counted once — retransmissions and
   acks go to their own counters *)
let account_send t len =
  Rmi_stats.Metrics.incr_msgs_sent t.metrics;
  Rmi_stats.Metrics.add_bytes_sent t.metrics len;
  Rmi_stats.Metrics.incr_unbatched t.metrics

let send t ~src ~dest msg =
  check t src;
  check t dest;
  account_send t (Bytes.length msg);
  if t.zero_copy then send_frame_zc t ~src ~dest msg
  else send_frame t ~src ~dest msg

(* physical transmit: the frame rides through the fault hook and the
   simulator but is never enveloped and never charged to the logical
   counters — the hook reliability layers use for their own control
   traffic (acks, retransmits, heartbeats) *)
let send_raw t ~src ~dest frame =
  check t src;
  check t dest;
  transmit t ~src ~dest frame

(* [send_writer t ~src ~dest w ~payload_off] ships the message sitting
   in [w.(payload_off..length w)] — at least {!Envelope.gap} bytes must
   have been reserved before [payload_off].  The writer's storage is
   not referenced after the call returns. *)
let send_writer t ~src ~dest w ~payload_off =
  check t src;
  check t dest;
  account_send t (Rmi_wire.Msgbuf.length w - payload_off);
  send_frame_writer t ~src ~dest w ~payload_off

(* ------------------------------------------------------------------ *)
(* batching: coalesce small messages per destination link              *)
(* ------------------------------------------------------------------ *)

let default_batch_bytes = 4096

let enable_batching ?(max_bytes = default_batch_bytes) t =
  if max_bytes < 1 then invalid_arg "Cluster.enable_batching: max_bytes < 1";
  t.batcher <- Some (Batcher.create ~max_bytes)

let batching_enabled t = t.batcher <> None

(* one buffered group becomes one wire frame: a batch of [k] messages
   pays a single per-message latency in the cost model (msgs_sent + 1)
   while bytes_sent still counts every logical payload byte.  The
   zero-copy mode assembles the batch directly in a gap-reserved pooled
   writer (one blit per member) and envelopes it in place; the legacy
   mode batches with [encode_batch] (three copies of the group) and
   envelopes with [send_frame] (three more). *)
let flush_group t ~src ~dest msgs bytes =
  let k = List.length msgs in
  Rmi_stats.Metrics.incr_msgs_sent t.metrics;
  Rmi_stats.Metrics.add_bytes_sent t.metrics bytes;
  Rmi_stats.Metrics.record_batch t.metrics ~msgs:k;
  (if t.zero_copy then
     match msgs with
     | [ m ] -> send_frame_zc t ~src ~dest m
     | _ ->
         Rmi_wire.Msgbuf.Pool.with_writer t.pool (fun w ->
             let payload_off = Envelope.gap in
             ignore (Rmi_wire.Msgbuf.reserve w Envelope.gap : int);
             Rmi_wire.Protocol.encode_batch_into w msgs;
             charge t bytes;
             send_frame_writer t ~src ~dest w ~payload_off)
   else
     let frame =
       match msgs with
       | [ m ] -> m
       | _ ->
           let f = Rmi_wire.Protocol.encode_batch msgs in
           charge t (3 * bytes);
           f
     in
     send_frame t ~src ~dest frame);
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

let buffered_anywhere t =
  match t.batcher with None -> false | Some b -> Batcher.any b

(* ------------------------------------------------------------------ *)
(* receive path: unwrap envelopes, fence stale incarnations, ack data, *)
(* answer heartbeats, suppress duplicates, split batch frames          *)
(* ------------------------------------------------------------------ *)

let pop_inbox t ~self =
  Mutex.lock t.imutex.(self);
  let m =
    if Queue.is_empty t.inbox.(self) then None
    else Some (Queue.pop t.inbox.(self))
  in
  Mutex.unlock t.imutex.(self);
  m

(* [(buf, off, len)] just came off the wire for [self]: either a single
   message, handed straight up, or a batch envelope whose first message
   is returned and whose rest queue up ahead of the mailbox.  The
   zero-copy mode splits the batch into slices sharing the frame bytes;
   the legacy mode copies each sub-message out, as it always did. *)
let unpack t ~self ((buf, off, len) as slice) =
  if not (Rmi_wire.Protocol.is_batch_at buf ~off ~len) then Some slice
  else if t.zero_copy then
    match Rmi_wire.Protocol.decode_batch_slice buf ~off ~len with
    | None | Some [] ->
        (* garbled batch on the raw transport: drop it whole, like any
           other corrupt frame *)
        None
    | Some ((o, l) :: rest) ->
        if rest <> [] then begin
          Mutex.lock t.imutex.(self);
          List.iter (fun (o, l) -> Queue.push (buf, o, l) t.inbox.(self)) rest;
          Mutex.unlock t.imutex.(self)
        end;
        Some (buf, o, l)
  else
    let payload =
      if off = 0 && len = Bytes.length buf then buf else Bytes.sub buf off len
    in
    match Rmi_wire.Protocol.decode_batch payload with
    | None | Some [] -> None
    | Some (first :: rest) ->
        charge t
          (List.fold_left
             (fun acc m -> acc + Bytes.length m)
             (Bytes.length first) rest);
        if rest <> [] then begin
          Mutex.lock t.imutex.(self);
          List.iter
            (fun m -> Queue.push (m, 0, Bytes.length m) t.inbox.(self))
            rest;
          Mutex.unlock t.imutex.(self)
        end;
        Some (first, 0, Bytes.length first)

(* [Some slice] to hand to the upper layer, [None] when the frame was
   consumed here (ack, heartbeat, duplicate, stale epoch, or checksum
   failure).  The zero-copy mode validates the checksum in place and
   returns the payload as a slice of [raw]; the legacy mode copies the
   payload out (charged). *)
let filter_frame t rel ~self raw =
  let decoded =
    if t.zero_copy then
      match Envelope.decode_slice raw ~off:0 ~len:(Bytes.length raw) with
      | None -> None
      | Some (env, (off, len)) -> Some (env, (raw, off, len))
    else
      match Envelope.decode raw with
      | None -> None
      | Some (env, payload) ->
          charge t (Bytes.length payload);
          Some (env, (payload, 0, Bytes.length payload))
  in
  match decoded with
  | None ->
      (* garbled on the wire; the sender's timer recovers it *)
      None
  | Some ({ Envelope.kind; src; epoch; lseq }, payload_slice) ->
      Mutex.lock rel.lock;
      let d = rel.det.(self).(src) in
      (* fence: a frame from an incarnation older than the best one we
         have seen is a ghost of a dead process *)
      let stale = epoch < d.known_epoch in
      let recovered = ref false in
      if not stale then begin
        if epoch > d.known_epoch then begin
          d.known_epoch <- epoch;
          (* the new incarnation restarts its lseq space at 0, so the
             old dedup memory would wrongly swallow its fresh frames *)
          Hashtbl.reset rel.rx.(self).(src).seen
        end;
        d.last_heard <- rel.tick;
        if d.health <> Alive then begin
          d.health <- Alive;
          recovered := true
        end
      end;
      Mutex.unlock rel.lock;
      if !recovered then fire_peer t ~self ~peer:src Peer_recovered;
      if stale then begin
        Rmi_stats.Metrics.incr_stale_drops t.metrics;
        None
      end
      else
        match kind with
        | Envelope.Hb ->
            (* answered reactively on the receive path so liveness works
               in both Sync (pump-driven) and Parallel modes *)
            if lseq = Envelope.hb_ping then begin
              Rmi_stats.Metrics.incr_heartbeats_sent t.metrics;
              transmit t ~src:self ~dest:src
                (control_frame t ~kind:Envelope.Hb ~src:self
                   ~lseq:Envelope.hb_pong)
            end;
            None
        | Envelope.Ack ->
            Mutex.lock rel.lock;
            Hashtbl.remove rel.tx.(self).(src).unacked lseq;
            Mutex.unlock rel.lock;
            None
        | Envelope.Data ->
            (* always ack, even duplicates: the earlier ack may have
               been lost *)
            Rmi_stats.Metrics.incr_acks_sent t.metrics;
            transmit t ~src:self ~dest:src
              (control_frame t ~kind:Envelope.Ack ~src:self ~lseq);
            Mutex.lock rel.lock;
            let seen = rel.rx.(self).(src).seen in
            let dup = Hashtbl.mem seen lseq in
            if not dup then Hashtbl.add seen lseq ();
            Mutex.unlock rel.lock;
            if dup then begin
              Rmi_stats.Metrics.incr_dup_drops t.metrics;
              None
            end
            else Some payload_slice

(* a raw frame just arrived: run it through the transport filter (under
   [Reliable]) and the batch splitter; [Some slice] when a message came
   out of it *)
let admit t ~self raw =
  match t.rel with
  | None -> unpack t ~self (raw, 0, Bytes.length raw)
  | Some rel -> (
      match filter_frame t rel ~self raw with
      | Some payload_slice -> unpack t ~self payload_slice
      | None -> None)

let try_recv_slice t ~self =
  check t self;
  match pop_inbox t ~self with
  | Some m -> Some m
  | None ->
      let rec go () =
        match Mailbox.try_recv t.boxes.(self) with
        | None -> None
        | Some raw -> (
            match admit t ~self raw with Some m -> Some m | None -> go ())
      in
      go ()

let recv_deadline_slice t ~self ~seconds =
  check t self;
  (* one non-blocking pass first, so a zero or negative deadline still
     drains anything already deliverable instead of returning None with
     messages sitting in the mailbox *)
  match try_recv_slice t ~self with
  | Some m -> Some m
  | None ->
      let deadline = Clock.now () +. seconds in
      let rec go () =
        let remain = deadline -. Clock.now () in
        if remain <= 0.0 then None
        else
          match Mailbox.recv_deadline t.boxes.(self) ~seconds:remain with
          | None -> None
          | Some raw -> (
              match admit t ~self raw with Some m -> Some m | None -> go ())
      in
      go ()

let pending_anywhere t =
  Array.exists (fun b -> not (Mailbox.is_empty b)) t.boxes
  || Array.exists (fun q -> not (Queue.is_empty q)) t.inbox
  || buffered_anywhere t

(* ------------------------------------------------------------------ *)
(* the retransmit + failure-detector clock                             *)
(* ------------------------------------------------------------------ *)

(* sweep the detector on the shared tick: demote quiet peers and decide
   which pings are due; returns (pings, events) to act on lock-free.
   The sweep covers every observer machine, matching the global
   retransmit clock: in Sync mode only the driving machine ever calls
   [idle], but it drives everyone's timers. *)
let detector_sweep t rel =
  let pings = ref [] in
  let events = ref [] in
  let down m =
    match t.sim with None -> false | Some sim -> Fault_sim.is_down sim m
  in
  Array.iteri
    (fun observer row ->
      if not (down observer) then
        Array.iteri
          (fun peer d ->
            if observer <> peer then begin
              let quiet = rel.tick - d.last_heard in
              if quiet >= rel.hb.down_after && d.health = Suspect then begin
                d.health <- Down;
                events := (observer, peer, Peer_confirmed_down) :: !events
              end
              else if quiet >= rel.hb.suspect_after && d.health = Alive
              then begin
                d.health <- Suspect;
                events := (observer, peer, Peer_suspected) :: !events
              end;
              if
                quiet >= rel.hb.ping_every
                && rel.tick - d.last_ping >= rel.hb.ping_every
              then begin
                d.last_ping <- rel.tick;
                pings := (observer, peer) :: !pings
              end
            end)
          row)
    rel.det;
  (List.rev !pings, List.rev !events)

let idle t ~self =
  check t self;
  poll_crashes t;
  match t.rel with
  | None -> Raw_transport
  | Some rel ->
      Mutex.lock rel.lock;
      rel.tick <- rel.tick + 1;
      let resend = ref [] in
      let gave_up = ref [] in
      let unacked = ref 0 in
      Array.iteri
        (fun src row ->
          Array.iteri
            (fun dest ltx ->
              let expired = ref [] in
              Hashtbl.iter
                (fun lseq p ->
                  if p.due > rel.tick then incr unacked
                  else if p.attempts >= rel.params.max_attempts then
                    expired := lseq :: !expired
                  else begin
                    p.attempts <- p.attempts + 1;
                    p.rto_now <- min (p.rto_now * 2) rel.params.backoff_cap;
                    p.due <- rel.tick + p.rto_now;
                    incr unacked;
                    resend := (src, dest, p.frame) :: !resend
                  end)
                ltx.unacked;
              List.iter
                (fun lseq ->
                  Hashtbl.remove ltx.unacked lseq;
                  Rmi_stats.Metrics.incr_timeouts t.metrics;
                  gave_up := dest :: !gave_up)
                !expired)
            row)
        rel.tx;
      let pings, events = detector_sweep t rel in
      Mutex.unlock rel.lock;
      List.iter
        (fun (src, dest, frame) ->
          Rmi_stats.Metrics.incr_retries t.metrics;
          transmit t ~src ~dest frame)
        (List.rev !resend);
      List.iter
        (fun (observer, peer) ->
          Rmi_stats.Metrics.incr_heartbeats_sent t.metrics;
          transmit t ~src:observer ~dest:peer
            (control_frame t ~kind:Envelope.Hb ~src:observer
               ~lseq:Envelope.hb_ping))
        pings;
      List.iter
        (fun (observer, peer, ev) ->
          (match ev with
          | Peer_suspected -> Rmi_stats.Metrics.incr_suspects t.metrics
          | Peer_confirmed_down -> Rmi_stats.Metrics.incr_peer_downs t.metrics
          | Peer_recovered -> ());
          fire_peer t ~self:observer ~peer ev)
        events;
      if !gave_up <> [] then Gave_up (List.sort_uniq compare !gave_up)
      else if !resend <> [] then Retransmitted (List.length !resend)
      else if
        !unacked = 0
        && (match t.sim with
           | None -> true
           | Some sim -> Fault_sim.held_frames sim = 0)
        && not (pending_anywhere t)
      then Dead
      else Waiting

(* the dispatch pool's idle wait.  The ARQ here runs on the idle
   tick, so a worker must come back to [idle] about as often as it
   always has: one short sleep, then report whether anything arrived *)
let wait t ~selves ~seconds =
  let arrived () =
    List.exists
      (fun m ->
        (not (Mailbox.is_empty t.boxes.(m)))
        || (Mutex.lock t.imutex.(m);
            let any = not (Queue.is_empty t.inbox.(m)) in
            Mutex.unlock t.imutex.(m);
            any))
      selves
  in
  arrived ()
  || begin
       if seconds > 0.0 then Unix.sleepf (Float.min seconds 1e-4);
       arrived ()
     end

let recv_blocking_slice t ~self =
  check t self;
  match pop_inbox t ~self with
  | Some m -> m
  | None -> (
      match t.rel with
      | None ->
          let rec go () =
            let raw = Mailbox.recv_blocking t.boxes.(self) in
            match admit t ~self raw with Some m -> m | None -> go ()
          in
          go ()
      | Some _ ->
          (* chop the wait into slices so a blocked machine keeps driving
             its own retransmit timers (a server whose reply was dropped
             must resend it even though it is only receiving) *)
          let rec go () =
            match recv_deadline_slice t ~self ~seconds:0.002 with
            | Some payload -> payload
            | None ->
                ignore (idle t ~self);
                go ()
          in
          go ())

(* ------------------------------------------------------------------ *)
(* fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let set_faults t sim = t.sim <- Some sim
let clear_faults t = t.sim <- None
let faults t = t.sim
let set_fault_hook t hook = t.fault <- Some hook
let clear_fault_hook t = t.fault <- None

(* ------------------------------------------------------------------ *)
(* Transport.S completion                                              *)
(* ------------------------------------------------------------------ *)

let name = "sim"

(* everything lives in this process; nothing to release *)
let shutdown _ = ()

(* the bytes-returning receive wrappers are the shared defaults derived
   from the slice family — backends implement only slices *)
include Transport.Recv_defaults (struct
  type nonrec t = t

  let metrics = metrics
  let try_recv_slice = try_recv_slice
  let recv_blocking_slice = recv_blocking_slice
  let recv_deadline_slice = recv_deadline_slice
end)

