(** The simulated cluster interconnect.

    [n] machines, each with a mailbox.  [send] charges the message and
    payload bytes to the metrics — the counters the cost model turns
    into modeled seconds.  Receiving polls, like the paper's modified
    GM layer ("polling is performed instead of condition
    synchronization").

    Two transports:

    - [Raw] reproduces the paper's Myrinet/GM assumption: every frame
      sent is delivered, in order, uncorrupted.  Zero overhead; this is
      what the paper-reproduction tables run on.
    - [Reliable] layers a link-level ARQ between the logical message
      and the mailbox: each payload travels in an {!Envelope} carrying
      a per-link sequence number and a checksum, receivers acknowledge
      every data frame and suppress duplicates (at-most-once delivery
      to the upper layer), and senders retransmit unacknowledged frames
      with capped exponential backoff when {!idle} is driven.  Combined
      with {!set_faults} this survives drops, duplication, reordering
      and corruption — and replays deterministically from the fault
      seed.

    Metrics accounting is identical under both transports: [msgs_sent]
    and [bytes_sent] count each logical message once (payload bytes
    only).  Retransmissions, acks, duplicate suppressions and abandoned
    frames go to the dedicated [retries]/[acks_sent]/[dup_drops]/
    [timeouts] counters, so the lossless reliable path is
    byte-identical to [Raw] in the paper's tables.

    [Cluster] is the [Sim] backend of {!Transport.S} (see {!Sim}); the
    health/event vocabulary below is re-exported from {!Transport} so
    both spellings name the same constructors. *)

type transport = Raw | Reliable of params

and params = {
  rto : int;           (** idle ticks before the first retransmit *)
  backoff_cap : int;   (** upper bound on the doubled timeout *)
  max_attempts : int;  (** transmissions before a frame is abandoned *)
}

val default_params : params

(** What {!idle} did; see {!idle}. *)
type idle_outcome = Transport.idle_outcome =
  | Retransmitted of int  (** this many frames were retransmitted *)
  | Waiting  (** unacked frames exist but none was due yet *)
  | Gave_up of int list
      (** these destinations exhausted [max_attempts]; the frames were
          abandoned and counted as [timeouts] *)
  | Dead  (** nothing in flight anywhere: no unacked frame, no held
              frame, every mailbox empty — waiting cannot succeed *)
  | Raw_transport  (** [idle] is meaningless under [Raw] *)

(** {1 Failure detection}

    Under [Reliable], every machine keeps a per-peer liveness record
    driven by the shared {!idle} tick: any valid frame from a peer
    (data, ack, heartbeat) refreshes it to [Alive]; a peer quiet for
    [suspect_after] ticks is demoted to [Suspect] and for [down_after]
    ticks to [Down].  Quiet peers are probed with ping/pong heartbeat
    frames so an idle-but-alive peer is never falsely convicted: pongs
    are answered reactively on the receive path, which works in both
    Sync (pump-driven) and Parallel modes.  A frame from a newer
    incarnation ([epoch]) resets the link's dedup memory; frames from
    an older incarnation are fenced (dropped and counted as
    [stale_drops]). *)

type peer_health = Transport.peer_health = Alive | Suspect | Down

type hb_params = Transport.hb_params = {
  ping_every : int;     (** ticks between pings to a quiet peer *)
  suspect_after : int;  (** quiet ticks before Alive -> Suspect *)
  down_after : int;     (** quiet ticks before Suspect -> Down *)
}

val default_hb : hb_params

type peer_event = Transport.peer_event =
  | Peer_suspected
  | Peer_confirmed_down
  | Peer_recovered

(** Crash-simulator events surfaced to the runtime after the transport
    has wiped the machine's in-flight state. *)
type process_event = Transport.process_event =
  | Proc_crashed of { machine : int; durability : Fault_sim.durability }
  | Proc_restarted of {
      machine : int;
      epoch : int;
      durability : Fault_sim.durability;
    }

type t

(** [zero_copy] (default [true]) selects the wire framing mode:
    envelopes and batch frames are built {e around} payloads sitting in
    pooled writers ({!send_writer}, {!Envelope.encode_around}) and
    received payloads are handed up as slices of the frame, so a
    message body is snapshotted at most once per direction.  With
    [zero_copy:false] the pre-existing copy-based framing is used.
    Both modes produce byte-identical frames on the wire; every
    physical payload copy either mode makes is charged to the
    [bytes_copied] metric, which is how the [wirecost] experiment
    compares them. *)
val create :
  ?transport:transport -> ?zero_copy:bool -> n:int -> Rmi_stats.Metrics.t -> t

val zero_copy : t -> bool

(** The cluster's shared writer/reader free-list pool (acquisitions
    count [pool_hits]/[pool_misses]). *)
val pool : t -> Rmi_wire.Msgbuf.Pool.buffers

(** What [self] currently believes about [peer]; always [Alive] under
    [Raw]. *)
val peer_health : t -> self:int -> peer:int -> peer_health

(** Override the failure-detector thresholds (no-op under [Raw]). *)
val set_detector : t -> hb_params -> unit

(** The incarnation number machine [m] currently stamps on its frames:
    0 without a simulator or before its first restart. *)
val self_epoch : t -> int -> int

(** [f] runs on every detector transition, after the detector state was
    updated.  Hooks must not send messages. *)
val on_peer_event : t -> (self:int -> peer:int -> peer_event -> unit) -> unit

(** [f] runs on every simulated crash/restart, after the machine's
    mailbox, batch buffers and link state were wiped.  Hooks must not
    send messages — nodes use this to drop volatile caches. *)
val on_process_event : t -> (process_event -> unit) -> unit

val size : t -> int
val metrics : t -> Rmi_stats.Metrics.t
val transport : t -> transport
val is_reliable : t -> bool

(** The simulated cluster lives in one address space: every machine is
    hosted. *)
val is_hosted : t -> int -> bool

(** [send t ~src ~dest msg]; self-sends are allowed (loopback). *)
val send : t -> src:int -> dest:int -> bytes -> unit

(** Physical transmit: [frame] rides through the fault hook and the
    simulator exactly like a [send], but is never enveloped and never
    charged to [msgs_sent]/[bytes_sent] — the escape hatch reliability
    layers use to ship their own control traffic. *)
val send_raw : t -> src:int -> dest:int -> bytes -> unit

(** [send_writer t ~src ~dest w ~payload_off] ships the message sitting
    in [w.(payload_off..length w)] without materializing it first: per
    the {!Transport.S.send_writer} contract the caller must have
    reserved at least {!Envelope.gap} bytes before [payload_off]
    (asserted by the {!Transport.send_writer} forwarder), and under
    [Reliable] the envelope header is back-filled into that gap in
    place.  [w]'s storage is not referenced after the call returns (it
    is typically a pooled writer released right after). *)
val send_writer :
  t -> src:int -> dest:int -> Rmi_wire.Msgbuf.writer -> payload_off:int -> unit

(** {1 Request batching}

    With batching enabled, {!send_buffered} coalesces messages per
    (src, dest) link; {!flush} ships each link's buffered group as one
    wire frame (a {!Rmi_wire.Protocol} batch envelope when the group
    has two or more messages).  One flushed group is one physical
    frame: under [Reliable] it occupies a single envelope seq/ack unit,
    so loss, duplication and retransmission treat the whole batch
    atomically and at-most-once delivery still holds per logical
    message.

    Accounting: a flushed group counts {e one} [msgs_sent] and the sum
    of its logical payload bytes — the cost model therefore charges one
    per-message latency per batch.  Batch framing overhead is excluded
    from [bytes_sent], mirroring how {!Envelope} overhead is excluded
    on the reliable path. *)

val default_batch_bytes : int

(** Start coalescing [send_buffered] messages (default threshold
    {!default_batch_bytes}).  A link auto-flushes as soon as it buffers
    [max_bytes]. *)
val enable_batching : ?max_bytes:int -> t -> unit

(** Flush everything buffered, then stop coalescing. *)
val disable_batching : t -> unit

val batching_enabled : t -> bool

(** [send_buffered t ~src ~dest msg] queues [msg] on the (src, dest)
    batch buffer (or falls back to {!send} when batching is off).
    Returns the links auto-flushed by the byte threshold as
    [(dest, messages, bytes)] triples — usually empty. *)
val send_buffered : t -> src:int -> dest:int -> bytes -> (int * int * int) list

(** [flush t ~src] ships every non-empty batch buffer whose source is
    [src]; returns one [(dest, messages, bytes)] triple per flushed
    link, in ascending [dest] order. *)
val flush : t -> src:int -> (int * int * int) list

val try_recv : t -> self:int -> bytes option

(** {1 Slice receive}

    The zero-copy receive API: messages come back as [(frame, off,
    len)] slices sharing the (immutable) received frame bytes, so
    envelope payloads and batch sub-frames are never copied out.  The
    bytes-returning functions ([try_recv]/[recv_blocking]/
    [recv_deadline]) are {!Transport.Recv_defaults} wrappers derived
    from the slice family — the backend implements only slices. *)

val try_recv_slice : t -> self:int -> (bytes * int * int) option
val recv_blocking_slice : t -> self:int -> bytes * int * int
val recv_deadline_slice :
  t -> self:int -> seconds:float -> (bytes * int * int) option

(** Deliver a raw frame straight into [dest]'s mailbox, bypassing the
    fault hook, the simulator and all link state.  A test/diagnostic
    backdoor (e.g. forging a stale-epoch envelope). *)
val inject_frame : t -> dest:int -> bytes -> unit

(** Blocks until a message for [self] arrives.  Under [Reliable] the
    wait is chopped into short slices that drive {!idle}, so a blocked
    server keeps retransmitting its own unacked replies. *)
val recv_blocking : t -> self:int -> bytes

(** Timed {!recv_blocking}; [None] after [seconds] of silence. *)
val recv_deadline : t -> self:int -> seconds:float -> bytes option

(** Advance the retransmit clock by one tick and retransmit every
    unacked frame whose timer expired.  Callers invoke this when they
    are idle (nothing to receive, no progress to pump); under the
    synchronous fabric those idle polls are deterministic, so the whole
    recovery schedule replays exactly. *)
val idle : t -> self:int -> idle_outcome

(** {!Transport.S.wait}: one sleep of at most 100 µs (the ARQ here
    is tick-driven, so the caller must keep driving {!idle}), then
    whether a message is queued for one of [selves]. *)
val wait : t -> selves:int list -> seconds:float -> bool

(** Any message pending anywhere — queued in a mailbox, unpacked from a
    batch but not yet consumed, or buffered awaiting a flush?
    (deadlock diagnostics) *)
val pending_anywhere : t -> bool

(** Install a seeded fault schedule on the physical layer (applies to
    data frames, acks and retransmissions alike). *)
val set_faults : t -> Fault_sim.t -> unit

val clear_faults : t -> unit
val faults : t -> Fault_sim.t option

(** Fault injection for tests: the hook sees every physical frame about
    to be delivered and returns the frames to actually ship — pass it
    through ([[msg]]), corrupt it ([[other]]), drop it ([[]]) or
    duplicate it ([[msg; msg]]).  Metrics still count the original
    send.  Runs before the {!Fault_sim} stage. *)
val set_fault_hook : t -> (src:int -> dest:int -> bytes -> bytes list) -> unit

val clear_fault_hook : t -> unit

(** {1 Transport.S completion} *)

(** Backend identifier: ["sim"]. *)
val name : string

(** No-op: the simulated interconnect holds no OS resources. *)
val shutdown : t -> unit
