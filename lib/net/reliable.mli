(** The Reliable envelope layer: the repository's one ARQ, as a
    stackable transport adapter.

    [wrap lower] returns a transport that speaks {!Envelope} frames
    over [lower]'s raw wire ({!Transport.S.send_raw}): per-link
    sequence numbers, acks, duplicate suppression, retransmission,
    heartbeat-driven Alive/Suspect/Down and epoch fencing.
    [Fabric.create] stacks it on the raw simulated [Cluster] and on the
    [Sock] backend alike, so both get the same exactly-once guarantees
    from the same code.

    Retransmit timers follow one of two policies, picked by [lower]'s
    {!Transport.S.idle_clock}:
    - over an idle-clock backend (the simulator) they count
      {!Transport.S.idle} ticks ({!Ticks}), so a seeded lossy run
      replays exactly;
    - otherwise they run on the monotonic clock ({!Clock}): each link
      keeps an RFC 6298 round-trip estimator ({!Rto}), each unacked
      frame its send time and due time.
    {!Transport.S.idle} resends the frames that are due.  The failure
    detector counts idle ticks under both.  {!Transport.S.wait} sleeps
    in the lower transport until an arrival or, on monotonic timers,
    the next due timer.

    The adapter keeps its own link state, batcher and failure
    detector; it delegates the physical layer (fault schedules, chaos
    injection, epochs, process events, shutdown) to [lower].  On a
    [Proc_crashed] event from [lower], the crashed machine's in-flight
    ARQ state is wiped before runtime-level hooks run.  A checksum-valid
    frame naming a machine outside [0..n-1] is dropped and counted as
    [bad_src_drops].

    Accounting matches the raw transport: logical counters charge the
    payload once at the adapter; envelope and control frames ride
    [lower]'s [send_raw], which charges nothing. *)

(** The retransmission timeout: every timer constant and the RFC 6298
    estimator, as pure functions over nanoseconds. *)
module Rto : sig
  (** 1 ms: no RTO is shorter. *)
  val floor_ns : int

  (** 4 ms: the RTO before a link's first sample. *)
  val initial_ns : int

  (** 4 ms: no RTO, backed off or not, is longer. *)
  val cap_ns : int

  (** 12: then the frame is abandoned ([timeouts]), once
      {!give_up_ns} have also passed since its first transmission. *)
  val max_attempts : int

  (** 500 ms: the least time a frame is retransmitted before it is
      abandoned, so a peer process that is killed and restarted is
      waited for. *)
  val give_up_ns : int

  (** A link's estimator; [srtt = 0] before the first sample. *)
  type t = { srtt : int; rttvar : int; rto : int }

  val initial : t

  (** Fold in one round-trip sample (from a frame sent once: Karn's
      rule is the caller's).  The first sample [r] sets SRTT = [r],
      RTTVAR = [r]/2; later ones smooth with alpha = 1/8, beta = 1/4.
      RTO = SRTT + 4 RTTVAR, clamped to [\[floor_ns, cap_ns\]]. *)
  val sample : t -> rtt_ns:int -> t

  (** The timeout after one more unanswered transmission: doubled,
      capped at [cap_ns]. *)
  val backoff : int -> int
end

(** The retransmission timeout over an idle-clock backend
    ({!Transport.S.idle_clock}), in idle ticks. *)
module Ticks : sig
  (** 2: the RTO of a frame's first transmission. *)
  val initial : int

  (** 32: backoff doubles the RTO up to this. *)
  val cap : int

  (** 12: then the frame is abandoned ([timeouts]). *)
  val max_attempts : int
end

type t

(** [wrap lower] stacks the reliability layer over [lower].  [lower]
    must not also be used directly afterwards (frames sent around the
    adapter would reach peers unenveloped and be dropped by the
    decoder). *)
val wrap : Transport.t -> Transport.t

(** {!wrap} returning the unpacked handle, for the diagnostics
    below. *)
val wrap_t : Transport.t -> t

val pack : t -> Transport.t

(** The round-trip estimator of the link [src -> dest]. *)
val rtt_estimate : t -> src:int -> dest:int -> Rto.t

(** How many delivered lseqs from [src] machine [self] holds above its
    contiguous low-water mark; 0 after gap-free in-order traffic. *)
val dedup_held : t -> self:int -> src:int -> int
