(* Work-stealing multi-domain dispatch (PR 6).

   The paper's server model is serial: one loop per machine, one
   request at a time.  The pool replaces the per-node loops with [n]
   worker domains sharing every served node's traffic:

   - intake: each node's mailbox is drained by exactly ONE worker (its
     owner, [node index mod workers]), so the cluster's receive path
     stays single-consumer per machine.  Arriving requests land in a
     bounded per-node queue; a request that finds its queue full is
     answered with a [Protocol.Reject] frame before its payload is
     ever decoded — admission control, not silent drop.
   - execution: workers prefer their own nodes' queues and steal from
     the others when empty.  A per-node serve mutex keeps each node's
     dispatches serialized (the node's plan caches, reuse tables and
     reply cache are single-threaded state); parallelism comes from
     serving different nodes simultaneously.
   - idle: a worker that made no progress blocks in the transport's
     [wait] until one of its owned nodes has an arrival or one of
     their retransmit timers falls due, and drives the retransmit
     clock whenever it woke for anything but an arrival.  Blocking
     frees the processor for the client domain on small hosts. *)

module Metrics = Rmi_stats.Metrics
module Protocol = Rmi_wire.Protocol
module Msgbuf = Rmi_wire.Msgbuf

type task = bytes * int * int

type node_q = {
  node : Node.t;
  q : task Queue.t;
  q_mutex : Mutex.t;
  mutable depth : int;  (* Queue.length, maintained under [q_mutex] *)
  serve_mutex : Mutex.t;  (* one dispatch at a time per node *)
}

type t = {
  net : Rmi_net.Transport.t;
  queues : node_q array;
  n_workers : int;
  queue_depth : int;
  metrics : Metrics.t;
  stopping : bool Atomic.t;
  mutable workers : unit Domain.t list;
}

(* the longest an idle worker sleeps before it drives the retransmit
   clock and checks [stopping] again *)
let idle_wait = 0.002

let shutdown_seq = 0
(* control requests (fabric shutdown) carry seq 0 and are never
   rejected: admission control applies to client calls only *)

(* try to queue [task] for [nq]; [false] when the queue is full *)
let try_enqueue t nq task =
  Mutex.lock nq.q_mutex;
  let ok = nq.depth < t.queue_depth in
  if ok then begin
    Queue.push task nq.q;
    nq.depth <- nq.depth + 1
  end;
  let depth = nq.depth in
  Mutex.unlock nq.q_mutex;
  if ok then Metrics.record_queue_depth t.metrics depth;
  ok

let try_dequeue nq =
  Mutex.lock nq.q_mutex;
  let task =
    if nq.depth = 0 then None
    else begin
      nq.depth <- nq.depth - 1;
      Some (Queue.pop nq.q)
    end
  in
  Mutex.unlock nq.q_mutex;
  task

(* pull at most one message from [nq]'s mailbox: enqueue it, or reject
   it when it is a client request and the queue is full.  Only [nq]'s
   owner worker calls this, so the mailbox stays single-consumer. *)
let intake_one t nq =
  match
    Rmi_net.Transport.try_recv_slice t.net ~self:(Node.id nq.node)
  with
  | None -> false
  | Some ((buf, off, len) as task) ->
      let hdr =
        match Protocol.read_header (Msgbuf.reader_of_bytes ~off ~len buf) with
        | hdr -> Some hdr
        | exception Msgbuf.Underflow _ -> None
      in
      (match hdr with
      | Some h
        when h.Protocol.kind = Protocol.Request
             && h.Protocol.seq <> shutdown_seq ->
          if not (try_enqueue t nq task) then Node.send_reject nq.node h
      | _ ->
          (* replies, acks, rejects and control frames bypass admission
             control: refusing them could wedge the protocol.  The
             queue is unbounded for them, but their volume is bounded
             by the node's own outstanding calls. *)
          Mutex.lock nq.q_mutex;
          Queue.push task nq.q;
          nq.depth <- nq.depth + 1;
          Mutex.unlock nq.q_mutex);
      true

let execute t nq task =
  Mutex.lock nq.serve_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock nq.serve_mutex)
    (fun () -> Node.serve_slice nq.node task);
  Metrics.incr_dispatches t.metrics

(* one task, own queues first, then steal *)
let run_one t w =
  let n = Array.length t.queues in
  let rec own i =
    if i >= n then false
    else if i mod t.n_workers = w then
      match try_dequeue t.queues.(i) with
      | Some task ->
          execute t t.queues.(i) task;
          true
      | None -> own (i + 1)
    else own (i + 1)
  in
  let rec steal i =
    if i >= n then false
    else if i mod t.n_workers <> w then
      match try_dequeue t.queues.(i) with
      | Some task ->
          Metrics.incr_steals t.metrics;
          execute t t.queues.(i) task;
          true
      | None -> steal (i + 1)
    else steal (i + 1)
  in
  own 0 || steal 0

let worker t w () =
  let selves =
    List.filteri (fun i _ -> i mod t.n_workers = w) (Array.to_list t.queues)
    |> List.map (fun nq -> Node.id nq.node)
  in
  (* a worker can block on its own nodes' arrivals, not on work queued
     for others to steal: with peers to steal from it looks again
     every 100 us, as the polling worker did *)
  let bound = if t.n_workers = 1 then idle_wait else 1e-4 in
  let stop = ref false in
  while not !stop do
    let progress = ref false in
    for i = 0 to Array.length t.queues - 1 do
      if i mod t.n_workers = w && intake_one t t.queues.(i) then
        progress := true
    done;
    if run_one t w then progress := true;
    if not !progress then
      if Atomic.get t.stopping then stop := true
      else if selves = [] then Unix.sleepf bound
      else if not (Rmi_net.Transport.wait t.net ~selves ~seconds:bound) then
        (* drive retransmission for the owned nodes, as the blocking
           serve loop would have *)
        List.iter
          (fun self -> ignore (Rmi_net.Transport.idle t.net ~self))
          selves
  done

let create ~net ~nodes ~domains ~queue_depth () =
  if domains < 1 then invalid_arg "Dispatch_pool.create: domains < 1";
  if queue_depth < 1 then invalid_arg "Dispatch_pool.create: queue_depth < 1";
  if Array.length nodes = 0 then
    invalid_arg "Dispatch_pool.create: no nodes to serve";
  let queues =
    Array.map
      (fun node ->
        {
          node;
          q = Queue.create ();
          q_mutex = Mutex.create ();
          depth = 0;
          serve_mutex = Mutex.create ();
        })
      nodes
  in
  let t =
    {
      net;
      queues;
      n_workers = domains;
      queue_depth;
      metrics = Rmi_net.Transport.metrics net;
      stopping = Atomic.make false;
      workers = [];
    }
  in
  t.workers <- List.init domains (fun w -> Domain.spawn (worker t w));
  t

let stop t =
  Atomic.set t.stopping true;
  List.iter Domain.join t.workers;
  t.workers <- [];
  (* anything still queued after the workers exited (a request that
     arrived between quiescence and the join) is served inline so no
     frame is silently dropped *)
  Array.iter
    (fun nq ->
      let rec drain () =
        match try_dequeue nq with
        | Some task ->
            Node.serve_slice nq.node task;
            drain ()
        | None -> ()
      in
      drain ())
    t.queues
