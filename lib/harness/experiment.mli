(** Experiment driver reproducing the paper's Tables 1-8.

    Each timing table runs its application under the five optimization
    configurations and reports, per row: measured wall-clock seconds,
    {e modeled} seconds (event counters x the Myrinet-era cost model,
    see {!Rmi_net.Costmodel}), the gain over ["class"], and the paper's
    published seconds and gain for comparison.  Statistics tables
    (4/6/8) report the same counters the paper prints.

    Workload sizes default to values that finish in seconds on a
    laptop; [scale] switches to the paper's sizes. *)

type scale = Small | Paper

type row = {
  config : Rmi_runtime.Config.t;
  wall_seconds : float;
  modeled_seconds : float;
  stats : Rmi_stats.Metrics.snapshot;
}

type timing_table = {
  id : string;  (** "table1" .. "table7" *)
  title : string;
  unit_label : string;  (** "s" or "us/page" *)
  rows : row list;
  paper : (string * float) list;  (** the paper's numbers, row order *)
  per_unit : float -> float;  (** wall seconds -> reported unit *)
}

(** Gain over the ["class"] row, percent, by modeled seconds. *)
val modeled_gain : timing_table -> row -> float

val wall_gain : timing_table -> row -> float

(** Run an application under all five configs. *)

val table1 :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?backend:Rmi_runtime.Fabric.backend ->
  unit ->
  timing_table
val table2 :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?backend:Rmi_runtime.Fabric.backend ->
  unit ->
  timing_table
val table3 :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?backend:Rmi_runtime.Fabric.backend ->
  unit ->
  timing_table
val table5 :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?backend:Rmi_runtime.Fabric.backend ->
  unit ->
  timing_table
val table7 :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?backend:Rmi_runtime.Fabric.backend ->
  unit ->
  timing_table

(** The statistics tables reuse the timing runs of their sibling:
    table4 = stats of table3's rows, etc. *)

val stats_table :
  id:string -> title:string -> timing_table -> Paper_data.stats_row list ->
  string
(** Rendered paper-vs-measured statistics table. *)

(** One variant of the pipelining comparison: the same workload run
    synchronously, through futures, or through futures + batching. *)
type pipeline_row = {
  variant : string;  (** "sequential" / "pipelined" / "pipelined + batch" *)
  p_stats : Rmi_stats.Metrics.snapshot;
  p_modeled : float;
  p_wall : float;
  checksum : float;  (** must be identical across the three variants *)
}

type pipeline_report = { p_title : string; p_rows : pipeline_row list }

(** Run the two transmission microbenchmarks (Tables 1/2 workloads)
    under [site + reuse + cycle] in all three issue disciplines.
    [window] asynchronous calls are in flight per burst (default 16).
    Batching shrinks [msgs_sent] — and with it the cost model's
    per-message latency charges — while every checksum stays equal.
    [faults] (a seed and a link-fault profile) additionally runs every
    variant over the reliable transport with a seeded lossy schedule:
    the wire counters change, the checksums must not. *)
val pipeline_compare :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?window:int ->
  ?faults:int * Rmi_net.Fault_sim.profile ->
  unit ->
  pipeline_report list

val render_pipeline : pipeline_report -> string

(** One variant of the crash/failover comparison. *)
type crash_row = {
  c_variant : string;  (** "fault-free" / "durable crash" / "amnesia crash" *)
  c_stats : Rmi_stats.Metrics.snapshot;
  c_checksum : int;  (** sum of all echo replies *)
  c_executions : int;  (** how often the server handler actually ran *)
  c_failed : int;  (** calls that failed despite retries *)
  c_ok : bool;  (** checksum matches fault-free and nothing failed *)
}

type crash_report = {
  c_title : string;
  c_rows : crash_row list;
  c_digest : string;  (** the durable run's full fault-decision log *)
  c_replay_equal : bool;
      (** replaying the durable run from its seed reproduced the digest
          and checksum byte-for-byte *)
}

(** Run a pipelined echo workload fault-free, under a seeded durable
    crash/restart of the server, and under the same schedule with an
    amnesiac server (its reply cache dies with it).  The durable row
    must match the fault-free row in checksum {e and} handler execution
    count (exactly-once across the crash); the amnesia row is where
    re-execution shows up.  The durable schedule is run twice to prove
    seeded replay. *)
val crash_compare :
  ?seed:int -> ?crashes:int -> ?calls:int -> ?window:int -> unit ->
  crash_report

val render_crash : crash_report -> string

(** The crash comparison lifted onto real sockets (PR 8): the same
    echo workload over the loopback TCP mesh with the {!Rmi_net.Chaos}
    injector and the {!Rmi_net.Reliable} adapter. *)
type chaos_report = {
  h_title : string;
  h_rows : crash_row list;
      (** "fault-free" / "durable chaos" / "amnesia chaos" *)
  h_digest : string;  (** issue-order reply digest of the durable run *)
  h_replay_equal : bool;
      (** the same-seed durable rerun produced the byte-identical
          issue-order reply stream and checksum *)
  h_parity_equal : bool;
      (** {!Rmi_net.Chaos.sim_parity}: the injector's frame schedule is
          byte-identical to the bare [Fault_sim] schedule *)
  h_sweep_seeds : int;
  h_sweep_failed : int list;  (** seeds that broke exactly-once *)
}

(** The durable exactly-once property over loopback TCP for one seed:
    a seeded chaos injector (lossy links, one durable kill/restart,
    TCP severs, endpoint stalls) under which no call fails, the
    checksum matches the closed form and the handler runs exactly once
    per boxed value.  [test/test_chaos.ml] drives this as a QCheck
    property; the chaos gate sweeps it over a seed range. *)
val chaos_exactly_once : ?calls:int -> ?window:int -> seed:int -> unit -> bool

(** The [rmi-experiments chaos] gate: fault-free baseline, durable and
    amnesiac chaos runs, the same-seed replay, the chaos/sim schedule
    parity check and a [sweep]-seed {!chaos_exactly_once} sweep
    (default 300, the CI matrix width). *)
val chaos_compare :
  ?seed:int -> ?calls:int -> ?window:int -> ?sweep:int -> unit -> chaos_report

(** Every gate in the report holds: all rows ok, durable executions
    equal the baseline's, replay and parity byte-identical, no sweep
    failures. *)
val chaos_ok : chaos_report -> bool

val render_chaos : chaos_report -> string

(** The CI socket-chaos JSON artifact: gate verdicts, per-variant rows
    and the durable run's reply digest. *)
val chaos_json : chaos_report -> string

(** One warmup window of the tier comparison: how many calls it covers
    and what they cost on the wire. *)
type tier_window = { w_calls : int; w_bytes : int; w_msgs : int }

(** One variant of the tier comparison. *)
type tier_row = {
  t_variant : string;  (** "generic" / "aot" / "adaptive" *)
  t_stats : Rmi_stats.Metrics.snapshot;
  t_digest : string;  (** hex digest over every reply, in call order *)
  t_windows : tier_window list;  (** the warmup curve, oldest first *)
}

type tier_report = {
  t_title : string;
  t_rows : tier_row list;
  t_equal : bool;  (** all three reply digests identical *)
  t_converged : bool;
      (** the adaptive run promoted at least one site and its final
          window costs exactly the AOT bytes and messages per call *)
}

(** Run the same swap workload three ways: all-generic marshaling
    ([class]), the specialized plan from call one ([site + reuse +
    cycle], the paper's static model), and the adaptive tier (generic
    until [hot_threshold] calls, specialized after).  Per-window wire
    deltas give the warmup curve; the replies must be byte-identical
    across all three, and the adaptive run must end on AOT's per-call
    wire cost — the CI tiers gate checks both. *)
val tiers_compare :
  ?calls:int -> ?window:int -> ?hot_threshold:int -> unit -> tier_report

val render_tiers : tier_report -> string

(** One wirecost variant's run. *)
type wire_run = {
  u_digest : string;
      (** chained MD5 over every physical frame, in transmit order,
          taken before the fault-simulator stage *)
  u_checksum : float;  (** fold of all replies *)
  u_copied_per_call : float;  (** [bytes_copied] per RMI *)
  u_minor_per_call : float;  (** GC minor words per RMI *)
  u_pool_hits : int;
  u_pool_misses : int;
  u_us_per_call : float;
}

(** One (workload, transport variant) pair. *)
type wire_row = {
  wr_workload : string;  (** "chain100" / "matrix16x16" *)
  wr_variant : string;
      (** "raw" / "reliable" / "reliable+batch" / "reliable+faults" *)
  wr_run : wire_run;
  wr_pin : (string * int) option;
      (** pinned frame digest and total copied bytes, when these
          arguments are one of the pinned sets *)
  wr_bound : float option;
      (** enveloped variant: at most this many copied bytes per call,
          half of what the retired copy-based framing copied *)
}

type wire_report = {
  u_title : string;
  u_rows : wire_row list;
  u_pinned : bool;  (** these arguments have pins *)
  u_frames_ok : bool;  (** every pinned row's frame digest matched *)
  u_copied_ok : bool;  (** every pinned row's copied bytes matched *)
  u_results_ok : bool;  (** every row's checksum is the fault-free fold *)
  u_gate_ok : bool;  (** every bounded row stayed within its bound *)
}

(** Run the paper-table message shapes (Table 1's 100-cell chain,
    Table 2's 16x16 double matrix) over raw, reliable, batched-reliable
    and seeded-lossy-reliable links on the zero-copy wire path.  Every
    physical frame is digested on its way out (before the fault
    simulator).  For the argument sets CI runs (defaults;
    [~calls:24 ~window:8]; [~calls:24 ~seed:1234]) the digests and
    copied bytes must equal the values pinned when the copy-based
    framing was retired; for any arguments each enveloped row must copy
    at most half the bytes per call that framing did. *)
val wirecost_compare :
  ?calls:int -> ?window:int -> ?seed:int -> unit -> wire_report

val render_wirecost : wire_report -> string

(** One allocator mode of one alloc variant (PR 10). *)
type alloc_run = {
  al_digest : string;
      (** chained MD5 over every post-warmup physical frame, in
          transmit order, taken before the fault-simulator stage *)
  al_checksum : float;  (** fold of all post-warmup replies *)
  al_minor_per_call : float;  (** GC minor words per RMI, post-warmup *)
  al_arena_allocs : int;
  al_arena_resets : int;
  al_arena_fallbacks : int;
}

(** One (workload, variant) pair, run under both allocators. *)
type alloc_row = {
  al_workload : string;  (** "chain100" / "matrix16x16" *)
  al_variant : string;
      (** "raw site" / "reliable site" / "reliable site+faults" /
          "reliable site+reuse+cycle" *)
  al_heap : alloc_run;  (** [Config.legacy_heap] *)
  al_arena : alloc_run;
  al_gated : bool;
      (** the row measured against the checked-in BENCH_wire baseline *)
  al_arena_active : bool;
      (** no-reuse row: the arena is licensed to engage and must *)
}

type alloc_report = {
  al_title : string;
  al_rows : alloc_row list;
  al_frames_ok : bool;  (** every row's frame digests identical *)
  al_results_ok : bool;  (** every row's checksums identical *)
  al_gate_ok : bool;
      (** gated row's arena minor words <= 50% of the baseline *)
  al_arena_ok : bool;
      (** arena-active rows recycle: allocs and wholesale resets
          counted, <= 10% heap fallbacks, fewer minor words than the
          heap run *)
}

(** The checked-in pre-PR minor-words-per-call baseline for the gated
    row (matrix16x16, reliable, site+reuse+cycle) from BENCH_wire.json. *)
val alloc_baseline_minor : float

(** Run the paper-table message shapes through their site-specialized
    plans (the matrix through the flat struct-of-arrays step) over raw,
    reliable, seeded-lossy-reliable and reliable-with-reuse links, each
    under GC-heap decoding ([Config.legacy_heap]) and arena decoding.
    Frames and reply checksums must be byte-identical between the two
    allocator modes — the arena substitutes the allocator, never the
    bytes. *)
val alloc_compare :
  ?calls:int -> ?window:int -> ?seed:int -> unit -> alloc_report

val render_alloc : alloc_report -> string

(** Machine-readable report for the CI alloc gate. *)
val alloc_json : alloc_report -> string

(** Render a timing table (paper vs modeled vs wall). *)
val render_timing : timing_table -> string

(** Sanity: do measured gains order configurations like the paper's? *)
val shape_summary : timing_table -> string

(** One domain count of one load variant (PR 6). *)
type load_run = {
  l_domains : int;
  l_throughput : float;  (** completed calls per second *)
  l_p50_us : float;  (** latency quantiles of the client-observed RTT
                         histogram, in microseconds *)
  l_p99_us : float;
  l_p999_us : float;
  l_digest : string;
      (** structural digest over every reply in issue order —
          independent of how the pool interleaved execution, so equal
          digests across domain counts prove the parallel runtime
          computed the serial answers *)
  l_dispatches : int;
  l_steals : int;
  l_rejects : int;
  l_queue_hwm : int;
}

(** One (workload, transport variant) pair across domain counts. *)
type load_row = {
  lr_workload : string;  (** "chain100" / "matrix16x16" *)
  lr_variant : string;
      (** "reliable" / "reliable+batch" / "reliable+faults" *)
  lr_runs : load_run list;  (** ascending domain count *)
}

type load_report = {
  l_title : string;
  l_rows : load_row list;
  l_servers : int;
  l_calls : int;
  l_hi_domains : int;
  l_digest_ok : bool;  (** every row digest-identical across domains *)
  l_speedup : float;
      (** matrix16x16/reliable throughput, hi-domain over 1-domain *)
  l_speedup_floor : float;
  l_tail_ratio : float;  (** p999 hi-domain over 1-domain *)
  l_tail_tol : float;
  l_cores_ok : bool;
      (** the host recommends at least [hi_domains + 1] domains, so the
          throughput/tail verdicts are enforced; on smaller hosts they
          are reported but cannot gate — one core cannot exhibit
          parallel speedup *)
  l_gate_ok : bool;
}

(** Drive [calls] pipelined RMIs from one client round-robin across
    [servers] machines — chain100 and matrix16x16, each over reliable,
    batched and seeded-lossy links — once on the serial runtime
    ([domains = 1]) and once on the work-stealing pool ([domains]
    workers, [queue_depth]-bounded per-node queues).  [spin] re-folds
    the argument in the handler so servers are CPU-bound.  The gate:
    digests must match across domain counts everywhere, and (when the
    host has the cores) matrix16x16/reliable must reach
    [speedup_floor]x throughput with p999 within [tail_tol]x. *)
val load_compare :
  ?calls:int ->
  ?window:int ->
  ?servers:int ->
  ?domains:int ->
  ?queue_depth:int ->
  ?spin:int ->
  ?seed:int ->
  ?speedup_floor:float ->
  ?tail_tol:float ->
  unit ->
  load_report

val render_load : load_report -> string

(** BENCH_load.json: rows plus gate verdicts, for the CI artifact. *)
val load_json : load_report -> string

(** One backend of one (workload, variant) pair of the transport
    substitution gate (PR 7). *)
type transport_run = {
  x_digest : string;
      (** hex digest over the structurally rendered replies, awaited in
          issue order — deterministic whatever the backend's scheduling
          did *)
  x_checksum : float;  (** fold of all replies *)
  x_msgs : int;  (** [msgs_sent] *)
  x_bytes : int;  (** [bytes_sent] *)
  x_modeled : float;  (** Myrinet-era modeled seconds from the counters *)
  x_wall : float;  (** measured wall-clock seconds *)
}

type transport_row = {
  xr_workload : string;  (** "chain100" / "matrix16x16" *)
  xr_variant : string;
      (** "sequential" / "pipelined" / "pipelined+batch" *)
  xr_sim : transport_run;
  xr_sock : transport_run;
}

type transport_report = {
  x_title : string;
  x_rows : transport_row list;
  x_digest_ok : bool;
      (** every row's issue-order reply digests and checksums identical
          between Sim and Sock *)
  x_model_ok : bool;
      (** every row's [msgs_sent]/[bytes_sent] — and therefore modeled
          seconds — identical between the backends: the cost accounting
          survives the transport substitution *)
}

(** Run the paper-table message shapes (chain100, matrix16x16) over the
    simulated interconnect and over a real TCP loopback mesh
    ({!Rmi_runtime.Fabric.backend}), sequentially, pipelined, and
    pipelined+batched, under the parallel fabric.  The gate demands
    byte-identical issue-order reply digests and identical wire
    counters between the backends; the report carries each backend's
    modeled-vs-wall-clock delta per workload. *)
val transport_compare :
  ?calls:int -> ?window:int -> ?seed:int -> unit -> transport_report

val render_transport : transport_report -> string

(** BENCH_transport.json: per-backend modeled-vs-wall rows plus the
    gate verdicts, for the CI socket-smoke artifact. *)
val transport_json : transport_report -> string

(** One workload of a multi-process client run. *)
type proc_run = {
  pr_workload : string;
  pr_calls : int;
  pr_digest : string;  (** issue-order reply digest *)
  pr_checksum : float;
  pr_wall : float;
}

(** [transport_proc ~self ~addrs ()] runs machine [self] of a TCP
    cluster spread over real OS processes ([addrs.(i)] is machine [i]'s
    [(host, port)]; [?listen] overrides the bind address).  Servers
    ([self > 0]) export the wire workloads and block serving until
    machine 0 shuts them down, returning [None]; the client ([self =
    0]) drives [calls] pipelined RMIs per workload round-robin across
    the servers and returns the per-workload digests.  Blocks until the
    full mesh is connected.

    [?reliable] stacks the {!Rmi_net.Reliable} adapter over the
    sockets (every process must agree) and arms the RPC retry budget,
    so the cluster rides through a server kill/restart; [?epoch] is
    the incarnation number a restarted server must bump (see
    {!Rmi_net.Sock.create_process}). *)
val transport_proc :
  ?calls:int ->
  ?window:int ->
  ?reliable:bool ->
  ?epoch:int ->
  ?listen:string * int ->
  self:int ->
  addrs:(string * int) array ->
  unit ->
  proc_run list option

val render_proc : proc_run list -> string
