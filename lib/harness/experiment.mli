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

(** Render a timing table (paper vs modeled vs wall). *)
val render_timing : timing_table -> string

(** Sanity: do measured gains order configurations like the paper's? *)
val shape_summary : timing_table -> string

(** {1 Gates}

    Every gate returns one {!Gate.report}: rows of workloads x
    variants and the checks its CLI subcommand exits on.  The checks
    are named by the JSON keys they are written under. *)

(** [validate ~gate ?rows text] checks a {!Gate.to_json} document
    against [gate]'s key set ("wire", "alloc", "load", "transport",
    "chaos"): every report-level and row key present, [rows] rows when
    given, verdict "ok" true. *)
val validate : gate:string -> ?rows:int -> string -> (unit, string) result

(** Run the two transmission microbenchmarks (Tables 1/2 workloads)
    under [site + reuse + cycle] in all three issue disciplines:
    synchronous, pipelined futures ([window] in flight per burst,
    default 16), pipelined futures + batching.  Batching shrinks
    [msgs] — and with it the cost model's per-message latency charges —
    while every checksum must stay equal (check ["checksums_equal"]).
    [faults] (a seed and a link-fault profile) additionally runs every
    variant over the reliable transport with a seeded lossy schedule:
    the wire counters change, the checksums must not. *)
val pipeline_compare :
  ?scale:scale ->
  ?mode:Rmi_runtime.Fabric.mode ->
  ?window:int ->
  ?faults:int * Rmi_net.Fault_sim.profile ->
  unit ->
  Gate.report

(** Run a pipelined echo workload fault-free, under a seeded durable
    crash/restart of the server, and under the same schedule with an
    amnesiac server (its reply cache dies with it).  Checks: the
    durable row matches fault-free in checksum with no failed call
    (["durable_ok"]); the durable schedule run twice reproduces the
    fault-decision log (its MD5 is fact ["digest"]) and checksum
    (["replay_equal"]); the amnesia row is compared but not enforced
    (["amnesia_ok"]), since re-execution is what it shows. *)
val crash_compare :
  ?seed:int -> ?crashes:int -> ?calls:int -> ?window:int -> unit ->
  Gate.report

(** The durable exactly-once property over loopback TCP for one seed:
    a seeded chaos injector (lossy links, one durable kill/restart,
    TCP severs, endpoint stalls) under which no call fails, the
    checksum matches the closed form and the handler runs exactly once
    per boxed value.  [test/test_chaos.ml] drives this as a QCheck
    property; the chaos gate sweeps it over a seed range. *)
val chaos_exactly_once :
  ?calls:int -> ?window:int -> seed:int -> unit -> Gate.check

(** The crash comparison lifted onto real sockets: the same echo
    workload over the loopback TCP mesh with the {!Rmi_net.Chaos}
    injector and the {!Rmi_net.Reliable} adapter — fault-free, durable
    and amnesiac chaos.  Checks: every row's checksum equals
    fault-free with no failed call (["rows_ok"]), durable executions
    equal fault-free's (["exactly_once"]), the same-seed rerun replays
    the issue-order reply stream (fact ["digest"], ["replay_equal"]),
    the injector's frame schedule equals the bare [Fault_sim] schedule
    (["parity_equal"]), and every seed of a [sweep]-seed
    {!chaos_exactly_once} sweep (default 300) holds (["sweep"]). *)
val chaos_compare :
  ?seed:int -> ?calls:int -> ?window:int -> ?sweep:int -> unit -> Gate.report

(** Run the same swap workload three ways: all-generic marshaling
    ([class]), the specialized plan from call one ([site + reuse +
    cycle], the paper's static model), and the adaptive tier (generic
    until [hot_threshold] calls, specialized after).  Rows: one
    summary per tier, then the warmup curve (wire bytes per call per
    [window] calls).  Checks: replies byte-identical across tiers
    (["replies_equal"]), the adaptive run's final window costs exactly
    AOT's bytes and messages (["converged"]) and it promoted the site
    (["promoted"]). *)
val tiers_compare :
  ?calls:int -> ?window:int -> ?hot_threshold:int -> unit -> Gate.report

(** Run the paper-table message shapes (Table 1's 100-cell chain,
    Table 2's 16x16 double matrix) over raw, reliable, batched-reliable
    and seeded-lossy-reliable links on the zero-copy wire path.  Every
    physical frame is digested on its way out (before the fault
    simulator).  For the argument sets CI runs (defaults;
    [~calls:24 ~window:8]; [~calls:24 ~seed:1234]) the digests
    (["frames_ok"]) and copied bytes (["copied_ok"]) must equal the
    values pinned when the copy-based framing was retired; every
    result must be the fault-free fold (["results_ok"]); for any
    arguments each enveloped row must copy at most half the bytes per
    call that framing did (["copy_bound"]). *)
val wirecost_compare :
  ?calls:int -> ?window:int -> ?seed:int -> unit -> Gate.report

(** The checked-in pre-arena minor-words-per-call baseline for the
    gated row (matrix16x16, reliable, site+reuse+cycle) from
    BENCH_wire.json. *)
val alloc_baseline_minor : float

(** Run the paper-table message shapes through their site-specialized
    plans (the matrix through the flat struct-of-arrays step) over raw,
    reliable, seeded-lossy-reliable and reliable-with-reuse links.
    Checks: frame digests (["frames_ok"]) and reply checksums
    (["results_ok"]) equal the values pinned for [alloc --seed 42] and
    the library defaults when the GC-heap decoder was retired; the
    gated row spends <= 50% of {!alloc_baseline_minor}
    (["gate_ok"]); on the no-reuse rows the arena counts allocs and
    resets, falls back for <= 10% of them and spends fewer minor words
    per call than the retired GC-heap decoder did at the pin
    (["arena_ok"]; row field [minor_words_per_call_heap]). *)
val alloc_compare :
  ?calls:int -> ?window:int -> ?seed:int -> unit -> Gate.report

(** Drive [calls] pipelined RMIs from one client round-robin across
    [servers] machines — chain100 and matrix16x16, each over reliable,
    batched and seeded-lossy links — once on a one-worker pool and once
    on the work-stealing pool of [domains] workers
    ([queue_depth]-bounded per-node queues).  [spin] re-folds the
    argument in the handler so servers are CPU-bound.  Checks: reply
    digests identical across domain counts (["digest_ok"]), and
    matrix16x16/reliable reaching [speedup_floor]x throughput with
    p999 within [tail_tol]x (["perf_ok"]) — enforced only when the
    host recommends at least [domains + 1] domains (fact
    ["perf_enforced"]), since one core cannot exhibit parallel
    speedup. *)
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
  Gate.report

(** Run the paper-table message shapes (chain100, matrix16x16) over the
    simulated interconnect and over a real TCP loopback mesh
    ({!Rmi_runtime.Fabric.backend}), sequentially, pipelined, and
    pipelined+batched, under the parallel fabric.  Checks:
    byte-identical issue-order reply digests and checksums
    (["digest_ok"]) and identical wire counters and modeled seconds
    (["model_ok"]) between the backends; each row also carries the
    backend's wall clock. *)
val transport_compare :
  ?calls:int -> ?window:int -> ?seed:int -> unit -> Gate.report

(** [transport_proc ~self ~addrs ()] runs machine [self] of a TCP
    cluster spread over real OS processes ([addrs.(i)] is machine [i]'s
    [(host, port)]; [?listen] overrides the bind address).  Servers
    ([self > 0]) export the wire workloads and block serving until
    machine 0 shuts them down, returning [None]; the client ([self =
    0]) drives [calls] pipelined RMIs per workload round-robin across
    the servers and returns one row per workload with its issue-order
    reply digest.  Blocks until the full mesh is connected.

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
  Gate.report option
