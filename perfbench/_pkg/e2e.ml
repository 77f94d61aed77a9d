(* The untraced run: the end-to-end metrics a user of the RMI system
   sees, measured by the benchmark itself around the public calls. *)

open Pb_util
module W = Workloads

type budget = {
  seconds : float;  (* timed region; ignored when [calls] is set *)
  calls : int option;  (* smoke mode: a fixed number of calls instead *)
  setups : int;  (* set-ups whose times give [setup_s] *)
  warmup_s : float;
}

(* The timed region runs in windows of [window_s], grouped in blocks of
   [block_windows].  Work that is not measured, such as the extra
   set-ups and the reference kernel, runs between blocks, at a burst
   boundary where every call has been awaited. *)
let window_s = 0.25
let block_windows = 4

let windows_in seconds = max 1 (Float.to_int (Float.round (seconds /. window_s)))
let blocks_in seconds = (windows_in seconds + block_windows - 1) / block_windows

(* the reference kernel runs this long after each block, and before
   the first *)
let ref_ns = 10_000_000

type window = {
  wcalls : int;  (* calls completed in the window *)
  wns : int;
  lat0 : int;  (* the window's latencies are [lat0, lat1) of the loop *)
  lat1 : int;
  speed : float;  (* the host's reference speed around the window's block *)
  steal : int;  (* CPU time the hypervisor took from the VM in the window, ticks *)
}

type timed = {
  loop : W.loop;
  windows : window list;  (* in order *)
  minor_words : float;  (* GC deltas summed over the windows *)
  major_words : float;
  promoted_words : float;
  heap_words : int;  (* top of heap when [heap_calls] calls were made *)
  heap_reached : bool;  (* false: the run ended first; read at its end *)
  dm : Rmi.Metrics.snapshot;  (* Metrics delta of the timed region *)
}

(* Warm up, then run the closed loop window by window, calling
   [between b] before block [b]. *)
let timed_loop ?(between = fun _ -> ()) (inst : W.inst) inputs budget =
  let calls = budget.calls and seconds = budget.seconds in
  let warm, capacity =
    W.warm_up inst inputs ~calls ~warmup_s:budget.warmup_s ~seconds
  in
  let l = W.new_loop ~capacity in
  l.W.next <- warm.W.next;
  let heap_calls =
    match calls with Some n -> n | None -> inst.W.spec.W.heap_calls
  in
  let kernel = inst.W.spec.W.reference in
  let nwindows = windows_in seconds in
  let window_ns = int_of_float (window_s *. 1e9) in
  let windows = ref [] and block = ref [] and heap = ref None in
  let minor = ref 0.0 and major = ref 0.0 and promoted = ref 0.0 in
  let i = ref 0 in
  let finished () =
    match calls with Some n -> l.W.calls >= n | None -> !i >= nwindows
  in
  (* the windows of a block get the mean of the reference speeds
     measured on either side of it *)
  let close_block r0 =
    let r1 = reference_speed kernel ~ns:ref_ns in
    windows :=
      List.map (fun w -> { w with speed = (r0 +. r1) /. 2.0 }) !block @ !windows;
    block := [];
    r1
  in
  Gc.full_major ();
  let m0 = Rmi.Metrics.snapshot inst.W.metrics in
  between 0;
  let r0 = ref (reference_speed kernel ~ns:ref_ns) in
  while not (finished ()) do
    if !i > 0 && !i mod block_windows = 0 then begin
      r0 := close_block !r0;
      between (!i / block_windows)
    end;
    incr i;
    let c0 = l.W.calls - l.W.failed and lat0 = l.W.nlat in
    let s0 = steal_ticks () in
    let g0 = Gc.quick_stat () in
    let t0 = now_ns () in
    W.run_bursts inst inputs l ~stop:(fun () ->
        if !heap = None && l.W.calls >= heap_calls then
          heap := Some (Gc.quick_stat ()).Gc.top_heap_words;
        match calls with
        | Some n -> l.W.calls >= n
        | None -> now_ns () - t0 >= window_ns);
    let t1 = now_ns () in
    let g1 = Gc.quick_stat () in
    let s1 = steal_ticks () in
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major := !major +. (g1.Gc.major_words -. g0.Gc.major_words);
    promoted := !promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    block :=
      { wcalls = l.W.calls - l.W.failed - c0; wns = t1 - t0; lat0; lat1 = l.W.nlat;
        speed = nan; steal = s1 - s0 }
      :: !block
  done;
  ignore (close_block !r0 : float);
  let m1 = Rmi.Metrics.snapshot inst.W.metrics in
  let heap_words, heap_reached =
    match !heap with
    | Some h -> (h, true)
    | None -> ((Gc.quick_stat ()).Gc.top_heap_words, false)
  in
  {
    loop = l;
    windows = List.rev !windows;
    minor_words = !minor;
    major_words = !major;
    promoted_words = !promoted;
    heap_words;
    heap_reached;
    dm = Rmi.Metrics.diff m1 m0;
  }

(* ------------------------------------------------------------------ *)
(* normalising to the reference speed                                  *)
(* ------------------------------------------------------------------ *)

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

(* The windows the timing metrics are taken over.  When the hypervisor
   takes a CPU from the VM (steal time), every thread on it stops, and
   the calls in flight wait out the stall: in a window with 50 ms of
   steal the p99 of [web-sock] is several times its usual value, and
   how many windows that hits changes from minute to minute.  Steal is
   counted per window, so the metrics are taken over the windows with
   the least of it, the VM's undisturbed state: every window with the
   run's smallest count, and no fewer than an eighth of the windows
   (the least-stolen ones, earliest first on ties).  The counts come
   from the host, never from the program's timings, so a change to the
   program moves every window alike and shows in the chosen ones. *)
let quiet_windows ws =
  let k = max 1 (List.length ws / 8) in
  let least = List.fold_left (fun a w -> min a w.steal) max_int ws in
  let clean = List.filter (fun w -> w.steal = least) ws in
  if List.length clean >= k then clean
  else
    List.filteri
      (fun i _ -> i < k)
      (List.stable_sort (fun a b -> compare a.steal b.steal) ws)

(* A shared VM runs the benchmark at a speed that changes by up to 2x
   within minutes (see "Noise on small hosts" in the README).  Each
   block of windows is therefore bracketed by [ref_ns] of the
   workload's reference kernel ([Pb_util.reference_speed]), and the
   timing metrics are given at the kernel's nominal rate: a window in
   which the host ran the kernel at [s] times that rate counts its
   latencies times [s] and its calls per second divided by it.  The raw
   figures are printed in the report too.

   The latencies of the windows [ws] of loop [l], sorted; at the
   reference speed when [norm], else as measured. *)
let latencies ?(norm = true) l ws =
  W.latencies_of l
    (List.map (fun w -> (w.lat0, w.lat1, if norm then w.speed else 1.0)) ws)

(* completed calls per second over the windows [ws] *)
let calls_per_s ?(norm = true) ws =
  let calls =
    List.fold_left
      (fun a w -> a +. (float_of_int w.wcalls /. if norm then w.speed else 1.0))
      0.0 ws
  in
  let ns = List.fold_left (fun a w -> a + w.wns) 0 ws in
  calls /. (float_of_int (max 1 ns) /. 1e9)

(* Per-call latency is bimodal on such hosts, and the share of calls in
   each mode changes from window to window.  The median is therefore
   taken per window and averaged over the windows [ws], which moves in
   proportion to that share.  The p99 is taken per window too.  Even
   in windows without a counted tick of steal, the VM can lose a CPU
   for a few milliseconds, and the calls in flight then make the tail.
   The p99 of the run is therefore the 10th percentile (nearest rank)
   of the windows' p99s: the tail of a window the host left alone,
   which a change to the program's own tail still moves.  Also
   returned: the samples beyond the p99 in the window it was read
   from. *)
let latency_stats ?(norm = true) l ws =
  let per_window = List.map (fun w -> latencies ~norm l [ w ]) ws in
  let p50s = List.map (fun s -> quantile s 0.5) per_window in
  let p99s = Array.of_list (List.map (fun s -> quantile_rank s 0.99) per_window) in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) p99s;
  let n = Array.length p99s in
  let p99, tail =
    if n = 0 then (nan, 0)
    else p99s.(max 1 (int_of_float (Float.ceil (0.1 *. float_of_int n))) - 1)
  in
  (mean p50s, p99, tail)

(* A set-up's time at the reference speed: its CPU part is scaled like
   a window's latencies, the rest (sleeps, waits on the network) is
   kept as measured. *)
let setup_at_reference (t : W.setup_time) ~speed =
  let cpu = Float.min t.W.cpu_s t.W.wall_s in
  t.W.wall_s -. cpu +. (cpu *. speed)

(* ------------------------------------------------------------------ *)
(* the run                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  metrics : metric list;  (* the end-to-end metrics, fixed names *)
  report : metric list;  (* more figures for the report, not the result *)
  attempted : int;
  failed : int;  (* failed + wrong-result + rejected calls *)
  problems : string list;  (* anything that makes the run incorrect *)
  warnings : string list;
  setup_samples : float list;  (* every set-up's wall-clock time, in order, s *)
}

let run (spec : W.spec) ~seed budget =
  let inputs = spec.W.make_inputs ~seed in
  let inst, first_setup = W.setup_checked spec ~seed inputs in
  (* the other set-ups are spread evenly over the timed region, between
     blocks (all before the one window of a smoke run), so that they
     meet the host in the same states as the windows do; each is paired
     with the block that follows it *)
  let extra = max 0 (budget.setups - 1) in
  let nblocks = blocks_in budget.seconds in
  let setups = ref [ (first_setup, 0) ] and made = ref 0 in
  let between b =
    while !made < (b + 1) * extra / nblocks do
      setups := (W.extra_setup spec ~seed inputs, b) :: !setups;
      incr made
    done
  in
  let r =
    Fun.protect
      ~finally:(fun () -> W.teardown inst)
      (fun () -> timed_loop ~between inst inputs budget)
  in
  let last = List.length r.windows - 1 in
  let setup_times = List.rev !setups in
  let windows = Array.of_list r.windows in
  let setup_ref =
    List.map
      (fun (t, b) ->
        setup_at_reference t
          ~speed:windows.(min (b * block_windows) last).speed)
      setup_times
  in
  let setup_wall = List.map (fun ((t : W.setup_time), _) -> t.W.wall_s) setup_times in
  let l = r.loop in
  let calls = l.W.calls in
  let fcalls = float_of_int (max 1 calls) in
  let quiet = if spec.W.skip_stolen then quiet_windows r.windows else r.windows in
  let cps = calls_per_s quiet and p50, p99, tail = latency_stats l quiet in
  let raw_cps = calls_per_s ~norm:false r.windows in
  let raw_p50, raw_p99, _ = latency_stats ~norm:false l r.windows in
  let failed = l.W.failed + l.W.wrong + Atomic.get inst.W.bad in
  let problems =
    List.concat
      [
        (match l.W.first_error with
        | Some e -> [ Printf.sprintf "%d calls failed, first: %s" l.W.failed e ]
        | None -> []);
        (if l.W.wrong > 0 then
           [ Printf.sprintf "%d replies failed the client check" l.W.wrong ]
         else []);
        W.delivery_problems inst;
        (if budget.calls = None && tail < 10 then
           [
             Printf.sprintf
               "the window call_p99_us is read from has only %d samples \
                beyond it"
               tail;
           ]
         else []);
      ]
  in
  let warnings =
    if r.heap_reached then []
    else
      [
        Printf.sprintf
          "the run made %d calls, fewer than the %d at which peak_heap_mb is \
           read; it was read at the end"
          calls spec.W.heap_calls;
      ]
  in
  let metrics =
    [
      m "calls_per_s" "1/s" cps;
      m "call_p50_us" "us" (p50 /. 1e3);
      m "call_p99_us" "us" (p99 /. 1e3);
      m "setup_s" "s" (mean setup_ref);
      m "alloc_words_per_call" "words" (r.minor_words /. fcalls);
      m "peak_heap_mb" "MB"
        (float_of_int (r.heap_words * (Sys.word_size / 8)) /. 1e6);
      m "wire_bytes_per_call" "B" (float_of_int r.dm.Rmi.Metrics.bytes_sent /. fcalls);
      m "modeled_us_per_call" "model_us"
        (Rmi.Costmodel.modeled_seconds Rmi.Costmodel.myrinet_2003 r.dm *. 1e6
       /. fcalls);
    ]
  in
  let report =
    [
      m "failed_frac" "ratio" (float_of_int failed /. fcalls);
      m "call_p99_samples_beyond" "count" (float_of_int tail);
      m "setups" "count" (float_of_int (List.length setup_wall));
      m "windows" "count" (float_of_int (List.length r.windows));
      m "quiet_windows" "count" (float_of_int (List.length quiet));
      m "steal_ticks" "count"
        (float_of_int (List.fold_left (fun a w -> a + w.steal) 0 r.windows));
      m "reference_speed" "ratio" (median_list (List.map (fun w -> w.speed) r.windows));
      m "raw.calls_per_s" "1/s" raw_cps;
      m "raw.call_p50_us" "us" (raw_p50 /. 1e3);
      m "raw.call_p99_us" "us" (raw_p99 /. 1e3);
      m "raw.setup_s" "s" (mean setup_wall);
      m "setup_fast_share" "ratio"
        (float_of_int (List.length (List.filter (fun x -> x < 0.005) setup_wall))
        /. float_of_int (List.length setup_wall));
    ]
  in
  {
    metrics;
    report;
    attempted = calls;
    failed;
    problems;
    warnings;
    setup_samples = setup_wall;
  }
