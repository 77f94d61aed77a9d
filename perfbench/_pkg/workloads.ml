(* The three benchmark workloads: their configuration, the paper model
   each compiles, the seeded inputs, the server handler with its own
   correctness check, and the client-side reply check.

   Every check compares against values the benchmark computes itself
   (cell counts, closed-form sums, the requested page id), never
   against anything the runtime reports. *)

module Value = Rmi.Value
module Node = Rmi.Node
module Fabric = Rmi.Fabric
module Config = Rmi.Config
module Metrics = Rmi.Metrics
module Plan = Rmi.Internals.Plan
module App_common = Rmi_apps.App_common

type inputs = {
  count : int;  (* the client cycles through inputs [0, count) *)
  args : Value.t array array;  (* call arguments of input [k] *)
  reply : int -> Value.t option;  (* what the server answers input [k] *)
  check : int -> Value.t option -> bool;  (* client-side reply check *)
  classes : int;  (* distinct arguments the server tells apart *)
  class_of : int -> int;  (* the argument class of input [k] *)
  serve : Value.t array -> int * Value.t option;
      (* the exported handler: the class it recognised in the argument
         (-1 when the argument failed its check) and the reply *)
}

type spec = {
  name : string;
  w : int;  (* calls per burst; the burst is awaited before the next *)
  backend : Fabric.backend;
  mode : Fabric.mode;
  config : Config.t;
  lossy : Rmi.Fault_sim.profile option;
  model : string;  (* the paper model, compiled through jfront + core *)
  remote_meth : string;
  has_ret : bool;
  app_plans : unit -> (int, Plan.t) Hashtbl.t;
      (* plans of the same model as the application ships it *)
  make_inputs : seed:int -> inputs;
  reference : Pb_util.kernel;  (* the reference kernel closest to its calls *)
  skip_stolen : bool;
      (* the timing metrics skip the windows with the most steal time
         ([E2e.quiet_windows]).  On for the workload whose threads
         hand each call to each other through timed wake-ups, where a
         few milliseconds of steal stretch the tail several times; a
         single thread that never waits only loses the stolen time,
         and there the smaller sample costs more than it saves *)
  heap_calls : int;
      (* peak_heap_mb is read when the timed region passes this many
         calls, so that heaps which grow with every call compare at
         the same call count whatever the run's speed *)
  params : (string * string) list;  (* workload parameters, for provenance *)
}

(* ------------------------------------------------------------------ *)
(* list-sync: Table 1 / Figure 14                                      *)
(* ------------------------------------------------------------------ *)

(* Figure 14 as the Linked_list application writes it *)
let list_model =
  {|
  class LinkedList {
    LinkedList next;
  }
  remote class Foo {
    void send(LinkedList l) { }
  }
  class Driver {
    static void benchmark() {
      LinkedList head = null;
      for (int i = 0; i < 100; i++) {
        LinkedList n = new LinkedList();
        n.next = head;
        head = n;
      }
      Foo f = new Foo();
      for (int r = 0; r < 100; r++) { f.send(head); }
    }
  }
  |}

let list_cells = 100

let rec count_cells acc = function
  | Value.Null -> acc
  | Value.Obj o when Array.length o.Value.fields = 1 ->
      count_cells (acc + 1) o.Value.fields.(0)
  | _ -> -1

(* The list's shape is fixed by the paper, so the seed changes nothing
   here: every seed sends the same 100 cells. *)
let list_inputs ~seed:_ =
  let rec build acc k =
    if k = 0 then acc
    else begin
      let c = Value.new_obj ~cls:0 ~nfields:1 in
      c.Value.fields.(0) <- acc;
      build (Value.Obj c) (k - 1)
    end
  in
  let head = build Value.Null list_cells in
  {
    count = 1;
    args = [| [| head |] |];
    reply = (fun _ -> None);
    check = (fun _ v -> v = None);
    classes = 1;
    class_of = (fun _ -> 0);
    serve =
      (fun args -> ((if count_cells 0 args.(0) = list_cells then 0 else -1), None));
  }

(* ------------------------------------------------------------------ *)
(* matrix-lossy: Table 2 / Figure 12                                   *)
(* ------------------------------------------------------------------ *)

let array_model =
  {|
  remote class ArrayBench {
    void send(double[][] arr) { }
  }
  class Driver {
    static void benchmark() {
      double[][] arr = new double[16][16];
      ArrayBench f = new ArrayBench();
      for (int r = 0; r < 100; r++) { f.send(arr); }
    }
  }
  |}

let matrix_n = 16
let matrix_variants = 16

(* a few percent of each fault kind on every link *)
let light_lossy =
  {
    Rmi.Fault_sim.drop = 0.02;
    duplicate = 0.02;
    reorder = 0.02;
    corrupt = 0.02;
    max_delay = 3;
  }

(* m.(i).(j) = a + b * (i * n + j), so the sum has the closed form
   n^2 * a + b * n^2 * (n^2 - 1) / 2, exact in doubles at these sizes *)
let matrix_expected ~a ~b =
  let nn = matrix_n * matrix_n in
  float_of_int ((nn * a) + (b * nn * (nn - 1) / 2))

(* The variant a received matrix is, or -1.  Its first two entries
   name a seeded (a, b) pair; every row must be [matrix_n] doubles and
   the sum must equal the closed form of that pair. *)
let matrix_class variants arg =
  match arg with
  | Value.Rarr outer when Array.length outer.Value.ra = matrix_n -> (
      let sum = ref 0.0 and rows_ok = ref true in
      Array.iter
        (function
          | Value.Darr row when Array.length row.Value.d = matrix_n ->
              Array.iter (fun x -> sum := !sum +. x) row.Value.d
          | _ -> rows_ok := false)
        outer.Value.ra;
      match outer.Value.ra.(0) with
      | Value.Darr row0 when !rows_ok -> (
          let a0 = row0.Value.d.(0) and a1 = row0.Value.d.(1) in
          let rec find k =
            if k >= Array.length variants then -1
            else
              let a, b = variants.(k) in
              if float_of_int a = a0 && float_of_int (a + b) = a1 then k
              else find (k + 1)
          in
          match find 0 with
          | -1 -> -1
          | k ->
              let a, b = variants.(k) in
              if !sum = matrix_expected ~a ~b then k else -1)
      | _ -> -1)
  | _ -> -1

let matrix_inputs ~seed =
  let rng = Random.State.make [| seed; 0x3a7 |] in
  (* distinct (a, b) pairs, so the server can tell the variants apart *)
  let rec draw_variants acc k =
    if k = 0 then Array.of_list (List.rev acc)
    else
      let ab = (Random.State.int rng 2001 - 1000, 1 + Random.State.int rng 100) in
      if List.mem ab acc then draw_variants acc k
      else draw_variants (ab :: acc) (k - 1)
  in
  let variants = draw_variants [] matrix_variants in
  let make (a, b) =
    let outer = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) matrix_n in
    for i = 0 to matrix_n - 1 do
      let row = Value.new_darr matrix_n in
      for j = 0 to matrix_n - 1 do
        row.Value.d.(j) <- float_of_int (a + (b * ((i * matrix_n) + j)))
      done;
      outer.Value.ra.(i) <- Value.Darr row
    done;
    Value.Rarr outer
  in
  let matrices = Array.map make variants in
  {
    count = matrix_variants;
    args = Array.map (fun m -> [| m |]) matrices;
    reply = (fun _ -> None);
    check = (fun _ v -> v = None);
    classes = matrix_variants;
    class_of = Fun.id;
    serve = (fun args -> (matrix_class variants args.(0), None));
  }

(* ------------------------------------------------------------------ *)
(* web-sock: Table 7                                                   *)
(* ------------------------------------------------------------------ *)

let web_model =
  {|
  class Url  { int[] chars; }
  class Page { int[] data; }

  remote class Slave {
    Page get_page(Url u) {
      // look the page up (reads the url), build the reply page
      int h = u.chars[0];
      Page p = new Page();
      p.data = new int[1024];
      p.data[0] = h;
      return p;
    }
  }

  class Master {
    static void run() {
      Slave s = new Slave();
      Url u = new Url();
      u.chars = new int[32];
      for (int i = 0; i < 1000; i++) {
        // the master forwards the page to the client: it only reads
        // the payload, nothing is retained
        Page p = s.get_page(u);
        int len = p.data.length;
      }
    }
  }
  |}

let web_pages = 64
let url_ints = 32
let page_ints = 128 (* 1 KB of 8-byte ints *)
let web_draws = 4096

let page_word ~salt id i = salt + (id * 1000) + i

let web_inputs ~seed =
  let rng = Random.State.make [| seed; 0x3eb |] in
  let salt = Random.State.int rng 1_000_000 in
  let urls =
    Array.init web_pages (fun id ->
        let chars = Value.new_iarr url_ints in
        for i = 1 to url_ints - 1 do
          chars.Value.ia.(i) <- Random.State.int rng (1 lsl 20)
        done;
        chars.Value.ia.(0) <- id;
        let u = Value.new_obj ~cls:0 ~nfields:1 in
        u.Value.fields.(0) <- Value.Iarr chars;
        Value.Obj u)
  in
  let pages =
    Array.init web_pages (fun id ->
        let data = Value.new_iarr page_ints in
        Array.iteri
          (fun i _ -> data.Value.ia.(i) <- page_word ~salt id i)
          data.Value.ia;
        let p = Value.new_obj ~cls:1 ~nfields:1 in
        p.Value.fields.(0) <- Value.Iarr data;
        Value.Obj p)
  in
  (* Zipf-like popularity: page k is drawn with weight 1 / (k + 1) *)
  let cdf = Array.make web_pages 0.0 in
  let acc = ref 0.0 in
  for k = 0 to web_pages - 1 do
    acc := !acc +. (1.0 /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  let draw () =
    let x = Random.State.float rng !acc in
    let rec find k = if k >= web_pages - 1 || x < cdf.(k) then k else find (k + 1) in
    find 0
  in
  let draws = Array.init web_draws (fun _ -> draw ()) in
  let url_chars = function
    | Value.Obj u -> (
        match u.Value.fields.(0) with Value.Iarr c -> Some c.Value.ia | _ -> None)
    | _ -> None
  in
  (* the page a received URL names, when every int matches the seeded
     URL of that page; else -1 *)
  let url_id arg =
    match url_chars arg with
    | Some c when Array.length c = url_ints && c.(0) >= 0 && c.(0) < web_pages
      -> (
        let id = c.(0) in
        match url_chars urls.(id) with Some u when u = c -> id | _ -> -1)
    | _ -> -1
  in
  let page_ok id = function
    | Some (Value.Obj p) -> (
        match p.Value.fields.(0) with
        | Value.Iarr d ->
            Array.length d.Value.ia = page_ints
            && d.Value.ia.(0) = page_word ~salt id 0
            && d.Value.ia.(page_ints - 1) = page_word ~salt id (page_ints - 1)
        | _ -> false)
    | _ -> false
  in
  {
    count = web_draws;
    args = Array.map (fun id -> [| urls.(id) |]) draws;
    reply = (fun k -> Some pages.(draws.(k)));
    check = (fun k v -> page_ok draws.(k) v);
    classes = web_pages;
    class_of = (fun k -> draws.(k));
    serve =
      (fun args ->
        let id = url_id args.(0) in
        (id, Some pages.(max 0 id)));
  }

(* ------------------------------------------------------------------ *)
(* the table                                                           *)
(* ------------------------------------------------------------------ *)

let preset = Config.site_reuse_cycle

let all =
  [
    {
      name = "list-sync";
      w = 1;
      backend = Fabric.Sim;
      mode = Fabric.Sync;
      config = preset;
      lossy = None;
      model = list_model;
      remote_meth = "Foo.send";
      has_ret = false;
      app_plans = (fun () -> (Rmi_apps.Linked_list.compiled ()).App_common.plans);
      make_inputs = list_inputs;
      reference = Pb_util.Cell_list;
      skip_stolen = false;
      heap_calls = 100_000;
      params =
        [ ("cells", string_of_int list_cells); ("transport", "raw") ];
    };
    {
      name = "matrix-lossy";
      w = 32;
      backend = Fabric.Sim;
      mode = Fabric.Sync;
      config = Config.with_batching (Config.with_reliable preset);
      lossy = Some light_lossy;
      model = array_model;
      remote_meth = "ArrayBench.send";
      has_ret = false;
      app_plans = (fun () -> (Rmi_apps.Array_bench.compiled ()).App_common.plans);
      make_inputs = matrix_inputs;
      reference = Pb_util.Rows;
      skip_stolen = false;
      heap_calls = 200_000;
      params =
        [
          ("matrix", Printf.sprintf "%dx%d double" matrix_n matrix_n);
          ("variants", string_of_int matrix_variants);
          ("transport", "reliable+batching");
          ( "faults",
            Printf.sprintf "drop=%g dup=%g reorder=%g corrupt=%g max_delay=%d"
              light_lossy.drop light_lossy.duplicate light_lossy.reorder
              light_lossy.corrupt light_lossy.max_delay );
        ];
    };
    {
      name = "web-sock";
      w = 8;
      backend = Fabric.Sock;
      mode = Fabric.Parallel;
      config = Config.with_domains 1 (Config.with_reliable preset);
      lossy = None;
      model = web_model;
      remote_meth = "Slave.get_page";
      has_ret = true;
      app_plans = (fun () -> (Rmi_apps.Webserver.compiled ()).App_common.plans);
      make_inputs = web_inputs;
      reference = Pb_util.(Mix [ Frames; Syscalls; Sleeps ]);
      skip_stolen = true;
      heap_calls = 100_000;
      params =
        [
          ("pages", string_of_int web_pages);
          ("url_ints", string_of_int url_ints);
          ("page_bytes", string_of_int (8 * page_ints));
          ("popularity", "zipf s=1");
          ("transport", "reliable (Reliable.wrap over loopback TCP)");
          ("domains", "1");
        ];
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) all

(* ------------------------------------------------------------------ *)
(* set-up                                                              *)
(* ------------------------------------------------------------------ *)

type inst = {
  spec : spec;
  fabric : Fabric.t;
  compiled : App_common.compiled;
  metrics : Metrics.t;
  caller : Node.t;
  dest : Rmi.Remote_ref.t;
  meth : int;
  site : int;
  served : int Atomic.t array;  (* handler runs per recognised class *)
  bad : int Atomic.t;  (* handler runs whose argument failed its check *)
  issued : int array;  (* calls the client issued per argument class *)
}

let plans_sorted tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* the wall-clock and process CPU time of one set-up *)
type setup_time = { wall_s : float; cpu_s : float }

(* One set-up, timed: compile the model through jfront and core, create
   the fabric, export the handler and start the serving side.  It ends
   when the first call can be issued. *)
let setup spec ~seed inputs =
  let served = Array.init inputs.classes (fun _ -> Atomic.make 0) in
  let bad = Atomic.make 0 in
  let t0 = Pb_util.now_ns () and c0 = Sys.time () in
  let compiled = App_common.compile (Jfront.Lower.compile spec.model) in
  let prog = compiled.App_common.prog in
  let meth = Jfront.Lower.method_named prog spec.remote_meth in
  let site =
    match Jir.Program.remote_callsites prog with
    | [ (_, site, _, _, _) ] -> site
    | _ -> failwith (spec.name ^ ": expected one remote call site")
  in
  let metrics = Metrics.create () in
  let faults =
    Option.map (fun p -> Rmi.Fault_sim.create ~seed ~n:2 p) spec.lossy
  in
  let fabric =
    Fabric.create ~mode:spec.mode ~backend:spec.backend ?faults ~n:2
      ~meta:compiled.App_common.meta ~config:spec.config
      ~plans:compiled.App_common.plans ~metrics ()
  in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth ~has_ret:spec.has_ret
    (fun args ->
      let cls, reply =
        try inputs.serve args with _ -> (-1, inputs.reply 0)
      in
      if cls >= 0 && cls < inputs.classes then Atomic.incr served.(cls)
      else Atomic.incr bad;
      reply);
  Fabric.start fabric;
  let setup_s =
    { wall_s = Pb_util.seconds_since t0; cpu_s = Sys.time () -. c0 }
  in
  ( {
      spec;
      fabric;
      compiled;
      metrics;
      caller = Fabric.node fabric 0;
      dest = Rmi.Remote_ref.make ~machine:1 ~obj:0;
      meth;
      site;
      served;
      bad;
      issued = Array.make inputs.classes 0;
    },
    setup_s )

let teardown inst =
  Fabric.stop inst.fabric;
  Fabric.shutdown_net inst.fabric

(* The first set-up, which also checks that the benchmark compiled the
   same plans as the application ships for this model. *)
let setup_checked spec ~seed inputs =
  let inst, dt = setup spec ~seed inputs in
  if plans_sorted inst.compiled.App_common.plans <> plans_sorted (spec.app_plans ())
  then begin
    teardown inst;
    failwith
      (spec.name
     ^ ": the benchmark's copy of the model compiles to other plans than the \
        application's")
  end;
  (inst, dt)

(* one more set-up, torn down at once; returns its time *)
let extra_setup spec ~seed inputs =
  let inst, dt = setup spec ~seed inputs in
  teardown inst;
  dt

(* ------------------------------------------------------------------ *)
(* the closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type loop = {
  mutable next : int;  (* next input index *)
  mutable calls : int;  (* calls issued *)
  mutable failed : int;  (* awaits that raised *)
  mutable wrong : int;  (* replies that failed the client check *)
  mutable first_error : string option;
  mutable lat : lat_buffer;  (* per-call latency, ns *)
  mutable nlat : int;
}

(* kept off the GC heap so the benchmark's own samples do not show in
   the heap metrics *)
and lat_buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let lat_buffer n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let new_loop ~capacity =
  {
    next = 0;
    calls = 0;
    failed = 0;
    wrong = 0;
    first_error = None;
    lat = lat_buffer (max 16 capacity);
    nlat = 0;
  }

let record_lat l ns =
  let cap = Bigarray.Array1.dim l.lat in
  if l.nlat >= cap then begin
    let bigger = lat_buffer (2 * cap) in
    Bigarray.Array1.blit l.lat (Bigarray.Array1.sub bigger 0 cap);
    l.lat <- bigger
  end;
  Bigarray.Array1.unsafe_set l.lat l.nlat (float_of_int ns);
  l.nlat <- l.nlat + 1

(* the latencies recorded in the index ranges [\[i0, i1)], each range
   scaled by its factor, sorted *)
let latencies_of l ranges =
  let n = List.fold_left (fun a (i0, i1, _) -> a + (i1 - i0)) 0 ranges in
  let s = Array.make n 0.0 and k = ref 0 in
  List.iter
    (fun (i0, i1, f) ->
      for i = i0 to i1 - 1 do
        s.(!k) <- Bigarray.Array1.get l.lat i *. f;
        incr k
      done)
    ranges;
  Array.sort Float.compare s;
  s

(* Issue bursts of [spec.w] async calls and await each burst before the
   next, until [stop ()] holds at a burst boundary.  Latency runs from
   issuing a call to its await returning, on the monotonic clock. *)
let run_bursts inst inputs l ~stop =
  let w = inst.spec.w and has_ret = inst.spec.has_ret in
  let t_issue = Array.make w 0 and ids = Array.make w 0 in
  let futs = Array.make w None in
  while not (stop ()) do
    for j = 0 to w - 1 do
      let idx = l.next in
      l.next <- (if idx + 1 >= inputs.count then 0 else idx + 1);
      ids.(j) <- idx;
      let cls = inputs.class_of idx in
      inst.issued.(cls) <- inst.issued.(cls) + 1;
      t_issue.(j) <- Pb_util.now_ns ();
      futs.(j) <-
        Some
          (Node.call_async inst.caller ~dest:inst.dest ~meth:inst.meth
             ~callsite:inst.site ~has_ret inputs.args.(idx))
    done;
    for j = 0 to w - 1 do
      (match futs.(j) with
      | None -> ()
      | Some f -> (
          match Node.Future.await f with
          | v ->
              record_lat l (Pb_util.now_ns () - t_issue.(j));
              if not (inputs.check ids.(j) v) then l.wrong <- l.wrong + 1
          | exception e ->
              l.failed <- l.failed + 1;
              if l.first_error = None then
                l.first_error <- Some (Printexc.to_string e)));
      futs.(j) <- None
    done;
    l.calls <- l.calls + w
  done

(* Warm up for [warmup_s] (a quarter of [calls] in smoke mode).
   Returns the warm loop and a latency capacity for [seconds] more at
   the warm-up rate. *)
let warm_up inst inputs ~calls ~warmup_s ~seconds =
  let warm = new_loop ~capacity:1024 in
  let t0 = Pb_util.now_ns () in
  let deadline = t0 + int_of_float (warmup_s *. 1e9) in
  run_bursts inst inputs warm ~stop:(fun () ->
      match calls with
      | Some n -> warm.calls >= max 1 (n / 4)
      | None -> Pb_util.now_ns () >= deadline);
  let rate = float_of_int warm.calls /. Pb_util.seconds_since t0 in
  let capacity =
    match calls with
    | Some n -> n + inst.spec.w
    | None -> int_of_float (rate *. seconds *. 1.5) + 1024
  in
  (warm, capacity)

(* What the server saw against what the client issued: every handler
   run must have recognised its argument, and each argument class must
   have been served exactly as often as it was issued. *)
let delivery_problems inst =
  let bad = Atomic.get inst.bad in
  let served = Array.map Atomic.get inst.served in
  let total a = Array.fold_left ( + ) 0 a in
  let mismatched = ref 0 in
  Array.iteri (fun k n -> if served.(k) <> n then incr mismatched) inst.issued;
  List.concat
    [
      (if bad > 0 then
         [ Printf.sprintf "%d arguments failed the server check" bad ]
       else []);
      (if !mismatched > 0 || total served + bad <> total inst.issued then
         [
           Printf.sprintf
             "handler ran %d times for %d issued calls; %d argument \
              classes were served a different number of times than issued"
             (total served + bad) (total inst.issued) !mismatched;
         ]
       else []);
    ]
