(* Benchmark harness.

   Part 1 (Bechamel): one Test.make per paper table — the table's RMI
   unit of work measured under the "class" baseline and under the fully
   optimized "site + reuse + cycle" configuration — plus ablation
   benches for the design choices DESIGN.md calls out (dispatch,
   cycle-table cost, reuse, wire type-information encoding).

   Part 2: the paper-style Tables 1-8, paper-vs-measured, at the small
   workload scale (use bin/main.exe --scale paper for full sizes). *)

open Bechamel
open Toolkit
module Config = Rmi.Config
module Fabric = Rmi.Fabric
module Node = Rmi.Node
module Value = Rmi.Value
module Codec = Rmi.Internals.Codec
module Metrics = Rmi.Metrics
module Plan = Rmi.Internals.Plan
module Msgbuf = Rmi.Internals.Msgbuf

(* ------------------------------------------------------------------ *)
(* per-table RMI units                                                 *)
(* ------------------------------------------------------------------ *)

(* builds a 2-machine Sync fabric for an app and returns a one-RMI
   closure plus the fabric's metrics; all setup happens outside the
   measured region *)
let rmi_unit_m (compiled : Rmi_apps.App_common.compiled) ~config ~export ~call =
  let metrics = Metrics.create () in
  let fabric =
    Fabric.create ~mode:Fabric.Sync ~n:2 ~meta:compiled.meta ~config
      ~plans:compiled.plans ~metrics ()
  in
  export fabric;
  let caller = Fabric.node fabric 0 in
  ((fun () -> call caller), metrics)

let rmi_unit compiled ~config ~export ~call =
  fst (rmi_unit_m compiled ~config ~export ~call)

let meth_named (compiled : Rmi_apps.App_common.compiled) name =
  Jfront.Lower.method_named compiled.Rmi_apps.App_common.prog name

let list_unit_m config =
  let compiled = Rmi_apps.Linked_list.compiled () in
  let meth = meth_named compiled "Foo.send" in
  let site = Rmi_apps.Linked_list.callsite () in
  let head =
    let rec go acc k =
      if k = 0 then acc
      else begin
        let c = Value.new_obj ~cls:0 ~nfields:1 in
        c.Value.fields.(0) <- acc;
        go (Value.Obj c) (k - 1)
      end
    in
    go Value.Null 100
  in
  rmi_unit_m compiled ~config
    ~export:(fun fabric ->
      Node.export (Fabric.node fabric 1) ~obj:0 ~meth ~has_ret:false (fun _ ->
          None))
    ~call:(fun caller ->
      ignore
        (Node.call caller
           ~dest:(Rmi.Remote_ref.make ~machine:1 ~obj:0)
           ~meth ~callsite:site ~has_ret:false [| head |]))

let list_unit config = fst (list_unit_m config)

let array_unit_m config =
  let compiled = Rmi_apps.Array_bench.compiled () in
  let meth = meth_named compiled "ArrayBench.send" in
  let site = Rmi_apps.Array_bench.callsite () in
  let matrix =
    let outer = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 16 in
    for i = 0 to 15 do
      outer.Value.ra.(i) <- Value.Darr (Value.new_darr 16)
    done;
    Value.Rarr outer
  in
  rmi_unit_m compiled ~config
    ~export:(fun fabric ->
      Node.export (Fabric.node fabric 1) ~obj:0 ~meth ~has_ret:false (fun _ ->
          None))
    ~call:(fun caller ->
      ignore
        (Node.call caller
           ~dest:(Rmi.Remote_ref.make ~machine:1 ~obj:0)
           ~meth ~callsite:site ~has_ret:false [| matrix |]))

let array_unit config = fst (array_unit_m config)

let lu_unit config =
  let compiled = Rmi_apps.Lu.compiled () in
  let meth = meth_named compiled "Worker.update" in
  let site = Rmi_apps.Lu.callsite () in
  let block () =
    let outer = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 16 in
    for i = 0 to 15 do
      let inner = Value.new_darr 16 in
      for j = 0 to 15 do
        inner.Value.d.(j) <- float_of_int ((i * 16) + j)
      done;
      outer.Value.ra.(i) <- Value.Darr inner
    done;
    Value.Rarr outer
  in
  let a = block () and col = block () and row = block () in
  rmi_unit compiled ~config
    ~export:(fun fabric ->
      Node.export (Fabric.node fabric 1) ~obj:0 ~meth ~has_ret:true
        (fun args -> Some args.(0)))
    ~call:(fun caller ->
      ignore
        (Node.call caller
           ~dest:(Rmi.Remote_ref.make ~machine:1 ~obj:0)
           ~meth ~callsite:site ~has_ret:true [| a; col; row |]))

let superopt_unit config =
  let compiled = Rmi_apps.Superopt.compiled () in
  let meth = meth_named compiled "Tester.accept" in
  let accept_site, _ = Rmi_apps.Superopt.callsites () in
  let candidate =
    (* Prog{id; insns=[3 x Insn{op; 3 x Operand}]}: class ids in the
       superoptimizer model are 0=Operand 1=Insn 2=Prog *)
    let operand v =
      let o = Value.new_obj ~cls:0 ~nfields:1 in
      o.Value.fields.(0) <- Value.Int v;
      Value.Obj o
    in
    let insns = Value.new_rarr (Jir.Types.Tobject 1) 3 in
    for i = 0 to 2 do
      let ins = Value.new_obj ~cls:1 ~nfields:4 in
      ins.Value.fields.(0) <- Value.Int i;
      ins.Value.fields.(1) <- operand 0;
      ins.Value.fields.(2) <- operand 1;
      ins.Value.fields.(3) <- operand 2;
      insns.Value.ra.(i) <- Value.Obj ins
    done;
    let p = Value.new_obj ~cls:2 ~nfields:2 in
    p.Value.fields.(0) <- Value.Int 7;
    p.Value.fields.(1) <- Value.Rarr insns;
    Value.Obj p
  in
  rmi_unit compiled ~config
    ~export:(fun fabric ->
      Node.export (Fabric.node fabric 1) ~obj:0 ~meth ~has_ret:false (fun _ ->
          None))
    ~call:(fun caller ->
      ignore
        (Node.call caller
           ~dest:(Rmi.Remote_ref.make ~machine:1 ~obj:0)
           ~meth ~callsite:accept_site ~has_ret:false [| candidate |]))

let web_unit config =
  let compiled = Rmi_apps.Webserver.compiled () in
  let meth = meth_named compiled "Slave.get_page" in
  let site = Rmi_apps.Webserver.callsite () in
  let url =
    let chars = Value.new_iarr 32 in
    let u = Value.new_obj ~cls:0 ~nfields:1 in
    u.Value.fields.(0) <- Value.Iarr chars;
    Value.Obj u
  in
  let page =
    let data = Value.new_iarr 256 in
    let p = Value.new_obj ~cls:1 ~nfields:1 in
    p.Value.fields.(0) <- Value.Iarr data;
    Value.Obj p
  in
  rmi_unit compiled ~config
    ~export:(fun fabric ->
      Node.export (Fabric.node fabric 1) ~obj:0 ~meth ~has_ret:true (fun _ ->
          Some page))
    ~call:(fun caller ->
      ignore
        (Node.call caller
           ~dest:(Rmi.Remote_ref.make ~machine:1 ~obj:0)
           ~meth ~callsite:site ~has_ret:true [| url |]))

(* ------------------------------------------------------------------ *)
(* pipelined units: one window of async calls per measured run         *)
(* ------------------------------------------------------------------ *)

let list_pipelined_unit config ~window =
  let compiled = Rmi_apps.Linked_list.compiled () in
  let meth = meth_named compiled "Foo.send" in
  let site = Rmi_apps.Linked_list.callsite () in
  let head =
    let rec go acc k =
      if k = 0 then acc
      else begin
        let c = Value.new_obj ~cls:0 ~nfields:1 in
        c.Value.fields.(0) <- acc;
        go (Value.Obj c) (k - 1)
      end
    in
    go Value.Null 100
  in
  rmi_unit compiled ~config
    ~export:(fun fabric ->
      Node.export (Fabric.node fabric 1) ~obj:0 ~meth ~has_ret:false (fun _ ->
          None))
    ~call:(fun caller ->
      let dest = Rmi.Remote_ref.make ~machine:1 ~obj:0 in
      let futures =
        List.init window (fun _ ->
            Node.call_async caller ~dest ~meth ~callsite:site ~has_ret:false
              [| head |])
      in
      ignore (Node.Future.all futures : Value.t option list))

let array_pipelined_unit config ~window =
  let compiled = Rmi_apps.Array_bench.compiled () in
  let meth = meth_named compiled "ArrayBench.send" in
  let site = Rmi_apps.Array_bench.callsite () in
  let matrix =
    let outer = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 16 in
    for i = 0 to 15 do
      outer.Value.ra.(i) <- Value.Darr (Value.new_darr 16)
    done;
    Value.Rarr outer
  in
  rmi_unit compiled ~config
    ~export:(fun fabric ->
      Node.export (Fabric.node fabric 1) ~obj:0 ~meth ~has_ret:false (fun _ ->
          None))
    ~call:(fun caller ->
      let dest = Rmi.Remote_ref.make ~machine:1 ~obj:0 in
      let futures =
        List.init window (fun _ ->
            Node.call_async caller ~dest ~meth ~callsite:site ~has_ret:false
              [| matrix |])
      in
      ignore (Node.Future.all futures : Value.t option list))

(* ------------------------------------------------------------------ *)
(* ablation micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let ablation_meta =
  Rmi.Internals.Class_meta.make
    [ ("Cell", [ ("next", Jir.Types.Tobject 0); ("v", Jir.Types.Tint) ]) ]

let deep_chain n =
  let rec go acc k =
    if k = 0 then acc
    else begin
      let c = Value.new_obj ~cls:0 ~nfields:2 in
      c.Value.fields.(0) <- acc;
      c.Value.fields.(1) <- Value.Int k;
      go (Value.Obj c) (k - 1)
    end
  in
  go Value.Null n

(* the recursive call-site plan for the chain: dispatch-free, untagged *)
let chain_plan_defs =
  [| Plan.S_obj { cls = 0; fields = [| Plan.S_ref 0; Plan.S_int |] } |]

let ablation_dispatch_dyn () =
  let v = deep_chain 64 in
  let m = Metrics.create () in
  fun () ->
    let w = Msgbuf.create_writer () in
    Codec.write_dyn (Codec.make_wctx ablation_meta m ~cycle:true) w v

let ablation_dispatch_plan () =
  let v = deep_chain 64 in
  let m = Metrics.create () in
  fun () ->
    let w = Msgbuf.create_writer () in
    Codec.write_step
      (Codec.make_wctx ~defs:chain_plan_defs ablation_meta m ~cycle:true)
      w (Plan.S_ref 0) v

let big_array_value () =
  let outer = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 32 in
  for i = 0 to 31 do
    outer.Value.ra.(i) <- Value.Darr (Value.new_darr 32)
  done;
  Value.Rarr outer

let array_step = Plan.S_obj_array { elem = Plan.S_double_array }

let ablation_cycletable on () =
  let v = big_array_value () in
  let m = Metrics.create () in
  fun () ->
    let w = Msgbuf.create_writer () in
    Codec.write_step (Codec.make_wctx ablation_meta m ~cycle:on) w array_step v

let ablation_reuse with_cand () =
  let v = big_array_value () in
  let m = Metrics.create () in
  let w = Msgbuf.create_writer () in
  Codec.write_step (Codec.make_wctx ablation_meta m ~cycle:false) w array_step v;
  let payload = Msgbuf.contents w in
  let cand = if with_cand then big_array_value () else Value.Null in
  fun () ->
    let r = Msgbuf.reader_of_bytes payload in
    ignore
      (Codec.read_step
         (Codec.make_rctx ablation_meta m ~cycle:false)
         r array_step ~cand)

let ablation_dispatch_compiled () =
  let v = deep_chain 64 in
  let m = Metrics.create () in
  let compiled = Codec.compile_write ~defs:chain_plan_defs (Plan.S_ref 0) in
  fun () ->
    let w = Msgbuf.create_writer () in
    compiled (Codec.make_wctx ~defs:chain_plan_defs ablation_meta m ~cycle:true) w v

let ablation_wire_introspect () =
  let v = deep_chain 64 in
  let m = Metrics.create () in
  fun () ->
    let w = Msgbuf.create_writer () in
    Rmi.Internals.Introspect.write (Rmi.Internals.Introspect.make_wctx ablation_meta m) w v

(* ------------------------------------------------------------------ *)
(* BENCH_wire.json: machine-readable zero-copy wire-path numbers       *)
(* ------------------------------------------------------------------ *)

module Gate = Rmi.Gate

(* One (workload, transport) row: wall-clock ns per RMI plus the
   zero-copy wire path's allocation telemetry, over [calls] RMIs after
   a warmup that covers plan compilation, pool priming and the first
   envelopes. *)
let wire_row ~calls workload variant (call, metrics) =
  for _ = 1 to max 8 (calls / 8) do
    call ()
  done;
  let s0 = Metrics.snapshot metrics in
  let g =
    Gate.measure (fun () ->
        for _ = 1 to calls do
          call ()
        done)
  in
  let s1 = Metrics.snapshot metrics in
  let per x = Gate.Num (1, x /. float_of_int calls) in
  {
    Gate.workload;
    variant;
    fields =
      [
        ("ns_per_op", per (g.wall_s *. 1e9));
        ("bytes_copied_per_call", per (float_of_int (s1.bytes_copied - s0.bytes_copied)));
        ("minor_words_per_call", per g.minor_words);
        ("major_words_per_call", per g.major_words);
        ("promoted_words_per_call", per g.promoted_words);
        ("pool_hits", Gate.Int (s1.pool_hits - s0.pool_hits));
        ("pool_misses", Gate.Int (s1.pool_misses - s0.pool_misses));
      ];
  }

let run_wire ~calls path =
  let base = Config.site_reuse_cycle in
  let report =
    {
      Gate.gate = "wire";
      title = "Zero-copy wire path (wall clock + allocation telemetry)";
      facts = [ ("calls", Gate.Int calls) ];
      rows =
        List.concat_map
          (fun (workload, unit_m) ->
            List.map
              (fun (variant, config) ->
                wire_row ~calls workload variant (unit_m config))
              [
                ("raw/zero-copy", base);
                ("reliable/zero-copy", Config.with_reliable base);
              ])
          [ ("chain100", list_unit_m); ("matrix16x16", array_unit_m) ];
      checks = [];
    }
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Gate.to_json report));
  print_endline (Gate.render report);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* runner                                                              *)
(* ------------------------------------------------------------------ *)

let tests ~pipeline ~batch ~window =
  let t name f = Test.make ~name (Staged.stage (f ())) in
  (if pipeline then
     let label suffix = Printf.sprintf "pipeline:%s/window%d" suffix window in
     [
       t (label "list") (fun () ->
           list_pipelined_unit Config.site_reuse_cycle ~window);
       t (label "array") (fun () ->
           array_pipelined_unit Config.site_reuse_cycle ~window);
     ]
     @
     if batch then
       [
         t (label "list+batch") (fun () ->
             list_pipelined_unit
               (Config.with_batching Config.site_reuse_cycle)
               ~window);
         t (label "array+batch") (fun () ->
             array_pipelined_unit
               (Config.with_batching Config.site_reuse_cycle)
               ~window);
       ]
     else []
   else [])
  @ [
    (* one Test.make per paper table: baseline vs fully optimized *)
    t "table1:list/class" (fun () -> list_unit Config.class_);
    t "table1:list/site+reuse+cycle" (fun () -> list_unit Config.site_reuse_cycle);
    t "table2:array/class" (fun () -> array_unit Config.class_);
    t "table2:array/site+reuse+cycle" (fun () -> array_unit Config.site_reuse_cycle);
    t "table3+4:lu-update/class" (fun () -> lu_unit Config.class_);
    t "table3+4:lu-update/site+reuse+cycle" (fun () -> lu_unit Config.site_reuse_cycle);
    t "table5+6:superopt-accept/class" (fun () -> superopt_unit Config.class_);
    t "table5+6:superopt-accept/site+reuse+cycle" (fun () ->
        superopt_unit Config.site_reuse_cycle);
    t "table7+8:web-get-page/class" (fun () -> web_unit Config.class_);
    t "table7+8:web-get-page/site+reuse+cycle" (fun () ->
        web_unit Config.site_reuse_cycle);
    (* ablations *)
    t "ablation:dispatch/dyn" ablation_dispatch_dyn;
    t "ablation:dispatch/plan-interpreted" ablation_dispatch_plan;
    t "ablation:dispatch/plan-compiled" ablation_dispatch_compiled;
    t "ablation:cycletable/on" (fun () -> ablation_cycletable true ());
    t "ablation:cycletable/off" (fun () -> ablation_cycletable false ());
    t "ablation:reuse/fresh" (fun () -> ablation_reuse false ());
    t "ablation:reuse/cached" (fun () -> ablation_reuse true ());
    t "ablation:wire/introspect" ablation_wire_introspect;
    t "ablation:wire/class-tags" ablation_dispatch_dyn;
  ]

let run_benchmarks ~pipeline ~batch ~window () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw_results =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"rmi" (tests ~pipeline ~batch ~window))
  in
  let results = Analyze.all ols Instance.monotonic_clock raw_results in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  print_endline "Bechamel micro-benchmarks (ns per RMI / per operation):";
  print_endline
    (Rmi.Ascii_table.render
       ~headers:[ "benchmark"; "ns/run" ]
       (List.map (fun (n, ns) -> [ n; Printf.sprintf "%.0f" ns ]) rows))

let run_tables () =
  let module E = Rmi.Experiment in
  let timing t =
    print_endline (E.render_timing t);
    print_endline "shape vs paper:";
    print_endline (E.shape_summary t);
    print_newline ()
  in
  timing (E.table1 ());
  timing (E.table2 ());
  let t3 = E.table3 () in
  timing t3;
  print_endline
    (E.stats_table ~id:"table4" ~title:"Table 4: LU runtime statistics" t3
       Rmi.Paper_data.table4_stats);
  let t5 = E.table5 () in
  timing t5;
  print_endline
    (E.stats_table ~id:"table6"
       ~title:"Table 6: Superoptimizer runtime statistics" t5
       Rmi.Paper_data.table6_stats);
  let t7 = E.table7 () in
  timing t7;
  print_endline
    (E.stats_table ~id:"table8" ~title:"Table 8: Webserver runtime statistics" t7
       Rmi.Paper_data.table8_stats)

let main pipeline batch window wire_json_path =
  match wire_json_path with
  | Some path -> run_wire ~calls:1024 path
  | None ->
      run_benchmarks ~pipeline ~batch ~window ();
      print_newline ();
      if pipeline then begin
        print_endline "=== Pipelining / batching comparison ===";
        print_newline ();
        print_endline (Gate.render (Rmi.Experiment.pipeline_compare ~window ()));
        print_newline ()
      end;
      print_endline
        "=== Paper tables (small scale; --scale paper via bin/main.exe) ===";
      print_newline ();
      run_tables ()

let () =
  let open Cmdliner in
  let info =
    Cmd.info "rmi-bench"
      ~doc:
        "Bechamel micro-benchmarks and paper-table reproduction.  \
         $(b,--pipeline) adds futures-based windows (and the \
         pipelining/batching comparison tables); $(b,--batch) adds the \
         coalescing variants."
  in
  let wire_json_arg =
    let doc =
      "Skip the bechamel suite: measure the Table 1/2 message shapes on the \
       zero-copy wire path over raw and reliable links, and write \
       the machine-readable rows (ns/op, copied bytes per call, minor words \
       per call, pool traffic) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "wire-json" ] ~docv:"PATH" ~doc)
  in
  let term =
    Term.(
      const main $ Rmi.Cli.pipeline_arg $ Rmi.Cli.batch_arg $ Rmi.Cli.window_arg
      $ wire_json_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
