(* perfbench: the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--provenance JSON] [--span-dir DIR]
     main.exe --smoke [--workload NAME]

   --trace 0 prints the end-to-end metrics of one workload, --trace 1
   the per-layer metrics from a separate traced run.  The last line of
   standard output is the result object; the lines before it give the
   provenance and every metric by name and unit.  The exit code is 0
   only when every call succeeded and every check held.

   --smoke runs every workload (or the one named) for a few hundred
   calls in both modes and prints one result line per run. *)

open Pb_util
module W = Workloads

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let smoke = ref false
let provenance = ref "{}"
let span_dir = ref ""

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let spec_args =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
    ("--seconds", Arg.Set_float seconds, "S length of the measured run");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ("--smoke", Arg.Set smoke, " a few hundred calls per workload, both modes");
    ( "--provenance",
      Arg.Set_string provenance,
      "JSON provenance fields gathered by the launcher" );
    ("--span-dir", Arg.Set_string span_dir, "DIR write the traced run's spans here");
  ]

let provenance_line (spec : W.spec) ~trace ~seconds =
  let params =
    ("w", string_of_int spec.W.w)
    :: ("backend", (match spec.W.backend with Rmi.Fabric.Sim -> "sim" | Rmi.Fabric.Sock -> "sock"))
    :: ("mode", (match spec.W.mode with Rmi.Fabric.Sync -> "sync" | Rmi.Fabric.Parallel -> "parallel"))
    :: ("config", spec.W.config.Rmi.Config.name)
    :: ("reference_kernel", kernel_name spec.W.reference)
    :: spec.W.params
  in
  Printf.sprintf
    "{\"provenance\": {\"workload\": %s, \"seed\": %d, \"trace\": %d, \
     \"seconds\": %s, \"host_cores\": %d, \"ocaml_version\": %s, \
     \"word_size\": %d, \"launcher\": %s, \"params\": {%s}}}"
    (json_string spec.W.name) !seed trace (json_number seconds)
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) Sys.word_size !provenance
    (String.concat ", "
       (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) params))

(* run one workload in one mode; print the report and the result line;
   return whether the run was correct *)
let run_one (spec : W.spec) ~trace ~smoke =
  print_endline (provenance_line spec ~trace ~seconds:!seconds);
  Spans.clear ();
  let attempted, failed, metrics, problems, warnings, extra =
    if trace = 0 then begin
      let budget =
        if smoke then { E2e.seconds = 0.0; calls = Some 320; setups = 2; warmup_s = 0.0 }
        else { E2e.seconds = !seconds; calls = None; setups = 61; warmup_s = 0.5 }
      in
      let o = E2e.run spec ~seed:!seed budget in
      Printf.printf "%s setup_samples_s = [%s]\n" spec.W.name
        (String.concat ", " (List.map json_number o.E2e.setup_samples));
      (o.E2e.attempted, o.E2e.failed, o.E2e.metrics, o.E2e.problems,
       o.E2e.warnings, o.E2e.report)
    end
    else begin
      let budget =
        if smoke then { Layers.seconds = 0.0; calls = Some 320; compiles = 2; warmup_s = 0.0 }
        else { Layers.seconds = !seconds; calls = None; compiles = 21; warmup_s = 0.5 }
      in
      let o = Layers.run spec ~seed:!seed budget in
      if !span_dir <> "" then begin
        let path =
          Filename.concat !span_dir
            (Printf.sprintf "%s-seed%d.trace.json" spec.W.name !seed)
        in
        Spans.write_chrome path;
        Printf.printf "spans written to %s\n" path
      end;
      (o.Layers.attempted, o.Layers.failed, o.Layers.metrics, o.Layers.problems,
       o.Layers.warnings, [])
    end
  in
  let problems =
    if List.for_all (fun x -> Float.is_finite x.value) metrics then problems
    else problems @ [ "a metric is not finite" ]
  in
  List.iter
    (fun x -> Printf.printf "%s %s = %s %s\n" spec.W.name x.name (json_number x.value) x.unit_)
    (metrics @ extra);
  List.iter (fun p -> Printf.printf "%s PROBLEM: %s\n" spec.W.name p) problems;
  List.iter (fun p -> Printf.printf "%s WARNING: %s\n" spec.W.name p) warnings;
  let correct = problems = [] in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  correct

let () =
  Arg.parse spec_args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let specs =
    if !workload = "" && !smoke then W.all
    else
      match W.find !workload with
      | Some s -> [ s ]
      | None ->
          Printf.eprintf "unknown workload %S (known: %s)\n" !workload
            (String.concat ", " (List.map (fun s -> s.W.name) W.all));
          exit 2
  in
  let ok =
    if !smoke then
      List.fold_left
        (fun ok spec ->
          let a = run_one spec ~trace:0 ~smoke:true in
          let b = run_one spec ~trace:1 ~smoke:true in
          ok && a && b)
        true specs
    else if !trace = 0 || !trace = 1 then
      run_one (List.hd specs) ~trace:!trace ~smoke:false
    else begin
      prerr_endline "--trace must be 0 or 1";
      exit 2
    end
  in
  exit (if ok then 0 else 1)
