(* Shared helpers of the benchmark: the monotonic clock, order
   statistics, the span recorder and metric output. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* ------------------------------------------------------------------ *)
(* the host's speed                                                    *)
(* ------------------------------------------------------------------ *)

(* Reference kernels: fixed work that uses nothing of the program under
   test.  How much the host slows a piece of code down depends on how
   the code uses memory and the kernel, so each workload is paired with
   the kernel closest to its calls:

   - [Frames] hashes a 2 KB buffer, copies it and folds a 64-element
     list, like the frame work of a socket workload;
   - [Cell_list] builds a 100-cell linked list of records, deep-copies
     it and walks the copy, like marshalling and unmarshalling a list;
   - [Rows] allocates 100 arrays of 16 words, like decoding matrix
     rows;
   - [Syscalls] writes and reads 1 KB on a Unix socket pair;
   - [Sleeps] sleeps 50 us, the wait with which the socket runtime's
     idle loops poll;
   - [Mix ks] stands for code that does each kind of work in [ks]:
     [Mix [Frames; Syscalls; Sleeps]] for a call over a socket, whose
     time goes to user code, the kernel's socket paths and timed
     wake-ups.

   A kernel's rate, in rounds per second, shows how fast the host is
   running that kind of code at the moment; its nominal rate (in
   [reference_speed]) is its typical rate on the 2-vCPU Xeon VM the
   benchmark was developed on. *)
type kernel = Frames | Cell_list | Rows | Syscalls | Sleeps | Mix of kernel list

let ref_buf = Bytes.make 2048 'r'
let ref_dst = Bytes.create 2048

let frames_round () =
  let h = ref 0 in
  for i = 0 to Bytes.length ref_buf - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get ref_buf i)) * 16777619
  done;
  Bytes.blit ref_buf 0 ref_dst 0 (Bytes.length ref_buf);
  let rec build k acc = if k = 0 then acc else build (k - 1) ((k, !h) :: acc) in
  List.fold_left (fun a (k, x) -> a + k + (x land 7)) 0 (build 64 [])

type cell = { next : cell option; v : int }

let cell_list_round () =
  let rec build k acc = if k = 0 then acc else build (k - 1) (Some { next = acc; v = k }) in
  let rec copy = function None -> None | Some c -> Some { next = copy c.next; v = c.v } in
  let rec sum a = function None -> a | Some c -> sum (a + c.v) c.next in
  sum 0 (copy (build 100 None))

let rows_round () =
  let s = ref 0 in
  for i = 1 to 100 do
    let a = Sys.opaque_identity (Array.make 16 i) in
    s := !s + Array.unsafe_get a 3
  done;
  !s

let socket_pair = lazy (Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)

let syscalls_round () =
  let a, b = Lazy.force socket_pair in
  let n = Unix.write a ref_buf 0 1024 in
  Unix.read b ref_dst 0 n

let sleeps_round () =
  Unix.sleepf 50e-6;
  0

let rec kernel_name = function
  | Frames -> "frames"
  | Cell_list -> "cell_list"
  | Rows -> "rows"
  | Syscalls -> "syscalls"
  | Sleeps -> "sleeps"
  | Mix ks -> String.concat "+" (List.map kernel_name ks)

let ref_sink = ref 0

let rate round ~ns =
  let t0 = now_ns () in
  let rounds = ref 0 in
  while now_ns () - t0 < ns do
    for _ = 1 to 4 do
      ref_sink := !ref_sink + round ()
    done;
    rounds := !rounds + 4
  done;
  float_of_int !rounds /. (float_of_int (now_ns () - t0) /. 1e9)

(* The host's speed for [kernel], run [ns] long: its rate over its
   nominal rate.  A composite kernel runs each part [ns] long and takes
   the geometric mean of their speeds. *)
let rec reference_speed kernel ~ns =
  let single round nominal = rate round ~ns /. nominal in
  match kernel with
  | Frames -> single frames_round 150_000.0
  | Cell_list -> single cell_list_round 350_000.0
  | Rows -> single rows_round 240_000.0
  | Syscalls -> single syscalls_round 350_000.0
  | Sleeps -> single sleeps_round 9_000.0
  | Mix ks ->
      Float.exp
        (List.fold_left (fun a k -> a +. Float.log (reference_speed k ~ns)) 0.0 ks
        /. float_of_int (List.length ks))

(* The CPU time the hypervisor has taken from this VM so far (steal),
   summed over its CPUs, in the kernel's clock ticks: the eighth value
   of the "cpu" line of /proc/stat.  0 where that is not available,
   which makes every window look alike. *)
let steal_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields -> (
          match List.nth_opt fields 7 with
          | Some v -> Option.value ~default:0 (int_of_string_opt v)
          | None -> 0)
      | _ -> 0)

(* ------------------------------------------------------------------ *)
(* order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* nearest-rank quantile of a sorted sample, with the number of
   samples strictly beyond it *)
let quantile_rank (s : float array) q =
  let n = Array.length s in
  if n = 0 then (nan, 0)
  else
    let r = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
    (s.(r - 1), n - r)

let quantile s q = fst (quantile_rank s q)

let median_list l =
  match List.sort Float.compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Spans recorded around the benchmark's calls into each layer, kept in
   memory (bounded) and written out as Chrome trace events at the end
   of a traced run.  [clock] separates the benchmark's monotonic clock
   from the runtime Trace's own time base. *)
module Spans = struct
  type clock = Monotonic | Runtime_trace

  type span = {
    id : int;
    parent : int;  (* 0 = root *)
    req : int;  (* spans of one call share it; 0 = none *)
    name : string;
    clock : clock;
    t0_us : float;
    t1_us : float;
  }

  let cap = 50_000
  let spans : span list ref = ref []
  let count = ref 0
  let dropped = ref 0
  let next_id = ref 0

  let clear () =
    spans := [];
    count := 0;
    dropped := 0

  let fresh () =
    incr next_id;
    !next_id

  let add ?(id = fresh ()) ?(parent = 0) ?(req = 0) ?(clock = Monotonic) name
      ~t0_us ~t1_us () =
    if !count < cap then begin
      spans := { id; parent; req; name; clock; t0_us; t1_us } :: !spans;
      incr count
    end
    else incr dropped;
    id

  (* [span name f] runs [f id] inside a root span named [name] *)
  let span name f =
    let id = fresh () in
    let t0 = now_ns () in
    let r = f id in
    let t1 = now_ns () in
    ignore
      (add ~id name ~t0_us:(float_of_int t0 /. 1e3)
         ~t1_us:(float_of_int t1 /. 1e3) ()
        : int);
    r

  let write_chrome path =
    let oc = open_out path in
    output_string oc "{\"traceEvents\": [\n";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s{\"name\": %S, \"ph\": \"X\", \"pid\": %d, \"tid\": 1, \"ts\": \
           %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \
           \"req\": %d}}\n"
          (if i = 0 then "" else ",")
          s.name
          (match s.clock with Monotonic -> 1 | Runtime_trace -> 2)
          s.t0_us
          (s.t1_us -. s.t0_us)
          s.id s.parent s.req)
      (List.rev !spans);
    Printf.fprintf oc "], \"dropped\": %d}\n" !dropped;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s = Printf.sprintf "%S" s

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
             (json_number x.value) (json_string x.unit_))
         ms)
  ^ "}"

let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (metrics_json ms)
