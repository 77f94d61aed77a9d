(* Decode totality: every decoder that reads bytes off the wire, fed
   random, truncated or bit-flipped input, either decodes or fails with
   a typed outcome — [None], [Msgbuf.Underflow], [Codec.Type_confusion],
   or a frame the transport drops and counts — and allocates at most
   [words_per_byte] words per input byte plus [slack_words].  Any other
   exception fails the property with the input that raised it.

   Inputs mix three sources, so that the hostile cases are reached
   often rather than by luck: valid encodings (the decoders' own
   output), those encodings mutated (truncated, a bit flipped, a
   uvarint of an extreme value written over them), and token strings
   built from small marker bytes and extreme uvarints — the shape of a
   header whose length fields lie. *)

open Rmi_wire
module Codec = Rmi_serial.Codec
module Value = Rmi_serial.Value
module Metrics = Rmi_stats.Metrics
module Plan = Rmi_core.Plan
module Envelope = Rmi_net.Envelope
module Transport = Rmi_net.Transport

(* c and k of the allocation bound.  The largest legitimate ratio is a
   few words per byte (a zero-field object costs about 8 words for its
   2 wire bytes); 32 leaves room while still failing by orders of
   magnitude on a length field that is not paid for by input bytes *)
let words_per_byte = 32
let slack_words = 1024

(* words allocated by [f] on this domain, direct major allocations
   included.  The counters are per domain, so another thread of the
   test process that runs meanwhile is counted too; a decoder's
   allocation is deterministic, so the least of three runs is its own *)
let allocated f =
  let once () =
    let mi0, pr0, ma0 = Gc.counters () in
    f ();
    let mi1, pr1, ma1 = Gc.counters () in
    mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0)
  in
  let w = once () in
  if w <= float_of_int slack_words then w
  else Float.min w (Float.min (once ()) (once ()))

(* [decode] either returns or fails with a typed error; anything else
   escapes and fails the property *)
let typed decode input =
  match decode input with
  | _ -> ()
  | exception (Msgbuf.Underflow _ | Codec.Type_confusion _) -> ()

(* [typed], within the allocation bound *)
let total ~what decode input =
  let words = allocated (fun () -> typed decode input) in
  let bound = float_of_int ((words_per_byte * Bytes.length input) + slack_words) in
  if words > bound then
    QCheck.Test.fail_reportf "%s: %.0f words allocated for %d input bytes (bound %.0f)"
      what words (Bytes.length input) bound;
  true

(* ------------------------------------------------------------------ *)
(* input generators                                                    *)
(* ------------------------------------------------------------------ *)

let extreme_uvarints =
  [| 0; 1; 2; 127; 128; 16_384; 1 lsl 20; 1 lsl 24; 1 lsl 30; max_int |]

let uvarint_bytes n =
  let w = Msgbuf.create_writer () in
  Msgbuf.write_uvarint w n;
  Msgbuf.contents w

let gen_extreme_uvarint = QCheck.Gen.(map (fun i -> extreme_uvarints.(i)) (int_bound 9))

(* a header that lies: small marker bytes and extreme lengths, then a
   little random tail *)
let gen_tokens =
  let open QCheck.Gen in
  let token =
    frequency
      [
        (2, map (fun b -> Bytes.make 1 (Char.chr b)) (int_bound 4));
        (2, map uvarint_bytes gen_extreme_uvarint);
        (1, map (fun b -> Bytes.make 1 (Char.chr b)) (int_bound 255));
      ]
  in
  map2
    (fun toks tail -> Bytes.cat (Bytes.concat Bytes.empty toks) (Bytes.of_string tail))
    (list_size (int_range 1 8) token)
    (string_size (int_bound 16))

let mutate valid =
  let open QCheck.Gen in
  let n = Bytes.length valid in
  if n = 0 then return valid
  else
    frequency
      [
        (1, return valid);
        (2, map (fun k -> Bytes.sub valid 0 k) (int_bound (n - 1)));
        ( 3,
          map2
            (fun i bit ->
              let b = Bytes.copy valid in
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
              b)
            (int_bound (n - 1)) (int_bound 7) );
        ( 3,
          map2
            (fun i v ->
              let u = uvarint_bytes v in
              let b = Bytes.copy valid in
              let len = min (Bytes.length u) (n - i) in
              Bytes.blit u 0 b i len;
              b)
            (int_bound (n - 1)) gen_extreme_uvarint );
      ]

let gen_input valid =
  QCheck.Gen.(
    frequency
      [
        (3, valid >>= mutate);
        (2, gen_tokens);
        (1, map Bytes.of_string (string_size (int_bound 64)));
      ])

let arb gen = QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) gen

(* ------------------------------------------------------------------ *)
(* framing: envelopes, batches, RMI headers                            *)
(* ------------------------------------------------------------------ *)

(* source ids run past the 2-machine cluster below: a checksum-valid
   envelope from machine 99 is part of the input space *)
let gen_envelope =
  QCheck.Gen.(
    map
      (fun (k, src, lseq, payload) ->
        let kind = match k with 0 -> Envelope.Data | 1 -> Envelope.Ack | _ -> Envelope.Hb in
        Envelope.encode ~kind ~src ~lseq ~payload:(Bytes.of_string payload) ())
      (quad (int_bound 2) (int_bound 127) (int_bound 8) (string_size (int_bound 24))))

let gen_batch =
  QCheck.Gen.(
    map
      (fun msgs -> Protocol.encode_batch (List.map Bytes.of_string msgs))
      (list_size (int_range 2 6) (string_size (int_bound 12))))

let gen_header =
  QCheck.Gen.(
    map
      (fun (kind, (src, seq), (meth, nargs)) ->
        let w = Msgbuf.create_writer () in
        Protocol.write_header w
          {
            Protocol.kind =
              (match kind with
              | 0 -> Protocol.Request
              | 1 -> Protocol.Reply
              | 2 -> Protocol.Exn_reply
              | _ -> Protocol.Reject);
            src;
            epoch = 0;
            seq;
            target_obj = 0;
            method_id = meth;
            callsite = 1;
            nargs;
            plan_ver = 0;
          };
        Msgbuf.contents w)
      (triple (int_bound 3) (pair (int_bound 200) nat) (pair (int_bound 8) (int_bound 4))))

(* the Reliable receive path over the simulated interconnect: whatever
   arrives, receiving returns a payload or drops the frame — a drop of
   a frame naming an unknown machine is counted.  Receiving is stateful
   (acks, dedup), so only the outcome is checked here; the envelope
   decode it runs is bounded above. *)
let reliable_receiver () =
  let metrics = Metrics.create () in
  let cluster = Rmi_net.Cluster.create ~n:2 metrics in
  let net = Rmi_net.Reliable.wrap (Rmi_net.Sim.pack cluster) in
  fun frame ->
    Rmi_net.Cluster.inject_frame cluster ~dest:0 frame;
    ignore (Transport.try_recv_slice net ~self:0 : (bytes * int * int) option)

let prop_envelope =
  QCheck.Test.make ~count:500 ~name:"envelope decode and Reliable receive are total"
    (arb (gen_input gen_envelope))
    (let receive = reliable_receiver () in
     fun input ->
       total ~what:"Envelope.decode_slice"
         (fun b -> Envelope.decode_slice b ~off:0 ~len:(Bytes.length b))
         input
       && (typed receive input; true))

let prop_batch =
  QCheck.Test.make ~count:500 ~name:"batch split is total"
    (arb (gen_input gen_batch))
    (total ~what:"Protocol.decode_batch_slice" (fun b ->
         Protocol.decode_batch_slice b ~off:0 ~len:(Bytes.length b)))

let prop_header =
  QCheck.Test.make ~count:500 ~name:"RMI header read is total"
    (arb (gen_input gen_header))
    (total ~what:"Protocol.read_header" (fun b ->
         Protocol.read_header (Msgbuf.reader_of_bytes b)))

(* ------------------------------------------------------------------ *)
(* compiled plan readers                                               *)
(* ------------------------------------------------------------------ *)

(* every argument and return step of the paper models' compiled plans,
   plus two hand-built plans reaching the zero-width element steps no
   paper model happens to compile: a flat int matrix and an array
   under a statically-null element step *)
let plan_steps =
  lazy
    (let models =
       [
         Rmi_apps.Linked_list.compiled ();
         Rmi_apps.Array_bench.compiled ();
         Rmi_apps.Lu.compiled ();
         Rmi_apps.Superopt.compiled ();
         Rmi_apps.Webserver.compiled ();
       ]
     in
     let of_model (c : Rmi_apps.App_common.compiled) =
       Hashtbl.fold
         (fun _ (p : Plan.t) acc ->
           let steps =
             Array.to_list p.Plan.args
             @ match p.Plan.ret with Some s -> [ s ] | None -> []
           in
           List.map (fun s -> (c.meta, p.Plan.defs, s)) steps @ acc)
         c.plans []
     in
     let meta = Rmi_serial.Class_meta.make [] in
     List.concat_map of_model models
     @ [
         (meta, [||], Plan.S_flat_array { felem = Plan.F_iarr });
         (meta, [||], Plan.S_obj_array { elem = Plan.S_null });
       ])

(* a valid encoding to mutate: the step's writer applied to a value it
   accepts, when the step is one the generator knows how to fill *)
let valid_value = function
  | Plan.S_flat_array { felem = Plan.F_darr } ->
      let m = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 3 in
      for i = 0 to 2 do
        m.Value.ra.(i) <- Value.Darr (Value.new_darr 4)
      done;
      Some (Value.Rarr m)
  | Plan.S_obj_array { elem = Plan.S_null } ->
      Some (Value.Rarr (Value.new_rarr Jir.Types.Tvoid 5))
  | Plan.S_double_array -> Some (Value.Darr (Value.new_darr 6))
  | Plan.S_int_array -> Some (Value.Iarr (Value.new_iarr 6))
  | Plan.S_int -> Some (Value.Int 300)
  | _ -> None

let gen_plan_input =
  QCheck.Gen.(
    let steps = Lazy.force plan_steps in
    int_bound (List.length steps - 1) >>= fun i ->
    let meta, defs, step = List.nth steps i in
    let valid =
      match valid_value step with
      | None -> gen_tokens
      | Some v ->
          let w = Msgbuf.create_writer () in
          Codec.compile_write ~defs step
            (Codec.make_wctx ~defs meta (Metrics.create ()) ~cycle:false)
            w v;
          return (Msgbuf.contents w)
    in
    map2 (fun input cycle -> (i, cycle, input)) (gen_input valid) bool)

let prop_plan_readers =
  QCheck.Test.make ~count:1000 ~name:"compiled plan readers are total"
    (QCheck.make
       ~print:(fun (i, cycle, b) ->
         let _, _, step = List.nth (Lazy.force plan_steps) i in
         Format.asprintf "%a cycle=%b %S" Plan.pp_step step cycle
           (Bytes.to_string b))
       gen_plan_input)
    (fun (i, cycle, input) ->
      let meta, defs, step = List.nth (Lazy.force plan_steps) i in
      let read = Codec.compile_read ~defs step in
      let rctx = Codec.make_rctx ~defs meta (Metrics.create ()) ~cycle in
      total ~what:(Format.asprintf "compiled reader %a" Plan.pp_step step)
        (fun b -> read rctx (Msgbuf.reader_of_bytes b) ~cand:Value.Null)
        input)

(* ------------------------------------------------------------------ *)
(* Sock's length-prefix reassembly                                     *)
(* ------------------------------------------------------------------ *)

(* The reassembly lives inside Sock's event loop, so it is driven over
   a real connection: machine 0 of a two-process mesh is hosted here,
   and the test plays machine 1 on a raw socket — the hello, then a
   stream of length-prefixed frames written in small chunks (so
   prefixes split across reads), possibly ending in a prefix that lies
   (above the 64 MB frame cap, or with the top bit set).  Machine 0
   must deliver exactly the well-formed frames, in order, and a lying
   prefix must end the link (the peer turns [Down]), not allocate what
   it announces.  Payloads start with a marker byte: one starting with
   the batch code would be split as a batch.  Only the
   outcome is checked: the event loop is another thread of this
   domain, whose allocation the per-domain counters cannot separate. *)

let put32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let prefixed payloads =
  Bytes.concat Bytes.empty
    (List.map
       (fun p ->
         let b = Bytes.create (4 + String.length p) in
         put32 b 0 (String.length p);
         Bytes.blit_string p 0 b 4 (String.length p);
         b)
       payloads)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close fd;
  port

(* dial until machine 0 listens, then write [stream] in [chunk]-byte
   pieces; the socket lands in [conn] *)
let impostor conn port stream ~chunk =
  Thread.create
    (fun () ->
      let rec dial k =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
        | () -> fd
        | exception Unix.Unix_error _ when k > 0 ->
            Unix.close fd;
            Unix.sleepf 0.005;
            dial (k - 1)
      in
      let fd = dial 2000 in
      conn := Some fd;
      let rec send off =
        if off < Bytes.length stream then begin
          let len = min chunk (Bytes.length stream - off) in
          ignore (Unix.write fd stream off len : int);
          Unix.sleepf 1e-4;
          send (off + len)
        end
      in
      try send 0 with Unix.Unix_error _ -> ())
    ()

let lying_prefixes = [| None; Some 0x7fffffff; Some 0xffffffff; Some ((64 * 1024 * 1024) + 1) |]

let prop_sock_reassembly =
  QCheck.Test.make ~count:12 ~name:"sock length-prefix reassembly is total"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 6)
           (map (fun p -> "m" ^ p) (string_of_size Gen.(int_bound 40))))
        (int_range 1 9) (int_bound 3))
    (fun (payloads, chunk, lie) ->
      let port = free_port () in
      let hello = Bytes.create 4 in
      put32 hello 0 1;
      let tail =
        match lying_prefixes.(lie) with
        | None -> Bytes.empty
        | Some v ->
            let b = Bytes.make 12 'x' in
            put32 b 0 v;
            b
      in
      let stream = Bytes.concat Bytes.empty [ hello; prefixed payloads; tail ] in
      let conn = ref None in
      let dialer = impostor conn port stream ~chunk in
      let net =
        Rmi_net.Sock.create_process ~self:0
          ~addrs:[| ("127.0.0.1", port); ("127.0.0.1", free_port ()) |]
          (Metrics.create ())
      in
      Thread.join dialer;
      Fun.protect
        ~finally:(fun () ->
          Transport.shutdown net;
          Option.iter Unix.close !conn)
      @@ fun () ->
      let got =
        List.map
          (fun _ ->
            Option.map Bytes.to_string (Transport.recv_deadline net ~self:0 ~seconds:5.0))
          payloads
      in
      let rec down k =
        Transport.peer_health net ~self:0 ~peer:1 = Transport.Down
        || (k > 0 && (Unix.sleepf 0.005; down (k - 1)))
      in
      got = List.map Option.some payloads
      && Transport.recv_deadline net ~self:0 ~seconds:0.02 = None
      && (lying_prefixes.(lie) = None || down 1000))

let suite =
  [
    ( "decode totality",
      List.map Fixtures.qcheck_case
        [
          prop_envelope;
          prop_batch;
          prop_header;
          prop_plan_readers;
          prop_sock_reassembly;
        ] );
  ]
