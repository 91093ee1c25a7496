(* The observability layer end to end: the Chrome-trace exporter's exact
   output (golden), its pair-repair under ring-buffer overflow, lazy
   event details, a pinned export of a world that reaches every device
   trace point, the stable JSON form of the counters, and the ownership
   of a sink by its environment. *)

module Env = Simtime.Env
module Stats = Simtime.Stats
module Probe = Simtime.Probe
module Trace = Mpi_core.Trace

let fresh_env () = Env.create ~cost:Simtime.Cost.motor ()

(* ------------------------------------------------------------------ *)
(* Golden Chrome-trace JSON: field order and formatting are the        *)
(* contract (Perfetto parses it; CI archives it; diffs must be tame).  *)
(* ------------------------------------------------------------------ *)

let golden =
  {|{
"displayTimeUnit": "ms",
"traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "motor"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1000, "args": {"name": "runtime"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "rank 0"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1, "args": {"name": "rank 1"}},
    {"name": "eager", "cat": "ch3", "ph": "B", "ts": 0.000, "pid": 0, "tid": 0, "args": {"dst": "1", "bytes": "64"}},
    {"name": "eager", "cat": "ch3", "ph": "E", "ts": 1.000, "pid": 0, "tid": 0},
    {"name": "allreduce", "cat": "coll", "ph": "b", "ts": 1.000, "pid": 0, "tid": 0, "id": 7},
    {"name": "recv tag=3", "cat": "event", "ph": "i", "ts": 1.500, "pid": 0, "tid": 1, "s": "t"},
    {"name": "allreduce", "cat": "coll", "ph": "e", "ts": 1.500, "pid": 0, "tid": 0, "id": 7},
    {"name": "gc/young", "cat": "gc", "ph": "B", "ts": 1.500, "pid": 0, "tid": 1000},
    {"name": "gc/young", "cat": "gc", "ph": "E", "ts": 1.750, "pid": 0, "tid": 1000}
]
}|}

let test_chrome_golden () =
  let env = fresh_env () in
  let trace = Trace.enable env in
  Probe.span_begin env ~rank:0 ~cat:"ch3" ~name:"eager"
    ~args:(fun () -> [ ("dst", "1"); ("bytes", "64") ]) ();
  Env.charge env 1000.0;
  Probe.span_end env ~rank:0 ~cat:"ch3" ~name:"eager" ();
  Probe.span_begin env ~id:7 ~rank:0 ~cat:"coll" ~name:"allreduce" ();
  Env.charge env 500.0;
  Trace.record env ~rank:1 ~op:"recv" ~detail:(fun () -> "tag=3");
  Probe.span_end env ~id:7 ~rank:0 ~cat:"coll" ~name:"allreduce" ();
  Probe.span_begin env ~rank:(-1) ~cat:"gc" ~name:"gc/young" ();
  Env.charge env 250.0;
  Probe.span_end env ~rank:(-1) ~cat:"gc" ~name:"gc/young" ();
  Alcotest.(check string) "golden chrome json" (golden ^ "\n")
    (Trace.to_chrome_json trace);
  Trace.disable env

(* With a topology, each node is a Chrome process: pid = node id, named
   "node N", and every rank's events carry its node's pid — Perfetto
   then groups the timelines by machine. *)
let golden_topo =
  {|{
"displayTimeUnit": "ms",
"traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "node 0"}},
    {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "node 1"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1000, "args": {"name": "runtime"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1, "args": {"name": "rank 1"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "rank 2"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3, "args": {"name": "rank 3"}},
    {"name": "send tag=1", "cat": "event", "ph": "i", "ts": 0.000, "pid": 0, "tid": 1, "s": "t"},
    {"name": "recv tag=1", "cat": "event", "ph": "i", "ts": 0.500, "pid": 1, "tid": 2, "s": "t"},
    {"name": "eager", "cat": "ch3", "ph": "B", "ts": 0.500, "pid": 1, "tid": 3, "args": {"dst": "0"}},
    {"name": "eager", "cat": "ch3", "ph": "E", "ts": 1.500, "pid": 1, "tid": 3},
    {"name": "gc/young", "cat": "gc", "ph": "B", "ts": 1.500, "pid": 0, "tid": 1000},
    {"name": "gc/young", "cat": "gc", "ph": "E", "ts": 1.750, "pid": 0, "tid": 1000}
]
}|}

let test_chrome_golden_topo () =
  let env = fresh_env () in
  let trace = Trace.enable env in
  Trace.record env ~rank:1 ~op:"send" ~detail:(fun () -> "tag=1");
  Env.charge env 500.0;
  Trace.record env ~rank:2 ~op:"recv" ~detail:(fun () -> "tag=1");
  Probe.span_begin env ~rank:3 ~cat:"ch3" ~name:"eager"
    ~args:(fun () -> [ ("dst", "0") ]) ();
  Env.charge env 1000.0;
  Probe.span_end env ~rank:3 ~cat:"ch3" ~name:"eager" ();
  Probe.span_begin env ~rank:(-1) ~cat:"gc" ~name:"gc/young" ();
  Env.charge env 250.0;
  Probe.span_end env ~rank:(-1) ~cat:"gc" ~name:"gc/young" ();
  Alcotest.(check string) "golden chrome json with topology"
    (golden_topo ^ "\n")
    (Trace.to_chrome_json ~topo:(Simtime.Topology.make ~nodes:2 ~cores:2)
       trace);
  Trace.disable env

(* ------------------------------------------------------------------ *)
(* Overflow repair: once the ring buffer has wrapped, some span begins *)
(* are gone. The exporter must still emit only matched pairs.          *)
(* ------------------------------------------------------------------ *)

let count_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go acc i =
    if i + nl > hl then acc
    else if String.sub haystack i nl = needle then go (acc + 1) (i + 1)
    else go acc (i + 1)
  in
  go 0 0

let test_overflow_pairs () =
  let env = fresh_env () in
  let trace = Trace.enable ~capacity:8 env in
  (* 20 sync spans + 10 async spans: far more than 8 slots, so the
     buffer wraps and orphan ends land at the front of the window. *)
  for i = 1 to 20 do
    Probe.span_begin env ~rank:0 ~cat:"ch3" ~name:"eager" ();
    Env.charge env (float_of_int i);
    Probe.span_end env ~rank:0 ~cat:"ch3" ~name:"eager" ()
  done;
  for i = 1 to 10 do
    Probe.span_begin env ~id:i ~rank:1 ~cat:"coll" ~name:"bcast" ();
    Env.charge env 10.0;
    Probe.span_end env ~id:i ~rank:1 ~cat:"coll" ~name:"bcast" ()
  done;
  (* A dangling begin: the exporter must close it, not drop the pair. *)
  Probe.span_begin env ~rank:0 ~cat:"ch3" ~name:"rndv" ();
  Alcotest.(check bool) "buffer overflowed" true (Trace.dropped trace > 0);
  let json = Trace.to_chrome_json trace in
  Alcotest.(check int) "sync begins match ends"
    (count_substring json "\"ph\": \"B\"")
    (count_substring json "\"ph\": \"E\"");
  Alcotest.(check int) "async begins match ends"
    (count_substring json "\"ph\": \"b\"")
    (count_substring json "\"ph\": \"e\"");
  Alcotest.(check bool) "dangling begin exported" true
    (count_substring json "\"rndv\"" > 0);
  Trace.disable env

(* ------------------------------------------------------------------ *)
(* Stats JSON: the accumulator's own listings, in a stable form.       *)
(* ------------------------------------------------------------------ *)

let test_stats_json_stable () =
  let msgs = Stats.counter "msgs" and other = Stats.counter "other" in
  let lat = Stats.histogram "lat" in
  let stats = Stats.create () in
  Stats.add stats msgs 5;
  Stats.incr stats other;
  Stats.observe stats lat 100.0;
  Stats.observe stats lat 400.0;
  let json = Stats.to_json stats in
  Alcotest.(check bool) "json has counters" true
    (count_substring json "\"counters\"" = 1);
  Alcotest.(check bool) "json has histograms" true
    (count_substring json "\"histograms\"" = 1);
  Alcotest.(check bool) "json lists the counter" true
    (count_substring json "\"msgs\": 5" = 1);
  Alcotest.(check bool) "json summarises the histogram" true
    (count_substring json "\"lat\": {\"count\": 2, \"sum\": 500.000" = 1);
  Alcotest.(check string) "json deterministic" json (Stats.to_json stats)

(* ------------------------------------------------------------------ *)
(* Ownership: a sink lives in its environment and nowhere else.        *)
(* ------------------------------------------------------------------ *)

(* Two environments in one process: a trace on one records nothing the
   other emits, balanced spans leave no residue, and disabling leaves
   the environment with no sink. *)
let test_sink_belongs_to_env () =
  let a = fresh_env () and b = fresh_env () in
  let emit env =
    Trace.record env ~rank:0 ~op:"isend" ~detail:(fun () -> "dst=1");
    Probe.with_span env ~rank:0 ~cat:"ch3" ~name:"eager" (fun () ->
        Env.charge env 10.0);
    Probe.span_begin env ~id:1 ~rank:0 ~cat:"coll" ~name:"bcast" ();
    Probe.span_end env ~id:1 ~rank:0 ~cat:"coll" ~name:"bcast" ()
  in
  let trace = Trace.enable a in
  emit b;
  Alcotest.(check int) "nothing from the other env" 0
    (List.length (Trace.events trace));
  Alcotest.(check bool) "the other env has no sink" true
    (Option.is_none b.Env.sink);
  emit a;
  Alcotest.(check int) "own events recorded" 5
    (List.length (Trace.events trace));
  Alcotest.(check int) "spans balanced" 0 (Trace.open_spans trace);
  Trace.disable a;
  Alcotest.(check bool) "disable leaves no sink" true
    (Option.is_none a.Env.sink);
  emit a;
  Alcotest.(check int) "nothing after disable" 5
    (List.length (Trace.events trace));
  Trace.disable a;
  Alcotest.(check bool) "double disable is a no-op" true
    (Option.is_none a.Env.sink)

let test_with_span_on_raise () =
  let env = fresh_env () in
  let trace = Trace.enable env in
  (try
     Probe.with_span env ~rank:0 ~cat:"ch3" ~name:"eager" (fun () ->
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span closed on raise" 0 (Trace.open_spans trace);
  Trace.disable env

(* ------------------------------------------------------------------ *)
(* Lazy details: nothing is formatted unless a trace will keep it.     *)
(* ------------------------------------------------------------------ *)

let test_thunks_forced_only_when_traced () =
  let env = fresh_env () in
  let details = ref 0 and args = ref 0 in
  let emit () =
    Trace.record env ~rank:0 ~op:"isend" ~detail:(fun () ->
        incr details;
        "dst=1");
    Probe.span_begin env ~rank:0 ~cat:"ch3" ~name:"eager"
      ~args:(fun () ->
        incr args;
        [ ("dst", "1") ])
      ();
    Probe.span_end env ~rank:0 ~cat:"ch3" ~name:"eager" ()
  in
  emit ();
  Alcotest.(check (pair int int)) "untraced: never forced" (0, 0)
    (!details, !args);
  (* A sink that ignores args (as the benchmark's does) never forces them
     either, Trace.record's detail included. *)
  Probe.set_sink env (fun ~kind:_ ~id:_ ~rank:_ ~cat:_ ~name:_ ~args:_ -> ());
  emit ();
  Probe.clear_sink env;
  Alcotest.(check (pair int int)) "args-blind sink: never forced" (0, 0)
    (!details, !args);
  let trace = Trace.enable env in
  emit ();
  Alcotest.(check (pair int int)) "traced: forced once each" (1, 1)
    (!details, !args);
  Alcotest.(check int) "three events recorded" 3
    (List.length (Trace.events trace));
  Trace.disable env

(* ------------------------------------------------------------------ *)
(* Trace parity: one small traced world that reaches every device-level *)
(* trace point, pinned by the digest of its Chrome-trace export.        *)
(* ------------------------------------------------------------------ *)

module Mpi = Mpi_core.Mpi
module Fault = Mpi_core.Fault
module Ft = Mpi_core.Ft
module Rma = Mpi_core.Rma
module Coll = Mpi_core.Collectives
module Bv = Mpi_core.Buffer_view

(* Three ranks on a lossy wire (drops and duplicates under reliable
   delivery) with a fast heartbeat detector. Ranks 0 and 1 exchange an
   eager and a rendezvous message, everyone joins a scheduled allreduce
   and a lock epoch on rank 0's window, then rank 2 blocks until its
   scheduled kill and rank 0 learns of the death through a receive. *)
let parity_world () =
  let env = fresh_env () in
  let trace = Trace.enable ~capacity:(1 lsl 17) env in
  let detector = { Ft.hb_period_ns = 5_000.0; hb_timeout_ns = 200_000.0 } in
  let fault =
    Fault.plan ~seed:5 ~drop:0.05 ~duplicate:0.05
      ~kills:[ Fault.kill ~rank:2 ~at_ns:2_000_000.0 () ]
      ()
  in
  let failed = ref None in
  ignore
    (Mpi.run ~env ~fault ~detector ~n:3 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let me = Mpi.rank p in
         let small = Bytes.make 64 'e' and large = Bytes.make 100_000 'r' in
         (match me with
         | 0 ->
             Mpi.send p ~comm ~dst:1 ~tag:1 (Bv.of_bytes small);
             ignore (Mpi.recv p ~comm ~src:1 ~tag:2 (Bv.of_bytes large))
         | 1 ->
             ignore (Mpi.recv p ~comm ~src:0 ~tag:1 (Bv.of_bytes small));
             Mpi.send p ~comm ~dst:0 ~tag:2 (Bv.of_bytes large)
         | _ -> ());
         let v = Bytes.create 8 in
         Bytes.set_int64_le v 0 (Int64.of_int (me + 1));
         ignore (Coll.allreduce p comm ~op:Coll.sum_i64 v);
         let win =
           Rma.win_create p ~comm (Bytes.make (if me = 0 then 8 else 0) '\000')
         in
         if me > 0 then begin
           Rma.win_lock win ~target:0;
           Rma.accumulate win ~target:0 ~target_off:0 ~op:Rma.Sum v ~off:0
             ~len:8;
           Rma.win_unlock win ~target:0
         end;
         Rma.win_free win;
         match me with
         | 0 -> (
             try ignore (Mpi.recv p ~comm ~src:2 ~tag:3 (Bv.of_bytes v))
             with Ft.Proc_failed r -> failed := Some r)
         | 2 -> ignore (Mpi.recv p ~comm ~src:0 ~tag:3 (Bv.of_bytes v))
         | _ -> ()));
  let json = Trace.to_chrome_json trace in
  let evs =
    List.map (fun (e : Trace.event) -> (e.op, e.detail)) (Trace.events trace)
  in
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped trace);
  Trace.disable env;
  (!failed, evs, json)

let parity_digest = "1c383865140106106d4ba9d30a8b6cb6"

let test_trace_parity () =
  let failed, evs, json = parity_world () in
  Alcotest.(check (option int)) "rank 2 detected dead" (Some 2) failed;
  (* Each (op, detail prefix) names one trace point the digest covers. *)
  List.iter
    (fun (op, prefix) ->
      Alcotest.(check bool)
        (Printf.sprintf "reaches %s %s" op prefix)
        true
        (List.exists
           (fun (o, d) -> o = op && String.starts_with ~prefix d)
           evs))
    [ ("isend", "dst="); ("isend/rndv", "dst="); ("irecv", "src=");
      ("eager", "eager "); ("rts", "rts "); ("cts", "cts "); ("data", "data ");
      ("ack", "dst="); ("retx", "frame "); ("drop", "loss ");
      ("drop", "dup seq=");
      ("sched/start", "allreduce"); ("sched/step", "allreduce");
      ("sched/step-done", "allreduce"); ("sched/done", "allreduce");
      ("kill", "fail-stop"); ("kill", "fiber torn down");
      ("detect", "rank 2"); ("eager", "dst="); ("rndv", "dst=");
      ("allreduce", "steps=") ];
  Alcotest.(check string) "chrome json digest" parity_digest
    (Digest.to_hex (Digest.string json))

let () =
  Alcotest.run "observability"
    [
      ( "chrome-trace",
        [
          Alcotest.test_case "golden json" `Quick test_chrome_golden;
          Alcotest.test_case "golden json with topology" `Quick
            test_chrome_golden_topo;
          Alcotest.test_case "overflow pair repair" `Quick
            test_overflow_pairs;
          Alcotest.test_case "details forced only when traced" `Quick
            test_thunks_forced_only_when_traced;
          Alcotest.test_case "traced world parity" `Quick test_trace_parity;
        ] );
      ( "stats",
        [ Alcotest.test_case "json is stable" `Quick test_stats_json_stable ] );
      ( "lifecycle",
        [
          Alcotest.test_case "a sink belongs to its env" `Quick
            test_sink_belongs_to_env;
          Alcotest.test_case "with_span closes on raise" `Quick
            test_with_span_on_raise;
        ] );
    ]
