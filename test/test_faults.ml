(* Fault-injection and reliable-delivery tests: deterministic fault
   schedules, correctness under loss/duplication/corruption/reordering,
   partition recovery, graceful degradation under total loss, and the
   stale-packet / rendezvous-refusal hardening of the device layer. *)

module Mpi = Mpi_core.Mpi
module Fault = Mpi_core.Fault
module Reliable = Mpi_core.Reliable
module Ch3 = Mpi_core.Ch3
module Channel = Mpi_core.Channel
module Packet = Mpi_core.Packet
module Request = Mpi_core.Request
module Status = Mpi_core.Status
module Trace = Mpi_core.Trace
module Bv = Mpi_core.Buffer_view
module W = Harness.Workloads
module Env = Simtime.Env
module Key = Simtime.Stats.Key

let payload n = Bytes.init n (fun i -> Char.chr ((i * 7 + n) land 0xff))
let stats w = (Mpi.env w).Env.stats

let counters w =
  List.map
    (fun k -> (Simtime.Stats.counter_name k, Simtime.Stats.get (stats w) k))
    [
      Key.retransmits; Key.acks; Key.dup_drops; Key.ooo_drops;
      Key.corrupt_drops; Key.fault_drops; Key.fault_dups; Key.fault_delays;
      Key.fault_corrupts;
    ]

let lossy_plan ~seed ~loss =
  Fault.plan ~seed ~drop:loss ~duplicate:(loss /. 2.0)
    ~corrupt:(loss /. 4.0) ~delay:loss ~delay_ns:100_000.0 ()

(* ------------------------------------------------------------------ *)
(* The deterministic draw                                              *)
(* ------------------------------------------------------------------ *)

let test_draw_deterministic () =
  for packet = 0 to 50 do
    for salt = 0 to 5 do
      let a = Fault.draw ~seed:9 ~packet ~salt in
      let b = Fault.draw ~seed:9 ~packet ~salt in
      Alcotest.(check (float 0.0)) "same draw" a b;
      Alcotest.(check bool) "in [0,1)" true (a >= 0.0 && a < 1.0)
    done
  done;
  (* Different seeds must decorrelate: the schedules cannot be all equal. *)
  let differs = ref false in
  for packet = 0 to 20 do
    if
      Fault.draw ~seed:1 ~packet ~salt:0 <> Fault.draw ~seed:2 ~packet ~salt:0
    then differs := true
  done;
  Alcotest.(check bool) "seeds decorrelate" true !differs

let test_checksum_detects_bit_flip () =
  let env =
    {
      Packet.e_src = 0; e_dst = 1; e_tag = 3; e_context = 0; e_bytes = 32;
      e_seq = 1;
    }
  in
  let data = payload 32 in
  let p = Packet.Eager (env, data) in
  let c1 = Packet.checksum p in
  let flipped = Bytes.copy data in
  Bytes.set flipped 11 (Char.chr (Char.code (Bytes.get flipped 11) lxor 0x10));
  let c2 = Packet.checksum (Packet.Eager (env, flipped)) in
  Alcotest.(check bool) "flip changes checksum" true (c1 <> c2);
  Alcotest.(check int) "checksum stable" c1 (Packet.checksum p)

(* ------------------------------------------------------------------ *)
(* Correctness under faults: digests match the fault-free run          *)
(* ------------------------------------------------------------------ *)

let test_faulty_ring_matches_fault_free () =
  let clean, _ = W.ring ~n:3 ~rounds:10 ~size:512 () in
  let faulty, w1 =
    W.ring ~fault:(lossy_plan ~seed:42 ~loss:0.15) ~n:3 ~rounds:10 ~size:512 ()
  in
  let faulty', w2 =
    W.ring ~fault:(lossy_plan ~seed:42 ~loss:0.15) ~n:3 ~rounds:10 ~size:512 ()
  in
  Alcotest.(check string) "digest equals fault-free run" clean faulty;
  Alcotest.(check string) "same seed reproduces digest" faulty faulty';
  Alcotest.(check (list (pair string int)))
    "same seed reproduces every counter" (counters w1) (counters w2);
  Alcotest.(check bool)
    "faults were actually injected" true
    (Simtime.Stats.get (stats w1) Key.fault_drops > 0);
  Alcotest.(check bool)
    "losses were actually repaired" true
    (Simtime.Stats.get (stats w1) Key.retransmits > 0)

let test_faulty_allreduce_matches_fault_free () =
  let clean, _ = W.allreduce_chain ~n:4 ~rounds:6 () in
  let faulty, w =
    W.allreduce_chain ~fault:(lossy_plan ~seed:7 ~loss:0.1) ~n:4 ~rounds:6 ()
  in
  Alcotest.(check string) "collective digest equals fault-free" clean faulty;
  Alcotest.(check bool)
    "faults were actually injected" true
    (Simtime.Stats.get (stats w) Key.fault_drops > 0)

let prop_ring_digest_stable_across_seeds =
  let clean = lazy (fst (W.ring ~n:2 ~rounds:6 ~size:256 ())) in
  QCheck.Test.make
    ~name:"any seed/loss: faulty ring completes byte-identical" ~count:15
    QCheck.(pair (int_range 1 10_000) (int_range 0 25))
    (fun (seed, loss_pct) ->
      let loss = float_of_int loss_pct /. 100.0 in
      let faulty, _ =
        W.ring ~fault:(lossy_plan ~seed ~loss) ~n:2 ~rounds:6 ~size:256 ()
      in
      faulty = Lazy.force clean)

(* ------------------------------------------------------------------ *)
(* Partition windows                                                   *)
(* ------------------------------------------------------------------ *)

let test_partition_window_recovers () =
  let clean, _ = W.ring ~n:2 ~rounds:5 ~size:128 () in
  let cut src dst =
    {
      Fault.pt_src = src; pt_dst = dst; pt_from_ns = 0.0;
      pt_until_ns = 400_000.0;
    }
  in
  let plan = Fault.plan ~partitions:[ cut 0 1; cut 1 0 ] () in
  let faulty, w = W.ring ~fault:plan ~n:2 ~rounds:5 ~size:128 () in
  Alcotest.(check string) "digest intact after the partition heals" clean
    faulty;
  Alcotest.(check bool)
    "partition swallowed packets" true
    (Simtime.Stats.get (stats w) Key.fault_drops > 0);
  Alcotest.(check bool)
    "recovery went through retransmission" true
    (Simtime.Stats.get (stats w) Key.retransmits > 0)

(* A permanent partition (100% loss) must degrade gracefully: the send
   request stays incomplete, the layer gives up after max_retries, and
   nothing crashes. Driven manually (no fibers) so the deadlock detector
   is out of the picture and we control the clock. *)
let test_total_loss_degrades_gracefully () =
  let env = Env.create () in
  let base = Mpi_core.Sock_channel.create env ~n_ranks:2 in
  let faulty = Fault.wrap ~env (Fault.plan ~drop:1.0 ()) base in
  let chan, r = Reliable.wrap ~env faulty in
  let counter = ref 0 in
  let fresh_id () =
    incr counter;
    !counter
  in
  let d0 = Ch3.create env chan ~rank:0 ~fresh_id in
  let d1 = Ch3.create env chan ~rank:1 ~fresh_id in
  let req =
    Ch3.isend d0 ~dst:1 ~tag:0 ~context:0 ~mode:Ch3.Synchronous
      (Bv.of_bytes (payload 64))
  in
  for _ = 1 to 100 do
    Env.charge env 1_000_000.0;
    ignore (Ch3.progress d0);
    ignore (Ch3.progress d1)
  done;
  Alcotest.(check bool) "request never completes" false
    (Request.is_complete req);
  Alcotest.(check bool)
    "layer declared the peer unreachable" true
    (Simtime.Stats.get env.Env.stats Key.retx_giveups > 0);
  Alcotest.(check bool) "frames stranded in the queue" true
    (Reliable.stranded r > 0);
  (* Retransmission stopped: pumping further must not grow the counter. *)
  let retx = Simtime.Stats.get env.Env.stats Key.retransmits in
  for _ = 1 to 20 do
    Env.charge env 1_000_000.0;
    ignore (Ch3.progress d0)
  done;
  Alcotest.(check int)
    "no retransmissions after give-up" retx
    (Simtime.Stats.get env.Env.stats Key.retransmits)

(* ------------------------------------------------------------------ *)
(* Device hardening: stale packets and rendezvous refusal              *)
(* ------------------------------------------------------------------ *)

let test_spurious_control_packets_dropped () =
  let env = Env.create () in
  let chan = Mpi_core.Sock_channel.create env ~n_ranks:2 in
  let counter = ref 0 in
  let fresh_id () =
    incr counter;
    !counter
  in
  let d0 = Ch3.create env chan ~rank:0 ~fresh_id in
  (* None of these match any live state on rank 0; a pre-hardening device
     raised Mpi_error on the first one. *)
  chan.Channel.send ~src:1 ~dst:0 (Packet.Cts 999);
  chan.Channel.send ~src:1 ~dst:0 (Packet.Rndv_data (998, payload 8));
  chan.Channel.send ~src:1 ~dst:0 (Packet.Nak (997, "spurious"));
  chan.Channel.send ~src:1 ~dst:0 (Packet.Ack (1, 5));
  chan.Channel.send ~src:1 ~dst:0
    (Packet.Frame ({ Packet.f_src = 1; f_seq = 0; f_check = 0 }, Packet.Cts 1));
  Env.charge env 1_000_000.0;
  ignore (Ch3.progress d0);
  Alcotest.(check int)
    "all five counted as stale drops" 5
    (Simtime.Stats.get env.Env.stats Key.dup_drops);
  Alcotest.(check int) "no rendezvous state created" 0
    (Ch3.pending_rendezvous d0)

let test_truncation_nak_releases_rendezvous_state () =
  let sender_err = ref None in
  let recver_err = ref None in
  let w =
    Mpi.run ~n:2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        if Mpi.rank p = 0 then begin
          try Mpi.ssend p ~comm ~dst:1 ~tag:0 (Bv.of_bytes (payload 4096))
          with Ch3.Mpi_error msg -> sender_err := Some msg
        end
        else begin
          try
            ignore
              (Mpi.recv p ~comm ~src:0 ~tag:0
                 (Bv.of_bytes (Bytes.create 16)))
          with Ch3.Mpi_error msg -> recver_err := Some msg
        end)
  in
  (match !recver_err with
  | Some msg ->
      Alcotest.(check bool) "receiver saw truncation" true
        (String.length msg > 0)
  | None -> Alcotest.fail "receiver should have seen a truncation error");
  (match !sender_err with
  | Some msg ->
      Alcotest.(check bool)
        "sender saw the refusal" true
        (String.length msg > 0)
  | None -> Alcotest.fail "sender should have seen the rendezvous refusal");
  Alcotest.(check (list (pair int string)))
    "no leaked rendezvous or request state" [] (Mpi.quiescence_report w)

let test_request_completion_idempotent () =
  let req = Request.create ~id:1 Request.Send_req in
  let st = { Status.source = 0; tag = 1; bytes = 8 } in
  Request.complete req (Some st);
  Request.complete req None;
  Request.fail req "too late";
  Alcotest.(check bool) "complete" true (Request.is_complete req);
  Alcotest.(check bool) "status survives later calls" true
    (Request.status req = Some st);
  Alcotest.(check bool) "no error recorded" true (Request.error req = None);
  let req2 = Request.create ~id:2 Request.Recv_req in
  Request.fail req2 "boom";
  Request.complete req2 (Some st);
  Alcotest.(check bool) "error survives later complete" true
    (Request.error req2 = Some "boom");
  Alcotest.(check bool) "failed request has no status" true
    (Request.status req2 = None)

(* ------------------------------------------------------------------ *)
(* Observability: trace events and registry hygiene                    *)
(* ------------------------------------------------------------------ *)

let test_trace_records_retx_and_ack () =
  let env = Env.create () in
  let tr = Trace.enable env in
  ignore
    (Mpi.run ~env
       ~fault:(Fault.plan ~seed:5 ~drop:0.3 ())
       ~n:2
       (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         if Mpi.rank p = 0 then
           for tag = 0 to 9 do
             Mpi.send p ~comm ~dst:1 ~tag (Bv.of_bytes (payload 64))
           done
         else
           for tag = 0 to 9 do
             ignore
               (Mpi.recv p ~comm ~src:0 ~tag
                  (Bv.of_bytes (Bytes.create 64)))
           done));
  let ops = List.map (fun e -> e.Trace.op) (Trace.events tr) in
  Alcotest.(check bool) "acks traced" true (List.mem "ack" ops);
  Alcotest.(check bool) "retransmissions traced" true (List.mem "retx" ops);
  Alcotest.(check bool) "drops traced" true (List.mem "drop" ops);
  Trace.disable env

let test_trace_disable_releases_registry () =
  let before = Trace.registered () in
  let env = Env.create () in
  ignore (Trace.enable env);
  Alcotest.(check int) "enable registers" (before + 1) (Trace.registered ());
  ignore (Trace.enable env);
  Alcotest.(check int) "double enable is idempotent" (before + 1)
    (Trace.registered ());
  Trace.disable env;
  Alcotest.(check int) "disable releases" before (Trace.registered ());
  Alcotest.(check bool) "trace detached" true (Trace.find env = None);
  Trace.disable env;
  Alcotest.(check int) "double disable is a no-op" before (Trace.registered ())

(* ------------------------------------------------------------------ *)
(* The loss-sweep experiment end to end (small)                        *)
(* ------------------------------------------------------------------ *)

let test_loss_sweep_digests_agree () =
  let points =
    Harness.Experiments.loss_sweep ~n:2 ~rounds:4 ~size:64
      ~losses:[ 0.0; 0.2 ] ()
  in
  match points with
  | [ clean; lossy ] ->
      Alcotest.(check string)
        "lossy digest equals clean" clean.Harness.Experiments.digest
        lossy.Harness.Experiments.digest;
      Alcotest.(check bool)
        "loss costs virtual time" true
        (lossy.Harness.Experiments.time_us
        > clean.Harness.Experiments.time_us);
      Alcotest.(check bool)
        "retransmissions recorded" true
        (lossy.Harness.Experiments.retransmits > 0)
  | _ -> Alcotest.fail "expected two sweep points"

let () =
  Alcotest.run "faults"
    [
      ( "determinism",
        [
          Alcotest.test_case "draw is seeded and uniform" `Quick
            test_draw_deterministic;
          Alcotest.test_case "checksum detects bit flips" `Quick
            test_checksum_detects_bit_flip;
          Alcotest.test_case "faulty ring matches fault-free" `Quick
            test_faulty_ring_matches_fault_free;
          Alcotest.test_case "faulty allreduce matches fault-free" `Quick
            test_faulty_allreduce_matches_fault_free;
          QCheck_alcotest.to_alcotest prop_ring_digest_stable_across_seeds;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "partition window recovers" `Quick
            test_partition_window_recovers;
          Alcotest.test_case "total loss degrades gracefully" `Quick
            test_total_loss_degrades_gracefully;
        ] );
      ( "device hardening",
        [
          Alcotest.test_case "spurious control packets dropped" `Quick
            test_spurious_control_packets_dropped;
          Alcotest.test_case "truncation NAK releases rendezvous state"
            `Quick test_truncation_nak_releases_rendezvous_state;
          Alcotest.test_case "request completion idempotent" `Quick
            test_request_completion_idempotent;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace records retx/ack/drop" `Quick
            test_trace_records_retx_and_ack;
          Alcotest.test_case "trace disable releases registry" `Quick
            test_trace_disable_releases_registry;
          Alcotest.test_case "loss sweep digests agree" `Quick
            test_loss_sweep_digests_agree;
        ] );
    ]
