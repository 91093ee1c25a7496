(* Unit and integration tests for the MPICH2-like message-passing core:
   protocols (eager / rendezvous), matching queues, ordering, collectives,
   communicator management and dynamic process spawning. *)

module Mpi = Mpi_core.Mpi
module Comm = Mpi_core.Comm
module Coll = Mpi_core.Collectives
module Dynamic = Mpi_core.Dynamic
module Bv = Mpi_core.Buffer_view
module Ch3 = Mpi_core.Ch3
module Tm = Mpi_core.Tag_match
module Status = Mpi_core.Status
module Key = Simtime.Stats.Key

let payload n = Bytes.init n (fun i -> Char.chr ((i * 7 + n) land 0xff))

let run2 body = Mpi.run ~n:2 body

let stats w = (Mpi.env w).Simtime.Env.stats

(* ------------------------------------------------------------------ *)
(* Point-to-point                                                      *)
(* ------------------------------------------------------------------ *)

let roundtrip size () =
  let received = ref Bytes.empty in
  let w =
    run2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        if Mpi.rank p = 0 then
          Mpi.send p ~comm ~dst:1 ~tag:5 (Bv.of_bytes (payload size))
        else begin
          let buf = Bytes.create size in
          let st = Mpi.recv p ~comm ~src:0 ~tag:5 (Bv.of_bytes buf) in
          Alcotest.(check int) "status source" 0 st.Status.source;
          Alcotest.(check int) "status tag" 5 st.Status.tag;
          Alcotest.(check int) "status bytes" size st.Status.bytes;
          received := buf
        end)
  in
  ignore w;
  Alcotest.(check bytes) "payload intact" (payload size) !received

let test_eager_roundtrip () = roundtrip 64 ()
let test_rendezvous_roundtrip () = roundtrip 262_144 ()

let test_protocol_selection () =
  let w =
    run2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        if Mpi.rank p = 0 then begin
          Mpi.send p ~comm ~dst:1 ~tag:0 (Bv.of_bytes (payload 100));
          Mpi.send p ~comm ~dst:1 ~tag:1 (Bv.of_bytes (payload 200_000))
        end
        else begin
          ignore
            (Mpi.recv p ~comm ~src:0 ~tag:0 (Bv.of_bytes (Bytes.create 100)));
          ignore
            (Mpi.recv p ~comm ~src:0 ~tag:1
               (Bv.of_bytes (Bytes.create 200_000)))
        end)
  in
  Alcotest.(check int) "one eager send" 1 (Simtime.Stats.get (stats w) Key.eager_sends);
  Alcotest.(check int) "one rendezvous send" 1
    (Simtime.Stats.get (stats w) Key.rndv_sends)

let test_ssend_always_rendezvous () =
  let w =
    run2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        if Mpi.rank p = 0 then
          Mpi.ssend p ~comm ~dst:1 ~tag:0 (Bv.of_bytes (payload 8))
        else
          ignore
            (Mpi.recv p ~comm ~src:0 ~tag:0 (Bv.of_bytes (Bytes.create 8))))
  in
  Alcotest.(check int) "no eager" 0 (Simtime.Stats.get (stats w) Key.eager_sends);
  Alcotest.(check int) "rendezvous even when tiny" 1
    (Simtime.Stats.get (stats w) Key.rndv_sends)

let test_unexpected_queue () =
  let w =
    run2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        if Mpi.rank p = 0 then
          Mpi.send p ~comm ~dst:1 ~tag:9 (Bv.of_bytes (payload 32))
        else begin
          (* Let the message arrive (and be queued as unexpected) before
             posting the receive: iprobe pumps progress, which advances the
             virtual clock past the wire latency. *)
          Fiber.wait_until ~label:"arrival" (fun () ->
              Mpi.iprobe p ~comm ~src:0 ~tag:9 <> None);
          let buf = Bytes.create 32 in
          ignore (Mpi.recv p ~comm ~src:0 ~tag:9 (Bv.of_bytes buf));
          Alcotest.(check bytes) "buffered then delivered" (payload 32) buf
        end)
  in
  Alcotest.(check bool) "went through unexpected queue" true
    (Simtime.Stats.get (stats w) Key.unexpected_msgs >= 1)

let test_any_source_any_tag () =
  let got = ref [] in
  ignore
    (Mpi.run ~n:3 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         if Mpi.rank p = 0 then
           for _ = 1 to 2 do
             let buf = Bytes.create 4 in
             let st =
               Mpi.recv p ~comm ~src:Tm.any_source ~tag:Tm.any_tag
                 (Bv.of_bytes buf)
             in
             got := (st.Status.source, st.Status.tag) :: !got
           done
         else
           Mpi.send p ~comm ~dst:0 ~tag:(10 + Mpi.rank p)
             (Bv.of_bytes (payload 4))));
  let sorted = List.sort compare !got in
  Alcotest.(check (list (pair int int)))
    "both senders matched" [ (1, 11); (2, 12) ] sorted

let test_message_ordering () =
  (* Same source, same tag: receives must see sends in order. *)
  let seen = ref [] in
  ignore
    (run2 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         if Mpi.rank p = 0 then
           for i = 1 to 10 do
             let b = Bytes.create 4 in
             Bytes.set_int32_le b 0 (Int32.of_int i);
             Mpi.send p ~comm ~dst:1 ~tag:3 (Bv.of_bytes b)
           done
         else
           for _ = 1 to 10 do
             let b = Bytes.create 4 in
             ignore (Mpi.recv p ~comm ~src:0 ~tag:3 (Bv.of_bytes b));
             seen := Int32.to_int (Bytes.get_int32_le b 0) :: !seen
           done));
  Alcotest.(check (list int))
    "non-overtaking" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !seen)


let test_same_tag_multi_source_fifo () =
  (* Several sources firing the same tag at one receiver: per-source FIFO
     must hold even when matching with a fixed source. *)
  ignore
    (Mpi.run ~n:3 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         if Mpi.rank p = 0 then
           for src = 1 to 2 do
             for k = 1 to 5 do
               let b = Bytes.create 4 in
               ignore (Mpi.recv p ~comm ~src ~tag:9 (Bv.of_bytes b));
               Alcotest.(check int)
                 (Printf.sprintf "src %d message %d in order" src k)
                 ((src * 100) + k)
                 (Int32.to_int (Bytes.get_int32_le b 0))
             done
           done
         else
           for k = 1 to 5 do
             let b = Bytes.create 4 in
             Bytes.set_int32_le b 0 (Int32.of_int ((Mpi.rank p * 100) + k));
             Mpi.send p ~comm ~dst:0 ~tag:9 (Bv.of_bytes b)
           done))

let test_truncation_rejected () =
  Alcotest.check_raises "oversized message faults"
    (Ch3.Mpi_error
       "message truncated: 64 bytes arriving into a 16-byte buffer")
    (fun () ->
      ignore
        (run2 (fun p ->
             let comm = Mpi.comm_world (Mpi.world_of p) in
             if Mpi.rank p = 0 then
               Mpi.send p ~comm ~dst:1 ~tag:0 (Bv.of_bytes (payload 64))
             else
               ignore
                 (Mpi.recv p ~comm ~src:0 ~tag:0
                    (Bv.of_bytes (Bytes.create 16))))))

let test_isend_irecv_test () =
  ignore
    (run2 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         if Mpi.rank p = 0 then begin
           let req = Mpi.isend p ~comm ~dst:1 ~tag:0 (Bv.of_bytes (payload 8)) in
           ignore (Mpi.wait p req)
         end
         else begin
           let buf = Bytes.create 8 in
           let req = Mpi.irecv p ~comm ~src:0 ~tag:0 (Bv.of_bytes buf) in
           (* MPI_Test-style completion loop. *)
           while not (Mpi.test p req) do
             Fiber.yield ()
           done;
           Alcotest.(check bytes) "nonblocking payload" (payload 8) buf
         end))

let test_iprobe () =
  ignore
    (run2 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         if Mpi.rank p = 0 then
           Mpi.send p ~comm ~dst:1 ~tag:77 (Bv.of_bytes (payload 24))
         else begin
           Fiber.wait_until ~label:"probe" (fun () ->
               Mpi.iprobe p ~comm ~src:0 ~tag:77 <> None);
           match Mpi.iprobe p ~comm ~src:0 ~tag:77 with
           | Some st ->
               Alcotest.(check int) "probed size" 24 st.Status.bytes;
               let buf = Bytes.create st.Status.bytes in
               ignore (Mpi.recv p ~comm ~src:0 ~tag:77 (Bv.of_bytes buf))
           | None -> Alcotest.fail "probe lost the message"
         end))

let test_self_send () =
  ignore
    (Mpi.run ~n:1 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let req = Mpi.isend p ~comm ~dst:0 ~tag:1 (Bv.of_bytes (payload 16)) in
         let buf = Bytes.create 16 in
         ignore (Mpi.recv p ~comm ~src:0 ~tag:1 (Bv.of_bytes buf));
         ignore (Mpi.wait p req);
         Alcotest.(check bytes) "self-send" (payload 16) buf))

let test_deadlock_detected () =
  (* Both ranks do a synchronous send first: neither can match, so the
     scheduler must report a deadlock rather than hang. *)
  (try
     ignore
       (run2 (fun p ->
            let comm = Mpi.comm_world (Mpi.world_of p) in
            let other = 1 - Mpi.rank p in
            Mpi.ssend p ~comm ~dst:other ~tag:0 (Bv.of_bytes (payload 8));
            ignore
              (Mpi.recv p ~comm ~src:other ~tag:0
                 (Bv.of_bytes (Bytes.create 8)))));
     Alcotest.fail "expected deadlock"
   with Fiber.Deadlock { waiting; _ } ->
     Alcotest.(check int) "both ranks blocked" 2 (List.length waiting))

let test_no_progress_outside_scheduler () =
  (* Plain code, no fibers: a receive nobody sends to can never complete,
     so each wait flavour runs into the scheduler's deadlock report at
     its first quiet scan, naming its wait and the stuck request. The
     clock moves by the wait's first poll and that scan's, plus the one
     pump [wait_some] makes before it waits. *)
  let w = Mpi.create_world ~n:2 () in
  let p = Mpi.proc w 1 in
  let comm = Mpi.comm_world w in
  let req = Mpi.irecv p ~comm ~src:0 ~tag:0 (Bv.of_bytes (Bytes.create 8)) in
  let poll_ns = Simtime.Cost.motor.progress_poll_ns in
  List.iter
    (fun (label, polls, wait) ->
      let before = Simtime.Env.now_ns (Mpi.env w) in
      match wait () with
      | () -> Alcotest.failf "%s returned" label
      | exception Fiber.Deadlock { waiting; pending; _ } ->
          Alcotest.(check (list string))
            (label ^ ": waiting") [ label ^ "/" ^ label ] waiting;
          Alcotest.(check (list string))
            (label ^ ": pending")
            [ "rank 1: recv req#1 src=0 tag=0 ctx=0 (posted)" ]
            pending;
          let moved = Simtime.Env.now_ns (Mpi.env w) -. before in
          Alcotest.(check bool)
            (Printf.sprintf "%s: clock moved %.0f ns, at most %d polls" label
               moved polls)
            true
            (moved <= float polls *. poll_ns))
    [
      ("mpi-wait", 2, fun () -> ignore (Mpi.wait p req));
      ("mpi-waitany", 2, fun () -> ignore (Mpi.wait_any p [ req ]));
      ("mpi-waitsome", 2, fun () -> ignore (Mpi.wait_some p [ req ]));
    ]

(* Plain code inside an ambient recording policy: the wait's own run
   passes its policy, so the explorer's trace sees no decision of it. *)
let test_plain_wait_records_nothing () =
  let tr = Fiber.new_trace () in
  Fiber.with_policy ~record:tr (Fiber.Seeded_random 3) (fun () ->
      let w = Mpi.create_world ~n:1 () in
      let p = Mpi.proc w 0 in
      let comm = Mpi.comm_world w in
      let buf = Bytes.create 8 in
      let r = Mpi.irecv p ~comm ~src:0 ~tag:5 (Bv.of_bytes buf) in
      ignore (Mpi.isend p ~comm ~dst:0 ~tag:5 (Bv.of_bytes (payload 8)));
      ignore (Mpi.wait p r);
      Alcotest.(check bytes) "payload" (payload 8) buf);
  Alcotest.(check (list int)) "decisions recorded" [] (Fiber.trace_to_list tr)

(* Plain code: a self-send merely in flight for longer than 10^6 polls
   (~150 ms virtual at 150 ns a poll) is not a hang. Each wait flavour
   fast-forwards to the arrival and ends on the very clock bits that
   polling one by one reaches. *)
let test_slow_wire_outside_scheduler () =
  let cost = { Simtime.Cost.motor with sock_per_msg_ns = 200e6 } in
  let self_send wait =
    let w = Mpi.create_world ~cost ~n:1 () in
    let p = Mpi.proc w 0 in
    let comm = Mpi.comm_world w in
    let buf = Bytes.create 16 in
    let r = Mpi.irecv p ~comm ~src:0 ~tag:3 (Bv.of_bytes buf) in
    ignore (Mpi.isend p ~comm ~dst:0 ~tag:3 (Bv.of_bytes (payload 16)));
    wait p r;
    Alcotest.(check bytes) "payload" (payload 16) buf;
    Int64.bits_of_float (Simtime.Env.now_ns (Mpi.env w))
  in
  let polled =
    self_send (fun p r ->
        while not (Mpi_core.Request.is_complete r) do
          ignore (Ch3.progress (Mpi.device p))
        done)
  in
  Alcotest.(check bool) "in flight past 10^6 polls" true
    (Int64.float_of_bits polled > 1e6 *. Simtime.Cost.motor.progress_poll_ns);
  List.iter
    (fun (op, wait) ->
      Alcotest.(check int64) (op ^ ": clock bits") polled (self_send wait))
    [
      ("Mpi.wait", fun p r -> ignore (Mpi.wait p r));
      ("Mpi.wait_any", fun p r -> ignore (Mpi.wait_any p [ r ]));
      ("Mpi.wait_some", fun p r -> ignore (Mpi.wait_some p [ r ]));
    ]

(* A receive nobody matches still deadlocks after a fast-forward: the
   unmatched message arrives (a finite horizon, so the clock jumps), then
   every inbox is empty and the scan is reported exactly as a
   descriptor-free wait reports it, at the same virtual time. The report
   names the deadlocked run's requests only, not those another world
   left behind. *)
let test_deadlock_after_fast_forward () =
  let stale = Mpi.create_world ~n:1 () in
  ignore
    (Ch3.irecv (Mpi.device (Mpi.proc stale 0)) ~src:0 ~tag:9 ~context:0
       (Bv.of_bytes (Bytes.create 8)));
  let run wait =
    let env = Simtime.Env.create () in
    match
      Mpi.run ~env ~n:2 (fun p ->
          let comm = Mpi.comm_world (Mpi.world_of p) in
          if Mpi.rank p = 0 then
            Mpi.send p ~comm ~dst:1 ~tag:1 (Bv.of_bytes (payload 8))
          else
            wait p
              (Mpi.irecv p ~comm ~src:0 ~tag:2 (Bv.of_bytes (Bytes.create 8))))
    with
    | _ -> Alcotest.fail "expected deadlock"
    | exception Fiber.Deadlock { waiting; pending; _ } ->
        (waiting, pending, Int64.bits_of_float (Simtime.Env.now_ns env))
  in
  let waiting, pending, clock = run (fun p r -> ignore (Mpi.wait p r)) in
  let ref_waiting, ref_pending, ref_clock =
    run (fun p r ->
        Fiber.wait_until ~label:"mpi-wait" (fun () ->
            ignore (Ch3.progress (Mpi.device p));
            Mpi_core.Request.is_complete r))
  in
  Alcotest.(check (list string)) "wait labels" [ "rank1/mpi-wait" ] waiting;
  Alcotest.(check (list string)) "same labels" ref_waiting waiting;
  Alcotest.(check int64) "same clock" ref_clock clock;
  let expected =
    [
      "rank 1: recv req#2 src=0 tag=2 ctx=0 (posted)";
      "rank 1: 1 unexpected message(s) never received";
    ]
  in
  Alcotest.(check (list string)) "pending dump" expected pending;
  Alcotest.(check (list string)) "same dump" expected ref_pending

let test_virtual_time_advances () =
  let w =
    run2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let buf = Bytes.create 1024 in
        for _ = 1 to 10 do
          if Mpi.rank p = 0 then begin
            Mpi.send p ~comm ~dst:1 ~tag:0 (Bv.of_bytes (payload 1024));
            ignore (Mpi.recv p ~comm ~src:1 ~tag:0 (Bv.of_bytes buf))
          end
          else begin
            ignore (Mpi.recv p ~comm ~src:0 ~tag:0 (Bv.of_bytes buf));
            Mpi.send p ~comm ~dst:0 ~tag:0 (Bv.of_bytes (payload 1024))
          end
        done)
  in
  let us = Simtime.Env.now_us (Mpi.env w) in
  (* 20 one-way messages at ~>11us wire latency each. *)
  Alcotest.(check bool) "took at least 200 virtual us" true (us > 200.0);
  Alcotest.(check bool) "and less than a second" true (us < 1_000_000.0)

(* ------------------------------------------------------------------ *)
(* Collectives                                                         *)
(* ------------------------------------------------------------------ *)

let test_barrier () =
  let n = 5 in
  let phase = Array.make n 0 in
  ignore
    (Mpi.run ~n (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let r = Mpi.rank p in
         phase.(r) <- 1;
         Coll.barrier p comm;
         (* After the barrier, everyone must have reached phase 1. *)
         Array.iteri
           (fun i ph ->
             Alcotest.(check bool)
               (Printf.sprintf "rank %d saw rank %d past phase 0" r i)
               true (ph >= 1))
           phase;
         phase.(r) <- 2))

let test_bcast sizes () =
  List.iter
    (fun size ->
      ignore
        (Mpi.run ~n:4 (fun p ->
             let comm = Mpi.comm_world (Mpi.world_of p) in
             let buf =
               if Mpi.rank p = 1 then Bytes.copy (payload size)
               else Bytes.create size
             in
             Coll.bcast p comm ~root:1 (Bv.of_bytes buf);
             Alcotest.(check bytes)
               (Printf.sprintf "bcast %dB at rank %d" size (Mpi.rank p))
               (payload size) buf)))
    sizes

let test_bcast_sizes () = test_bcast [ 8; 4096; 200_000 ] ()

let test_scatter_gather () =
  let n = 4 in
  ignore
    (Mpi.run ~n (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let r = Mpi.rank p in
         let part_for i = Bytes.make 8 (Char.chr (65 + i)) in
         let mine = Bytes.create 8 in
         let parts =
           if r = 0 then Some (Array.init n (fun i -> Bv.of_bytes (part_for i)))
           else None
         in
         Coll.scatter p comm ~root:0 ~parts ~recv:(Bv.of_bytes mine);
         Alcotest.(check bytes) "scattered part" (part_for r) mine;
         (* Double every byte and gather back. *)
         Bytes.iteri
           (fun i c -> Bytes.set mine i (Char.chr (Char.code c + 1)))
           mine;
         let gathered = Array.init n (fun _ -> Bytes.create 8) in
         let sinks =
           if r = 0 then Some (Array.map Bv.of_bytes gathered) else None
         in
         Coll.gather p comm ~root:0 ~send:(Bv.of_bytes mine) ~parts:sinks;
         if r = 0 then
           Array.iteri
             (fun i b ->
               Alcotest.(check bytes)
                 (Printf.sprintf "gathered %d" i)
                 (Bytes.make 8 (Char.chr (66 + i)))
                 b)
             gathered))

let test_scatterv_uneven () =
  let n = 3 in
  ignore
    (Mpi.run ~n (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let r = Mpi.rank p in
         let sizes = [| 4; 16; 8 |] in
         let mine = Bytes.create sizes.(r) in
         let parts =
           if r = 0 then
             Some (Array.init n (fun i -> Bv.of_bytes (payload sizes.(i))))
           else None
         in
         Coll.scatter p comm ~root:0 ~parts ~recv:(Bv.of_bytes mine);
         Alcotest.(check bytes) "uneven part" (payload sizes.(r)) mine))

let test_allgather () =
  let n = 5 in
  ignore
    (Mpi.run ~n (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let r = Mpi.rank p in
         let mine = Bytes.make 4 (Char.chr (97 + r)) in
         let blocks = Coll.allgather p comm ~send:mine in
         Array.iteri
           (fun i b ->
             Alcotest.(check bytes)
               (Printf.sprintf "block %d at rank %d" i r)
               (Bytes.make 4 (Char.chr (97 + i)))
               b)
           blocks))

let test_reduce_sum () =
  let n = 6 in
  ignore
    (Mpi.run ~n (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let r = Mpi.rank p in
         let b = Bytes.create 16 in
         for i = 0 to 3 do
           Bytes.set_int32_le b (4 * i) (Int32.of_int (r + i))
         done;
         match Coll.reduce p comm ~root:2 ~op:Coll.sum_i32 b with
         | Some acc ->
             Alcotest.(check int) "root is 2" 2 r;
             for i = 0 to 3 do
               (* sum over r of (r + i) = 15 + 6i *)
               Alcotest.(check int)
                 (Printf.sprintf "slot %d" i)
                 (15 + (6 * i))
                 (Int32.to_int (Bytes.get_int32_le acc (4 * i)))
             done
         | None -> Alcotest.(check bool) "non-root gets none" true (r <> 2)))

let test_allreduce_sum_f64 () =
  let n = 4 in
  ignore
    (Mpi.run ~n (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let b = Bytes.create 8 in
         Bytes.set_int64_le b 0
           (Int64.bits_of_float (float_of_int (Mpi.rank p + 1)));
         let acc = Coll.allreduce p comm ~op:Coll.sum_f64 b in
         let v = Int64.float_of_bits (Bytes.get_int64_le acc 0) in
         Alcotest.(check (float 1e-9))
           (Printf.sprintf "rank %d" (Mpi.rank p))
           10.0 v))

(* ------------------------------------------------------------------ *)
(* Communicators                                                       *)
(* ------------------------------------------------------------------ *)

let test_comm_split () =
  let n = 6 in
  ignore
    (Mpi.run ~n (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let r = Mpi.rank p in
         (* Even / odd groups, reverse-ordered by key. *)
         let sub = Mpi.comm_split p comm ~color:(r mod 2) ~key:(-r) in
         Alcotest.(check int) "group size" 3 (Comm.size sub);
         let my_sub_rank = Mpi.comm_rank p sub in
         (* key = -r, so highest world rank is sub-rank 0. *)
         let expected_members =
           if r mod 2 = 0 then [| 4; 2; 0 |] else [| 5; 3; 1 |]
         in
         Alcotest.(check (array int)) "membership" expected_members
           (Comm.members sub);
         (* Traffic within the new communicator. *)
         let next = (my_sub_rank + 1) mod Comm.size sub in
         let prev = (my_sub_rank - 1 + Comm.size sub) mod Comm.size sub in
         let out = Bytes.make 4 (Char.chr (48 + r)) in
         let inb = Bytes.create 4 in
         let s = Mpi.isend p ~comm:sub ~dst:next ~tag:0 (Bv.of_bytes out) in
         ignore (Mpi.recv p ~comm:sub ~src:prev ~tag:0 (Bv.of_bytes inb));
         ignore (Mpi.wait p s)))

let test_comm_dup_isolation () =
  ignore
    (run2 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let dup = Mpi.comm_dup p comm in
         Alcotest.(check bool) "distinct context" true
           (dup.Comm.ctx <> comm.Comm.ctx);
         if Mpi.rank p = 0 then begin
           (* Same (dst, tag) on both comms: contexts must keep them apart. *)
           Mpi.send p ~comm ~dst:1 ~tag:0 (Bv.of_bytes (Bytes.make 4 'w'));
           Mpi.send p ~comm:dup ~dst:1 ~tag:0 (Bv.of_bytes (Bytes.make 4 'd'))
         end
         else begin
           let b1 = Bytes.create 4 in
           let b2 = Bytes.create 4 in
           (* Receive on dup FIRST: if contexts leaked, the world message
              (sent first) would land here. *)
           ignore (Mpi.recv p ~comm:dup ~src:0 ~tag:0 (Bv.of_bytes b1));
           ignore (Mpi.recv p ~comm ~src:0 ~tag:0 (Bv.of_bytes b2));
           Alcotest.(check bytes) "dup got dup's" (Bytes.make 4 'd') b1;
           Alcotest.(check bytes) "world got world's" (Bytes.make 4 'w') b2
         end))

(* ------------------------------------------------------------------ *)
(* Dynamic process management                                          *)
(* ------------------------------------------------------------------ *)

let test_spawn_and_intercomm () =
  let results = ref [] in
  ignore
    (run2 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let child p ic =
           (* Each child doubles what any parent sends it. *)
           let b = Bytes.create 4 in
           let st =
             Dynamic.recv p ic ~src:Mpi_core.Tag_match.any_source ~tag:7
               (Bv.of_bytes b)
           in
           let v = Int32.to_int (Bytes.get_int32_le b 0) in
           Bytes.set_int32_le b 0 (Int32.of_int (2 * v));
           Dynamic.send p ic ~dst:st.Status.source ~tag:8 (Bv.of_bytes b)
         in
         let ic = Dynamic.spawn p ~comm ~n:2 child in
         Alcotest.(check int) "two children" 2 (Dynamic.remote_size ic);
         (* Parent r sends r+1 to child r, expects it doubled. *)
         let r = Mpi.rank p in
         let b = Bytes.create 4 in
         Bytes.set_int32_le b 0 (Int32.of_int (r + 1));
         Dynamic.send p ic ~dst:r ~tag:7 (Bv.of_bytes b);
         ignore (Dynamic.recv p ic ~src:r ~tag:8 (Bv.of_bytes b));
         results := (r, Int32.to_int (Bytes.get_int32_le b 0)) :: !results));
  Alcotest.(check (list (pair int int)))
    "children doubled"
    [ (0, 2); (1, 4) ]
    (List.sort compare !results)

let test_spawn_merge () =
  ignore
    (run2 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let child cp ic =
           let merged = Dynamic.merge cp ic in
           Coll.barrier cp merged;
           let b = Bytes.create 4 in
           Coll.bcast cp merged ~root:0 (Bv.of_bytes b);
           Alcotest.(check int) "child sees root value" 99
             (Int32.to_int (Bytes.get_int32_le b 0))
         in
         let ic = Dynamic.spawn p ~comm ~n:2 child in
         let merged = Dynamic.merge p ic in
         Alcotest.(check int) "merged size" 4 (Comm.size merged);
         Coll.barrier p merged;
         let b = Bytes.create 4 in
         if Mpi.comm_rank p merged = 0 then
           Bytes.set_int32_le b 0 (Int32.of_int 99);
         Coll.bcast p merged ~root:0 (Bv.of_bytes b)))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_random_traffic =
  QCheck.Test.make ~name:"random message matrix delivered intact" ~count:30
    QCheck.(
      pair (int_range 2 5)
        (list_of_size (Gen.int_range 1 12) (pair (int_range 0 4) (int_range 1 512))))
    (fun (n, msgs) ->
      (* Each entry (d, size): rank (d mod n) sends `size` bytes to rank
         ((d + 1) mod n). All messages must arrive intact. *)
      let plan =
        List.mapi
          (fun i (d, size) -> (i, d mod n, (d + 1) mod n, size))
          msgs
      in
      let ok = ref true in
      ignore
        (Mpi.run ~n (fun p ->
             let comm = Mpi.comm_world (Mpi.world_of p) in
             let r = Mpi.rank p in
             (* Post receives first (nonblocking), then send. *)
             let recvs =
               List.filter_map
                 (fun (tag, src, dst, size) ->
                   if dst = r then
                     let buf = Bytes.create size in
                     Some
                       ( Mpi.irecv p ~comm ~src ~tag (Bv.of_bytes buf),
                         buf,
                         size )
                   else None)
                 plan
             in
             List.iter
               (fun (tag, src, dst, size) ->
                 if src = r then
                   Mpi.send p ~comm ~dst ~tag (Bv.of_bytes (payload size)))
               plan;
             List.iter
               (fun (req, buf, size) ->
                 ignore (Mpi.wait p req);
                 if not (Bytes.equal buf (payload size)) then ok := false)
               recvs));
      !ok)

(* ------------------------------------------------------------------ *)
(* Matching queues (unit level)                                        *)
(* ------------------------------------------------------------------ *)

module Q = Mpi_core.Queues
module Pk = Mpi_core.Packet

let envelope ~src ~tag ?(context = 0) ~seq () =
  {
    Pk.e_src = src; e_dst = 0; e_tag = tag; e_context = context;
    e_bytes = 8; e_seq = seq;
  }

let unexpected_seq q pattern =
  match Q.take_unexpected q pattern with
  | Some (Q.U_eager (e, _)) -> Some e.Pk.e_seq
  | Some (Q.U_rts (e, _)) -> Some e.Pk.e_seq
  | None -> None

let test_unexpected_fifo_per_pattern () =
  let env = Simtime.Env.create () in
  let q = Q.create env in
  (* Interleave two (src, tag) streams; each must drain in arrival order
     (MPI's non-overtaking guarantee), independent of the other. *)
  List.iter
    (fun (src, tag, seq) ->
      Q.add_unexpected q (Q.U_eager (envelope ~src ~tag ~seq (), payload 8)))
    [ (0, 1, 1); (2, 5, 2); (0, 1, 3); (2, 5, 4); (0, 1, 5) ];
  let p01 = { Tm.m_src = 0; m_tag = 1; m_context = 0 } in
  let p25 = { Tm.m_src = 2; m_tag = 5; m_context = 0 } in
  Alcotest.(check (option int)) "first of stream A" (Some 1)
    (unexpected_seq q p01);
  Alcotest.(check (option int)) "first of stream B" (Some 2)
    (unexpected_seq q p25);
  Alcotest.(check (option int)) "second of stream A" (Some 3)
    (unexpected_seq q p01);
  Alcotest.(check (option int)) "third of stream A" (Some 5)
    (unexpected_seq q p01);
  Alcotest.(check (option int)) "second of stream B" (Some 4)
    (unexpected_seq q p25);
  Alcotest.(check int) "drained" 0 (Q.unexpected_length q)

let test_unexpected_wildcards () =
  let env = Simtime.Env.create () in
  let q = Q.create env in
  List.iter
    (fun (src, tag, seq) ->
      Q.add_unexpected q (Q.U_eager (envelope ~src ~tag ~seq (), payload 8)))
    [ (3, 7, 1); (1, 7, 2); (3, 9, 3) ];
  (* any-source keeps tag selectivity; any-tag keeps source selectivity;
     the double wildcard takes strict arrival order. *)
  Alcotest.(check (option int)) "any_source picks earliest tag 7" (Some 1)
    (unexpected_seq q { Tm.m_src = Tm.any_source; m_tag = 7; m_context = 0 });
  Alcotest.(check (option int)) "any_tag picks earliest src 3" (Some 3)
    (unexpected_seq q { Tm.m_src = 3; m_tag = Tm.any_tag; m_context = 0 });
  Alcotest.(check (option int)) "double wildcard takes arrival order"
    (Some 2)
    (unexpected_seq q
       { Tm.m_src = Tm.any_source; m_tag = Tm.any_tag; m_context = 0 });
  Alcotest.(check (option int)) "context still discriminates" None
    (unexpected_seq q
       { Tm.m_src = Tm.any_source; m_tag = Tm.any_tag; m_context = 2 })

let test_posted_queue_order_and_selectivity () =
  let env = Simtime.Env.create () in
  let q = Q.create env in
  let post ~src ~tag id =
    Q.post_recv q
      {
        Q.p_pattern = { Tm.m_src = src; m_tag = tag; m_context = 0 };
        p_sink = Bv.of_bytes (Bytes.create 8);
        p_req = Mpi_core.Request.create ~id Mpi_core.Request.Recv_req;
      }
  in
  post ~src:Tm.any_source ~tag:4 1;
  post ~src:2 ~tag:Tm.any_tag 2;
  post ~src:2 ~tag:4 3;
  (* An envelope matching several posted receives must take the earliest
     posted one, and matching consumes the entry. *)
  let id_for e =
    Option.map
      (fun (p : Q.posted) -> Mpi_core.Request.id p.Q.p_req)
      (Q.take_posted q e)
  in
  Alcotest.(check (option int)) "earliest posted wins" (Some 1)
    (id_for (envelope ~src:2 ~tag:4 ~seq:1 ()));
  Alcotest.(check (option int)) "next match in post order" (Some 2)
    (id_for (envelope ~src:2 ~tag:4 ~seq:2 ()));
  Alcotest.(check (option int)) "specific entry last" (Some 3)
    (id_for (envelope ~src:2 ~tag:4 ~seq:3 ()));
  Alcotest.(check (option int)) "queue now empty" None
    (id_for (envelope ~src:2 ~tag:4 ~seq:4 ()));
  post ~src:5 ~tag:0 4;
  Alcotest.(check (option int)) "non-matching envelope passes by" None
    (id_for (envelope ~src:2 ~tag:0 ~seq:5 ()));
  Alcotest.(check int) "unmatched entry still posted" 1 (Q.posted_length q)

let prop_posted_vs_unexpected_race =
  QCheck.Test.make
    ~name:"posted/unexpected races deliver every message exactly once"
    ~count:60
    QCheck.(pair (int_range 1 12) (int_range 0 1000))
    (fun (msgs, seed) ->
      (* Rank 1 posts half its receives before the sends land and half
         after (a race between arrival and posting); every payload must be
         delivered exactly once whichever queue each message went
         through. *)
      let received = Array.make msgs Bytes.empty in
      ignore
        (run2 (fun p ->
             let comm = Mpi.comm_world (Mpi.world_of p) in
             if Mpi.rank p = 0 then
               for tag = 0 to msgs - 1 do
                 Mpi.send p ~comm ~dst:1 ~tag
                   (Bv.of_bytes (payload (tag + seed mod 7 + 1)))
               done
             else begin
               let early, late =
                 List.partition
                   (fun tag -> (tag + seed) mod 2 = 0)
                   (List.init msgs Fun.id)
               in
               let post tag =
                 let buf = Bytes.create (tag + seed mod 7 + 1) in
                 received.(tag) <- buf;
                 Mpi.irecv p ~comm ~src:0 ~tag (Bv.of_bytes buf)
               in
               let early_reqs = List.map post early in
               (* Let some sends land unexpected before posting the rest. *)
               for _ = 1 to 3 do
                 Fiber.yield ()
               done;
               let late_reqs = List.map post late in
               List.iter
                 (fun r -> ignore (Mpi.wait p r))
                 (early_reqs @ late_reqs)
             end));
      Array.for_all2
        (fun buf tag -> Bytes.equal buf (payload (tag + seed mod 7 + 1)))
        received
        (Array.init msgs Fun.id))

(* ------------------------------------------------------------------ *)
(* Buffer views: windows and zero-copy concatenation                   *)
(* ------------------------------------------------------------------ *)

let test_sub_view () =
  let b = payload 32 in
  let v = Bv.sub_view (Bv.of_bytes b) ~off:8 ~len:16 in
  Alcotest.(check int) "window length" 16 (Bv.length v);
  Alcotest.(check bytes) "window read" (Bytes.sub b 8 16) (Bv.read_all v);
  (* A nested window composes offsets. *)
  let vv = Bv.sub_view v ~off:4 ~len:4 in
  Alcotest.(check bytes) "nested read" (Bytes.sub b 12 4) (Bv.read_all vv);
  Bv.write_all v (Bytes.make 16 'x');
  Alcotest.(check bytes) "window written" (Bytes.make 16 'x')
    (Bytes.sub b 8 16);
  Alcotest.(check bytes) "head intact" (Bytes.sub (payload 32) 0 8)
    (Bytes.sub b 0 8);
  Alcotest.(check bytes) "tail intact" (Bytes.sub (payload 32) 24 8)
    (Bytes.sub b 24 8);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Buffer_view.sub_view: range out of bounds") (fun () ->
      ignore (Bv.sub_view (Bv.of_bytes b) ~off:20 ~len:16))

let test_concat_view () =
  let a = Bytes.of_string "aaaa"
  and b = Bytes.of_string "bb"
  and c = Bytes.of_string "cccccc" in
  let v = Bv.concat [ Bv.of_bytes a; Bv.of_bytes b; Bv.of_bytes c ] in
  Alcotest.(check int) "total length" 12 (Bv.length v);
  Alcotest.(check string) "read spans fragments" "aaaabbcccccc"
    (Bytes.to_string (Bv.read_all v));
  (* A partial read crossing both fragment boundaries. *)
  let dst = Bytes.make 5 '.' in
  v.Bv.blit_to ~pos:2 ~dst ~dst_off:0 ~len:5;
  Alcotest.(check string) "cross-fragment read" "aabbc" (Bytes.to_string dst);
  Bv.write_all v (Bytes.of_string "XXXXYYZZZZZZ");
  Alcotest.(check string) "fragment 1 written" "XXXX" (Bytes.to_string a);
  Alcotest.(check string) "fragment 2 written" "YY" (Bytes.to_string b);
  Alcotest.(check string) "fragment 3 written" "ZZZZZZ" (Bytes.to_string c);
  (* A partial write landing across a boundary. *)
  v.Bv.blit_from ~pos:3 ~src:(Bytes.of_string "mn") ~src_off:0 ~len:2;
  Alcotest.(check string) "boundary write left" "XXXm" (Bytes.to_string a);
  Alcotest.(check string) "boundary write right" "nY" (Bytes.to_string b)

(* ------------------------------------------------------------------ *)
(* Request sets: test_all / test_any / wait_some                       *)
(* ------------------------------------------------------------------ *)

let test_request_sets () =
  ignore
    (run2 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         if Mpi.rank p = 1 then begin
           Mpi.send p ~comm ~dst:0 ~tag:0 (Bv.of_bytes (payload 16));
           (* Stagger the second send so the first can complete alone. *)
           for _ = 1 to 5 do
             Fiber.yield ()
           done;
           Mpi.send p ~comm ~dst:0 ~tag:1 (Bv.of_bytes (payload 16))
         end
         else begin
           let b0 = Bytes.create 16 and b1 = Bytes.create 16 in
           let r0 = Mpi.irecv p ~comm ~src:1 ~tag:0 (Bv.of_bytes b0) in
           let r1 = Mpi.irecv p ~comm ~src:1 ~tag:1 (Bv.of_bytes b1) in
           Alcotest.(check bool) "empty list trivially complete" true
             (Mpi.test_all p []);
           Alcotest.check_raises "wait_some rejects empty"
             (Invalid_argument "Mpi.wait_some: empty request list") (fun () ->
               ignore (Mpi.wait_some p []));
           let some = Mpi.wait_some p [ r0; r1 ] in
           if some = [] then Alcotest.fail "wait_some returned nothing";
           List.iter
             (fun r ->
               Alcotest.(check bool) "wait_some results complete" true
                 (Mpi_core.Request.is_complete r))
             some;
           (match Mpi.test_any p [ r0; r1 ] with
           | Some _ -> ()
           | None -> Alcotest.fail "test_any found nothing after wait_some");
           Mpi.wait_all p [ r0; r1 ];
           Alcotest.(check bool) "test_all after wait_all" true
             (Mpi.test_all p [ r0; r1 ]);
           Alcotest.(check bytes) "tag 0 payload" (payload 16) b0;
           Alcotest.(check bytes) "tag 1 payload" (payload 16) b1
         end))

let () =
  Alcotest.run "mpi_core"
    [
      ( "point-to-point",
        [
          Alcotest.test_case "eager roundtrip" `Quick test_eager_roundtrip;
          Alcotest.test_case "rendezvous roundtrip" `Quick
            test_rendezvous_roundtrip;
          Alcotest.test_case "protocol selection by size" `Quick
            test_protocol_selection;
          Alcotest.test_case "ssend always rendezvous" `Quick
            test_ssend_always_rendezvous;
          Alcotest.test_case "unexpected queue" `Quick test_unexpected_queue;
          Alcotest.test_case "any source / any tag" `Quick
            test_any_source_any_tag;
          Alcotest.test_case "message ordering" `Quick test_message_ordering;
          Alcotest.test_case "same-tag multi-source FIFO" `Quick
            test_same_tag_multi_source_fifo;
          Alcotest.test_case "truncation rejected" `Quick
            test_truncation_rejected;
          Alcotest.test_case "isend/irecv/test" `Quick test_isend_irecv_test;
          Alcotest.test_case "iprobe" `Quick test_iprobe;
          Alcotest.test_case "self send" `Quick test_self_send;
          Alcotest.test_case "deadlock detected" `Quick
            test_deadlock_detected;
          Alcotest.test_case "no progress outside a scheduler" `Quick
            test_no_progress_outside_scheduler;
          Alcotest.test_case "slow wire outside a scheduler" `Quick
            test_slow_wire_outside_scheduler;
          Alcotest.test_case "plain wait records no decisions" `Quick
            test_plain_wait_records_nothing;
          Alcotest.test_case "deadlock after fast-forward" `Quick
            test_deadlock_after_fast_forward;
          Alcotest.test_case "virtual time advances" `Quick
            test_virtual_time_advances;
        ] );
      ( "views and request sets",
        [
          Alcotest.test_case "sub_view windows" `Quick test_sub_view;
          Alcotest.test_case "concat views" `Quick test_concat_view;
          Alcotest.test_case "test_all / test_any / wait_some" `Quick
            test_request_sets;
        ] );
      ( "collectives",
        [
          Alcotest.test_case "barrier" `Quick test_barrier;
          Alcotest.test_case "bcast (eager and rendezvous)" `Quick
            test_bcast_sizes;
          Alcotest.test_case "scatter / gather" `Quick test_scatter_gather;
          Alcotest.test_case "scatterv uneven" `Quick test_scatterv_uneven;
          Alcotest.test_case "allgather" `Quick test_allgather;
          Alcotest.test_case "reduce sum" `Quick test_reduce_sum;
          Alcotest.test_case "allreduce sum f64" `Quick
            test_allreduce_sum_f64;
        ] );
      ( "queues",
        [
          Alcotest.test_case "unexpected FIFO per pattern" `Quick
            test_unexpected_fifo_per_pattern;
          Alcotest.test_case "wildcard matching" `Quick
            test_unexpected_wildcards;
          Alcotest.test_case "posted order and selectivity" `Quick
            test_posted_queue_order_and_selectivity;
          QCheck_alcotest.to_alcotest prop_posted_vs_unexpected_race;
        ] );
      ( "communicators",
        [
          Alcotest.test_case "comm_split" `Quick test_comm_split;
          Alcotest.test_case "comm_dup isolation" `Quick
            test_comm_dup_isolation;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "spawn and intercomm" `Quick
            test_spawn_and_intercomm;
          Alcotest.test_case "spawn then merge" `Quick test_spawn_merge;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_traffic ]);
    ]
