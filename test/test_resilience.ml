(* Process-failure resilience: fail-stop kills, heartbeat detection,
   ULFM-style revoke/agree/shrink recovery, detector false positives,
   rank revival, and checkpoint/restart up to the full Motor e2e flow
   (lose a rank mid-collective, shrink, restart it from a checkpoint,
   finish correctly). *)

module Mpi = Mpi_core.Mpi
module Fault = Mpi_core.Fault
module Ft = Mpi_core.Ft
module Coll = Mpi_core.Collectives
module Comm = Mpi_core.Comm
module Dynamic = Mpi_core.Dynamic
module Bv = Mpi_core.Buffer_view
module Env = Simtime.Env
module Key = Simtime.Stats.Key
module World = Poison.World
module Smp = Motor.System_mp
module Checkpoint = Motor.Checkpoint
module Ot = Motor.Object_transport
module Om = Vm.Object_model
module Gc = Vm.Gc
module Types = Vm.Types

(* Fast detector for tests: beats every 5us of virtual time, declares
   after 200us. Safe because a blocked rank still beats on every
   progress pump; only a rank that computes 200us without touching MPI
   is falsely declared (exactly what test_detector_false_positive
   wants). *)
let fast = { Ft.hb_period_ns = 5_000.0; hb_timeout_ns = 200_000.0 }

let kill_plan ?restart_after_ns ~rank ~at_ns () =
  Fault.plan ~kills:[ Fault.kill ?restart_after_ns ~rank ~at_ns () ] ()

let i64_buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let i64_of b = Int64.to_int (Bytes.get_int64_le b 0)

(* ------------------------------------------------------------------ *)
(* Detection: point-to-point operations stop hanging                   *)
(* ------------------------------------------------------------------ *)

let test_kill_fails_pending_recv () =
  let got = ref None in
  let w =
    Mpi.run ~detector:fast
      ~fault:(kill_plan ~rank:1 ~at_ns:30_000.0 ())
      ~n:2
      (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        if Mpi.rank p = 0 then
          try
            ignore
              (Mpi.recv p ~comm ~src:1 ~tag:0 (Bv.of_bytes (Bytes.create 8)))
          with Ft.Proc_failed r -> got := Some r
        else
          (* Blocks forever; the kill tears the rank down instead. *)
          ignore
            (Mpi.recv p ~comm ~src:0 ~tag:0 (Bv.of_bytes (Bytes.create 8))))
  in
  Alcotest.(check (option int)) "recv failed with the dead peer" (Some 1) !got;
  Alcotest.(check (list int)) "rank 1 declared dead" [ 1 ] (Mpi.dead_ranks w);
  Alcotest.(check (list (pair int string)))
    "survivor state clean" [] (Mpi.quiescence_report w)

let test_send_to_dead_peer_fails_immediately () =
  let first = ref None in
  let second = ref None in
  ignore
    (Mpi.run ~detector:fast
       ~fault:(kill_plan ~rank:1 ~at_ns:30_000.0 ())
       ~n:2
       (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         if Mpi.rank p = 0 then begin
           (* First operation rides through detection; once the peer is
              declared, later operations must fail at entry, without
              waiting for another timeout. *)
           (try
              ignore
                (Mpi.recv p ~comm ~src:1 ~tag:0 (Bv.of_bytes (Bytes.create 8)))
            with Ft.Proc_failed r -> first := Some r);
           let before = Simtime.Clock.now_ns (Mpi.env (Mpi.world_of p)).Env.clock in
           (try Mpi.send p ~comm ~dst:1 ~tag:1 (Bv.of_bytes (i64_buf 7))
            with Ft.Proc_failed r -> second := Some r);
           let after = Simtime.Clock.now_ns (Mpi.env (Mpi.world_of p)).Env.clock in
           Alcotest.(check bool)
             "no second detection timeout paid" true
             (after -. before < fast.Ft.hb_timeout_ns)
         end
         else
           ignore
             (Mpi.recv p ~comm ~src:0 ~tag:0 (Bv.of_bytes (Bytes.create 8)))));
  Alcotest.(check (option int)) "pending recv failed" (Some 1) !first;
  Alcotest.(check (option int)) "fresh send failed at entry" (Some 1) !second

(* ------------------------------------------------------------------ *)
(* Spawned ranks: wired like initial ones                              *)
(* ------------------------------------------------------------------ *)

let ft_of w =
  match Mpi.ft_handle w with
  | Some ft -> ft
  | None -> Alcotest.fail "world should have a failure service"

(* The child waits for 100 KB: the transfer takes longer than the
   detector timeout, and the child beats while it polls. *)
let test_spawned_poller_not_declared () =
  let got = ref 0 in
  let w =
    Mpi.run ~detector:fast ~n:1 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let ic =
          Dynamic.spawn p ~comm ~n:1 (fun cp ic ->
              let b = Bytes.create 100_000 in
              ignore (Dynamic.recv cp ic ~src:0 ~tag:0 (Bv.of_bytes b));
              Dynamic.send cp ic ~dst:0 ~tag:1 (Bv.of_bytes (i64_buf 7)))
        in
        let reply = Bytes.create 8 in
        let req =
          Mpi.irecv p ~comm:ic.Dynamic.ic_remote ~src:0 ~tag:1
            (Bv.of_bytes reply)
        in
        Dynamic.send p ic ~dst:0 ~tag:0 (Bv.of_bytes (Bytes.create 100_000));
        ignore (Mpi.wait p req);
        got := i64_of reply)
  in
  Alcotest.(check bool)
    "polled past the timeout" true
    (Env.now_ns (Mpi.env w) > fast.Ft.hb_timeout_ns);
  Alcotest.(check int) "reply arrived" 7 !got;
  Alcotest.(check (list int)) "no detection" []
    (List.map fst (Ft.detections (ft_of w)))

(* The child reports and returns; the parent keeps polling (a 100 KB
   self-exchange) for longer than the timeout. *)
let test_spawned_rank_finishes () =
  let w =
    Mpi.run ~detector:fast ~n:1 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let ic =
          Dynamic.spawn p ~comm ~n:1 (fun cp ic ->
              Dynamic.send cp ic ~dst:0 ~tag:0 (Bv.of_bytes (i64_buf 1)))
        in
        ignore (Dynamic.recv p ic ~src:0 ~tag:0 (Bv.of_bytes (Bytes.create 8)));
        let big = Bytes.create 100_000 in
        ignore
          (Mpi.sendrecv p ~comm ~dst:0 ~send_tag:1 ~send:(Bv.of_bytes big)
             ~src:0 ~recv_tag:1 ~recv:(Bv.of_bytes (Bytes.create 100_000))))
  in
  let ft = ft_of w in
  Alcotest.(check bool)
    "polled past the timeout" true
    (Env.now_ns (Mpi.env w) > fast.Ft.hb_timeout_ns);
  Alcotest.(check bool) "child finished" true (Ft.state ft 1 = Ft.Finished);
  Alcotest.(check (list int)) "no detection" []
    (List.map fst (Ft.detections ft))

let test_spawned_rank_sees_revoke () =
  let seen = ref None in
  ignore
    (Mpi.run ~detector:fast ~n:1 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let ic =
           Dynamic.spawn p ~comm ~n:1 (fun cp ic ->
               let merged = Dynamic.merge cp ic in
               (* Proceed only once the parent has revoked. *)
               ignore
                 (Dynamic.recv cp ic ~src:0 ~tag:0
                    (Bv.of_bytes (Bytes.create 8)));
               try
                 Mpi.send cp ~comm:merged ~dst:0 ~tag:1
                   (Bv.of_bytes (i64_buf 2))
               with Ft.Revoked _ -> seen := Some "revoked")
         in
         Mpi.comm_revoke p (Dynamic.merge p ic);
         Dynamic.send p ic ~dst:0 ~tag:0 (Bv.of_bytes (i64_buf 1))));
  Alcotest.(check (option string))
    "op on revoked comm fails at entry" (Some "revoked") !seen

let test_spawned_rank_sees_dead_peer () =
  let seen = ref None in
  let w =
    Mpi.run ~detector:fast
      ~fault:(kill_plan ~rank:1 ~at_ns:0.0 ())
      ~n:2
      (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        if Mpi.rank p = 1 then
          (* Dies at entry: its kill time has passed. *)
          Mpi.send p ~comm ~dst:0 ~tag:0 (Bv.of_bytes (i64_buf 1))
        else begin
          (try
             ignore
               (Mpi.recv p ~comm ~src:1 ~tag:0 (Bv.of_bytes (Bytes.create 8)))
           with Ft.Proc_failed _ -> ());
          ignore
            (Dynamic.spawn p ~comm ~n:1 (fun cp _ ->
                 try Mpi.send cp ~comm ~dst:1 ~tag:0 (Bv.of_bytes (i64_buf 2))
                 with Ft.Proc_failed r -> seen := Some r))
        end)
  in
  Alcotest.(check (list int)) "rank 1 declared dead" [ 1 ] (Mpi.dead_ranks w);
  Alcotest.(check (option int)) "send to dead peer failed" (Some 1) !seen

(* ------------------------------------------------------------------ *)
(* Revocation                                                          *)
(* ------------------------------------------------------------------ *)

let test_revoke_completes_blocked_peer () =
  let blocked = ref None in
  let fresh = ref None in
  let w =
    Mpi.run ~detector:fast ~n:2 (fun p ->
        let world = Mpi.comm_world (Mpi.world_of p) in
        let c = Mpi.comm_dup p world in
        if Mpi.rank p = 0 then begin
          (try
             ignore
               (Mpi.recv p ~comm:c ~src:1 ~tag:0 (Bv.of_bytes (Bytes.create 8)))
           with Ft.Revoked _ -> blocked := Some "revoked");
          (* The world communicator is untouched: normal traffic flows. *)
          ignore
            (Mpi.recv p ~comm:world ~src:1 ~tag:1
               (Bv.of_bytes (Bytes.create 8)))
        end
        else begin
          for _ = 1 to 40 do
            Fiber.yield ()
          done;
          Mpi.comm_revoke p c;
          (try Mpi.send p ~comm:c ~dst:0 ~tag:0 (Bv.of_bytes (i64_buf 1))
           with Ft.Revoked _ -> fresh := Some "revoked");
          Mpi.send p ~comm:world ~dst:0 ~tag:1 (Bv.of_bytes (i64_buf 2))
        end)
  in
  Alcotest.(check (option string))
    "blocked recv completed with Revoked" (Some "revoked") !blocked;
  Alcotest.(check (option string))
    "new op on revoked comm fails at entry" (Some "revoked") !fresh;
  Alcotest.(check (list (pair int string)))
    "no leaked state" [] (Mpi.quiescence_report w)

(* ------------------------------------------------------------------ *)
(* Agreement and shrink                                                *)
(* ------------------------------------------------------------------ *)

let test_agree_and_shrink_after_death () =
  (* Rank 0 — the agreement's internal root — dies first; the survivors
     must still agree (on the AND of their values), shrink, and compute
     over the shrunken communicator. *)
  let agreed = Array.make 3 (-1) in
  let shrunk_members = Array.make 3 [||] in
  let sums = Array.make 3 0 in
  let w =
    Mpi.run ~detector:fast
      ~fault:(kill_plan ~rank:0 ~at_ns:20_000.0 ())
      ~n:3
      (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let me = Mpi.rank p in
        if me = 0 then
          ignore
            (Mpi.recv p ~comm ~src:1 ~tag:9 (Bv.of_bytes (Bytes.create 8)))
        else begin
          (try
             ignore
               (Mpi.recv p ~comm ~src:0 ~tag:0
                  (Bv.of_bytes (Bytes.create 8)))
           with Ft.Proc_failed _ -> ());
          let value = if me = 1 then 0b111 else 0b101 in
          agreed.(me) <- Mpi.comm_agree p comm ~value;
          let sub = Mpi.comm_shrink p comm in
          shrunk_members.(me) <- Comm.members sub;
          sums.(me) <-
            i64_of (Coll.allreduce p sub ~op:Coll.sum_i64 (i64_buf (me + 1)))
        end)
  in
  Alcotest.(check int) "rank 1 agreement" 0b101 agreed.(1);
  Alcotest.(check int) "rank 2 agreement" 0b101 agreed.(2);
  Array.iter
    (fun m ->
      if m <> [||] then
        Alcotest.(check (array int)) "survivors only" [| 1; 2 |] m)
    shrunk_members;
  Alcotest.(check int) "allreduce over shrunken comm" 5 sums.(1);
  Alcotest.(check int) "same on rank 2" 5 sums.(2);
  Alcotest.(check (list (pair int string)))
    "no leaked state" [] (Mpi.quiescence_report w)

(* ------------------------------------------------------------------ *)
(* Collective failure: the error surfaces at every member              *)
(* ------------------------------------------------------------------ *)

(* The canonical ULFM recovery loop: same call sequence on every rank,
   so agree/shrink epochs stay aligned even when only some ranks saw
   the failure directly. *)
let rec attempt p comm work =
  let result =
    try Some (work comm)
    with Ft.Proc_failed _ | Ft.Revoked _ ->
      Mpi.comm_revoke p comm;
      None
  in
  let flag = match result with Some _ -> 1 | None -> 0 in
  let agreed = Mpi.comm_agree p comm ~value:flag in
  if agreed land 1 = 1 then (comm, Option.get result)
  else begin
    Mpi.comm_revoke p comm;
    attempt p (Mpi.comm_shrink p comm) work
  end

let test_allreduce_survives_member_death () =
  let n = 4 in
  let sums = Array.make n 0 in
  let sizes = Array.make n 0 in
  let w =
    (* at_ns 1us: the victim's first MPI operation is the allreduce, so
       it dies exactly there — mid-collective, before contributing. *)
    Mpi.run ~detector:fast
      ~fault:(kill_plan ~rank:2 ~at_ns:1_000.0 ())
      ~n
      (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let me = Mpi.rank p in
        let final, sum =
          attempt p comm (fun c ->
              i64_of (Coll.allreduce p c ~op:Coll.sum_i64 (i64_buf (me + 1))))
        in
        sums.(me) <- sum;
        sizes.(me) <- Comm.size final)
  in
  (* Survivors 0, 1, 3 contribute 1 + 2 + 4. *)
  List.iter
    (fun r ->
      Alcotest.(check int) (Printf.sprintf "rank %d sum" r) 7 sums.(r);
      Alcotest.(check int) (Printf.sprintf "rank %d size" r) 3 sizes.(r))
    [ 0; 1; 3 ];
  Alcotest.(check (list int)) "rank 2 dead" [ 2 ] (Mpi.dead_ranks w);
  Alcotest.(check (list (pair int string)))
    "no leaked schedules or requests" [] (Mpi.quiescence_report w)

(* ------------------------------------------------------------------ *)
(* Detector false positive: the planted-bug scenario as a unit test    *)
(* ------------------------------------------------------------------ *)

let test_detector_false_positive () =
  (* A timeout below the longest compute phase declares a live rank
     dead: rank 1 computes 500us without pumping progress and is
     declared at ~200us by rank 0's pumps. The explorer catches the
     same bug statistically (test_check); this pins the mechanism. *)
  let seen = ref None in
  (* "Compute": charge virtual time in slices, yielding between them so
     the peer's pumps interleave — exactly a rank busy in user code,
     beating on nothing. *)
  let compute p total =
    let env = Mpi.env (Mpi.world_of p) in
    for _ = 1 to 50 do
      Env.charge env (total /. 50.0);
      Fiber.yield ()
    done
  in
  (* The waiter polls nonblockingly (yielding between pumps) so the two
     fibers interleave round-robin — a blocked wait would let the
     computing fiber run its whole slice loop first. *)
  let poll_recv p ~comm b =
    let req = Mpi.irecv p ~comm ~src:1 ~tag:0 b in
    while not (Mpi.test p req) do
      Fiber.yield ()
    done;
    ignore (Mpi.wait p req)
  in
  let w =
    Mpi.run ~detector:fast ~n:2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        if Mpi.rank p = 0 then begin
          try poll_recv p ~comm (Bv.of_bytes (Bytes.create 8))
          with Ft.Proc_failed r -> seen := Some r
        end
        else compute p 500_000.0)
  in
  Alcotest.(check (option int)) "live rank declared dead" (Some 1) !seen;
  (match Mpi.ft_handle w with
  | Some ft ->
      Alcotest.(check bool) "detection recorded" true (Ft.detections ft <> [])
  | None -> Alcotest.fail "world should have a failure service");
  (* The same workload under the default detector (5ms timeout) has no
     false positive: the compute phase ends well inside the timeout and
     the exchange completes normally. *)
  let got = ref 0 in
  let w2 =
    Mpi.run ~detector:Ft.default_detector ~n:2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        if Mpi.rank p = 0 then begin
          let b = Bv.of_bytes (Bytes.create 8) in
          poll_recv p ~comm b;
          got := i64_of (Bv.read_all b)
        end
        else begin
          compute p 500_000.0;
          Mpi.send p ~comm ~dst:0 ~tag:0 (Bv.of_bytes (i64_buf 3))
        end)
  in
  Alcotest.(check int) "exchange completed" 3 !got;
  Alcotest.(check (list int))
    "defaults tolerate the compute phase" [] (Mpi.dead_ranks w2)

(* ------------------------------------------------------------------ *)
(* Revival                                                             *)
(* ------------------------------------------------------------------ *)

let test_revive_and_exchange () =
  let payload = ref 0 in
  let w =
    Mpi.run ~detector:fast
      ~fault:(kill_plan ~restart_after_ns:50_000.0 ~rank:1 ~at_ns:30_000.0 ())
      ~n:2
      (fun p ->
        let world = Mpi.world_of p in
        let comm = Mpi.comm_world world in
        if Mpi.rank p = 0 then begin
          (try
             ignore
               (Mpi.recv p ~comm ~src:1 ~tag:0 (Bv.of_bytes (Bytes.create 8)))
           with Ft.Proc_failed _ -> ());
          (* Restart the dead rank: re-admit it, then spawn its new
             incarnation (guarded, like any rank fiber). *)
          Mpi.revive_rank world 1;
          Fiber.spawn "rank1-restarted" (fun () ->
              Mpi.rank_guard world 1 (fun () ->
                  let p1 = Mpi.proc world 1 in
                  Mpi.send p1 ~comm ~dst:0 ~tag:7 (Bv.of_bytes (i64_buf 41))));
          let b = Bv.of_bytes (Bytes.create 8) in
          ignore (Mpi.recv p ~comm ~src:1 ~tag:7 b);
          payload := i64_of (Bv.read_all b)
        end
        else
          ignore
            (Mpi.recv p ~comm ~src:0 ~tag:0 (Bv.of_bytes (Bytes.create 8))))
  in
  Alcotest.(check int) "restarted incarnation's message" 41 !payload;
  Alcotest.(check (list int)) "nobody dead at the end" [] (Mpi.dead_ranks w);
  Alcotest.(check (list (pair int string)))
    "reliable layer reset cleanly" [] (Mpi.quiescence_report w)

(* ------------------------------------------------------------------ *)
(* Checkpoint/restart                                                  *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let store = Checkpoint.create_store ~interval:2 () in
  Alcotest.(check bool) "step 4 due" true (Checkpoint.due store ~step:4);
  Alcotest.(check bool) "step 5 not due" false (Checkpoint.due store ~step:5);
  let world = World.create ~n:1 () in
  World.run world (fun ctx ->
      let gc = World.gc ctx in
      let a = Om.alloc_array gc (Types.Eprim Types.R8) 4 in
      for i = 0 to 3 do
        Om.set_elem_float gc a i (float_of_int (10 * (i + 1)))
      done;
      let image = Checkpoint.save store ctx ~step:4 a in
      Alcotest.(check int) "image rank" 0 image.Checkpoint.i_rank;
      Alcotest.(check string)
        "image digest matches data"
        (Checkpoint.digest image.Checkpoint.i_data)
        image.Checkpoint.i_digest;
      (* Clobber the live state; restore must bring the image back. *)
      for i = 0 to 3 do
        Om.set_elem_float gc a i 0.0
      done;
      let root, step = Checkpoint.restore store ctx in
      Alcotest.(check int) "resume step" 4 step;
      for i = 0 to 3 do
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "restored elem %d" i)
          (float_of_int (10 * (i + 1)))
          (Om.get_elem_float gc root i)
      done;
      (* Round-trip stability: re-serializing the restored graph gives a
         digest-identical image. *)
      let again = Checkpoint.save store ctx ~step:6 root in
      Alcotest.(check string)
        "re-serialized digest equal" image.Checkpoint.i_digest
        again.Checkpoint.i_digest);
  Alcotest.(check int) "checkpoints counted" 2
    (Simtime.Stats.get (World.env world).Env.stats Key.checkpoints);
  Alcotest.(check int) "restores counted" 1
    (Simtime.Stats.get (World.env world).Env.stats Key.restores)

let test_checkpoint_refuses_inflight_image () =
  let store = Checkpoint.create_store () in
  let world = World.create ~n:2 () in
  World.run world (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      if World.rank ctx = 0 then begin
        let a = Om.alloc_array gc (Types.Eprim Types.R8) 2 in
        (* Save while a nonblocking collective is outstanding: the image
           records the in-flight state and restore must refuse it. *)
        let req = Smp.iallreduce_sum_f64 ctx ~comm a in
        ignore (Checkpoint.save store ctx ~step:1 a);
        Ot.wait_all ctx [ req ];
        (match Checkpoint.restore store ctx with
        | exception Invalid_argument msg ->
            Alcotest.(check bool) "refusal names the in-flight state" true
              (String.length msg > 0)
        | _ -> Alcotest.fail "restore should refuse an in-flight image")
      end
      else begin
        let a = Om.alloc_array gc (Types.Eprim Types.R8) 2 in
        Ot.wait_all ctx [ Smp.iallreduce_sum_f64 ctx ~comm a ]
      end)

(* ------------------------------------------------------------------ *)
(* The full Motor e2e: kill mid-collective, shrink, restart, finish    *)
(* ------------------------------------------------------------------ *)

let test_motor_e2e_kill_shrink_restart () =
  (* The full recovery story on a 4-rank Motor world: rank 2 dies just
     after contributing its round-1 data to a nonblocking allreduce, so
     the outcome is mixed — some survivors' schedules complete, one
     hangs on the dead rank and fails at detection. The uniform ULFM
     loop (agree on success, else revoke / roll back to the checkpoint /
     shrink / restart the victim / retry on the rejoined communicator)
     must bring all four ranks, the restarted incarnation included, to
     the same correct sums. The rollback is load-bearing: the survivors
     whose first attempt succeeded already hold a sum in their arrays,
     and only the checkpoint restore makes the retry's inputs right. *)
  let n = 4 in
  let victim = 2 in
  let elems = 8 in
  let store = Checkpoint.create_store () in
  let world =
    World.create ~n ~detector:fast
      ~fault:(kill_plan ~restart_after_ns:100_000.0 ~rank:victim
                ~at_ns:1_000.0 ())
      ()
  in
  let mw = World.mpi world in
  let final = Array.make n [||] in
  let recovered = Array.make n false in
  let fill gc a me =
    for i = 0 to elems - 1 do
      Om.set_elem_float gc a i (float_of_int ((me + 1) * (i + 1)))
    done
  in
  let rejoin_comm () =
    Comm.make
      ~ctx:(Mpi.alloc_context mw ~key:"rejoin/1")
      ~members:(Array.init n Fun.id)
  in
  (* The whole program, parameterized by rank context so the restarted
     incarnation runs the same code from its checkpoint. *)
  let rec program ctx ~restarted =
    let gc = World.gc ctx in
    let me = World.rank ctx in
    let a =
      ref
        (if restarted then begin
           (* Resume from the checkpoint, not from scratch. *)
           let root, step = Checkpoint.restore store ctx in
           Alcotest.(check int) "restarted from step 1" 1 step;
           root
         end
         else begin
           let a = Om.alloc_array gc (Types.Eprim Types.R8) elems in
           fill gc a me;
           (* Step 1: everyone checkpoints at the step boundary
              (quiescent), then enters the collective. *)
           ignore (Checkpoint.save store ctx ~step:1 a);
           a
         end)
    in
    let comm = ref (if restarted then rejoin_comm () else Smp.comm_world ctx) in
    let rec attempt () =
      let ok =
        match Ot.wait_all ctx [ Smp.iallreduce_sum_f64 ctx ~comm:!comm !a ] with
        | () -> 1
        | exception (Ft.Proc_failed _ | Ft.Revoked _) -> 0
      in
      (* Uniform recovery: every member runs the same agree, so ranks
         whose own schedule completed (they had the dead rank's round-1
         data) still learn that the collective failed somewhere. *)
      let agreed = Smp.comm_agree ctx ~comm:!comm ~value:ok in
      if agreed land 1 = 0 then begin
        recovered.(me) <- true;
        Smp.comm_revoke ctx !comm;
        (* The aborted schedule's conditional pin must not survive the
           next collection (pins are mark-phase-resolved: a collection
           drops requests whose operation completed, failed included). *)
        Gc.collect gc ~full:false;
        Alcotest.(check int)
          (Printf.sprintf "rank %d pin table empty after abort" me)
          0
          (Gc.conditional_pin_count gc);
        (* Coordinated rollback: the failed attempt may have written
           results into some ranks' arrays, so every member resets its
           state from the step-1 image. *)
        let root, _ = Checkpoint.restore store ctx in
        a := root;
        let sub = Smp.comm_shrink ctx !comm in
        Alcotest.(check (array int))
          "shrunk to survivors" [| 0; 1; 3 |] (Comm.members sub);
        (* The lowest survivor restarts the dead rank (guarded, like any
           rank fiber); the others wait at the barrier so nobody talks
           to the victim before it is re-admitted. *)
        if me = Comm.world_rank_of sub 0 then begin
          Mpi.revive_rank mw victim;
          let vctx = World.respawn_ctx world victim in
          Fiber.spawn
            (Printf.sprintf "motor-rank%d-restarted" victim)
            (fun () ->
              Mpi.rank_guard mw victim (fun () ->
                  program vctx ~restarted:true))
        end;
        Smp.barrier ctx sub;
        comm := rejoin_comm ();
        attempt ()
      end
    in
    attempt ();
    final.(me) <- Array.init elems (fun i -> Om.get_elem_float gc !a i);
    Gc.collect gc ~full:false;
    Alcotest.(check int)
      (Printf.sprintf "rank %d pin table empty at exit" me)
      0
      (Gc.conditional_pin_count gc)
  in
  World.run world (fun ctx -> program ctx ~restarted:false);
  (* All four ranks — the restarted one included — agree on the sum over
     all four contributions: (i+1) * (1+2+3+4). *)
  for r = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "rank %d finished" r)
      true
      (final.(r) <> [||]);
    Array.iteri
      (fun i v ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "rank %d elem %d" r i)
          (10.0 *. float_of_int (i + 1))
          v)
      final.(r)
  done;
  Alcotest.(check bool) "the recovery path actually ran" true
    (Array.exists Fun.id recovered);
  Alcotest.(check (list int)) "victim re-admitted" [] (Mpi.dead_ranks mw);
  Alcotest.(check (list (pair int string)))
    "world quiescent after recovery" [] (Mpi.quiescence_report mw);
  Alcotest.(check bool) "checkpoint was restored" true
    (Simtime.Stats.get (World.env world).Env.stats Key.restores >= 1)

let () =
  Alcotest.run "resilience"
    [
      ( "detection",
        [
          Alcotest.test_case "kill fails pending recv" `Quick
            test_kill_fails_pending_recv;
          Alcotest.test_case "send to dead peer fails at entry" `Quick
            test_send_to_dead_peer_fails_immediately;
          Alcotest.test_case "detector false positive" `Quick
            test_detector_false_positive;
        ] );
      ( "spawned ranks",
        [
          Alcotest.test_case "polling child not declared" `Quick
            test_spawned_poller_not_declared;
          Alcotest.test_case "returned child never declared" `Quick
            test_spawned_rank_finishes;
          Alcotest.test_case "child sees revoke" `Quick
            test_spawned_rank_sees_revoke;
          Alcotest.test_case "child sees dead peer" `Quick
            test_spawned_rank_sees_dead_peer;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "revoke completes blocked peer" `Quick
            test_revoke_completes_blocked_peer;
          Alcotest.test_case "agree and shrink after death" `Quick
            test_agree_and_shrink_after_death;
          Alcotest.test_case "allreduce survives member death" `Quick
            test_allreduce_survives_member_death;
          Alcotest.test_case "revive and exchange" `Quick
            test_revive_and_exchange;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "checkpoint roundtrip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "restore refuses in-flight image" `Quick
            test_checkpoint_refuses_inflight_image;
          Alcotest.test_case "motor e2e: kill, shrink, restart" `Quick
            test_motor_e2e_kill_shrink_restart;
        ] );
    ]
