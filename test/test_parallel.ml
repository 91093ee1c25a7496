(* Tests for real parallelism (DESIGN.md §15): rank fibers on OCaml 5
   domains. The load-bearing property is digest equality — a parallel
   run of a schedule-independent workload must produce byte-identical
   results to the cooperative run — plus the guard rails: parallel mode
   rejects everything that needs determinism or shared mutable state,
   and a parallel deadlock is detected and reported, never a hang. *)

module W = Harness.Workloads
module Mpi = Mpi_core.Mpi
module Spsc = Mpi_core.Spsc
module Trace = Mpi_core.Trace

(* ------------------------------------------------------------------ *)
(* SPSC ring                                                           *)
(* ------------------------------------------------------------------ *)

let test_spsc_fifo () =
  let q = Spsc.create ~capacity:8 in
  Alcotest.(check int) "capacity rounds to power of two" 8 (Spsc.capacity q);
  for i = 1 to 5 do
    Spsc.push q i
  done;
  Alcotest.(check int) "length" 5 (Spsc.length q);
  for i = 1 to 5 do
    Alcotest.(check (option int)) "fifo order" (Some i) (Spsc.pop q)
  done;
  Alcotest.(check (option int)) "empty" None (Spsc.pop q)

let test_spsc_full_and_wrap () =
  let q = Spsc.create ~capacity:3 in
  (* rounded up to 4 *)
  Alcotest.(check int) "rounded capacity" 4 (Spsc.capacity q);
  for i = 0 to 3 do
    Alcotest.(check bool) "push while space" true (Spsc.try_push q i)
  done;
  Alcotest.(check bool) "full ring rejects" false (Spsc.try_push q 99);
  Alcotest.(check (option int)) "pop frees a slot" (Some 0) (Spsc.pop q);
  Alcotest.(check bool) "push after pop" true (Spsc.try_push q 4);
  (* drain across the wrap point *)
  List.iter
    (fun expect ->
      Alcotest.(check (option int)) "wrap order" (Some expect) (Spsc.pop q))
    [ 1; 2; 3; 4 ]

let test_spsc_cross_domain () =
  let q = Spsc.create ~capacity:16 in
  let n = 10_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Spsc.push q i
        done)
  in
  let sum = ref 0 and seen = ref 0 in
  while !seen < n do
    match Spsc.pop q with
    | Some v ->
        sum := !sum + v;
        incr seen
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check int) "all items, each once" (n * (n - 1) / 2) !sum

(* ------------------------------------------------------------------ *)
(* Digest equality: parallel == cooperative                            *)
(* ------------------------------------------------------------------ *)

let test_ring_digest_matches () =
  let base, _ = W.ring ~n:8 ~rounds:6 ~size:256 () in
  List.iter
    (fun d ->
      let got, w = W.ring ~parallel:d ~n:8 ~rounds:6 ~size:256 () in
      Alcotest.(check string)
        (Printf.sprintf "ring digest at %d domain(s)" d)
        base got;
      Alcotest.(check (option int))
        "world records its parallelism"
        (Some (min d 8))
        (Mpi.parallelism w))
    [ 1; 2; 4 ]

let test_allreduce_bytes_digest_matches () =
  let base, _ = W.allreduce_bytes ~n:8 ~rounds:4 ~size:512 () in
  List.iter
    (fun d ->
      let got, _ = W.allreduce_bytes ~parallel:d ~n:8 ~rounds:4 ~size:512 () in
      Alcotest.(check string)
        (Printf.sprintf "allreduce digest at %d domain(s)" d)
        base got)
    [ 2; 4 ]

let test_parallel_run_repeatable () =
  let a, _ = W.ring ~parallel:4 ~n:8 ~rounds:5 ~size:128 () in
  let b, _ = W.ring ~parallel:4 ~n:8 ~rounds:5 ~size:128 () in
  Alcotest.(check string) "two parallel runs agree" a b

(* Asking for more domains than the placement can use: ranks are placed
   per simulated node, so an explicit topology caps the useful domain
   count at its node count (and a flat world at the rank count). The
   request is clamped, not rejected — and the run still matches the
   cooperative digest. *)
let ring_digest ?topology ?parallel ~n () =
  let rounds = 4 and size = 128 in
  let finals = Array.make n Bytes.empty in
  let w =
    Mpi.run ?topology ?parallel ~n (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let r = Mpi.rank p in
        let buf = Bytes.init size (fun i -> Char.chr ((r + i) land 0xff)) in
        for round = 0 to rounds - 1 do
          let dst = (r + 1) mod n and src = (r + n - 1) mod n in
          let incoming = Bytes.create size in
          let rr =
            Mpi.irecv p ~comm ~src ~tag:round
              (Mpi_core.Buffer_view.of_bytes incoming)
          in
          Mpi.send p ~comm ~dst ~tag:round (Mpi_core.Buffer_view.of_bytes buf);
          ignore (Mpi.wait p rr);
          Bytes.blit incoming 0 buf 0 size
        done;
        finals.(r) <- Bytes.copy buf)
  in
  let d = Digest.to_hex (Digest.bytes (Bytes.concat Bytes.empty (Array.to_list finals))) in
  (d, w)

let test_domains_clamped_to_nodes () =
  let topology = Simtime.Topology.make ~nodes:2 ~cores:4 in
  let base, _ = ring_digest ~topology ~n:8 () in
  (* 4 domains requested, but the 2-node placement can use only 2. *)
  let got, w = ring_digest ~topology ~parallel:4 ~n:8 () in
  Alcotest.(check (option int)) "clamped to the node count" (Some 2)
    (Mpi.parallelism w);
  Alcotest.(check string) "digest still matches cooperative" base got;
  (* Flat world: the cap is the rank count. *)
  let _, w = ring_digest ~parallel:16 ~n:3 () in
  Alcotest.(check (option int)) "clamped to the rank count" (Some 3)
    (Mpi.parallelism w)

(* ------------------------------------------------------------------ *)
(* Per-domain stats merge                                              *)
(* ------------------------------------------------------------------ *)

let test_merged_stats () =
  let n = 6 and rounds = 4 in
  let _, w = W.ring ~parallel:2 ~n ~rounds ~size:64 () in
  let merged = Mpi.merged_stats w in
  let sent = Simtime.Stats.get merged Simtime.Stats.Key.msgs_sent in
  (* every rank sends one message per round *)
  Alcotest.(check int) "total messages across domains" (n * rounds) sent;
  let per_domain =
    Array.to_list (Mpi.domain_envs w)
    |> List.map (fun e -> Simtime.Stats.get e.Simtime.Env.stats Simtime.Stats.Key.msgs_sent)
  in
  Alcotest.(check int) "merge is the sum of the shards" sent
    (List.fold_left ( + ) 0 per_domain);
  Alcotest.(check bool) "work actually spread over both domains" true
    (List.for_all (fun c -> c > 0) per_domain)

let test_stats_absorb_histograms () =
  let h = Simtime.Stats.histogram "h" and c = Simtime.Stats.counter "c" in
  let a = Simtime.Stats.create () and b = Simtime.Stats.create () in
  Simtime.Stats.observe a h 10.0;
  Simtime.Stats.observe b h 30.0;
  Simtime.Stats.add a c 2;
  Simtime.Stats.add b c 3;
  let m = Simtime.Stats.merged [ a; b ] in
  Alcotest.(check int) "counters add" 5 (Simtime.Stats.get m c);
  (* originals untouched *)
  Alcotest.(check int) "absorb copies, not moves" 2 (Simtime.Stats.get a c)

(* ------------------------------------------------------------------ *)
(* Trace merge                                                         *)
(* ------------------------------------------------------------------ *)

let test_trace_merge_sorted () =
  let env1 = Simtime.Env.create () and env2 = Simtime.Env.create () in
  let t1 = Trace.enable env1 and t2 = Trace.enable env2 in
  Simtime.Clock.advance env1.Simtime.Env.clock 5.0;
  Trace.record env1 ~rank:0 ~op:"a" ~detail:(fun () -> "");
  Simtime.Clock.advance env2.Simtime.Env.clock 2.0;
  Trace.record env2 ~rank:1 ~op:"b" ~detail:(fun () -> "");
  Simtime.Clock.advance env1.Simtime.Env.clock 1.0;
  Trace.record env1 ~rank:0 ~op:"c" ~detail:(fun () -> "");
  let merged = Trace.merge_events [ t1; t2 ] in
  Trace.disable env1;
  Trace.disable env2;
  Alcotest.(check (list string))
    "merged stream ordered by virtual time" [ "b"; "a"; "c" ]
    (List.map (fun e -> e.Trace.op) merged)

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)
(* ------------------------------------------------------------------ *)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_parallel_world_guards () =
  expect_invalid "fault plan" (fun () ->
      Mpi.create_world
        ~fault:(Mpi_core.Fault.plan ~seed:1 ~drop:0.1 ())
        ~parallel:2 ~n:4 ());
  expect_invalid "reliable layer" (fun () ->
      Mpi.create_world ~reliable:Mpi_core.Reliable.default_config ~parallel:2
        ~n:4 ());
  expect_invalid "shared env" (fun () ->
      Mpi.create_world ~env:(Simtime.Env.create ()) ~parallel:2 ~n:4 ());
  expect_invalid "zero domains" (fun () ->
      Mpi.create_world ~parallel:0 ~n:4 ())

let test_parallel_rejects_policy_and_record () =
  expect_invalid "policy under parallel" (fun () ->
      Fiber.run
        ~mode:(Fiber.Parallel { domains = 2; place = (fun i -> i) })
        ~policy:Fiber.Round_robin
        [ ("a", ignore) ]);
  expect_invalid "record under parallel" (fun () ->
      Fiber.run
        ~mode:(Fiber.Parallel { domains = 2; place = (fun i -> i) })
        ~record:(Fiber.new_trace ())
        [ ("a", ignore) ])

let test_explore_rejects_parallel_context () =
  (* Policy.assert_deterministic fires inside a parallel region. *)
  let saw = Atomic.make false in
  Fiber.run
    ~mode:(Fiber.Parallel { domains = 2; place = (fun i -> i) })
    [
      ( "probe",
        fun () ->
          match Check.Policy.assert_deterministic "test" with
          | exception Invalid_argument _ -> Atomic.set saw true
          | () -> () );
      ("idle", ignore);
    ];
  Alcotest.(check bool) "deterministic guard fired" true (Atomic.get saw)

let test_parallel_deadlock_detected () =
  (* Two fibers on two domains, each blocked forever: the last domain to
     park must declare a deadlock rather than sleep forever. *)
  match
    Fiber.run
      ~mode:(Fiber.Parallel { domains = 2; place = (fun i -> i) })
      [
        ("stuck0", fun () -> Fiber.wait_until ~label:"never" (fun () -> false));
        ("stuck1", fun () -> Fiber.wait_until ~label:"never" (fun () -> false));
      ]
  with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Fiber.Deadlock { policy; waiting; _ } ->
      Alcotest.(check bool)
        "policy names parallel mode" true
        (String.length policy >= 8 && String.sub policy 0 8 = "parallel");
      Alcotest.(check bool) "some fiber reported waiting" true (waiting <> [])

let test_buffer_pool_owner_guard () =
  let rt = Vm.Runtime.create () in
  let pool = Motor.Buffer_pool.create rt.Vm.Runtime.gc in
  let b = Motor.Buffer_pool.acquire pool 64 in
  Motor.Buffer_pool.release pool b;
  let d =
    Domain.spawn (fun () ->
        match Motor.Buffer_pool.acquire pool 64 with
        | exception Invalid_argument _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "cross-domain acquire rejected" true (Domain.join d)

let () =
  Alcotest.run "parallel"
    [
      ( "spsc",
        [
          Alcotest.test_case "fifo" `Quick test_spsc_fifo;
          Alcotest.test_case "full+wrap" `Quick test_spsc_full_and_wrap;
          Alcotest.test_case "cross-domain" `Quick test_spsc_cross_domain;
        ] );
      ( "digests",
        [
          Alcotest.test_case "ring" `Quick test_ring_digest_matches;
          Alcotest.test_case "allreduce" `Quick
            test_allreduce_bytes_digest_matches;
          Alcotest.test_case "repeatable" `Quick test_parallel_run_repeatable;
          Alcotest.test_case "domains clamp to placement" `Quick
            test_domains_clamped_to_nodes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "merged per-domain" `Quick test_merged_stats;
          Alcotest.test_case "absorb" `Quick test_stats_absorb_histograms;
          Alcotest.test_case "trace merge" `Quick test_trace_merge_sorted;
        ] );
      ( "guards",
        [
          Alcotest.test_case "world options" `Quick test_parallel_world_guards;
          Alcotest.test_case "policy/record" `Quick
            test_parallel_rejects_policy_and_record;
          Alcotest.test_case "explore guard" `Quick
            test_explore_rejects_parallel_context;
          Alcotest.test_case "deadlock detected" `Quick
            test_parallel_deadlock_detected;
          Alcotest.test_case "buffer pool owner" `Quick
            test_buffer_pool_owner_guard;
        ] );
    ]
