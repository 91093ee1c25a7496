(* Tests for real parallelism (DESIGN.md §15): rank fibers on OCaml 5
   domains. The load-bearing property is digest equality — a parallel
   run of a schedule-independent workload must produce byte-identical
   results to the cooperative run — plus the guard rails: parallel mode
   rejects everything that needs determinism or shared mutable state,
   and a parallel deadlock is detected and reported, never a hang. *)

module C = Check.Catalogue
module Mpi = Mpi_core.Mpi
module Spsc = Mpi_core.Spsc
module Trace = Mpi_core.Trace

(* ------------------------------------------------------------------ *)
(* SPSC ring                                                           *)
(* ------------------------------------------------------------------ *)

let test_spsc_fifo () =
  let q = Spsc.create ~capacity:8 in
  for i = 1 to 5 do
    Spsc.push q i
  done;
  for i = 1 to 5 do
    Alcotest.(check (option int)) "fifo order" (Some i) (Spsc.pop q)
  done;
  Alcotest.(check (option int)) "empty" None (Spsc.pop q)

let test_spsc_full_and_wrap () =
  let q = Spsc.create ~capacity:3 in
  (* rounded up to 4: four pushes fit, the fifth does not *)
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

(* Run a catalogue entry on [spec] (default: its own world); an oracle
   violation fails the test. *)
let run ?spec (e : C.entry) =
  let digest, bad, w = C.run e (Option.value spec ~default:e.spec) in
  if bad <> [] then
    Alcotest.failf "%s: %s" e.name
      (String.concat "; "
         (List.map (Format.asprintf "%a" Check.Invariant.pp) bad));
  (digest, w)

let on_domains d (e : C.entry) = run ~spec:{ e.spec with parallel = Some d } e
let ring ~n ~rounds ~size = C.ring ~n ~rounds ~size ~ssend_tail:false

let test_ring_digest_matches () =
  let e = ring ~n:8 ~rounds:6 ~size:256 in
  let base, _ = run e in
  List.iter
    (fun d ->
      let got, w = on_domains d e in
      Alcotest.(check string)
        (Printf.sprintf "ring digest at %d domain(s)" d)
        base got;
      Alcotest.(check (option int))
        "world records its parallelism"
        (Some (min d 8))
        (Mpi.parallelism w))
    [ 1; 2; 4 ]

let test_allreduce_bytes_digest_matches () =
  let e = C.allreduce_bytes ~n:8 ~rounds:4 ~size:512 in
  let base, _ = run e in
  List.iter
    (fun d ->
      let got, _ = on_domains d e in
      Alcotest.(check string)
        (Printf.sprintf "allreduce digest at %d domain(s)" d)
        base got)
    [ 2; 4 ]

let test_parallel_run_repeatable () =
  let e = ring ~n:8 ~rounds:5 ~size:128 in
  let a, _ = on_domains 4 e in
  let b, _ = on_domains 4 e in
  Alcotest.(check string) "two parallel runs agree" a b

(* Asking for more domains than the placement can use: ranks are placed
   per simulated node, so an explicit topology caps the useful domain
   count at its node count (and a flat world at the rank count). The
   request is clamped, not rejected — and the run still matches the
   cooperative digest. *)
let test_domains_clamped_to_nodes () =
  let e = ring ~n:8 ~rounds:4 ~size:128 in
  let spec =
    { e.spec with topology = Some (Simtime.Topology.make ~nodes:2 ~cores:4) }
  in
  let base, _ = run ~spec e in
  (* 4 domains requested, but the 2-node placement can use only 2. *)
  let got, w = run ~spec:{ spec with parallel = Some 4 } e in
  Alcotest.(check (option int)) "clamped to the node count" (Some 2)
    (Mpi.parallelism w);
  Alcotest.(check string) "digest still matches cooperative" base got;
  (* Flat world: the cap is the rank count. *)
  let _, w = on_domains 16 (ring ~n:3 ~rounds:4 ~size:128) in
  Alcotest.(check (option int)) "clamped to the rank count" (Some 3)
    (Mpi.parallelism w)

(* ------------------------------------------------------------------ *)
(* Per-domain stats merge                                              *)
(* ------------------------------------------------------------------ *)

let test_merged_stats () =
  let n = 6 and rounds = 4 in
  let _, w = on_domains 2 (ring ~n ~rounds ~size:64) in
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
