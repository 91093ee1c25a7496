(* Unit tests for the cooperative fiber scheduler. *)

let test_run_to_completion () =
  let log = ref [] in
  Fiber.run
    [
      ("a", fun () -> log := "a" :: !log);
      ("b", fun () -> log := "b" :: !log);
    ];
  Alcotest.(check (list string)) "both ran" [ "a"; "b" ] (List.rev !log)

let test_yield_interleaves () =
  let log = ref [] in
  let fiber name =
    ( name,
      fun () ->
        log := (name ^ "1") :: !log;
        Fiber.yield ();
        log := (name ^ "2") :: !log )
  in
  Fiber.run [ fiber "a"; fiber "b" ];
  Alcotest.(check (list string))
    "round robin" [ "a1"; "b1"; "a2"; "b2" ] (List.rev !log)

let test_wait_until_wakes () =
  let flag = ref false in
  let woke = ref false in
  Fiber.run
    [
      ( "waiter",
        fun () ->
          Fiber.wait_until ~label:"flag" (fun () -> !flag);
          woke := true );
      ("setter", fun () -> flag := true);
    ];
  Alcotest.(check bool) "waiter woke" true !woke

let test_deadlock_detected () =
  let saw = ref [] in
  let pol = ref "" in
  (try
     Fiber.run
       [
         ("stuck", fun () -> Fiber.wait_until ~label:"never" (fun () -> false));
       ]
   with Fiber.Deadlock { policy; waiting; _ } ->
     saw := waiting;
     pol := policy);
  Alcotest.(check (list string)) "labels reported" [ "stuck/never" ] !saw;
  Alcotest.(check string) "policy reported" "round-robin" !pol

let test_activity_defers_deadlock () =
  (* A predicate that needs several scans but reports activity must not be
     declared deadlocked. *)
  let countdown = ref 5 in
  let done_ = ref false in
  Fiber.run
    [
      ( "poller",
        fun () ->
          Fiber.wait_until ~label:"countdown" (fun () ->
              if !countdown = 0 then true
              else begin
                decr countdown;
                Fiber.note_activity ();
                false
              end);
          done_ := true );
    ];
  Alcotest.(check bool) "finished" true !done_

let test_spawn_dynamic () =
  let log = ref [] in
  Fiber.run
    [
      ( "parent",
        fun () ->
          Fiber.spawn "child" (fun () -> log := "child" :: !log);
          log := "parent" :: !log );
    ];
  Alcotest.(check (list string))
    "child ran after parent" [ "parent"; "child" ] (List.rev !log)

let test_exception_propagates () =
  Alcotest.check_raises "exception escapes run" (Failure "boom") (fun () ->
      Fiber.run [ ("bomb", fun () -> failwith "boom") ])

let test_nested_run () =
  let inner_done = ref false in
  Fiber.run
    [
      ( "outer",
        fun () ->
          Fiber.run [ ("inner", fun () -> inner_done := true) ] );
    ];
  Alcotest.(check bool) "nested scheduler ran" true !inner_done

let test_ping_pong_handshake () =
  (* Two fibers alternating through shared state: the core pattern of the
     MPI ping-pong workload. *)
  let ball = ref 0 in
  let hits = ref 0 in
  let player me =
    fun () ->
      for _ = 1 to 10 do
        Fiber.wait_until ~label:"turn" (fun () -> !ball = me);
        incr hits;
        ball := 1 - me
      done
  in
  Fiber.run [ ("p0", player 0); ("p1", player 1) ];
  Alcotest.(check int) "20 hits" 20 !hits

let test_in_scheduler () =
  Alcotest.(check bool) "outside" false (Fiber.in_scheduler ());
  let inside = ref false in
  Fiber.run [ ("probe", fun () -> inside := Fiber.in_scheduler ()) ];
  Alcotest.(check bool) "inside" true !inside


let test_wait_predicate_exception_propagates () =
  Alcotest.check_raises "predicate exception escapes run"
    (Failure "pred-boom") (fun () ->
      Fiber.run
        [
          ( "waiter",
            fun () ->
              Fiber.yield ();
              Fiber.wait_until ~label:"bad" (fun () -> failwith "pred-boom")
          );
        ])

let test_spawned_fiber_exception_propagates () =
  Alcotest.check_raises "spawned fiber exception escapes run"
    (Failure "child-boom") (fun () ->
      Fiber.run
        [ ("parent", fun () -> Fiber.spawn "child" (fun () -> failwith "child-boom")) ])

(* ---- scheduling policies ---- *)

(* A workload whose event order depends on every scheduling decision. *)
let order_log policy =
  let log = ref [] in
  let fiber name =
    ( name,
      fun () ->
        for i = 1 to 3 do
          log := Printf.sprintf "%s%d" name i :: !log;
          Fiber.yield ()
        done )
  in
  Fiber.run ~policy [ fiber "a"; fiber "b"; fiber "c" ];
  List.rev !log

let test_seeded_random_deterministic () =
  let one = order_log (Fiber.Seeded_random 7) in
  let two = order_log (Fiber.Seeded_random 7) in
  Alcotest.(check (list string)) "same seed, same schedule" one two;
  let other = List.exists (fun s -> order_log (Fiber.Seeded_random s) <> one)
      [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "some other seed differs" true other

let test_record_replay_reproduces () =
  let tr = Fiber.new_trace () in
  let log = ref [] in
  let run policy record =
    log := [];
    let fiber name =
      ( name,
        fun () ->
          for i = 1 to 3 do
            log := Printf.sprintf "%s%d" name i :: !log;
            Fiber.yield ()
          done )
    in
    Fiber.run ~policy ?record [ fiber "a"; fiber "b"; fiber "c" ];
    List.rev !log
  in
  let seeded = run (Fiber.Seeded_random 42) (Some tr) in
  Alcotest.(check bool) "decisions recorded" true
    (Fiber.trace_to_list tr <> []);
  let replayed = run (Fiber.Replay tr) None in
  Alcotest.(check (list string)) "replay reproduces the schedule" seeded
    replayed

let test_replay_clamps_bad_indices () =
  (* Mutated (shrunk) traces may hold indices wider than the live run
     queue; replay must clamp them, not crash. *)
  let tr = Fiber.trace_of_list [ 99; 99; 99 ] in
  let count = ref 0 in
  Fiber.run ~policy:(Fiber.Replay tr)
    [ ("a", fun () -> incr count); ("b", fun () -> incr count) ];
  Alcotest.(check int) "all fibers ran" 2 !count

let test_with_policy_scopes_nested_runs () =
  (* The ambient policy reaches a nested run and one trace covers both
     schedulers; replaying it reproduces the whole nested execution. *)
  let tr = Fiber.new_trace () in
  let run_nested record policy =
    let log = ref [] in
    let body () =
      Fiber.run
        [
          ( "outer",
            fun () ->
              log := "o1" :: !log;
              Fiber.run
                [
                  ("i1", fun () -> log := "i1" :: !log);
                  ("i2", fun () -> log := "i2" :: !log);
                ];
              log := "o2" :: !log );
          ("peer", fun () -> log := "p" :: !log);
        ]
    in
    (match record with
    | Some t -> Fiber.with_policy ~record:t policy body
    | None -> Fiber.with_policy policy body);
    List.rev !log
  in
  let seeded = run_nested (Some tr) (Fiber.Seeded_random 11) in
  let replayed = run_nested None (Fiber.Replay tr) in
  Alcotest.(check (list string)) "nested replay matches" seeded replayed

let test_deadlock_reports_seed () =
  (* Diagnostics must identify the schedule that found the deadlock. *)
  try
    Fiber.run ~policy:(Fiber.Seeded_random 1234)
      [
        ("stuck", fun () -> Fiber.wait_until ~label:"never" (fun () -> false));
        ("also", fun () -> Fiber.yield ());
      ];
    Alcotest.fail "expected deadlock"
  with Fiber.Deadlock { policy; waiting; _ } ->
    Alcotest.(check string) "policy names the seed" "seeded-random(seed=1234)"
      policy;
    Alcotest.(check (list string)) "waiting labels" [ "stuck/never" ] waiting

let test_two_step_progress_under_random () =
  (* A predicate that needs several scans but reports activity (the
     channels' one-packet-per-poll pattern) must not be declared
     deadlocked under any seed. *)
  List.iter
    (fun seed ->
      let countdown = ref 2 in
      let done_ = ref false in
      Fiber.run ~policy:(Fiber.Seeded_random seed)
        [
          ( "poller",
            fun () ->
              Fiber.wait_until ~label:"two-step" (fun () ->
                  if !countdown = 0 then true
                  else begin
                    decr countdown;
                    Fiber.note_activity ();
                    false
                  end);
              done_ := true );
          ( "noise",
            fun () ->
              for _ = 1 to 3 do
                Fiber.yield ()
              done );
        ];
      Alcotest.(check bool)
        (Printf.sprintf "seed %d finished" seed)
        true !done_)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

(* A skip costs the binades it crosses, not the scans it skips: a wait
   that polls 2^36 times at 1 ns a poll, from 2^40 ns to its horizon
   2^36 ns later, ends in a blink. Every sum here is an exact integer,
   so the clock and the poll count follow without a reference loop. *)
let test_skip_cost_independent_of_scans () =
  let clock = Simtime.Clock.create () in
  let start = 0x1p40 and h = 0x1p40 +. 0x1p36 in
  Simtime.Clock.advance_to clock start;
  let polls = ref 0 in
  let idle =
    {
      Fiber.clock;
      charges = [| 1.0 |];
      count = (fun n ~at:_ -> polls := !polls + n);
      horizon = (fun () -> Some h);
    }
  in
  Fiber.run
    [
      ( "waiter",
        fun () ->
          Fiber.wait_until ~idle (fun () ->
              Simtime.Clock.now_ns clock >= h
              || begin
                   Simtime.Clock.advance clock 1.0;
                   incr polls;
                   Fiber.note_activity ();
                   false
                 end) );
    ];
  Alcotest.(check (float 0.0)) "ends at the horizon" h
    (Simtime.Clock.now_ns clock);
  Alcotest.(check int) "one poll per nanosecond" (1 lsl 36) !polls

let prop_many_fibers_all_run =
  QCheck.Test.make ~name:"n fibers all complete" ~count:50
    QCheck.(int_range 1 64)
    (fun n ->
      let count = ref 0 in
      let fibers =
        List.init n (fun i ->
            ( Printf.sprintf "f%d" i,
              fun () ->
                Fiber.yield ();
                incr count ))
      in
      Fiber.run fibers;
      !count = n)

let () =
  Alcotest.run "fiber"
    [
      ( "scheduler",
        [
          Alcotest.test_case "run to completion" `Quick
            test_run_to_completion;
          Alcotest.test_case "yield interleaves" `Quick
            test_yield_interleaves;
          Alcotest.test_case "wait_until wakes" `Quick test_wait_until_wakes;
          Alcotest.test_case "deadlock detected" `Quick
            test_deadlock_detected;
          Alcotest.test_case "activity defers deadlock" `Quick
            test_activity_defers_deadlock;
          Alcotest.test_case "dynamic spawn" `Quick test_spawn_dynamic;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested run" `Quick test_nested_run;
          Alcotest.test_case "ping-pong handshake" `Quick
            test_ping_pong_handshake;
          Alcotest.test_case "in_scheduler" `Quick test_in_scheduler;
          Alcotest.test_case "wait predicate exception" `Quick
            test_wait_predicate_exception_propagates;
          Alcotest.test_case "spawned fiber exception" `Quick
            test_spawned_fiber_exception_propagates;
          Alcotest.test_case "skip cost independent of scans" `Quick
            test_skip_cost_independent_of_scans;
        ] );
      ( "policies",
        [
          Alcotest.test_case "seeded random deterministic" `Quick
            test_seeded_random_deterministic;
          Alcotest.test_case "record + replay reproduces" `Quick
            test_record_replay_reproduces;
          Alcotest.test_case "replay clamps bad indices" `Quick
            test_replay_clamps_bad_indices;
          Alcotest.test_case "with_policy scopes nested runs" `Quick
            test_with_policy_scopes_nested_runs;
          Alcotest.test_case "deadlock reports seed" `Quick
            test_deadlock_reports_seed;
          Alcotest.test_case "two-step progress under random" `Quick
            test_two_step_progress_under_random;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_many_fibers_all_run ]);
    ]
