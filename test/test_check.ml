(* Schedule-exploration harness tests: the planted race is invisible to
   round-robin but caught by seeded random schedules and shrinks to a
   tiny replayable trace; the real workloads hold their invariants over
   a seed sweep; recorded traces reproduce runs exactly; the committed
   corpus replays with the expected outcomes. *)

module E = Check.Explore
module Policy = Check.Policy
module Corpus = Check.Corpus
module Shrink = Check.Shrink

let violations_line o =
  String.concat "; "
    (List.map
       (fun v -> Format.asprintf "%a" Check.Invariant.pp v)
       o.E.o_violations)

let check_clean what o =
  if E.failed o then
    Alcotest.failf "%s: unexpected violation(s): %s" what (violations_line o)

(* ------------------------------------------------------------------ *)
(* The planted bug                                                     *)
(* ------------------------------------------------------------------ *)

let planted = E.planted_bug ~buggy:true
let fixed = E.planted_bug ~buggy:false

let test_planted_bug_invisible_to_round_robin () =
  check_clean "planted bug under round-robin"
    (E.run_one planted Policy.Round_robin)

let first_failing_seed ?(max = 200) w =
  let rec go s =
    if s > max then None
    else
      let o = E.run_one w (Policy.Seeded_random s) in
      if E.failed o then Some (s, o) else go (s + 1)
  in
  go 1

let test_planted_bug_caught_by_random_schedules () =
  match first_failing_seed planted with
  | None ->
      Alcotest.fail "planted race not caught within 200 seeds"
  | Some (_, o) ->
      Alcotest.(check bool)
        "violation names the planted race" true
        (List.exists (fun v -> v.Check.Invariant.inv = "planted-race")
           o.E.o_violations)

let test_fixed_variant_passes_under_random_schedules () =
  for s = 1 to 50 do
    check_clean
      (Printf.sprintf "fixed counter under seed %d" s)
      (E.run_one fixed (Policy.Seeded_random s))
  done

let test_planted_bug_shrinks_to_small_replayable_trace () =
  match first_failing_seed planted with
  | None -> Alcotest.fail "planted race not caught within 200 seeds"
  | Some (seed, o) ->
      let mini = E.minimize_failure planted o.E.o_trace in
      Alcotest.(check bool)
        (Printf.sprintf "trace from seed %d shrinks to <= 25 decisions (got \
                         %d)"
           seed (List.length mini))
        true
        (List.length mini <= 25);
      (* The minimized schedule still loses the update... *)
      let replayed = E.run_one planted (Policy.Replay mini) in
      Alcotest.(check bool) "shrunk trace still fails" true
        (E.failed replayed);
      (* ...and the fix makes the same schedule pass. *)
      check_clean "fixed variant under the failing schedule"
        (E.run_one fixed (Policy.Replay mini))

(* ------------------------------------------------------------------ *)
(* The planted one-sided epoch bug                                     *)
(* ------------------------------------------------------------------ *)

let rma_buggy = E.rma_epoch_bug ~buggy:true
let rma_fixed = E.rma_epoch_bug ~buggy:false

let test_rma_epoch_bug_invisible_to_round_robin () =
  check_clean "rma epoch bug under round-robin"
    (E.run_one rma_buggy Policy.Round_robin)

let test_rma_epoch_bug_caught_and_shrunk () =
  match first_failing_seed rma_buggy with
  | None -> Alcotest.fail "rma epoch bug not caught within 200 seeds"
  | Some (seed, o) ->
      Alcotest.(check bool)
        "violation names the epoch discipline" true
        (List.exists
           (fun v -> v.Check.Invariant.inv = "rma-epoch")
           o.E.o_violations);
      let mini = E.minimize_failure rma_buggy o.E.o_trace in
      Alcotest.(check bool)
        (Printf.sprintf
           "trace from seed %d shrinks to <= 25 decisions (got %d)" seed
           (List.length mini))
        true
        (List.length mini <= 25);
      let replayed = E.run_one rma_buggy (Policy.Replay mini) in
      Alcotest.(check bool) "shrunk trace still fails" true (E.failed replayed);
      check_clean "deferred-apply variant under the failing schedule"
        (E.run_one rma_fixed (Policy.Replay mini))

let test_rma_fixed_passes_under_random_schedules () =
  for s = 1 to 20 do
    check_clean
      (Printf.sprintf "deferred apply under seed %d" s)
      (E.run_one rma_fixed (Policy.Seeded_random s))
  done

(* ------------------------------------------------------------------ *)
(* The planted detector bug                                            *)
(* ------------------------------------------------------------------ *)

let test_planted_detector_bug_caught_and_shrunk () =
  let buggy = E.planted_detector_bug ~buggy:true in
  (* Unlike the planted race, the misconfigured detector fails under
     every schedule — including the round-robin baseline. *)
  let base = E.run_one buggy Policy.Round_robin in
  Alcotest.(check bool)
    "violation names the planted detector bug" true
    (List.exists
       (fun v -> v.Check.Invariant.inv = "planted-detector")
       base.E.o_violations);
  let mini = E.minimize_failure buggy base.E.o_trace in
  let replayed = E.run_one buggy (Policy.Replay mini) in
  Alcotest.(check bool) "shrunk trace still fails" true (E.failed replayed);
  check_clean "fixed detector under the failing schedule"
    (E.run_one (E.planted_detector_bug ~buggy:false) (Policy.Replay mini))

let test_fixed_detector_passes_under_random_schedules () =
  let fixed = E.planted_detector_bug ~buggy:false in
  for s = 1 to 10 do
    check_clean
      (Printf.sprintf "sane detector under seed %d" s)
      (E.run_one fixed (Policy.Seeded_random s))
  done

(* ------------------------------------------------------------------ *)
(* Rank death under the recovery loop                                  *)
(* ------------------------------------------------------------------ *)

let test_kill_workloads_clean_over_seeds_and_faults () =
  let report =
    E.explore ~faults:true ~workloads:(E.kill_workloads ()) ~seeds:8 ()
  in
  List.iter
    (fun o ->
      Alcotest.failf "%s under %s%s: %s" o.E.o_workload
        (Policy.name o.E.o_policy)
        (match o.E.o_fault_seed with
        | Some s -> Printf.sprintf " x fault(seed=%d)" s
        | None -> "")
        (violations_line o))
    report.E.r_failures

let test_survivor_convergence_oracle () =
  let module I = Check.Invariant in
  let names vs = List.map (fun v -> v.I.inv) vs in
  (* Converged: both survivors agree; the dead rank 2 reported nothing. *)
  Alcotest.(check (list string))
    "agreement passes" []
    (names
       (I.survivor_convergence ~survivors:[ 0; 1 ]
          [ (0, [| 0; 1 |], "3"); (1, [| 0; 1 |], "3") ]));
  (* A member that died after the last attempt may linger in the
     membership; survivors still agree. *)
  Alcotest.(check (list string))
    "stale membership naming the dead rank still passes" []
    (names
       (I.survivor_convergence ~survivors:[ 0; 1 ]
          [ (0, [| 0; 1; 2 |], "6"); (1, [| 0; 1; 2 |], "6") ]));
  let bad reports = names (I.survivor_convergence ~survivors:[ 0; 1 ] reports) in
  Alcotest.(check bool)
    "missing report flagged" true
    (bad [ (0, [| 0; 1 |], "3") ] <> []);
  Alcotest.(check bool)
    "value disagreement flagged" true
    (bad [ (0, [| 0; 1 |], "3"); (1, [| 0; 1 |], "4") ] <> []);
  Alcotest.(check bool)
    "membership disagreement flagged" true
    (bad [ (0, [| 0; 1 |], "3"); (1, [| 0; 1; 2 |], "3") ] <> []);
  Alcotest.(check bool)
    "non-member reporter flagged" true
    (bad [ (0, [| 1 |], "3"); (1, [| 1 |], "3") ] <> [])

(* ------------------------------------------------------------------ *)
(* Exploration of the real workloads                                   *)
(* ------------------------------------------------------------------ *)

let test_explorer_clean_on_default_workloads () =
  let report =
    E.explore ~quick:true ~faults:true ~workloads:(E.default_workloads ())
      ~seeds:10 ()
  in
  List.iter
    (fun o ->
      Alcotest.failf "%s under %s%s: %s" o.E.o_workload
        (Policy.name o.E.o_policy)
        (match o.E.o_fault_seed with
        | Some s -> Printf.sprintf " x fault(seed=%d)" s
        | None -> "")
        (violations_line o))
    report.E.r_failures;
  Alcotest.(check int)
    "one baseline per workload" 7
    (List.length report.E.r_baselines)

let test_record_replay_reproduces_digest () =
  let w = Option.get (E.find "ring") in
  let original = E.run_one ~quick:true w (Policy.Seeded_random 42) in
  check_clean "ring under seed 42" original;
  let replayed =
    E.run_one ~quick:true w (Policy.Replay original.E.o_trace)
  in
  check_clean "ring replay" replayed;
  Alcotest.(check string)
    "replay reproduces the digest" original.E.o_digest replayed.E.o_digest

(* ------------------------------------------------------------------ *)
(* The channel matrix                                                  *)
(* ------------------------------------------------------------------ *)

module C = Check.Catalogue

(* Every catalogue entry on every modelled channel, under round-robin:
   on a clean wire, and for the entries the explorer marks faultable
   also under one fault plan (plus a kill for the rank-death entries).
   A workload leaves the world out, so each run must be clean and give
   the digest of the entry's own spec. *)
let test_channel_matrix () =
  let entries =
    [
      C.ring ~n:3 ~rounds:3 ~size:48 ~ssend_tail:true;
      C.allreduce_chain ~n:3 ~rounds:2;
      C.allreduce_bytes ~n:4 ~rounds:2 ~size:64;
      C.hier_allreduce ~rounds:2;
      C.icoll_overlap ~n:3;
      C.rma_fence ~n:3 ~big:66_000;
      C.rma_lock ~n:3;
      C.rma_epoch ~eager_apply:false ~n:3;
      C.kill_allreduce ();
      C.kill_p2p ();
      C.kill_hier_leader ();
    ]
  in
  let faulty (e : C.entry) =
    let plan =
      Mpi_core.Fault.plan ~seed:11 ~drop:0.02 ~duplicate:0.01 ~corrupt:0.01
        ~delay:0.05 ()
    in
    if String.starts_with ~prefix:"kill_" e.name then
      { plan with kills = [ E.kill_of_fault ~seed:(Some 11) ~n:e.spec.n () ] }
    else plan
  in
  List.iter
    (fun (e : C.entry) ->
      let base, bad = E.check_entry e e.spec in
      Alcotest.(check (list string)) (e.name ^ " on its own spec") []
        (List.map (Format.asprintf "%a" Check.Invariant.pp) bad);
      let faultable =
        match E.find e.name with Some w -> E.faultable w | None -> false
      in
      List.iter
        (fun channel ->
          List.iter
            (fun fault ->
              let what =
                Printf.sprintf "%s on %s%s" e.name
                  (match channel with
                  | `Sock -> "sock"
                  | `Shm -> "shm"
                  | `Rdma -> "rdma")
                  (if Option.is_none fault then "" else " with faults")
              in
              let digest, bad = E.check_entry e { e.spec with channel; fault } in
              Alcotest.(check (list string)) what []
                (List.map (Format.asprintf "%a" Check.Invariant.pp) bad);
              Alcotest.(check string) (what ^ ": digest") base digest)
            (None :: (if faultable then [ Some (faulty e) ] else [])))
        [ `Sock; `Shm; `Rdma ])
    entries

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

let test_shrinker_minimizes_synthetic_predicate () =
  (* Fails iff decisions 3 and 11 both survive with nonzero values; the
     minimal failing trace keeps exactly those two (zeros elsewhere are
     stripped or truncated away). *)
  let fails ds =
    let a = Array.of_list ds in
    let get i = if i < Array.length a then a.(i) else 0 in
    get 3 = 7 && get 11 = 2
  in
  let noisy = [ 5; 1; 4; 7; 9; 2; 6; 8; 1; 3; 5; 2; 4; 4; 9; 1; 7; 3 ] in
  Alcotest.(check bool) "synthetic trace fails" true (fails noisy);
  let mini = Shrink.minimize ~fails noisy in
  Alcotest.(check bool) "minimized trace still fails" true (fails mini);
  Alcotest.(check (list int))
    "only the two load-bearing decisions survive"
    [ 0; 0; 0; 7; 0; 0; 0; 0; 0; 0; 0; 2 ]
    mini

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let test_corpus_round_trip () =
  let entry =
    {
      Corpus.c_workload = "ring";
      c_expect = Corpus.Must_pass;
      c_note = "round-trip test";
      c_fault = Some 17;
      c_quick = true;
      c_decisions = [ 0; 3; 1; 0; 2 ];
    }
  in
  Alcotest.(check bool)
    "entry survives to_string/of_string" true
    (Corpus.of_string (Corpus.to_string entry) = entry);
  Alcotest.(check bool)
    "the size is written" true
    (List.mem "size quick"
       (String.split_on_char '\n' (Corpus.to_string entry)));
  let bare =
    { entry with Corpus.c_note = ""; c_fault = None; c_quick = false }
  in
  Alcotest.(check bool)
    "optional fields survive omission" true
    (Corpus.of_string (Corpus.to_string bare) = bare)

let test_corpus_rejects_malformed () =
  let bad s =
    match Corpus.of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "malformed corpus accepted: %S" s
  in
  bad "";
  bad "workload ring\ndecisions 0";
  bad "# motor schedule trace v1\nworkload ring\nexpect maybe\ndecisions 0";
  bad "# motor schedule trace v1\nworkload ring\nexpect fail\ndecisions x"

(* A trace only means something at the size it was recorded at: the
   explorer writes a quick run's size into the entry, and a replay of the
   saved file runs it there. *)
let test_quick_trace_replays_at_its_size () =
  let report = E.explore ~quick:true ~workloads:[ planted ] ~seeds:10 () in
  match report.E.r_shrunk with
  | [ (_, entry) ] -> (
      Alcotest.(check bool) "recorded as quick" true entry.Corpus.c_quick;
      let path = Filename.temp_file "planted_bug" ".trace" in
      Corpus.save ~path entry;
      let loaded = Corpus.load ~path in
      Sys.remove path;
      Alcotest.(check bool) "the file keeps the size" true (loaded = entry);
      match E.replay_entry loaded with
      | Ok o -> Alcotest.(check bool) "fails as expected" true (E.failed o)
      | Error msg -> Alcotest.fail msg)
  | l -> Alcotest.failf "expected one shrunk trace, got %d" (List.length l)

let test_committed_corpus_replays () =
  let dir = "corpus" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace")
    |> List.sort compare
  in
  Alcotest.(check bool)
    "corpus is not empty" true (files <> []);
  List.iter
    (fun f ->
      let entry = Corpus.load ~path:(Filename.concat dir f) in
      match E.replay_entry entry with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" f msg)
    files

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "check"
    [
      ( "planted bug",
        [
          Alcotest.test_case "invisible to round-robin" `Quick
            test_planted_bug_invisible_to_round_robin;
          Alcotest.test_case "caught by random schedules" `Quick
            test_planted_bug_caught_by_random_schedules;
          Alcotest.test_case "fixed variant passes" `Quick
            test_fixed_variant_passes_under_random_schedules;
          Alcotest.test_case "shrinks to a small replayable trace" `Quick
            test_planted_bug_shrinks_to_small_replayable_trace;
        ] );
      ( "rma epoch bug",
        [
          Alcotest.test_case "invisible to round-robin" `Quick
            test_rma_epoch_bug_invisible_to_round_robin;
          Alcotest.test_case "caught by random schedules and shrunk" `Quick
            test_rma_epoch_bug_caught_and_shrunk;
          Alcotest.test_case "deferred-apply variant passes" `Quick
            test_rma_fixed_passes_under_random_schedules;
        ] );
      ( "planted detector bug",
        [
          Alcotest.test_case "caught at baseline and shrunk" `Quick
            test_planted_detector_bug_caught_and_shrunk;
          Alcotest.test_case "fixed detector passes" `Quick
            test_fixed_detector_passes_under_random_schedules;
        ] );
      ( "rank death",
        [
          Alcotest.test_case "kill workloads clean over seeds x faults"
            `Quick test_kill_workloads_clean_over_seeds_and_faults;
          Alcotest.test_case "survivor-convergence oracle" `Quick
            test_survivor_convergence_oracle;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "default workloads clean over seeds x faults"
            `Quick test_explorer_clean_on_default_workloads;
          Alcotest.test_case "record/replay reproduces digest" `Quick
            test_record_replay_reproduces_digest;
          Alcotest.test_case "every entry on every channel" `Quick
            test_channel_matrix;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "minimizes a synthetic predicate" `Quick
            test_shrinker_minimizes_synthetic_predicate;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "entry round-trips" `Quick
            test_corpus_round_trip;
          Alcotest.test_case "a quick trace replays at its size" `Quick
            test_quick_trace_replays_at_its_size;
          Alcotest.test_case "malformed entries rejected" `Quick
            test_corpus_rejects_malformed;
          Alcotest.test_case "committed traces replay as expected" `Quick
            test_committed_corpus_replays;
        ] );
    ]
