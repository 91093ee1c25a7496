(* Unit tests for the simtime substrate: clock, cost presets, stats. *)

module Clock = Simtime.Clock
module Cost = Simtime.Cost
module Stats = Simtime.Stats
module Env = Simtime.Env

let test_clock_advance () =
  let c = Clock.create () in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Clock.now_ns c);
  Clock.advance c 1500.0;
  Alcotest.(check (float 1e-9)) "advanced" 1500.0 (Clock.now_ns c);
  Alcotest.(check (float 1e-9)) "microseconds" 1.5 (Clock.now_us c)

let test_clock_negative () =
  let c = Clock.create () in
  Alcotest.check_raises "negative charge rejected"
    (Invalid_argument "Clock.advance: negative charge") (fun () ->
      Clock.advance c (-1.0))

let presets =
  Cost.
    [
      native_cpp;
      motor;
      indiana_sscli;
      indiana_sscli_fastchecked;
      indiana_dotnet;
      mpijava;
    ]

let test_cost_presets_distinct () =
  let names = List.map (fun c -> c.Cost.name) presets in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "preset names unique" (List.length names)
    (List.length sorted)

let test_cost_native_has_no_vm_overheads () =
  let c = Cost.native_cpp in
  Alcotest.(check (float 0.0)) "no fcall" 0.0 c.Cost.fcall_ns;
  Alcotest.(check (float 0.0)) "no pinvoke" 0.0 c.Cost.pinvoke_ns;
  Alcotest.(check (float 0.0)) "no pin" 0.0 c.Cost.pin_ns;
  Alcotest.(check (float 0.0)) "no gc" 0.0 c.Cost.gc_young_base_ns

let test_cost_shared_transport () =
  (* Section 8: every binding was re-hosted over the same MPICH2, so the
     wire costs must be identical across presets. *)
  List.iter
    (fun c ->
      Alcotest.(check (float 0.0))
        (c.Cost.name ^ " per-msg")
        Cost.native_cpp.Cost.sock_per_msg_ns c.Cost.sock_per_msg_ns;
      Alcotest.(check (float 0.0))
        (c.Cost.name ^ " per-byte")
        Cost.native_cpp.Cost.sock_ns_per_byte c.Cost.sock_ns_per_byte)
    presets

let test_cost_fastchecked_pins_dearer () =
  let free = Cost.indiana_sscli in
  let fc = Cost.indiana_sscli_fastchecked in
  Alcotest.(check bool) "fastchecked pin dearer (footnote 4)" true
    (fc.Cost.pin_ns > 2.0 *. free.Cost.pin_ns)

let test_cost_call_mechanism_ordering () =
  (* FCall must be the cheapest call mechanism: that is the core of the
     paper's performance claim. *)
  let m = Cost.motor in
  let i = Cost.indiana_sscli in
  let j = Cost.mpijava in
  Alcotest.(check bool) "fcall < pinvoke" true (m.Cost.fcall_ns < i.Cost.pinvoke_ns);
  Alcotest.(check bool) "fcall < jni" true (m.Cost.fcall_ns < j.Cost.jni_ns);
  Alcotest.(check bool) "motor crosses boundary for free" true
    (m.Cost.binding_ns_per_byte = 0.0 && i.Cost.binding_ns_per_byte > 0.0)

let x = Stats.counter "x"
let lat = Stats.histogram "lat"
let work = Stats.histogram "work"

let test_stats_basic () =
  let s = Stats.create () in
  Alcotest.(check int) "absent is zero" 0 (Stats.get s x);
  Stats.incr s x;
  Stats.add s x 4;
  Alcotest.(check int) "accumulated" 5 (Stats.get s x)

let test_stats_negative () =
  let s = Stats.create () in
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Stats.add: negative amount") (fun () ->
      Stats.add s x (-1))

let test_stats_alist_sorted () =
  let s = Stats.create () in
  Stats.incr s (Stats.counter "zebra");
  Stats.incr s (Stats.counter "apple");
  Alcotest.(check (list string)) "sorted keys" [ "apple"; "zebra" ]
    (List.map fst (Stats.to_alist s))

let test_hist_observe () =
  let s = Stats.create () in
  Alcotest.(check bool) "absent histogram" true (Stats.hist s lat = None);
  for i = 1 to 100 do
    Stats.observe s lat (float_of_int i)
  done;
  match Stats.hist s lat with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 100 h.Stats.n;
      Alcotest.(check (float 1e-6)) "sum" 5050.0 h.Stats.sum;
      Alcotest.(check (float 1e-6)) "min" 1.0 h.Stats.min;
      Alcotest.(check (float 1e-6)) "max" 100.0 h.Stats.max;
      (* Quantiles are half-octave bucket upper bounds, clamped into
         [min, max]: p50 of 1..100 lands on 64 (= 2^6), p99 clamps to
         the max. *)
      Alcotest.(check bool) "p50 is an upper bound" true
        (h.Stats.p50 >= 50.0 && h.Stats.p50 <= 72.0);
      Alcotest.(check bool) "p99 clamped to max" true
        (h.Stats.p99 >= 99.0 && h.Stats.p99 <= 100.0)

let test_hist_negative () =
  let s = Stats.create () in
  Alcotest.check_raises "negative observe rejected"
    (Invalid_argument "Stats.observe: negative value") (fun () ->
      Stats.observe s lat (-1.0))

(* A NaN or infinite sample would poison the sum and the extrema, and
   the JSON snapshot would carry [nan]/[inf], which no reader accepts. *)
let test_hist_non_finite () =
  let s = Stats.create () in
  List.iter
    (fun v ->
      Alcotest.check_raises
        (Printf.sprintf "observe %h rejected" v)
        (Invalid_argument "Stats.observe: non-finite value")
        (fun () -> Stats.observe s lat v))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check bool) "nothing recorded" true (Stats.hist s lat = None)

let test_env_with_timer () =
  let env = Env.create ~cost:Cost.motor () in
  let r =
    Env.with_timer env work (fun () ->
        Env.charge env 1234.0;
        42)
  in
  Alcotest.(check int) "result passed through" 42 r;
  match Stats.hist env.Env.stats work with
  | None -> Alcotest.fail "timer histogram missing"
  | Some h ->
      Alcotest.(check int) "one sample" 1 h.Stats.n;
      Alcotest.(check (float 1e-9)) "sum is the virtual charge" 1234.0
        h.Stats.sum

let test_env_charges () =
  let env = Env.create ~cost:Cost.motor () in
  Env.charge env 1000.0;
  Env.charge_per_byte env 2.0 500;
  Alcotest.(check (float 1e-9)) "total" 2.0 (Env.now_us env)

let prop_clock_monotone =
  QCheck.Test.make ~name:"clock is monotone under non-negative charges"
    ~count:200
    QCheck.(list (float_bound_exclusive 1e6))
    (fun charges ->
      let c = Clock.create () in
      List.for_all
        (fun ns ->
          let before = Clock.now_ns c in
          Clock.advance c (Float.abs ns);
          Clock.now_ns c >= before)
        charges)

let prop_stats_sum =
  QCheck.Test.make ~name:"stats accumulate like a sum" ~count:200
    QCheck.(list small_nat)
    (fun ns ->
      let s = Stats.create () in
      List.iter (fun n -> Stats.add s x n) ns;
      Stats.get s x = List.fold_left ( + ) 0 ns)

let () =
  Alcotest.run "simtime"
    [
      ( "clock",
        [
          Alcotest.test_case "advance" `Quick test_clock_advance;
          Alcotest.test_case "negative rejected" `Quick test_clock_negative;
        ] );
      ( "cost",
        [
          Alcotest.test_case "presets distinct" `Quick
            test_cost_presets_distinct;
          Alcotest.test_case "native has no VM overheads" `Quick
            test_cost_native_has_no_vm_overheads;
          Alcotest.test_case "transport shared across presets" `Quick
            test_cost_shared_transport;
          Alcotest.test_case "fastchecked pinning dearer" `Quick
            test_cost_fastchecked_pins_dearer;
          Alcotest.test_case "call mechanism ordering" `Quick
            test_cost_call_mechanism_ordering;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic accumulation" `Quick test_stats_basic;
          Alcotest.test_case "negative rejected" `Quick test_stats_negative;
          Alcotest.test_case "alist sorted" `Quick test_stats_alist_sorted;
          Alcotest.test_case "histogram observe + quantiles" `Quick
            test_hist_observe;
          Alcotest.test_case "histogram rejects negatives" `Quick
            test_hist_negative;
          Alcotest.test_case "non-finite observe rejected" `Quick
            test_hist_non_finite;
        ] );
      ( "env",
        [
          Alcotest.test_case "charges reach the clock" `Quick
            test_env_charges;
          Alcotest.test_case "with_timer observes the charge" `Quick
            test_env_with_timer;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_clock_monotone;
          QCheck_alcotest.to_alcotest prop_stats_sum;
        ] );
    ]
