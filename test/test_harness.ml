(* Tests for the experiment harness: workload drivers, the experiment
   generators, and — most importantly — the shape checks that assert the
   reproduction preserves the paper's qualitative results. The full-figure
   shape checks are `Slow tests (run in CI / `dune runtest`; they take a
   few seconds). *)

module W = Harness.Workloads
module E = Harness.Experiments
module S = Harness.Systems
module Sh = Harness.Shapes
module T = Harness.Table

let tiny = { W.iters = 12; timed = 6; trials = 1 }

let test_pingpong_bytes_all_systems () =
  List.iter
    (fun sys ->
      let us = W.pingpong_bytes ~protocol:tiny sys ~size:64 in
      Alcotest.(check bool)
        (Printf.sprintf "%s plausible small-message time (%.1f us)"
           (S.name sys) us)
        true
        (us > 10.0 && us < 200.0))
    S.fig9_systems

let test_pingpong_bytes_scales () =
  let small = W.pingpong_bytes ~protocol:tiny S.Motor_sys ~size:16 in
  let large = W.pingpong_bytes ~protocol:tiny S.Motor_sys ~size:262_144 in
  Alcotest.(check bool) "large messages cost much more" true
    (large > 20.0 *. small)

let test_pingpong_deterministic () =
  let a = W.pingpong_bytes ~protocol:tiny S.Native_cpp ~size:1024 in
  let b = W.pingpong_bytes ~protocol:tiny S.Native_cpp ~size:1024 in
  Alcotest.(check (float 1e-9)) "virtual time is reproducible" a b

let test_pingpong_objects_motor () =
  match
    W.pingpong_objects ~protocol:tiny S.Motor_sys ~total_objects:16
      ~total_data_bytes:4096
  with
  | W.Time_us us ->
      Alcotest.(check bool)
        (Printf.sprintf "plausible (%.1f us)" us)
        true
        (us > 20.0 && us < 5000.0)
  | W.Crashed msg -> Alcotest.fail msg

let test_pingpong_objects_java_crashes_when_long () =
  (match
     W.pingpong_objects S.Mpijava ~total_objects:64 ~total_data_bytes:4096
   with
  | W.Time_us _ -> ()
  | W.Crashed m -> Alcotest.fail ("should survive 64 objects: " ^ m));
  match
    W.pingpong_objects S.Mpijava ~total_objects:4096 ~total_data_bytes:4096
  with
  | W.Time_us _ -> Alcotest.fail "should crash at 4096 objects"
  | W.Crashed _ -> ()

let test_make_linked_list_distribution () =
  let rt = Vm.Runtime.create () in
  let gc = rt.Vm.Runtime.gc in
  let head =
    W.make_linked_list gc rt.Vm.Runtime.registry ~elems:5
      ~total_data_bytes:4096
  in
  (* Walk and sum data sizes: must equal the payload exactly. *)
  let mt =
    Option.get (Vm.Classes.find_by_name rt.Vm.Runtime.registry "LinkedArray")
  in
  let fa = Vm.Classes.field mt "array" in
  let fn = Vm.Classes.field mt "next" in
  let total = ref 0 in
  let count = ref 0 in
  let cur = ref head in
  let continue_ = ref true in
  while !continue_ do
    incr count;
    (match Vm.Object_model.get_ref gc !cur fa with
    | Some arr -> total := !total + Vm.Object_model.array_length gc arr
    | None -> ());
    match Vm.Object_model.get_ref gc !cur fn with
    | Some next -> cur := next
    | None -> continue_ := false
  done;
  Alcotest.(check int) "five elements" 5 !count;
  Alcotest.(check int) "payload split exactly" 4096 !total

let test_fig9_sizes_and_systems () =
  let series = E.fig9 ~protocol:{ W.iters = 1; timed = 1; trials = 1 } () in
  Alcotest.(check int) "5 systems" 5 (List.length series);
  List.iter
    (fun s ->
      let xs = List.map (fun p -> p.E.x) s.E.points in
      Alcotest.(check int) "17 sizes" 17 (List.length xs);
      Alcotest.(check (list int)) "endpoints" [ 4; 262_144 ]
        [ List.hd xs; List.nth xs 16 ])
    series

let test_taba_math () =
  (* Synthetic series where Motor is always 20% faster. *)
  let mk name f =
    {
      E.system = name;
      E.points =
        List.map
          (fun x -> { E.x; E.result = W.Time_us (f x) })
          [ 4; 131_072; 262_144 ];
    }
  in
  let series =
    [ mk "Motor" (fun x -> 0.8 *. float_of_int x);
      mk "Indiana SSCLI" (fun x -> float_of_int x) ]
  in
  List.iter
    (fun (r : E.taba_row) ->
      Alcotest.(check (float 1e-6)) r.E.metric 20.0 r.E.measured_pct)
    (E.taba series)

let test_tabb_fastchecked_slower () =
  match E.tabb ~protocol:tiny () with
  | [ (_, free); (_, fastchecked) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "fastchecked slower (%.1f vs %.1f us)" fastchecked
           free)
        true (fastchecked > free +. 1.0)
  | _ -> Alcotest.fail "expected two rows"

let test_abl_pinning_policy () =
  match E.abl_pinning_policy ~protocol:tiny ~size:1024 () with
  | [ (_, t_always, p_always); (_, _, p_boundary); (_, t_deferred, p_deferred) ]
    ->
      Alcotest.(check bool) "deferred pins fewer" true
        (p_deferred < p_always);
      Alcotest.(check bool) "deferred not slower" true
        (t_deferred <= t_always +. 0.5);
      Alcotest.(check bool) "boundary-check <= always" true
        (p_boundary <= p_always)
  | _ -> Alcotest.fail "expected three rows"

let test_abl_call_mechanism () =
  match E.abl_call_mechanism ~protocol:tiny ~size:4 () with
  | [ (_, fcall); (_, pinvoke); (_, jni) ] ->
      Alcotest.(check bool) "fcall < pinvoke" true (fcall < pinvoke);
      Alcotest.(check bool) "pinvoke < jni" true (pinvoke < jni)
  | _ -> Alcotest.fail "expected three rows"

let test_abl_nonblocking_unpin () =
  let rows = E.abl_nonblocking_unpin () in
  let find name =
    List.find (fun (n, _, _, _) -> n = name) rows
  in
  let _, _, pins_always, _ = find "always-pin" in
  let _, _, pins_deferred, dropped = find "deferred" in
  Alcotest.(check bool) "always-pin pins" true (pins_always > 0);
  Alcotest.(check int) "deferred takes no sticky pins" 0 pins_deferred;
  Alcotest.(check bool) "conditional pins were dropped at the mark phase"
    true (dropped > 0)

let test_abl_eager_threshold_crossover () =
  let rows = E.abl_eager_threshold ~protocol:tiny () in
  (* With rendezvous forced everywhere (threshold 0), small messages pay
     the handshake; with a huge threshold large messages avoid it. *)
  let time threshold size =
    List.assoc size (List.assoc threshold rows)
  in
  Alcotest.(check bool) "handshake hurts small messages" true
    (time 0 1024 > time 1_048_576 1024 +. 5.0)


let test_abl_split_scatter () =
  let rows = E.abl_split_scatter ~elements:32 () in
  Alcotest.(check int) "three member counts" 3 (List.length rows);
  List.iter
    (fun (n, motor_us, wrapper_us) ->
      Alcotest.(check bool)
        (Printf.sprintf "split wins at %d ranks (%.0f vs %.0f us)" n
           motor_us wrapper_us)
        true
        (motor_us < wrapper_us))
    rows

let test_table_rendering () =
  let path = Filename.temp_file "motor_table" ".csv" in
  T.write_csv ~path
    ~headers:[ "a"; "b" ]
    ~rows:
      [
        ("row1", [ T.Num 1.5; T.Text "x,y" ]);
        ("row2", [ T.Missing; T.Num 2.0 ]);
      ];
  let s = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "csv quotes commas" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.length >= 3
    && String.index_opt s '"' <> None)

(* Full-figure shape checks: the reproduction's headline assertions. *)

let quick9 = { W.iters = 30; timed = 15; trials = 1 }

let test_fig9_shapes () =
  let series = E.fig9 ~protocol:quick9 () in
  let verdicts = Sh.fig9_checks series in
  Format.printf "%a@." Sh.pp_verdicts verdicts;
  Alcotest.(check bool) "all fig9 shape checks pass" true
    (Sh.all_pass verdicts)

let test_fig10_shapes () =
  let series = E.fig10 () in
  let verdicts = Sh.fig10_checks series in
  Format.printf "%a@." Sh.pp_verdicts verdicts;
  Alcotest.(check bool) "all fig10 shape checks pass" true
    (Sh.all_pass verdicts)

let () =
  Alcotest.run "harness"
    [
      ( "workloads",
        [
          Alcotest.test_case "bytes ping-pong on every system" `Quick
            test_pingpong_bytes_all_systems;
          Alcotest.test_case "times scale with size" `Quick
            test_pingpong_bytes_scales;
          Alcotest.test_case "deterministic" `Quick
            test_pingpong_deterministic;
          Alcotest.test_case "object ping-pong (Motor)" `Quick
            test_pingpong_objects_motor;
          Alcotest.test_case "object ping-pong (Java crash)" `Quick
            test_pingpong_objects_java_crashes_when_long;
          Alcotest.test_case "linked-list payload distribution" `Quick
            test_make_linked_list_distribution;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig9 axes" `Quick test_fig9_sizes_and_systems;
          Alcotest.test_case "taba math" `Quick test_taba_math;
          Alcotest.test_case "tabb fastchecked slower" `Quick
            test_tabb_fastchecked_slower;
          Alcotest.test_case "ablation: pinning policy" `Quick
            test_abl_pinning_policy;
          Alcotest.test_case "ablation: call mechanism" `Quick
            test_abl_call_mechanism;
          Alcotest.test_case "ablation: nonblocking unpin" `Quick
            test_abl_nonblocking_unpin;
          Alcotest.test_case "ablation: eager threshold" `Quick
            test_abl_eager_threshold_crossover;
          Alcotest.test_case "ablation: split-representation scatter" `Quick
            test_abl_split_scatter;
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
        ] );
      ( "shape checks (paper reproduction)",
        [
          Alcotest.test_case "Figure 9 shapes" `Slow test_fig9_shapes;
          Alcotest.test_case "Figure 10 shapes" `Slow test_fig10_shapes;
        ] );
    ]
