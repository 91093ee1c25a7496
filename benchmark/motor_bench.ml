(* motor_bench: Motor's benchmark of record.

   Run one workload (what a benchmark driver does):

     motor_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
                 [--trace-dir DIR] [--json OUT] [--quick]

   or, without --workload, every workload in turn, each in its own child
   process so that peak RSS stays per workload. Every metric is printed as
   a "workload metric value unit" line; the last line is a JSON object
   with the keys correct, attempted, failed and metrics, where metrics
   holds the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1).

     motor_bench compare A.json... -- B.json...
     motor_bench smoke BENCHMARK.json A.json B.json

   [compare] judges two sets of --json files (parent, then change) by the
   pairwise rule in benchmark/README.md; [smoke] is the test-suite check
   on two --quick runs. *)

module Stats = Simtime.Stats
module Key = Stats.Key

(* --- Metric table --- *)

type metric = {
  name : string;
  unit : string;
  better : string;
  exact : bool;
      (** read off the virtual clock or an event counter, so it repeats
          exactly between runs with the same seed; otherwise host time *)
  bound : float option;  (** end-to-end metrics only *)
  on : string list;  (** the workloads it is measured on *)
}

let every = List.map (fun (w : Work.t) -> w.name) Work.all

let e2e name unit better bound =
  { name; unit; better; exact = false; bound = Some bound; on = every }

let layer ?(on = every) ~exact better unit name = { name; unit; better; exact; bound = None; on }
let traced = layer ~exact:false "lower" "ms"
let virt = layer ~exact:true "lower" "us"
let count ?(better = "lower") = layer ~exact:true better "count"
let ratio better = layer ~exact:true better "ratio"
let latency on = layer ~on ~exact:false "lower" "us"

let end_to_end =
  [
    e2e "steps_per_s" "1/s" "higher" 0.25;
    e2e "step_ms_p50" "ms" "lower" 0.25;
    e2e "setup_s" "s" "lower" 0.25;
    e2e "peak_rss_mb" "MB" "lower" 0.10;
  ]

let per_layer =
  [
    virt "virt_step_us_p50";
    virt "virt_step_us_p99";
    ratio "lower" "ops_failed_ratio";
    traced "world.create_ms";
    traced "poll.idle_ms";
    count "gate.fcalls";
    virt "gate.fcall_virt_us";
    count "gate.safepoint_polls";
    count "pinning.pins";
    count ~better:"higher" "pinning.pins_avoided";
    count ~better:"higher" "pinning.pins_deferred";
    count "pinning.conditional_pins";
    ratio "higher" "pinning.avoided_ratio";
    latency [ "pingpong" ] "transport.send_us_p50";
    latency [ "pingpong" ] "transport.recv_us_p50";
    traced "ser.encode_ms";
    traced "ser.decode_ms";
    count "ser.objects";
    count "ser.deser_objects";
    count "ser.visited_probes";
    virt "ser.encode_virt_us";
    virt "ser.decode_virt_us";
    latency [ "objects" ] "oo.osend_us_p50";
    latency [ "objects" ] "oo.orecv_us_p50";
    count "pool.buffers_created";
    count ~better:"higher" "pool.buffers_reused";
    ratio "higher" "pool.reuse_ratio";
    traced "gc.young_ms";
    traced "gc.full_ms";
    count "gc.young";
    count "gc.full";
    count "gc.bytes_copied";
    count "gc.objects_marked";
    virt "gc.young_pause_virt_us";
    virt "gc.pin_poll_virt_us";
    traced "ch3.eager_ms";
    count "ch3.msgs";
    count "ch3.bytes";
    count "ch3.eager_sends";
    count "ch3.rndv_sends";
    count "ch3.unexpected_msgs";
    virt "ch3.send_virt_us_p50";
    virt "ch3.send_virt_us_p99";
    latency [ "collectives"; "lossy" ] "coll.allreduce_8B_us_p50";
    latency [ "collectives" ] "coll.allreduce_64KiB_us_p50";
    latency [ "collectives" ] "coll.bcast_64KiB_us_p50";
    count "coll.sched_steps";
    virt "coll.sched_step_virt_us";
    count "topo.msgs_intra_node";
    count "topo.msgs_inter_node";
    layer ~on:[ "collectives" ] ~exact:false "higher" "ratio" "par.speedup_vs_coop";
    count "reliable.retransmits";
    count "reliable.acks";
    count "reliable.dup_drops";
    count "reliable.ooo_drops";
    ratio "lower" "reliable.retx_ratio";
    count "fault.drops";
    count "fault.dups";
    count "fault.delays";
    count "ft.detections";
    traced "app.build_ms";
    traced "app.verify_ms";
    layer ~exact:false "lower" "ms" "host.step_ms_p99";
    layer ~exact:false "lower" "ms" "host.ref_ms";
    layer ~exact:false "higher" "%" "trace.overhead_pct";
  ]

let metrics = end_to_end @ per_layer
let find_metric name = List.find_opt (fun m -> m.name = name) metrics

(* --- Small statistics --- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.0 else if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.0 else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Quartiles as Python's statistics.quantiles(data, n=4) computes them
   (the "exclusive" method), so that reports here match the driver's. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then
    let v = if ld = 1 then s.(0) else 0.0 in
    (v, v, v)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* --- Running one workload --- *)

let now_s () = float_of_int (Spans.now ()) /. 1e9

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Garbage from a finished rep (its heaps are 32 MiB arenas) is collected
   before the next one starts, so peak RSS reflects one live world at a
   time and does not depend on how many reps fit into the run. *)
let settle () = Stdlib.Gc.full_major ()

let timed f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* --- Host speed --- *)

(* The recorded runs come from a shared VM whose vCPU runs up to 2x slower
   for minutes at a time. CPU time tracks wall time and steal time stays
   near 0, so no clock can tell these phases apart from a slower program.
   Each run therefore times a fixed reference kernel after every timed rep
   and reports host times at the reference speed: divided by [median kernel
   time / ref_nominal_ms], and rates multiplied by it. The kernel never
   calls into Motor and does not keep what it allocates; it mixes what the
   simulator's host time goes to: random accesses over an 8 MiB table (four
   times L2), short-lived allocation and 1 MiB block copies. *)
let ref_nominal_ms = 20.0
let ref_table = Array.make (1 lsl 20) 0
let ref_src = Bytes.make (1 lsl 20) 'r'
let ref_dst = Bytes.create (1 lsl 20)

let reference_ms () =
  let t0 = Spans.now () in
  let mask = Array.length ref_table - 1 and acc = ref 0 in
  for i = 0 to 500_000 do
    let k = (i * 0x9e3779b1) land mask in
    let v = ref_table.(k) in
    ref_table.(k) <- v + i;
    acc := !acc + List.length [ v; i ];
    if i land 4095 = 0 then Bytes.blit ref_src 0 ref_dst 0 (Bytes.length ref_src)
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (Spans.now () - t0) /. 1e6

let at_ref_speed ~slow values =
  List.map
    (fun (name, v) ->
      match find_metric name with
      | Some { exact = false; unit = "ms" | "us" | "s"; _ } -> (name, v /. slow)
      | Some { exact = false; unit = "1/s"; _ } -> (name, v *. slow)
      | _ -> (name, v))
    values

let steps_per_s (r : Work.rep) = if r.loop_s > 0.0 then float_of_int r.attempted /. r.loop_s else 0.0

let layer_values stats =
  let c k = float_of_int (Stats.get stats k) in
  let hist k f = match Stats.hist stats k with Some h -> f h /. 1e3 | None -> 0.0 in
  let total k = hist k (fun h -> h.Stats.sum) in
  let share a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
  let over a b = if b = 0.0 then 0.0 else a /. b in
  [
    ("gate.fcalls", c Key.fcalls);
    ("gate.fcall_virt_us", total Key.h_fcall_gate);
    ("gate.safepoint_polls", c Key.safepoint_polls);
    ("pinning.pins", c Key.pins);
    ("pinning.pins_avoided", c Key.pins_avoided);
    ("pinning.pins_deferred", c Key.pins_deferred);
    ("pinning.conditional_pins", c Key.conditional_pins);
    ("pinning.avoided_ratio", share (c Key.pins_avoided) (c Key.pins));
    ("ser.objects", c Key.ser_objects);
    ("ser.deser_objects", c Key.deser_objects);
    ("ser.visited_probes", c Key.visited_probes);
    ("ser.encode_virt_us", total Key.h_ser_encode);
    ("ser.decode_virt_us", total Key.h_ser_decode);
    ("pool.buffers_created", c Key.buffers_created);
    ("pool.buffers_reused", c Key.buffers_reused);
    ("pool.reuse_ratio", share (c Key.buffers_reused) (c Key.buffers_created));
    ("gc.young", c Key.gc_young);
    ("gc.full", c Key.gc_full);
    ("gc.bytes_copied", c Key.gc_bytes_copied);
    ("gc.objects_marked", c Key.gc_objects_marked);
    ("gc.young_pause_virt_us", total Key.h_gc_young_pause);
    ("gc.pin_poll_virt_us", total Key.h_gc_pin_poll);
    ("ch3.msgs", c Key.msgs_sent);
    ("ch3.bytes", c Key.bytes_sent);
    ("ch3.eager_sends", c Key.eager_sends);
    ("ch3.rndv_sends", c Key.rndv_sends);
    ("ch3.unexpected_msgs", c Key.unexpected_msgs);
    ("ch3.send_virt_us_p50", hist Key.h_ch3_send (fun h -> h.Stats.p50));
    ("ch3.send_virt_us_p99", hist Key.h_ch3_send (fun h -> h.Stats.p99));
    ( "coll.sched_steps",
      match Stats.hist stats Key.h_sched_step with Some h -> float_of_int h.Stats.n | None -> 0.0 );
    ("coll.sched_step_virt_us", total Key.h_sched_step);
    ("topo.msgs_intra_node", c Key.msgs_intra_node);
    ("topo.msgs_inter_node", c Key.msgs_inter_node);
    ("reliable.retransmits", c Key.retransmits);
    ("reliable.acks", c Key.acks);
    ("reliable.dup_drops", c Key.dup_drops);
    ("reliable.ooo_drops", c Key.ooo_drops);
    ("reliable.retx_ratio", over (c Key.retransmits) (c Key.msgs_sent));
    ("fault.drops", c Key.fault_drops);
    ("fault.dups", c Key.fault_dups);
    ("fault.delays", c Key.fault_delays);
    ("ft.detections", c Key.proc_detections);
  ]

let traced_values (t : Spans.t) =
  let p50 name = median (Spans.durations_us t ~lane:0 name) in
  [
    ("world.create_ms", Spans.self_ms t Spans.World);
    ("poll.idle_ms", Spans.idle_ms t);
    ("transport.send_us_p50", p50 Spans.Ot_send);
    ("transport.recv_us_p50", p50 Spans.Ot_recv);
    ("ser.encode_ms", Spans.self_ms t Spans.Ser_encode);
    ("ser.decode_ms", Spans.self_ms t Spans.Ser_decode);
    ("oo.osend_us_p50", p50 Spans.Osend);
    ("oo.orecv_us_p50", p50 Spans.Orecv);
    ("gc.young_ms", Spans.self_ms t Spans.Gc_young);
    ("gc.full_ms", Spans.self_ms t Spans.Gc_full);
    ("ch3.eager_ms", Spans.self_ms t Spans.Ch3_eager);
    ("coll.allreduce_8B_us_p50", p50 Spans.Allreduce_8B);
    ("coll.allreduce_64KiB_us_p50", p50 Spans.Allreduce_64KiB);
    ("coll.bcast_64KiB_us_p50", p50 Spans.Bcast_64KiB);
    ("app.build_ms", Spans.self_ms t Spans.Build);
    ("app.verify_ms", Spans.self_ms t Spans.Verify);
  ]

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  quick : bool;
  trace : bool;
  trace_dir : string option;
  json : string option;
}

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  values : (string * float) list;
}

(* The parts-sum-to-whole tolerance of the traced rep. A --quick rep lasts
   tens of milliseconds, where one preemption in benchmark glue could
   break it, so quick runs report the coverage without enforcing it. *)
let min_covered = 0.95

let measure opts (w : Work.t) =
  let steps = if opts.quick then w.quick_steps else w.steps in
  let inst = w.make ~seed:opts.seed ~steps in
  let attempted = ref 0 and failed = ref 0 in
  let tally (r : Work.rep) =
    settle ();
    attempted := !attempted + r.attempted;
    failed := !failed + r.failed
  in
  let run_rep (inst : Work.instance) =
    let r = inst.rep () in
    tally r;
    r
  in
  (* Warm-up: about 3 s of reps (a count fixed per workload). Rep rates
     climb for the first seconds of a process while the allocator and the
     caches settle. *)
  if not opts.quick then
    for _ = 1 to int_of_float (ceil (3.0 /. w.rep_s)) do
      ignore (run_rep inst)
    done;
  (* Builds are timed in batches of at least a millisecond: one build per
     batch for the Motor worlds, hundreds for the microsecond MPI-core
     ones. The host drifts between faster and slower phases lasting
     seconds, so one batch follows every timed rep instead of all of them
     running back to back, and the median sees the same phases as the
     reps. *)
  let per_batch =
    let (), once = timed inst.setup in
    max 1 (int_of_float (ceil (1e-3 /. Float.max 1e-7 once)))
  in
  let setup_batch () =
    let (), s =
      timed (fun () ->
          for _ = 1 to per_batch do
            inst.setup ()
          done)
    in
    settle ();
    s /. float_of_int per_batch
  in
  (* The number of timed reps follows from --seconds and the workload's
     nominal rep time, never from the clock: process-global state (the
     collective schedule registry, the allocator) evolves from rep to rep,
     so every run with the same settings must have the same history. *)
  let n_reps = if opts.quick then 1 else max 3 (int_of_float (opts.seconds /. w.rep_s)) in
  let timed_reps, setup, refs =
    let reps = Array.init n_reps (fun _ -> (run_rep inst, setup_batch (), reference_ms ())) in
    let extra = Array.init (max 0 ((if opts.quick then 3 else 9) - n_reps)) (fun _ -> setup_batch ()) in
    ( Array.map (fun (r, _, _) -> r) reps,
      Array.append (Array.map (fun (_, s, _) -> s) reps) extra,
      Array.map (fun (_, _, k) -> k) reps )
  in
  let rss = peak_rss_mb () in
  let last = timed_reps.(Array.length timed_reps - 1) in
  let rate = median (Array.map steps_per_s timed_reps) in
  let pooled = Array.concat (Array.to_list (Array.map (fun (r : Work.rep) -> r.step_ms) timed_reps)) in
  Printf.printf "# %s: seed %d, %d steps/rep, %d timed reps, %d step samples, %d setup batches of %d\n%!"
    w.name opts.seed steps (Array.length timed_reps) (Array.length pooled) (Array.length setup)
    per_batch;
  let base =
    [
      ("steps_per_s", rate);
      ("step_ms_p50", median pooled);
      ("setup_s", median setup);
      ("peak_rss_mb", rss);
      ("host.step_ms_p99", percentile 0.99 pooled);
      ("virt_step_us_p50", median last.step_virt_us);
      ("virt_step_us_p99", percentile 0.99 last.step_virt_us);
    ]
    @ layer_values last.stats
  in
  let covered_ok = ref true in
  let traced =
    if not opts.trace then []
    else begin
      Spans.start ~ranks:w.ranks;
      let r = inst.rep () in
      let t = Spans.stop () in
      tally r;
      Option.iter
        (fun dir ->
          Spans.write_chrome t (Filename.concat dir (w.name ^ ".trace.json"));
          Spans.write_layers t ~workload:w.name (Filename.concat dir (w.name ^ ".layers.json")))
        opts.trace_dir;
      let c = Spans.covered t in
      Printf.printf "# %s: traced rep %.1f ms, layers + idle + app cover %.2f%%\n" w.name
        (Spans.wall_ms t) (100.0 *. c);
      List.iter (fun (l, v) -> Printf.printf "#   %-10s %10.3f ms\n" l v) (Spans.layers t);
      Printf.printf "#   %-10s %10.3f ms\n%!" "idle" (Spans.idle_ms t);
      if c < min_covered && not opts.quick then begin
        Printf.eprintf "motor_bench: %s: traced parts cover only %.2f%% of the rep\n%!" w.name
          (100.0 *. c);
        covered_ok := false
      end;
      (* Parallel mode: the same steps and seed on two domains, a quarter
         as many reps as the cooperative timed ones. *)
      let speedup =
        match w.parallel_twin with
        | None -> []
        | Some twin ->
            let inst = twin ~seed:opts.seed ~steps in
            let par = Array.init (max 1 (n_reps / 4)) (fun _ -> steps_per_s (run_rep inst)) in
            [ ("par.speedup_vs_coop", median par /. rate) ]
      in
      (("trace.overhead_pct", 100.0 *. ((steps_per_s r /. rate) -. 1.0)) :: traced_values t) @ speedup
    end
  in
  let ops_failed_ratio = float_of_int !failed /. float_of_int (max 1 !attempted) in
  let ref_ms = median refs in
  {
    attempted = !attempted;
    failed = !failed;
    correct = !failed = 0 && !covered_ok;
    values =
      ("host.ref_ms", ref_ms)
      :: at_ref_speed ~slow:(ref_ms /. ref_nominal_ms)
           ((("ops_failed_ratio", ops_failed_ratio) :: base) @ traced);
  }

(* --- Output --- *)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.10g" v

let finite v = if Float.is_finite v then v else 0.0

(* The rows this run measured: every metric that applies to the workload
   and was computed in this mode. *)
let rows workload values =
  List.filter_map
    (fun m ->
      if List.mem workload m.on then
        Option.map (fun v -> (m, finite v)) (List.assoc_opt m.name values)
      else None)
    metrics

let print_rows workload rows =
  List.iter (fun (m, v) -> Printf.printf "%s %s %s %s\n" workload m.name (fmt_value v) m.unit) rows

let result_line ~correct ~attempted ~failed entries =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (key, v, unit) -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" key v unit)
          entries))

(* The driver-facing set: all end-to-end metrics untraced, all per-layer
   metrics traced (0 where a layer metric does not apply). *)
let mode_metrics trace = if trace then per_layer else end_to_end

let write_json path ~seed all_rows =
  let oc = open_out path in
  Printf.fprintf oc "{\"seed\": %d, \"rows\": [\n%s\n]}\n" seed
    (String.concat ",\n"
       (List.map
          (fun (w, (m, v)) ->
            Printf.sprintf "{\"workload\": \"%s\", \"metric\": \"%s\", \"value\": %s, \"unit\": \"%s\"}" w
              m.name (fmt_value v) m.unit)
          all_rows));
  close_out oc

let run_one opts (w : Work.t) =
  let o = measure opts w in
  let rs = rows w.name o.values in
  print_rows w.name rs;
  Option.iter (fun path -> write_json path ~seed:opts.seed (List.map (fun r -> (w.name, r)) rs)) opts.json;
  print_endline
    (result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed
       (List.map
          (fun m -> (m.name, finite (Option.value (List.assoc_opt m.name o.values) ~default:0.0), m.unit))
          (mode_metrics opts.trace)));
  if o.correct then 0 else 1

(* Every workload, each in a child process of this executable. *)
let run_all opts argv_rest =
  let exe = Sys.executable_name in
  let all_rows = ref [] and attempted = ref 0 and failed = ref 0 and ok = ref true in
  List.iter
    (fun (w : Work.t) ->
      let args = Array.of_list ((exe :: "--workload" :: w.name :: argv_rest)) in
      let ic = Unix.open_process_args_in exe args in
      let rec read last =
        match input_line ic with
        | line ->
            if String.length line > 0 && line.[0] = '{' then read (Some line)
            else begin
              print_endline line;
              (match String.split_on_char ' ' line with
              | [ wl; name; v; _ ] when wl = w.name -> (
                  match (find_metric name, float_of_string_opt v) with
                  | Some m, Some v -> all_rows := (wl, (m, v)) :: !all_rows
                  | _ -> ())
              | _ -> ());
              read last
            end
        | exception End_of_file -> last
      in
      let last = read None in
      let status = Unix.close_process_in ic in
      (match (status, Option.map Gate.parse last) with
      | Unix.WEXITED 0, Some json ->
          let int k = match Gate.member k json with Some (Gate.Num f) -> int_of_float f | _ -> 0 in
          attempted := !attempted + int "attempted";
          failed := !failed + int "failed"
      | _ ->
          Printf.eprintf "motor_bench: workload %s failed\n%!" w.name;
          ok := false))
    Work.all;
  let all_rows = List.rev !all_rows in
  Option.iter (fun path -> write_json path ~seed:opts.seed all_rows) opts.json;
  let ms = mode_metrics opts.trace in
  print_endline
    (result_line ~correct:(!ok && !failed = 0) ~attempted:(max 1 !attempted) ~failed:!failed
       (List.filter_map
          (fun (w, (m, v)) ->
            if List.memq m ms then Some (w ^ ":" ^ m.name, v, m.unit) else None)
          all_rows));
  if !ok && !failed = 0 then 0 else 1

(* --- compare --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let load_rows path =
  match Gate.member "rows" (Gate.parse (read_file path)) with
  | Some (Gate.List rows) ->
      List.filter_map
        (fun row ->
          match (Gate.member "workload" row, Gate.member "metric" row, Gate.member "value" row) with
          | Some (Gate.Str w), Some (Gate.Str m), Some (Gate.Num v) -> Some ((w, m), v)
          | _ -> None)
        rows
  | _ -> failwith (path ^ ": no \"rows\" array")

let side paths =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun path ->
      List.iter
        (fun (k, v) ->
          let prev = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
          Hashtbl.replace tbl k (v :: prev))
        (load_rows path))
    paths;
  fun k -> Array.of_list (List.rev (Option.value (Hashtbl.find_opt tbl k) ~default:[]))

(* The change (B) against the parent (A), pair i being the i-th file of
   each side. A gain needs 9/10 of the pairs and a median shift larger
   than the parent's interquartile range; an end-to-end metric regresses
   when B's median is worse than A's by more than its bound, and is
   unresolved when either side spreads wider than that bound, unless
   every B run beats every A run. *)
let verdict m a b =
  let better x y = if m.better = "higher" then x > y else x < y in
  let q1a, ma, q3a = quartiles a and q1b, mb, q3b = quartiles b in
  let pairs = min (Array.length a) (Array.length b) in
  let wins = ref 0 and losses = ref 0 in
  for i = 0 to pairs - 1 do
    if better b.(i) a.(i) then incr wins else if better a.(i) b.(i) then incr losses
  done;
  let shift = Float.abs (mb -. ma) > q3a -. q1a in
  let nine k = 10 * k >= 9 * pairs && pairs > 0 in
  let spread q1 q3 med = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med in
  let all_better = Array.for_all (fun x -> Array.for_all (fun y -> better x y) a) b in
  let v =
    match m.bound with
    | Some bound when (spread q1a q3a ma > bound || spread q1b q3b mb > bound) && not all_better ->
        "unresolved"
    | Some bound when better ma mb && Float.abs (mb -. ma) > bound *. Float.abs ma -> "regression"
    | _ when nine !wins && shift && better mb ma -> "gain"
    | _ when nine !losses && shift && better ma mb -> "worse"
    | _ -> "same"
  in
  (ma, q1a, q3a, mb, q1b, q3b, !wins, pairs, v)

let compare_cmd args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let a_files, b_files = split [] args in
  if a_files = [] || b_files = [] then begin
    prerr_endline "usage: motor_bench compare A.json... -- B.json...";
    2
  end
  else begin
    let a = side a_files and b = side b_files in
    let regressions = ref 0 in
    Printf.printf "%-12s %-28s %-6s %30s %30s %7s  %s\n" "workload" "metric" "unit" "A median [q1, q3]"
      "B median [q1, q3]" "wins" "verdict";
    List.iter
      (fun w ->
        List.iter
          (fun m ->
            let va = a (w, m.name) and vb = b (w, m.name) in
            if Array.length va > 0 && Array.length vb > 0 then begin
              let ma, q1a, q3a, mb, q1b, q3b, wins, pairs, v = verdict m va vb in
              if v = "regression" then incr regressions;
              let cell med q1 q3 = Printf.sprintf "%s [%s, %s]" (fmt_value med) (fmt_value q1) (fmt_value q3) in
              Printf.printf "%-12s %-28s %-6s %30s %30s %3d/%-3d  %s\n" w m.name m.unit (cell ma q1a q3a)
                (cell mb q1b q3b) wins pairs v
            end)
          metrics)
      every;
    if !regressions > 0 then 1 else 0
  end

(* --- smoke --- *)

(* BENCHMARK.json must list exactly the workloads and metrics this
   executable measures, with the same units, directions and bounds (the
   printed units come from the same table); both quick runs must print
   every metric on every workload it applies to, fail no step, and agree
   exactly on every virtual-clock and counter value. *)
let smoke_cmd bench_json a_path b_path =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let json = Gate.parse (read_file bench_json) in
  let str k j = match Gate.member k j with Some (Gate.Str s) -> s | _ -> "" in
  let list k = match Gate.member k json with Some (Gate.List l) -> l | _ -> [] in
  let names = List.map (str "name") (list "workloads") in
  if names <> every then err "workloads in %s are not [%s]" bench_json (String.concat "; " every);
  let check_section key expected =
    let listed = list key in
    List.iter
      (fun j ->
        let name = str "name" j in
        match List.find_opt (fun m -> m.name = name) expected with
        | None -> err "%s metric %s is not measured" key name
        | Some m ->
            if str "unit" j <> m.unit then err "%s: unit %s, measured in %s" name (str "unit" j) m.unit;
            if str "better" j <> m.better then err "%s: better %s, expected %s" name (str "better" j) m.better;
            let bound = match Gate.member "bound" j with Some (Gate.Num f) -> Some f | _ -> None in
            if bound <> m.bound then err "%s: bound differs from the compare rule's" name)
      listed;
    List.iter
      (fun m -> if not (List.exists (fun j -> str "name" j = m.name) listed) then err "%s lacks %s" key m.name)
      expected
  in
  check_section "end_to_end" end_to_end;
  check_section "per_layer" per_layer;
  let a = load_rows a_path and b = load_rows b_path in
  List.iter
    (fun m ->
      List.iter
        (fun w ->
          let k = (w, m.name) in
          match (List.assoc_opt k a, List.assoc_opt k b) with
          | Some va, Some vb ->
              if m.name = "ops_failed_ratio" && (va <> 0.0 || vb <> 0.0) then err "%s: steps failed" w;
              if m.name = "ft.detections" && (va <> 0.0 || vb <> 0.0) then err "%s: ranks declared dead" w;
              if m.exact && va <> vb then
                err "%s %s: %s in one quick run, %s in the other" w m.name (fmt_value va) (fmt_value vb)
          | _ -> err "%s %s: not printed" w m.name)
        m.on)
    metrics;
  match List.rev !errors with
  | [] ->
      print_endline "motor_bench smoke: ok";
      0
  | errs ->
      List.iter prerr_endline errs;
      1

(* --- Command line --- *)

let usage () =
  prerr_endline
    "usage: motor_bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]\n\
    \                   [--json OUT] [--quick]\n\
    \       motor_bench compare A.json... -- B.json...\n\
    \       motor_bench smoke BENCHMARK.json A.json B.json";
  2

let run_cmd args =
  let opts =
    ref { workload = None; seed = 1; seconds = 12.0; quick = false; trace = false; trace_dir = None; json = None }
  in
  let rest = ref [] in
  let rec parse = function
    | [] -> true
    | "--workload" :: w :: tl ->
        opts := { !opts with workload = Some w };
        parse tl
    | "--seed" :: n :: tl when int_of_string_opt n <> None ->
        opts := { !opts with seed = int_of_string n };
        rest := !rest @ [ "--seed"; n ];
        parse tl
    | "--seconds" :: s :: tl when float_of_string_opt s <> None ->
        opts := { !opts with seconds = float_of_string s };
        rest := !rest @ [ "--seconds"; s ];
        parse tl
    | "--trace" :: (("0" | "1") as t) :: tl ->
        opts := { !opts with trace = !opts.trace || t = "1" };
        rest := !rest @ [ "--trace"; t ];
        parse tl
    | "--trace-dir" :: d :: tl ->
        opts := { !opts with trace = true; trace_dir = Some d };
        rest := !rest @ [ "--trace-dir"; d ];
        parse tl
    | "--json" :: path :: tl ->
        opts := { !opts with json = Some path };
        parse tl
    | "--quick" :: tl ->
        opts := { !opts with quick = true; trace = true };
        rest := !rest @ [ "--quick" ];
        parse tl
    | _ -> false
  in
  if not (parse args) then usage ()
  else begin
    Option.iter
      (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
      !opts.trace_dir;
    match !opts.workload with
    | None -> run_all !opts !rest
    | Some name -> (
        match Work.find name with
        | Some w -> run_one !opts w
        | None ->
            Printf.eprintf "motor_bench: unknown workload %s (one of: %s)\n" name (String.concat ", " every);
            2)
  end

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "compare" :: args -> compare_cmd args
    | [ "smoke"; bench_json; a; b ] -> smoke_cmd bench_json a b
    | "smoke" :: _ -> usage ()
    | args -> run_cmd args
  in
  exit code
