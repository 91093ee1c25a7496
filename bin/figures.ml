(* Regenerate every figure and table of the paper's evaluation, plus the
   ablations listed in DESIGN.md. See EXPERIMENTS.md for paper-vs-measured
   commentary. *)

open Harness

let result_cell = function
  | Workloads.Time_us t -> Table.Num t
  | Workloads.Crashed msg -> Table.Text ("CRASH: " ^ msg)

let series_table ~title ~xlabel series ~csv =
  let headers =
    List.map (fun (s : Experiments.series) -> s.Experiments.system) series
  in
  let xs =
    List.map
      (fun (p : Experiments.point) -> p.Experiments.x)
      (List.hd series).Experiments.points
  in
  let rows =
    List.map
      (fun x ->
        ( string_of_int x,
          List.map
            (fun (s : Experiments.series) ->
              match
                List.find_opt
                  (fun (p : Experiments.point) -> p.Experiments.x = x)
                  s.Experiments.points
              with
              | Some p -> result_cell p.Experiments.result
              | None -> Table.Missing)
            series ))
      xs
  in
  Table.print_table ~title ~headers ~rows ();
  let chart_series =
    List.map
      (fun (s : Experiments.series) ->
        ( s.Experiments.system,
          List.filter_map
            (fun (p : Experiments.point) ->
              match p.Experiments.result with
              | Workloads.Time_us t -> Some (float_of_int p.Experiments.x, t)
              | Workloads.Crashed _ -> None)
            s.Experiments.points ))
      series
  in
  Chart.log_log ~title:(title ^ " [plot]") ~xlabel ~ylabel:"us/iter"
    ~series:chart_series ();
  match csv with
  | Some path ->
      Table.write_csv ~path ~headers ~rows;
      Format.printf "csv written to %s@." path
  | None -> ()

let quick_protocol = { Workloads.iters = 40; timed = 20; trials = 1 }

let run_fig9 ~quick ~csv =
  let protocol =
    if quick then quick_protocol else Workloads.paper_protocol
  in
  let series = Experiments.fig9 ~protocol () in
  series_table
    ~title:
      "Figure 9: ping-pong, regular MPI operations (us per iteration vs \
       buffer bytes)"
    ~xlabel:"bytes" series ~csv;
  Format.printf "@.shape checks:@.%a" Shapes.pp_verdicts
    (Shapes.fig9_checks series);
  series

let run_fig10 ~quick ~csv =
  let series = Experiments.fig10 ~quick () in
  series_table
    ~title:
      "Figure 10: ping-pong, linked-list object transport (us per \
       iteration vs total objects; 4096 B payload)"
    ~xlabel:"objects" series ~csv;
  if not quick then
    Format.printf "@.shape checks:@.%a" Shapes.pp_verdicts
      (Shapes.fig10_checks series);
  series

let run_taba ~quick =
  let protocol =
    if quick then quick_protocol else Workloads.paper_protocol
  in
  let series = Experiments.fig9 ~protocol () in
  let rows =
    List.map
      (fun (r : Experiments.taba_row) ->
        ( r.Experiments.metric,
          [ Table.Num r.Experiments.paper_pct;
            Table.Num r.Experiments.measured_pct ] ))
      (Experiments.taba series)
  in
  Table.print_table
    ~title:"Table A: Motor improvement over Indiana SSCLI (percent)"
    ~headers:[ "paper"; "measured" ] ~rows ()

let run_tabb () =
  let rows =
    List.map
      (fun (name, us) -> (name, [ Table.Num us ]))
      (Experiments.tabb ())
  in
  Table.print_table
    ~title:
      "Table B (footnote 4): pinning cost by SSCLI build, 64 B ping-pong"
    ~headers:[ "us/iter" ] ~rows ()

let run_ablations ~quick =
  let rows =
    List.map
      (fun (name, us, pins) ->
        (name, [ Table.Num us; Table.Num (float_of_int pins) ]))
      (Experiments.abl_pinning_policy ~size:1024 ())
  in
  Table.print_table ~title:"Ablation 1: pinning policy (1 KiB ping-pong)"
    ~headers:[ "us/iter"; "pins" ] ~rows ();
  let rows =
    List.map
      (fun (name, us) -> (name, [ Table.Num us ]))
      (Experiments.abl_call_mechanism ~size:4 ())
  in
  Table.print_table
    ~title:"Ablation 2: call mechanism priced into the same stack (4 B)"
    ~headers:[ "us/iter" ] ~rows ();
  series_table ~title:"Ablation 3: visited structure (Figure 10 workload)"
    ~xlabel:"objects"
    (Experiments.abl_visited ~quick ())
    ~csv:None;
  let eager = Experiments.abl_eager_threshold () in
  let sizes = List.map fst (snd (List.hd eager)) in
  let rows =
    List.map
      (fun (threshold, points) ->
        ( string_of_int threshold,
          List.map (fun (_, us) -> Table.Num us) points ))
      eager
  in
  Table.print_table
    ~title:"Ablation 4: eager/rendezvous threshold (us/iter by message size)"
    ~headers:(List.map string_of_int sizes)
    ~rows ();
  let rows =
    List.map
      (fun (name, us, pins, dropped) ->
        ( name,
          [ Table.Num us; Table.Num (float_of_int pins);
            Table.Num (float_of_int dropped) ] ))
      (Experiments.abl_nonblocking_unpin ())
  in
  Table.print_table
    ~title:"Ablation 5: non-blocking unpin strategy under GC pressure"
    ~headers:[ "us total"; "pins"; "cond. pins dropped" ]
    ~rows ();
  let chans = Experiments.abl_channel () in
  let sizes = List.map fst (snd (List.hd chans)) in
  let rows =
    List.map
      (fun (name, points) ->
        (name, List.map (fun (_, us) -> Table.Num us) points))
      chans
  in
  Table.print_table
    ~title:
      "Ablation 6: channel swap, same Motor stack (us/iter by message size)"
    ~headers:(List.map string_of_int sizes)
    ~rows ();
  let rows =
    List.map
      (fun (n, motor_us, wrapper_us) ->
        ( string_of_int n,
          [ Table.Num motor_us; Table.Num wrapper_us;
            Table.Num (wrapper_us /. motor_us) ] ))
      (Experiments.abl_split_scatter ())
  in
  Table.print_table
    ~title:
      "Ablation 7: OScatter of a 64-object array — split representation vs \
       wrapper emulation (Section 2.4)"
    ~headers:[ "Motor us"; "wrapper us"; "ratio" ]
    ~rows ()

(* Loss sweep: completion time and goodput of the ring workload under
   injected faults, with the reliable-delivery layer masking them. *)
let faults_headers =
  [ "us"; "MB/s"; "retx"; "acks"; "fault drops"; "corrupt"; "dup"; "digest" ]

let run_faults ~quick ~csv =
  let rounds = if quick then 10 else 30 in
  let points =
    if quick then
      Harness.Experiments.loss_sweep ~rounds ~losses:[ 0.0; 0.05; 0.1 ] ()
    else Harness.Experiments.loss_sweep ()
  in
  let baseline =
    match points with
    | p :: _ -> p.Experiments.digest
    | [] -> ""
  in
  let rows =
    List.map
      (fun (p : Experiments.loss_point) ->
        ( Printf.sprintf "%.2f" p.Experiments.loss,
          [
            Table.Num p.Experiments.time_us;
            Table.Num p.Experiments.goodput_mb_s;
            Table.Num (float_of_int p.Experiments.retransmits);
            Table.Num (float_of_int p.Experiments.acks);
            Table.Num (float_of_int p.Experiments.fault_drops);
            Table.Num (float_of_int p.Experiments.fault_corrupts);
            Table.Num (float_of_int p.Experiments.dup_drops);
            Table.Text
              (if p.Experiments.digest = baseline then "ok" else "MISMATCH");
          ] ))
      points
  in
  Table.print_table
    ~title:
      (Printf.sprintf
         "Loss sweep: 4-rank ring, %d rounds x 2 KiB, reliable delivery \
          over a faulty wire (by drop probability)"
         rounds)
    ~headers:faults_headers ~rows ();
  if List.for_all
       (fun (p : Experiments.loss_point) -> p.Experiments.digest = baseline)
       points
  then Format.printf "digest check: all runs byte-identical to loss 0@."
  else Format.printf "DIGEST MISMATCH: faults leaked through the transport@.";
  match csv with
  | Some path ->
      Table.write_csv ~path ~headers:faults_headers ~rows;
      Format.printf "csv written to %s@." path
  | None -> ()

(* Collective algorithm sweep: latency vs ranks x payload per algorithm,
   every algorithm forced explicitly (not just the `Auto pick). *)
let coll_headers = [ "algo"; "ranks"; "bytes"; "time us"; "msgs" ]

let run_coll ~quick ~csv =
  let points =
    if quick then
      Harness.Experiments.coll_sweep ~ranks:[ 2; 4; 8 ]
        ~sizes:[ 64; 4096 ] ()
    else Harness.Experiments.coll_sweep ()
  in
  let rows =
    List.map
      (fun (p : Experiments.coll_point) ->
        ( p.Experiments.c_coll,
          [
            Table.Text p.Experiments.c_algo;
            Table.Num (float_of_int p.Experiments.c_ranks);
            Table.Num (float_of_int p.Experiments.c_bytes);
            Table.Num p.Experiments.c_time_us;
            Table.Num (float_of_int p.Experiments.c_msgs);
          ] ))
      points
  in
  Table.print_table
    ~title:"Collective algorithm sweep (virtual us per operation)"
    ~headers:coll_headers ~rows ();
  (* The selection-policy claim: whichever allreduce algorithm the
     threshold picks must also be the measured winner, on both sides of
     the crossover. *)
  let find coll algo n b =
    List.find_opt
      (fun (p : Experiments.coll_point) ->
        p.Experiments.c_coll = coll
        && p.Experiments.c_algo = algo
        && p.Experiments.c_ranks = n
        && p.Experiments.c_bytes = b)
      points
  in
  let verdict n big =
    match
      (find "allreduce" "rd" n big, find "allreduce" "rabenseifner" n big)
    with
    | Some rd, Some rab ->
        let picked =
          match
            Mpi_core.Collectives.allreduce_algo_for Simtime.Cost.native_cpp
              ~n ~bytes:big ~granule:8 ~commutative:true
          with
          | `Rabenseifner -> "rabenseifner"
          | `Rd -> "rd"
          | `Linear -> "linear"
        in
        let winner =
          if rab.Experiments.c_time_us < rd.Experiments.c_time_us then
            "rabenseifner"
          else "rd"
        in
        Format.printf
          "allreduce at %d ranks x %d B: rd %.0f us, rabenseifner %.0f us; \
           policy picks %s -> %s@."
          n big rd.Experiments.c_time_us rab.Experiments.c_time_us picked
          (if picked = winner then "agrees with measurement"
           else "MISMATCH: policy picked the slower algorithm")
    | _ -> ()
  in
  if quick then verdict 8 4096
  else begin
    verdict 16 16_384;
    verdict 16 262_144
  end;
  match csv with
  | Some path ->
      Table.write_csv ~path ~headers:coll_headers ~rows;
      Format.printf "csv written to %s@." path
  | None -> ()

(* Overlap sweep: how much of an in-flight iallreduce a compute loop can
   hide, versus the blocking baseline. *)
let overlap_headers =
  [ "bytes"; "compute us"; "comm us"; "blocking us"; "overlap us"; "eff" ]

let run_overlap ~quick ~csv =
  let points =
    if quick then
      Harness.Experiments.overlap_sweep ~ranks:[ 2; 4 ] ~sizes:[ 16_384 ] ()
    else Harness.Experiments.overlap_sweep ()
  in
  let rows =
    List.map
      (fun (p : Experiments.overlap_point) ->
        ( string_of_int p.Experiments.v_ranks,
          [
            Table.Num (float_of_int p.Experiments.v_bytes);
            Table.Num p.Experiments.v_compute_us;
            Table.Num p.Experiments.v_comm_us;
            Table.Num p.Experiments.v_block_us;
            Table.Num p.Experiments.v_overlap_us;
            Table.Num p.Experiments.v_efficiency;
          ] ))
      points
  in
  Table.print_table
    ~title:
      "Overlap sweep: iallreduce + chunked compute vs blocking allreduce + \
       compute (by ranks)"
    ~headers:overlap_headers ~rows ();
  let ok =
    List.for_all
      (fun (p : Experiments.overlap_point) -> p.Experiments.v_efficiency > 0.0)
      points
  in
  if ok then
    Format.printf
      "overlap check: every point beats the blocking baseline@."
  else
    Format.printf
      "OVERLAP CHECK FAILED: some point is no better than blocking@.";
  (match csv with
  | Some path ->
      Table.write_csv ~path ~headers:overlap_headers ~rows;
      Format.printf "csv written to %s@." path
  | None -> ());
  if not ok then Stdlib.exit 1

(* Scale sweep: the two-level allreduce at 1k-64k simulated ranks, each
   row checked against the analytic message and round model. *)
let scale_headers =
  [
    "algo"; "ranks"; "nodes"; "cores"; "bytes"; "time us"; "msgs intra";
    "msgs inter"; "rounds"; "model msgs"; "model rounds"; "ok";
  ]

let run_scale ~quick ~out =
  let points = Harness.Experiments.scale_sweep ~quick () in
  let rows =
    List.map
      (fun (p : Experiments.scale_point) ->
        ( p.Experiments.sc_algo,
          [
            Table.Num (float_of_int p.Experiments.sc_ranks);
            Table.Num (float_of_int p.Experiments.sc_nodes);
            Table.Num (float_of_int p.Experiments.sc_cores);
            Table.Num (float_of_int p.Experiments.sc_bytes);
            Table.Num p.Experiments.sc_time_us;
            Table.Num (float_of_int p.Experiments.sc_msgs_intra);
            Table.Num (float_of_int p.Experiments.sc_msgs_inter);
            Table.Num (float_of_int p.Experiments.sc_rounds);
            Table.Num (float_of_int p.Experiments.sc_model_msgs);
            Table.Num (float_of_int p.Experiments.sc_model_rounds);
            Table.Text (if Experiments.scale_ok p then "yes" else "NO");
          ] ))
      points
  in
  Table.print_table
    ~title:
      "Scale sweep: two-level allreduce vs the analytic model (8 B, 64 \
       ranks/node)"
    ~headers:scale_headers ~rows ();
  let bad = List.filter (fun p -> not (Experiments.scale_ok p)) points in
  if bad = [] then
    Format.printf
      "scale check: every row matches the analytic round/message model@."
  else
    List.iter
      (fun (p : Experiments.scale_point) ->
        Format.printf
          "SCALE CHECK FAILED: %s at %d ranks measured %d msgs / %d rounds, \
           model says %d / %d@."
          p.Experiments.sc_algo p.Experiments.sc_ranks
          (p.Experiments.sc_msgs_intra + p.Experiments.sc_msgs_inter)
          p.Experiments.sc_rounds p.Experiments.sc_model_msgs
          p.Experiments.sc_model_rounds)
      bad;
  Table.write_csv ~path:out ~headers:scale_headers ~rows;
  Format.printf "csv written to %s@." out;
  if bad <> [] then Stdlib.exit 1

(* One-sided RMA sweep: put size x registration-cache capacity, each row
   checked against the transfer-path accounting. *)
let rma_headers =
  [
    "bytes"; "cache bytes"; "puts"; "time us"; "reg hits"; "reg misses";
    "evictions"; "eager"; "write rndv"; "read rndv"; "ok";
  ]

let run_rma ~quick ~out =
  let points =
    if quick then
      Harness.Experiments.rma_sweep ~sizes:[ 1_024; 65_536 ]
        ~caches:[ 65_536; 1_048_576 ] ()
    else Harness.Experiments.rma_sweep ()
  in
  let rows =
    List.map
      (fun (p : Experiments.rma_point) ->
        ( string_of_int p.Experiments.m_bytes,
          [
            Table.Num (float_of_int p.Experiments.m_cache_bytes);
            Table.Num (float_of_int p.Experiments.m_puts);
            Table.Num p.Experiments.m_time_us;
            Table.Num (float_of_int p.Experiments.m_hits);
            Table.Num (float_of_int p.Experiments.m_misses);
            Table.Num (float_of_int p.Experiments.m_evictions);
            Table.Num (float_of_int p.Experiments.m_eager);
            Table.Num (float_of_int p.Experiments.m_write_rndv);
            Table.Num (float_of_int p.Experiments.m_read_rndv);
            Table.Text (if Experiments.rma_ok p then "yes" else "NO");
          ] ))
      points
  in
  Table.print_table
    ~title:
      "RMA sweep: fence-epoch puts, size x registration-cache capacity \
       (2 ranks, rdma channel)"
    ~headers:rma_headers ~rows ();
  let bad = List.filter (fun p -> not (Experiments.rma_ok p)) points in
  let hits =
    List.fold_left (fun a (p : Experiments.rma_point) -> a + p.Experiments.m_hits) 0 points
  in
  if bad = [] && hits > 0 then
    Format.printf
      "rma check: every row satisfies the transfer-path accounting, cache \
       hits observed@."
  else begin
    List.iter
      (fun (p : Experiments.rma_point) ->
        Format.printf
          "RMA CHECK FAILED: %d B / %d B cache: %d puts = %d eager + %d \
           write + %d read; %d hits + %d misses, %d evictions@."
          p.Experiments.m_bytes p.Experiments.m_cache_bytes
          p.Experiments.m_puts p.Experiments.m_eager
          p.Experiments.m_write_rndv p.Experiments.m_read_rndv
          p.Experiments.m_hits p.Experiments.m_misses
          p.Experiments.m_evictions)
      bad;
    if hits = 0 then
      Format.printf "RMA CHECK FAILED: no registration-cache hits anywhere@."
  end;
  Table.write_csv ~path:out ~headers:rma_headers ~rows;
  Format.printf "csv written to %s@." out;
  if bad <> [] || hits = 0 then Stdlib.exit 1

(* Kill sweep: the rank-death workloads (lib/check) under many fault
   seeds — each seed picks a victim and a kill time, each run goes
   through the ULFM recovery loop (attempt, agree, revoke, shrink,
   retry) and is judged by the survivor-convergence invariant. The CSV
   is the committed results/kill_sweep.csv artifact. *)
let run_killsweep ~quick ~seeds ~out =
  let module E = Check.Explore in
  let n_seeds =
    match seeds with Some s -> s | None -> if quick then 20 else 200
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "workload,seed,victim,kill_at_ns,status,violations\n";
  let runs = ref 0 and failures = ref 0 in
  let per_workload = ref [] in
  List.iter
    (fun w ->
      let wfail = ref 0 in
      for seed = 1 to n_seeds do
        let o = E.run_one ~fault_seed:seed w (Check.Policy.Seeded_random seed) in
        incr runs;
        if E.failed o then begin
          incr failures;
          incr wfail
        end;
        let victims =
          if E.name w = "kill_hier_leader" then Some E.hier_leader_victims
          else None
        in
        let k = E.kill_of_fault ?victims ~seed:(Some seed) ~n:4 () in
        let violations =
          String.map
            (fun c -> if c = ',' || c = '\n' then ';' else c)
            (String.concat "; "
               (List.map
                  (fun v -> Format.asprintf "%a" Check.Invariant.pp v)
                  o.E.o_violations))
        in
        Buffer.add_string buf
          (Printf.sprintf "%s,%d,%d,%.0f,%s,%s\n" (E.name w) seed
             k.Mpi_core.Fault.k_rank k.Mpi_core.Fault.k_at_ns
             (if E.failed o then "fail" else "pass")
             violations)
      done;
      per_workload := (E.name w, !wfail) :: !per_workload)
    (E.kill_workloads ());
  List.iter
    (fun (name, wfail) ->
      Format.printf "%s: %d seed(s), %d failure(s)@." name n_seeds wfail)
    (List.rev !per_workload);
  Table.write_file out (Buffer.contents buf);
  Format.printf
    "kill sweep: %d run(s), %d failure(s); csv written to %s@." !runs
    !failures out;
  if !failures > 0 then Stdlib.exit 1

(* Profile run: one representative workload per instrumented subsystem —
   eager + rendezvous sends, a scheduled collective, serializer passes,
   young and full GC — under tracing, then dump the virtual-time
   histogram snapshot and the Chrome trace. *)
let run_profile ~quick ~out ~trace_out =
  let env = Simtime.Env.create ~cost:Simtime.Cost.motor () in
  let trace = Mpi_core.Trace.enable ~capacity:16384 env in
  let iters = if quick then 4 else 32 in
  let big = 262_144 in
  ignore
    (Mpi_core.Mpi.run ~env ~n:4 (fun p ->
         let module C = Mpi_core.Collectives in
         let comm = Mpi_core.Mpi.comm_world (Mpi_core.Mpi.world_of p) in
         for _ = 1 to iters do
           ignore (C.allreduce p comm ~op:C.sum_i64 (Bytes.create 4096))
         done;
         (* One large transfer to push the transport into rendezvous. *)
         let bv () = Mpi_core.Buffer_view.of_bytes (Bytes.create big) in
         match Mpi_core.Mpi.rank p with
         | 0 -> Mpi_core.Mpi.send p ~comm ~dst:1 ~tag:99 (bv ())
         | 1 -> ignore (Mpi_core.Mpi.recv p ~comm ~src:0 ~tag:99 (bv ()))
         | _ -> ()));
  let rt = Vm.Runtime.create ~env () in
  let elems = if quick then 64 else 256 in
  let head =
    Workloads.make_linked_list rt.Vm.Runtime.gc rt.Vm.Runtime.registry ~elems
      ~total_data_bytes:4096
  in
  let wire =
    Motor.Serializer.serialize rt.Vm.Runtime.gc ~visited:Hashed head
  in
  ignore (Motor.Serializer.deserialize rt.Vm.Runtime.gc wire);
  Vm.Gc.collect rt.Vm.Runtime.gc ~full:false;
  Vm.Gc.collect rt.Vm.Runtime.gc ~full:true;
  Mpi_core.Trace.disable env;
  let stats = env.Simtime.Env.stats in
  Table.write_file out (Simtime.Stats.to_json stats);
  Format.printf "profile snapshot written to %s@." out;
  Table.write_file trace_out (Mpi_core.Trace.to_chrome_json trace);
  Format.printf "chrome trace written to %s (open at ui.perfetto.dev)@."
    trace_out;
  let hist_rows =
    List.map
      (fun (key, (s : Simtime.Stats.summary)) ->
        ( key,
          [
            Table.Num (float_of_int s.Simtime.Stats.n);
            Table.Num s.Simtime.Stats.sum;
            Table.Num s.Simtime.Stats.p50;
            Table.Num s.Simtime.Stats.p99;
          ] ))
      (Simtime.Stats.hists_alist stats)
  in
  Table.print_table ~title:"Virtual-time histograms (ns)"
    ~headers:[ "n"; "sum"; "p50"; "p99" ] ~rows:hist_rows ();
  (* Self-check: every headline subsystem must have produced samples. *)
  let module Key = Simtime.Stats.Key in
  let missing =
    List.filter
      (fun k ->
        match Simtime.Stats.hist stats k with
        | Some s -> s.Simtime.Stats.n = 0
        | None -> true)
      [
        Key.h_ch3_send; Key.h_ch3_eager; Key.h_ch3_rndv; Key.h_sched_step;
        Key.h_gc_young_pause; Key.h_gc_full_pause; Key.h_ser_encode;
        Key.h_ser_decode;
      ]
  in
  if missing <> [] then begin
    Format.printf "PROFILE CHECK FAILED: no samples for %s@."
      (String.concat ", " (List.map Simtime.Stats.histogram_name missing));
    Stdlib.exit 1
  end
  else Format.printf "profile check: all headline histograms populated@."

(* Regenerate a self-contained markdown report of every measured result:
   the machine-written companion to EXPERIMENTS.md. *)
let run_report ~quick ~path =
  let protocol =
    if quick then quick_protocol else Workloads.paper_protocol
  in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let md_series ~xlabel series =
    let headers =
      List.map (fun (s : Experiments.series) -> s.Experiments.system) series
    in
    out "| %s | %s |\n" xlabel (String.concat " | " headers);
    out "|%s|\n"
      (String.concat "|" (List.init (List.length headers + 1) (fun _ -> "---")));
    let xs =
      List.map
        (fun (p : Experiments.point) -> p.Experiments.x)
        (List.hd series).Experiments.points
    in
    List.iter
      (fun x ->
        let cells =
          List.map
            (fun (s : Experiments.series) ->
              match
                List.find_opt
                  (fun (p : Experiments.point) -> p.Experiments.x = x)
                  s.Experiments.points
              with
              | Some { result = Workloads.Time_us t; _ } ->
                  Printf.sprintf "%.1f" t
              | Some { result = Workloads.Crashed _; _ } -> "CRASH"
              | None -> "-")
            series
        in
        out "| %d | %s |\n" x (String.concat " | " cells))
      xs
  in
  let md_verdicts vs =
    List.iter
      (fun (v : Shapes.verdict) ->
        out "- %s **%s** — %s\n"
          (if v.Shapes.pass then "PASS" else "FAIL")
          v.Shapes.check v.Shapes.detail)
      vs
  in
  out "# Measured results (auto-generated by `figures report`)\n\n";
  out "Protocol: %s.\n\n" (if quick then "quick" else "paper (200/100/3)");
  out "## Figure 9 — regular MPI ping-pong (us/iteration)\n\n";
  let f9 = Experiments.fig9 ~protocol () in
  md_series ~xlabel:"bytes" f9;
  out "\n";
  md_verdicts (Shapes.fig9_checks f9);
  out "\n## Figure 10 — linked-list object transport (us/iteration)\n\n";
  let f10 = Experiments.fig10 () in
  md_series ~xlabel:"objects" f10;
  out "\n";
  md_verdicts (Shapes.fig10_checks f10);
  out "\n## Table A — Motor vs Indiana SSCLI (percent)\n\n";
  out "| metric | paper | measured |\n|---|---|---|\n";
  List.iter
    (fun (r : Experiments.taba_row) ->
      out "| %s | %.1f | %.1f |\n" r.Experiments.metric
        r.Experiments.paper_pct r.Experiments.measured_pct)
    (Experiments.taba f9);
  out "\n## Table B — pinning by SSCLI build (64 B ping-pong)\n\n";
  out "| build | us/iter |\n|---|---|\n";
  List.iter (fun (name, us) -> out "| %s | %.1f |\n" name us)
    (Experiments.tabb ());
  Table.write_file path (Buffer.contents buf);
  Format.printf "report written to %s@." path

let run_speedup ~quick ~out =
  let points = Harness.Speedup.sweep ~quick () in
  let cores = Harness.Speedup.cores () in
  let headers =
    [ "workload"; "domains"; "ranks"; "reps"; "cores"; "median_wall_ms";
      "speedup" ]
  in
  let rows =
    List.map
      (fun (p : Harness.Speedup.point) ->
        ( p.Harness.Speedup.p_workload,
          [
            Table.Num (float_of_int p.Harness.Speedup.p_domains);
            Table.Num (float_of_int p.Harness.Speedup.p_ranks);
            Table.Num (float_of_int p.Harness.Speedup.p_reps);
            Table.Num (float_of_int cores);
            Table.Num p.Harness.Speedup.p_median_wall_ms;
            Table.Num p.Harness.Speedup.p_speedup;
          ] ))
      points
  in
  Table.print_table
    ~title:
      (Printf.sprintf
         "Wall-clock speedup: rank fibers on 1/2/4 domains (%d core(s) \
          available)"
         cores)
    ~headers ~rows ();
  Harness.Speedup.write_csv ~path:out points;
  Format.printf "csv written to %s@." out;
  match Harness.Speedup.check ~cores points with
  | Harness.Speedup.Skipped c ->
      Format.printf
        "speedup check skipped: only %d core(s) available (needs %d) — the \
         ratios measure scheduling overhead, not scaling@."
        c Harness.Speedup.min_cores
  | Harness.Speedup.Enforced { passing; failing } ->
      let show verdict (p : Harness.Speedup.point) =
        Format.printf "%s %s: %.2fx at %d domains (min %.1fx)@." verdict
          p.Harness.Speedup.p_workload p.Harness.Speedup.p_speedup
          p.Harness.Speedup.p_domains Harness.Speedup.min_speedup
      in
      List.iter (show "ok  ") passing;
      List.iter (show "FAIL") failing;
      if failing <> [] then begin
        Format.printf "SPEEDUP CHECK FAILED@.";
        Stdlib.exit 1
      end

let run_check ~quick =
  let protocol =
    if quick then quick_protocol else Workloads.paper_protocol
  in
  let f9 = Experiments.fig9 ~protocol () in
  let f10 = Experiments.fig10 () in
  let verdicts = Shapes.fig9_checks f9 @ Shapes.fig10_checks f10 in
  Format.printf "%a" Shapes.pp_verdicts verdicts;
  if Shapes.all_pass verdicts then begin
    Format.printf "all shape checks pass@.";
    0
  end
  else begin
    Format.printf "SHAPE CHECKS FAILED@.";
    1
  end

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced iteration counts.")

let csv =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV.")

let cmd_of name doc f = Cmd.v (Cmd.info name ~doc) f

let fig9_cmd =
  cmd_of "fig9" "Regenerate Figure 9."
    Term.(const (fun quick csv -> ignore (run_fig9 ~quick ~csv)) $ quick $ csv)

let fig10_cmd =
  cmd_of "fig10" "Regenerate Figure 10."
    Term.(const (fun quick csv -> ignore (run_fig10 ~quick ~csv)) $ quick $ csv)

let taba_cmd =
  cmd_of "taba" "Motor-vs-Indiana percentages (in-text claims)."
    Term.(const (fun quick -> run_taba ~quick) $ quick)

let tabb_cmd =
  cmd_of "tabb" "Footnote 4: pinning by SSCLI build type."
    Term.(const run_tabb $ const ())

let ablations_cmd =
  cmd_of "ablations" "Run the five design ablations."
    Term.(const (fun quick -> run_ablations ~quick) $ quick)

let faults_cmd =
  cmd_of "faults" "Loss sweep: the ring workload under injected faults."
    Term.(const (fun quick csv -> run_faults ~quick ~csv) $ quick $ csv)

let profile_cmd =
  let out =
    Arg.(
      value
      & opt string "results/profile_snapshot.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Where to write the histogram snapshot.")
  in
  let trace_out =
    Arg.(
      value
      & opt string "results/profile_trace.json"
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Where to write the Chrome trace (Perfetto-loadable).")
  in
  cmd_of "profile"
    "Run an instrumented workload and dump histograms + Chrome trace."
    Term.(
      const (fun quick out trace_out -> run_profile ~quick ~out ~trace_out)
      $ quick $ out $ trace_out)

let killsweep_cmd =
  let seeds =
    Arg.(
      value
      & opt (some int) None
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Fault seeds per workload (default 200; 20 with --quick).")
  in
  let out =
    Arg.(
      value
      & opt string "results/kill_sweep.csv"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the CSV.")
  in
  cmd_of "killsweep"
    "Rank-death sweep: the ULFM recovery loop under seeded kills, judged \
     by survivor convergence."
    Term.(
      const (fun quick seeds out -> run_killsweep ~quick ~seeds ~out)
      $ quick $ seeds $ out)

let coll_cmd =
  cmd_of "coll" "Collective algorithm sweep: latency vs ranks x payload."
    Term.(const (fun quick csv -> run_coll ~quick ~csv) $ quick $ csv)

let scale_cmd =
  let out =
    Arg.(
      value
      & opt string "results/scale_sweep.csv"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the CSV.")
  in
  cmd_of "scale"
    "Scale sweep: the two-level allreduce at 1k-64k simulated ranks, \
     checked against the analytic round/message model; exit 1 on mismatch."
    Term.(const (fun quick out -> run_scale ~quick ~out) $ quick $ out)

let rma_cmd =
  let out =
    Arg.(
      value
      & opt string "results/rma_sweep.csv"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the CSV.")
  in
  cmd_of "rma"
    "One-sided RMA sweep: put size x registration-cache capacity on the \
     rdma channel, each row checked against the transfer-path accounting; \
     exit 1 on mismatch."
    Term.(const (fun quick out -> run_rma ~quick ~out) $ quick $ out)

let speedup_cmd =
  let out =
    Arg.(
      value
      & opt string "results/speedup_sweep.csv"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the CSV.")
  in
  cmd_of "speedup"
    "Wall-clock speedup sweep: the ring and allreduce workloads on 1/2/4 \
     real domains (the only real-clock experiment; everything else is \
     virtual time); exit 1 if a workload's 4-domain speedup is below 1.8x \
     on a machine with at least 4 cores."
    Term.(const (fun quick out -> run_speedup ~quick ~out) $ quick $ out)

let overlap_cmd =
  cmd_of "overlap"
    "Overlap sweep: nonblocking collectives vs the blocking baseline."
    Term.(const (fun quick csv -> run_overlap ~quick ~csv) $ quick $ csv)

let check_cmd =
  Cmd.v (Cmd.info "check" ~doc:"Run all shape checks; exit 1 on failure.")
    Term.(const (fun quick -> Stdlib.exit (run_check ~quick)) $ quick)

let report_cmd =
  let path =
    Arg.(
      value
      & opt string "results/RESULTS.md"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to write the report.")
  in
  cmd_of "report" "Write a markdown report of every measured result."
    Term.(const (fun quick path -> run_report ~quick ~path) $ quick $ path)

let all_cmd =
  cmd_of "all" "Everything: figures, tables, ablations."
    Term.(
      const (fun quick csv ->
          ignore (run_fig9 ~quick ~csv);
          ignore (run_fig10 ~quick ~csv:None);
          run_taba ~quick;
          run_tabb ();
          run_ablations ~quick;
          run_faults ~quick ~csv:None)
      $ quick $ csv)

let () =
  let info =
    Cmd.info "figures"
      ~doc:"Regenerate the tables and figures of the Motor paper."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig9_cmd; fig10_cmd; taba_cmd; tabb_cmd; ablations_cmd;
            faults_cmd; killsweep_cmd; coll_cmd; overlap_cmd; scale_cmd;
            rma_cmd; speedup_cmd;
            profile_cmd; all_cmd; check_cmd; report_cmd;
          ]))
