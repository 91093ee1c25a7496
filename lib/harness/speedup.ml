(* Wall-clock speedup sweep (DESIGN.md §15): the same workload run with
   1, 2 and 4 domains, timed with a real clock. Unlike every other
   number in the harness this is NOT virtual time — it measures whether
   executing rank fibers on OCaml 5 domains actually buys wall-clock
   time on the machine at hand. Medians of [reps] runs: domain spawn
   and GC make the distribution long-tailed, and a median of a handful
   of runs is what the CI check can afford. *)

module W = Workloads

type point = {
  p_workload : string;
  p_domains : int;
  p_ranks : int;
  p_reps : int;
  p_median_wall_ms : float;
  p_speedup : float;  (** 1-domain median / this median *)
}

let domains = [ 1; 2; 4 ]
let reps = 5
let cores () = Domain.recommended_domain_count ()

let median samples =
  let sorted = List.sort compare samples in
  List.nth sorted (List.length sorted / 2)

let time_ms f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e3

(* Rank counts and payloads sized so a 1-domain run takes tens of
   milliseconds: long enough to dwarf domain spawn (~100us each), short
   enough that the sweep stays a smoke test. Both workloads do real
   per-byte CPU work each round, so they scale with domains instead of
   serializing on the channel. *)
let workloads ~quick =
  let ranks = 8 in
  let scale n = if quick then max 1 (n / 4) else n in
  [
    ( "shm-ring",
      ranks,
      fun d -> ignore (W.ring ~parallel:d ~n:ranks ~rounds:(scale 64) ~size:32768 ()) );
    ( "allreduce",
      ranks,
      fun d ->
        ignore
          (W.allreduce_bytes ~parallel:d ~n:ranks ~rounds:(scale 16)
             ~size:65536 ()) );
  ]

let sweep ?(quick = false) () =
  List.concat_map
    (fun (name, ranks, run) ->
      List.map
        (fun d ->
          let ms = median (List.init reps (fun _ -> time_ms (fun () -> run d))) in
          {
            p_workload = name;
            p_domains = d;
            p_ranks = ranks;
            p_reps = reps;
            p_median_wall_ms = ms;
            p_speedup = 1.0 (* filled in below *);
          })
        domains
      |> fun points ->
      let base = (List.hd points).p_median_wall_ms (* 1 domain *) in
      List.map (fun p -> { p with p_speedup = base /. p.p_median_wall_ms }) points)
    (workloads ~quick)

(* Speedup at the highest measured domain count must reach
   [min_speedup]. The ratio is machine-independent, unlike the absolute
   wall times, but only on a machine with at least [min_cores] cores: on
   fewer, every domain count collapses onto the same CPUs. *)
let min_speedup = 1.8
let min_cores = 4

type outcome =
  | Enforced of { passing : point list; failing : point list }
  | Skipped of int

let check ~cores points =
  if cores < min_cores then Skipped cores
  else
    let top = List.fold_left (fun d p -> max d p.p_domains) 1 points in
    let gated = List.filter (fun p -> p.p_domains = top) points in
    let passing, failing =
      List.partition (fun p -> p.p_speedup >= min_speedup) gated
    in
    Enforced { passing; failing }

let csv_header = "workload,domains,ranks,reps,cores,median_wall_ms,speedup"

let write_csv ~path points =
  let c = cores () in
  Table.write_file path
    (String.concat ""
       ((csv_header ^ "\n")
       :: List.map
            (fun p ->
              Printf.sprintf "%s,%d,%d,%d,%d,%.3f,%.3f\n" p.p_workload
                p.p_domains p.p_ranks p.p_reps c p.p_median_wall_ms
                p.p_speedup)
            points))
