(* Schedule-exploration driver: run the lib/check workloads under many
   seeded schedules, check invariants, shrink failures, replay corpus
   traces. CI runs `explore --quick` as a smoke test and `replay` over
   test/corpus; the full sweep produces the results/schedule_sweep.csv
   artifact. *)

open Cmdliner
module E = Check.Explore

let violations_line vs =
  String.concat "; "
    (List.map (fun v -> Format.asprintf "%a" Check.Invariant.pp v) vs)

let resolve_workloads = function
  | [] -> Ok (E.default_workloads ())
  | names ->
      let missing = List.filter (fun n -> E.find n = None) names in
      if missing <> [] then
        Error ("unknown workload(s): " ^ String.concat ", " missing)
      else Ok (List.filter_map E.find names)

(* Output paths (--csv, --save-failing) get their parent directories
   created, and an unwritable path is a clean usage error (exit 2)
   instead of a Sys_error mid-sweep. *)
let rec mkdirs dir =
  if
    dir <> "" && dir <> "." && dir <> "/" && dir <> Filename.current_dir_name
    && not (Sys.file_exists dir)
  then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let open_out_checked path =
  mkdirs (Filename.dirname path);
  try Ok (open_out path) with Sys_error msg -> Error msg

let csv_header = "workload,policy,seed,fault_seed,status,digest,trace_len"

let csv_row (o : E.outcome) =
  Printf.sprintf "%s,%s,%s,%s,%s,%s,%d" o.o_workload
    (match o.o_policy with
    | Check.Policy.Round_robin -> "round-robin"
    | Check.Policy.Seeded_random _ -> "seeded-random"
    | Check.Policy.Replay _ -> "replay")
    (match Check.Policy.seed_of o.o_policy with
    | Some s -> string_of_int s
    | None -> "")
    (match o.o_fault_seed with Some s -> string_of_int s | None -> "")
    (if E.failed o then "fail" else "pass")
    o.o_digest
    (List.length o.o_trace)

let explore seeds faults quick workload_names csv save_failing =
  match resolve_workloads workload_names with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  | Ok workloads -> (
      match
        match csv with
        | None -> Ok None
        | Some path -> Result.map Option.some (open_out_checked path)
      with
      | Error msg ->
          Printf.eprintf "error: cannot write CSV: %s\n" msg;
          2
      | Ok csv_oc ->
      let io_errors = ref false in
      Option.iter (fun oc -> output_string oc (csv_header ^ "\n")) csv_oc;
      let progress o =
        Option.iter (fun oc -> output_string oc (csv_row o ^ "\n")) csv_oc;
        if E.failed o then
          Printf.printf "FAIL %s under %s%s: %s\n%!" o.E.o_workload
            (Check.Policy.name o.E.o_policy)
            (match o.E.o_fault_seed with
            | Some s -> Printf.sprintf " x fault(seed=%d)" s
            | None -> "")
            (violations_line o.E.o_violations)
      in
      let report = E.explore ~quick ~faults ~progress ~workloads ~seeds () in
      Option.iter close_out csv_oc;
      List.iter
        (fun (wname, entry) ->
          Printf.printf "shrunk %s failure to %d decision(s)\n" wname
            (List.length entry.Check.Corpus.c_decisions);
          match save_failing with
          | Some dir -> (
              let path = Filename.concat dir (wname ^ ".trace") in
              try
                mkdirs dir;
                Check.Corpus.save ~path entry;
                Printf.printf "  saved %s\n" path
              with Sys_error msg ->
                io_errors := true;
                Printf.eprintf "error: cannot save %s: %s\n" path msg)
          | None -> ())
        report.E.r_shrunk;
      let failures = List.length report.E.r_failures in
      Printf.printf "%d run(s), %d workload(s), %d failure(s)\n"
        report.E.r_runs (List.length workloads) failures;
      if failures > 0 then 1 else if !io_errors then 2 else 0)

let replay files =
  let bad = ref 0 in
  List.iter
    (fun path ->
      match Check.Corpus.load ~path with
      | exception (Failure msg | Sys_error msg) ->
          incr bad;
          Printf.printf "ERROR %s: %s\n" path msg
      | entry -> (
          match E.replay_entry entry with
          | Ok o ->
              Printf.printf "ok %s (%s, %d decision(s)%s)\n" path
                o.E.o_workload
                (List.length entry.Check.Corpus.c_decisions)
                (if E.failed o then ", failed as expected" else ", clean")
          | Error msg ->
              incr bad;
              Printf.printf "MISMATCH %s: %s\n" path msg))
    files;
  if !bad = 0 then 0 else 1

let list_workloads () =
  List.iter
    (fun w ->
      Printf.printf "%-18s %s\n" (E.name w)
        (if E.faultable w then "(faultable)" else ""))
    (E.all_workloads ());
  0

(* ---------------------------------------------------------------- *)

let seeds_arg =
  Arg.(
    value & opt int 100
    & info [ "seeds" ] ~docv:"N" ~doc:"Number of random schedule seeds.")

let faults_arg =
  Arg.(
    value & flag
    & info [ "faults" ]
        ~doc:
          "Cross each schedule seed with a derived fault-plan seed on \
           faultable workloads (the reliable layer must mask the faults).")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Smaller rank/round counts (CI smoke mode).")

let workloads_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "workload" ] ~docv:"NAME"
        ~doc:"Restrict to a workload (repeatable; default: the standard set).")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Write one CSV row per run.")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-failing" ] ~docv:"DIR"
        ~doc:
          "Save shrunk failing traces as corpus files in $(docv) (created, \
           with parents, if missing).")

let files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"TRACE" ~doc:"Corpus trace files.")

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Run workloads under many seeded schedules and check invariants.")
    Term.(
      const explore $ seeds_arg $ faults_arg $ quick_arg
      $ workloads_arg $ csv_arg $ save_arg)

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay corpus traces and check them against their expectations.")
    Term.(const replay $ files_arg)

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List the registered workloads.")
    Term.(const list_workloads $ const ())

let () =
  let info =
    Cmd.info "motor_check"
      ~doc:"Schedule exploration for the Motor MPI/VM stack."
  in
  exit (Cmd.eval' (Cmd.group info [ explore_cmd; replay_cmd; list_cmd ]))
