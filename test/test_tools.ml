(* Tests for the tooling layers: the JSON reader and the speedup check,
   CSV output, the MPE-style trace subsystem and the ASCII chart
   renderer. *)

module Mpi = Mpi_core.Mpi
module Trace = Mpi_core.Trace
module Bv = Mpi_core.Buffer_view

let test_trace_records_device_events () =
  let env = Simtime.Env.create ~cost:Simtime.Cost.native_cpp () in
  let trace = Trace.enable env in
  let w = Mpi.create_world ~env ~n:2 () in
  let comm = Mpi.comm_world w in
  let body rank () =
    let p = Mpi.proc w rank in
    let b = Bytes.create 64 in
    if rank = 0 then Mpi.send p ~comm ~dst:1 ~tag:9 (Bv.of_bytes b)
    else ignore (Mpi.recv p ~comm ~src:0 ~tag:9 (Bv.of_bytes b))
  in
  Fiber.run [ ("t0", body 0); ("t1", body 1) ];
  let events = Trace.events trace in
  let ops = List.map (fun e -> (e.Trace.rank, e.Trace.op)) events in
  Alcotest.(check bool) "sender isend recorded" true
    (List.mem (0, "isend") ops);
  Alcotest.(check bool) "receiver irecv recorded" true
    (List.mem (1, "irecv") ops);
  Alcotest.(check bool) "delivery recorded" true (List.mem (1, "eager") ops);
  (* Timestamps are monotone. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Trace.t_us <= b.Trace.t_us && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone timeline" true (monotone events)

let test_trace_off_by_default () =
  let env = Simtime.Env.create ~cost:Simtime.Cost.native_cpp () in
  Alcotest.(check bool) "no sink attached" true
    (Option.is_none env.Simtime.Env.sink);
  (* Recording without a trace must be a harmless no-op. *)
  Trace.record env ~rank:0 ~op:"x" ~detail:(fun () -> "y")

let test_trace_ring_buffer_drops_oldest () =
  let env = Simtime.Env.create () in
  let trace = Trace.enable ~capacity:8 env in
  for i = 1 to 20 do
    Simtime.Env.charge env 1000.0;
    Trace.record env ~rank:0 ~op:"tick" ~detail:(fun () -> string_of_int i)
  done;
  Alcotest.(check int) "bounded" 8 (List.length (Trace.events trace));
  Alcotest.(check int) "dropped counted" 12 (Trace.dropped trace);
  let details = List.map (fun e -> e.Trace.detail) (Trace.events trace) in
  Alcotest.(check (list string)) "kept the newest, oldest first"
    [ "13"; "14"; "15"; "16"; "17"; "18"; "19"; "20" ]
    details

let test_trace_rendezvous_sequence () =
  (* A rendezvous transfer must show the full RTS/CTS/DATA handshake. *)
  let env = Simtime.Env.create ~cost:Simtime.Cost.native_cpp () in
  let trace = Trace.enable env in
  let w = Mpi.create_world ~env ~n:2 () in
  let comm = Mpi.comm_world w in
  let size = 200_000 in
  let body rank () =
    let p = Mpi.proc w rank in
    let b = Bytes.create size in
    if rank = 0 then Mpi.send p ~comm ~dst:1 ~tag:0 (Bv.of_bytes b)
    else ignore (Mpi.recv p ~comm ~src:0 ~tag:0 (Bv.of_bytes b))
  in
  Fiber.run [ ("r0", body 0); ("r1", body 1) ];
  let ops = List.map (fun e -> e.Trace.op) (Trace.events trace) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true
        (List.mem expected ops))
    [ "isend/rndv"; "rts"; "cts"; "data" ]

let render_chart series =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Harness.Chart.log_log ~out:fmt ~title:"t" ~xlabel:"x" ~ylabel:"y" ~series ();
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_chart_renders_series () =
  let s =
    render_chart
      [
        ("up", [ (1.0, 10.0); (10.0, 100.0); (100.0, 1000.0) ]);
        ("down", [ (1.0, 1000.0); (10.0, 100.0); (100.0, 10.0) ]);
      ]
  in
  Alcotest.(check bool) "has legend" true
    (String.length s > 0
    &&
    let contains sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    contains "*=up" && contains "o=down" && contains "log scale")

let test_chart_empty_series () =
  let s = render_chart [ ("nothing", []) ] in
  Alcotest.(check bool) "handles no data" true
    (String.length s > 0)

let test_chart_skips_nonpositive () =
  (* Zero and negative values cannot be drawn on a log axis and must not
     crash the renderer. *)
  let s = render_chart [ ("mixed", [ (0.0, 5.0); (10.0, 0.0); (10.0, 5.0) ]) ] in
  Alcotest.(check bool) "rendered" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* The JSON reader (tools/gate.ml) and the speedup check              *)
(* ------------------------------------------------------------------ *)

let test_gate_malformed_json () =
  List.iter
    (fun s ->
      match Gate.parse s with
      | exception Gate.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected Parse_error for %S" s)
    [
      "" (* truncated: nothing at all *);
      "{\"rows\": [1, 2" (* truncated mid-array *);
      "{\"t\": \"abc" (* truncated mid-string *);
      "{\"t\": }" (* bad value *);
      "[tru]" (* bad literal *);
      "{\"t\": 1} trailing" (* trailing garbage *);
    ]

let test_gate_stats_round_trip () =
  let stats = Simtime.Stats.create () in
  Simtime.Stats.add stats (Simtime.Stats.counter "pins") 42;
  Simtime.Stats.incr stats (Simtime.Stats.counter "quote\"d\\key");
  Simtime.Stats.observe stats (Simtime.Stats.histogram "send_ns") 1500.0;
  let json =
    Gate.parse (Simtime.Stats.to_json stats)
  in
  let counters =
    match Gate.member "counters" json with
    | Some (Gate.Obj fields) ->
        List.map
          (fun (k, v) ->
            match v with
            | Gate.Num f -> (k, int_of_float f)
            | _ -> Alcotest.failf "counter %s is not a number" k)
          fields
    | _ -> Alcotest.fail "no counters object"
  in
  Alcotest.(check (list (pair string int)))
    "counters come back"
    [ ("pins", 42); ("quote\"d\\key", 1) ]
    counters;
  match Option.bind (Gate.member "histograms" json) (Gate.member "send_ns") with
  | Some h ->
      Alcotest.(check bool) "histogram count" true
        (Gate.member "count" h = Some (Gate.Num 1.0))
  | None -> Alcotest.fail "histogram missing"

(* ------------------------------------------------------------------ *)
(* Stats key registry                                                   *)
(* ------------------------------------------------------------------ *)

module Stats = Simtime.Stats

let occurrences x l = List.length (List.filter (String.equal x) l)

(* The index of [sub] in [s] at or after [from], if any. *)
let rec find_sub s sub from =
  if from + String.length sub > String.length s then None
  else if String.sub s from (String.length sub) = sub then Some from
  else find_sub s sub (from + 1)

(* The per-schedule histograms are declared when [Collectives]
   initialises; naming one of its operations links it in. *)
let _collectives_linked = Mpi_core.Collectives.barrier

let test_registry_covers_profile_snapshot () =
  let json =
    Gate.parse
      (In_channel.with_open_text "../results/profile_snapshot.json"
         In_channel.input_all)
  in
  let names section =
    match Gate.member section json with
    | Some (Gate.Obj fields) -> List.map fst fields
    | _ -> Alcotest.failf "no %s object" section
  in
  let counters = Stats.declared_counters ()
  and hists = Stats.declared_histograms () in
  let check kind mine other name =
    Alcotest.(check (pair int int))
      (Printf.sprintf "%S is declared once, as a %s" name kind)
      (1, 0)
      (occurrences name mine, occurrences name other)
  in
  let cs = names "counters" and hs = names "histograms" in
  Alcotest.(check bool) "the snapshot has both kinds" true
    (cs <> [] && hs <> []);
  List.iter (check "counter" counters hists) cs;
  List.iter (check "histogram" hists counters) hs

(* Two [Key] entries with one name would silently share a slot, so the
   declarations in [Stats.Key] must name distinct keys. *)
let test_key_names_distinct () =
  let src =
    In_channel.with_open_text "../lib/simtime/stats.ml" In_channel.input_all
  in
  let start = Option.get (find_sub src "module Key = struct" 0) in
  let decls =
    String.split_on_char '\n' (String.sub src start (String.length src - start))
    |> List.filter_map (fun l ->
           List.find_map
             (fun kind ->
               Option.map
                 (fun i ->
                   let from = i + String.length kind + 5 in
                   let stop = String.index_from l from '"' in
                   (kind, String.sub l from (stop - from)))
                 (find_sub l (" = " ^ kind ^ " \"") 0))
             [ "counter"; "histogram" ])
  in
  let names = List.map snd decls in
  Alcotest.(check bool) "Key declares keys" true (List.length decls > 50);
  Alcotest.(check (list string)) "names declared twice" []
    (List.sort_uniq compare
       (List.filter (fun n -> occurrences n names > 1) names));
  List.iter
    (fun (kind, name) ->
      let declared =
        if kind = "counter" then Stats.declared_counters ()
        else Stats.declared_histograms ()
      in
      Alcotest.(check int) (name ^ " registered as a " ^ kind) 1
        (occurrences name declared))
    decls

let test_redeclare_other_kind_raises () =
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let pins = Stats.counter_name Stats.Key.pins in
  let send = Stats.histogram_name Stats.Key.h_ch3_send in
  Alcotest.(check bool) "counter as histogram" true
    (raises (fun () -> ignore (Stats.histogram pins)));
  Alcotest.(check bool) "histogram as counter" true
    (raises (fun () -> ignore (Stats.counter send)));
  Alcotest.(check bool) "same kind is the same key" true
    (Stats.counter pins = Stats.Key.pins
    && Stats.histogram send = Stats.Key.h_ch3_send)

(* Two domains declaring the same fresh names at the same moment agree
   on every slot, and each name is registered once. *)
let test_concurrent_declarations_share_slots () =
  let names = List.init 200 (Printf.sprintf "race/%d") in
  let go = Atomic.make false in
  let declare () =
    while not (Atomic.get go) do Domain.cpu_relax () done;
    List.map
      (fun n ->
        (Stats.counter ("c/" ^ n), Stats.histogram ("h/" ^ n)))
      names
  in
  let a = Domain.spawn declare and b = Domain.spawn declare in
  Atomic.set go true;
  let ka = Domain.join a and kb = Domain.join b in
  Alcotest.(check bool) "same slots on both domains" true (ka = kb);
  let counters = Stats.declared_counters ()
  and hists = Stats.declared_histograms () in
  List.iter2
    (fun n (c, h) ->
      Alcotest.(check (pair string string)) "slot names" ("c/" ^ n, "h/" ^ n)
        (Stats.counter_name c, Stats.histogram_name h);
      Alcotest.(check (pair int int)) ("registered once: " ^ n) (1, 1)
        (occurrences ("c/" ^ n) counters, occurrences ("h/" ^ n) hists))
    names ka

module Speedup = Harness.Speedup

let point workload domains speedup =
  {
    Speedup.p_workload = workload;
    p_domains = domains;
    p_ranks = 8;
    p_reps = 5;
    p_median_wall_ms = 100.0 /. speedup;
    p_speedup = speedup;
  }

let sweep_points =
  [
    point "ring" 1 1.0; point "ring" 2 1.6; point "ring" 4 2.5;
    point "slow" 1 1.0; point "slow" 2 1.9 (* not the gated count *);
    point "slow" 4 1.1;
  ]

let test_speedup_ratio () =
  match Speedup.check ~cores:8 sweep_points with
  | Speedup.Enforced { passing; failing } ->
      let names = List.map (fun p -> (p.Speedup.p_workload, p.p_domains)) in
      Alcotest.(check (list (pair string int)))
        "ring reaches 1.8x at 4 domains" [ ("ring", 4) ] (names passing);
      Alcotest.(check (list (pair string int)))
        "slow fails at 4 domains" [ ("slow", 4) ] (names failing);
      (match Speedup.check ~cores:4 [ point "w" 1 1.0; point "w" 4 1.8 ] with
      | Speedup.Enforced { passing = [ _ ]; failing = [] } -> ()
      | _ -> Alcotest.fail "exactly 1.8x at 4 cores must pass")
  | Speedup.Skipped _ -> Alcotest.fail "8 cores must enforce"

let test_speedup_skipped_on_small_machines () =
  match Speedup.check ~cores:2 sweep_points with
  | Speedup.Skipped 2 -> ()
  | _ -> Alcotest.fail "a 2-core machine must skip the speedup check"

(* ------------------------------------------------------------------ *)
(* CSV output                                                         *)
(* ------------------------------------------------------------------ *)

let test_csv_creates_missing_dirs () =
  let root = Filename.temp_dir "motor_csv" "" in
  let nested = Filename.concat (Filename.concat root "a") "b" in
  let table = Filename.concat nested "t.csv" in
  let sweep = Filename.concat (Filename.concat nested "c") "s.csv" in
  Harness.Table.write_csv ~path:table ~headers:[ "x" ]
    ~rows:[ ("r", [ Harness.Table.Num 1.0 ]) ];
  Speedup.write_csv ~path:sweep [ point "w" 1 1.0 ];
  let read path = In_channel.with_open_text path In_channel.input_all in
  Alcotest.(check string) "table csv" ",x\nr,1\n" (read table);
  Alcotest.(check bool) "sweep csv starts with its header" true
    (String.starts_with ~prefix:"workload,domains,ranks," (read sweep));
  List.iter Sys.remove [ table; sweep ];
  List.iter Sys.rmdir
    [ Filename.dirname sweep; nested; Filename.dirname nested; root ]

(* ------------------------------------------------------------------ *)
(* DESIGN.md §6 module map                                            *)
(* ------------------------------------------------------------------ *)

let design_lines () =
  In_channel.with_open_text "../DESIGN.md" In_channel.input_all
  |> String.split_on_char '\n'

let rec drop_to p = function
  | [] -> Alcotest.fail "DESIGN.md lacks an expected line"
  | l :: rest -> if p l then rest else drop_to p rest

let rec take_to p = function
  | [] -> []
  | l :: rest -> if p l then [] else l :: take_to p rest

(* The map's [lib/<dir>] entries — a line starting "lib/" plus its
   indented continuation lines — as (dir, sorted capitalised names
   outside parentheses). *)
let module_map_entries () =
  let fence = String.starts_with ~prefix:"```" in
  let block =
    design_lines ()
    |> drop_to (( = ) "## 6. Module map")
    |> drop_to fence |> take_to fence
  in
  let _, entries =
    List.fold_left
      (fun (in_lib, acc) l ->
        match (String.index_opt l ' ', acc) with
        | Some i, _ when String.starts_with ~prefix:"lib/" l ->
            let dir = String.sub l 4 (i - 4) in
            (true, (dir, String.sub l i (String.length l - i)) :: acc)
        | _, (dir, text) :: rest
          when in_lib && String.starts_with ~prefix:" " l ->
            (true, (dir, text ^ l) :: rest)
        | _ -> (false, acc))
      (false, []) block
  in
  let names text =
    let depth = ref 0 in
    let words =
      String.map
        (fun c ->
          (match c with '(' -> incr depth | ')' -> decr depth | _ -> ());
          match c with
          | ('A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_') when !depth = 0 -> c
          | _ -> ' ')
        text
    in
    String.split_on_char ' ' words
    |> List.filter (fun w -> w <> "" && w.[0] >= 'A' && w.[0] <= 'Z')
    |> List.sort compare
  in
  List.sort compare (List.map (fun (dir, text) -> (dir, names text)) entries)

let test_module_map_matches_lib () =
  let subdirs path =
    Sys.readdir path |> Array.to_list
    |> List.filter (fun d ->
           d.[0] <> '.' && Sys.is_directory (Filename.concat path d))
  in
  let modules dir =
    Sys.readdir (Filename.concat "../lib" dir) |> Array.to_list
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".ml" then
             Some (String.capitalize_ascii (Filename.chop_suffix f ".ml"))
           else None)
    |> List.sort compare
  in
  let actual =
    List.sort compare (List.map (fun d -> (d, modules d)) (subdirs "../lib"))
  in
  Alcotest.(check (list (pair string (list string))))
    "DESIGN.md section 6 lists exactly lib/'s modules" actual
    (module_map_entries ())

(* ------------------------------------------------------------------ *)
(* DESIGN.md §3 experiment index                                      *)
(* ------------------------------------------------------------------ *)

(* lib/'s libraries as (dune name, directory). *)
let library_dirs () =
  Sys.readdir "../lib" |> Array.to_list
  |> List.filter_map (fun dir ->
         let dune = Filename.concat (Filename.concat "../lib" dir) "dune" in
         if not (Sys.file_exists dune) then None
         else
           In_channel.with_open_text dune In_channel.input_all
           |> String.split_on_char '('
           |> List.find_map (fun s ->
                  match String.split_on_char ')' s with
                  | field :: _ when String.starts_with ~prefix:"name " field ->
                      let name = String.sub field 5 (String.length field - 5) in
                      Some (String.trim name, dir)
                  | _ -> None))

(* Every backticked [lib.Module...] (or wrapped [Lib.Module...]) in §3
   whose first segment names a library of lib/, as (library, Module). *)
let experiment_index_refs libs =
  let ident = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  design_lines ()
  |> drop_to (String.starts_with ~prefix:"## 3. ")
  |> take_to (String.starts_with ~prefix:"## 4. ")
  |> String.concat "\n" |> String.split_on_char '`'
  |> List.filteri (fun i _ -> i mod 2 = 1)
  |> List.filter_map (fun span ->
         match String.split_on_char '.' span with
         | lib :: m :: _
           when String.for_all ident lib && String.for_all ident m
                && m <> "" && m.[0] >= 'A' && m.[0] <= 'Z'
                && List.mem_assoc (String.lowercase_ascii lib) libs ->
             Some (String.lowercase_ascii lib, m)
         | _ -> None)

let test_experiment_index_modules_exist () =
  let libs = library_dirs () in
  let refs = experiment_index_refs libs in
  Alcotest.(check bool)
    "section 3 names lib modules" true
    (List.length refs >= 10);
  let missing =
    List.filter
      (fun (lib, m) ->
        let dir = List.assoc lib libs in
        not
          (Sys.file_exists
             (Filename.concat (Filename.concat "../lib" dir)
                (String.uncapitalize_ascii m ^ ".ml"))))
      refs
  in
  Alcotest.(check (list string))
    "every module DESIGN.md section 3 names exists" []
    (List.map (fun (lib, m) -> lib ^ "." ^ m) missing)

(* ------------------------------------------------------------------ *)
(* results/MANIFEST.tsv: every artifact, its command and its clock     *)
(* ------------------------------------------------------------------ *)

let manifest_name = "MANIFEST.tsv"

(* (file, clock, command) per line that is neither blank nor a comment. *)
let manifest () =
  In_channel.with_open_text ("../results/" ^ manifest_name)
    In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | file :: clock :: command :: _ -> (file, clock, command)
         | _ -> Alcotest.failf "manifest line %S lacks a field" l)

(* Every file under results/ is listed once with a known clock, and
   every virtual-clock file is regenerated and cmp-ed by CI. *)
let test_results_manifest () =
  let entries = manifest () in
  let listed = List.map (fun (f, _, _) -> f) entries in
  let files =
    Sys.readdir "../results" |> Array.to_list
    |> List.filter (fun f -> f <> manifest_name)
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "every results/ file listed once" files
    (List.sort String.compare listed);
  let cmp_lines =
    In_channel.with_open_text "../.github/workflows/ci.yml"
      In_channel.input_all
    |> String.split_on_char '\n' |> List.map String.trim
    |> List.filter (String.starts_with ~prefix:"cmp ")
  in
  List.iter
    (fun (file, clock, command) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: clock %S is virtual or host" file clock)
        true
        (clock = "virtual" || clock = "host");
      Alcotest.(check bool)
        (Printf.sprintf "%s: the command writes it" file)
        true
        (find_sub command ("results/" ^ file) 0 <> None);
      if clock = "virtual" then
        Alcotest.(check bool)
          (Printf.sprintf "%s: CI cmp-s it" file)
          true
          (List.exists
             (String.ends_with ~suffix:(" results/" ^ file))
             cmp_lines))
    entries

(* ------------------------------------------------------------------ *)
(* One wait path                                                       *)
(* ------------------------------------------------------------------ *)

(* Every .ml and .mli file under [../root], as (path relative to
   [root], contents) sorted by path; [_build] and dot directories are
   skipped. *)
let sources root =
  let base = Filename.concat ".." root in
  let rec walk rel =
    Sys.readdir (Filename.concat base rel) |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let rel = if rel = "" then f else Filename.concat rel f in
           let path = Filename.concat base rel in
           if f.[0] = '.' || f.[0] = '_' then []
           else if Sys.is_directory path then walk rel
           else if
             Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
           then [ (rel, In_channel.with_open_text path In_channel.input_all) ]
           else [])
  in
  walk ""

(* A source's top-level definitions as (name, text), each running from
   a line that opens with [let] or [and] to the next such line. *)
let definitions src =
  let name l =
    match String.split_on_char ' ' l with
    | ("let" | "and") :: "rec" :: n :: _ | ("let" | "and") :: n :: _ -> Some n
    | _ -> None
  in
  String.split_on_char '\n' src
  |> List.fold_left
       (fun acc l ->
         match (name l, acc) with
         | Some n, _ -> (n, [ l ]) :: acc
         | None, (n, ls) :: rest -> (n, l :: ls) :: rest
         | None, [] -> acc)
       []
  |> List.rev_map (fun (n, ls) -> (n, String.concat "\n" (List.rev ls)))

let mentions s sub = find_sub s sub 0 <> None

(* Blocking has one path: every wait suspends through [Mpi.poll_until]
   (plain code too) or the spawn rendezvous, no spin bound is left, and
   RMA makes a request in one place and exchanges per-peer values in
   one place. *)
let test_one_wait_path () =
  let files = sources "lib" in
  Alcotest.(check bool) "lib/ has sources" true (List.length files > 50);
  let defining (file, src) sub =
    definitions src
    |> List.filter_map (fun (n, text) ->
           if mentions text sub then Some (file ^ ": " ^ n) else None)
  in
  Alcotest.(check (list string))
    "Fiber.wait_until callers"
    [ "mpi/dynamic.ml: spawn"; "mpi/mpi.ml: poll_until" ]
    (List.concat_map
       (fun ((f, _) as file) ->
         if Filename.check_suffix f ".ml" then defining file "Fiber.wait_until"
         else [])
       files);
  List.iter
    (fun banned ->
      Alcotest.(check (list string))
        (banned ^ " in lib/") []
        (List.filter_map
           (fun (f, src) -> if mentions src banned then Some f else None)
           files))
    [ "No_progress"; "1_000_000" ];
  let rma = definitions (List.assoc "mpi/rma.ml" files) in
  let with_both a b =
    List.filter_map
      (fun (n, text) -> if mentions text a && mentions text b then Some n else None)
      rma
  in
  Alcotest.(check (list string)) "rma.ml sends to tag_ops in" [ "call" ]
    (with_both "Ch3.isend" "tag_ops");
  Alcotest.(check (list string)) "rma.ml waits on a request set in"
    [ "exchange" ]
    (with_both "Mpi.wait_all" "Ch3.irecv")

(* Every MPI workload is written once, in the catalogue: the explorer
   builds no world and writes no ring of its own, the harness drivers run
   no MPI world of their own, and every MPI world in lib/check/ starts
   through [Mpi.launch]. *)
let test_one_workload_catalogue () =
  let files = sources "lib" in
  List.iter
    (fun (file, banned) ->
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "%s mentions %s" file sub)
            false
            (mentions (List.assoc file files) sub))
        banned)
    [
      ("check/explore.ml", [ "Mpi.create_world"; "sendrecv" ]);
      ("harness/workloads.ml", [ "Mpi.run"; "Mpi.sendrecv" ]);
    ];
  Alcotest.(check (list string))
    "lib/check/ files that start fibers with ~pending" []
    (List.filter_map
       (fun (f, src) ->
         if
           String.starts_with ~prefix:"check/" f
           && mentions src "Fiber.run ~pending"
         then Some f
         else None)
       files)

(* ------------------------------------------------------------------ *)
(* Every export has a user                                             *)
(* ------------------------------------------------------------------ *)

(* A source file as a token stream, with comments, strings, character
   literals, labels, polymorphic variants and record fields dropped. *)
type token =
  | Word of string list  (** an identifier or dotted path *)
  | Local_open of string list  (** [M.( ... )], [M.[ ... ]], [M.{ ... }] *)
  | Sym of char

let is_ident_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_ident_start = function
  | 'A' .. 'Z' | 'a' .. 'z' | '_' -> true
  | _ -> false

let capitalised s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

let tokens src =
  let n = String.length src in
  let at i = if i < n then src.[i] else ' ' in
  let rec ident i =
    if i < n && is_ident_char src.[i] then ident (i + 1) else i
  in
  let rec string_end i =
    if i >= n then n
    else
      match src.[i] with
      | '"' -> i + 1
      | '\\' -> string_end (i + 2)
      | _ -> string_end (i + 1)
  in
  let rec comment_end depth i =
    if i >= n then n
    else
      match (src.[i], at (i + 1)) with
      | '(', '*' -> comment_end (depth + 1) (i + 2)
      | '*', ')' -> if depth = 1 then i + 2 else comment_end (depth - 1) (i + 2)
      | '"', _ -> comment_end depth (string_end (i + 1))
      | _ -> comment_end depth (i + 1)
  in
  (* [{id|...|id}] starting at [i], if that is what is there. *)
  let quoted_end i =
    let j = ident (i + 1) in
    if at j <> '|' then None
    else
      let close = "|" ^ String.sub src (i + 1) (j - i - 1) ^ "}" in
      Some
        (match find_sub src close j with
        | Some k -> k + String.length close
        | None -> n)
  in
  (* A path of [.]-separated components starting at [i]: a word, or a
     local open when a capitalised prefix is followed by [.(]. *)
  let rec path i comps =
    let j = ident i in
    let comps = String.sub src i (j - i) :: comps in
    if capitalised (List.hd comps) && at j = '.' then
      if is_ident_start (at (j + 1)) then path (j + 1) comps
      else if String.contains "([{" (at (j + 1)) then
        (Local_open (List.rev comps), j + 1)
      else (Word (List.rev comps), j + 1)
    else (Word (List.rev comps), j)
  in
  let rec skip_path i =
    let j = ident i in
    if j > i && at j = '.' then skip_path (j + 1) else j
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match src.[i] with
      | '(' when at (i + 1) = '*' -> go (comment_end 1 (i + 2)) acc
      | '"' -> go (string_end (i + 1)) acc
      | '{' when quoted_end i <> None -> go (Option.get (quoted_end i)) acc
      | '\'' when at (i + 1) = '\\' ->
          let close = String.index_from_opt src (i + 3) '\'' in
          go (Option.fold ~none:n ~some:succ close) acc
      | '\'' when at (i + 2) = '\'' -> go (i + 3) acc
      (* Type variables, labels, variants, methods and record fields
         name no value. *)
      | '\'' | '~' | '?' | '`' | '#' -> go (ident (i + 1)) acc
      | '.' -> go (skip_path (i + 1)) acc
      | '0' .. '9' -> go (skip_path i) acc
      | c when is_ident_start c ->
          let tok, j = path i [] in
          go j (tok :: acc)
      | ' ' | '\n' | '\t' | '\r' -> go (i + 1) acc
      | c -> go (i + 1) (Sym c :: acc)
  in
  go 0 []

(* The values an interface declares, as paths below its own module:
   [["progress"]], or [["Handle"; "get"]] for a nested signature.
   Values of a [module type] are not exports. *)
let declared_values src =
  let rec go toks stack pending acc =
    match toks with
    | [] -> List.rev acc
    | Word [ "module" ] :: Word [ "type" ] :: rest -> go rest stack None acc
    | Word [ "module" ] :: Word [ m ] :: rest -> go rest stack (Some m) acc
    | Word [ "sig" ] :: rest -> go rest (pending :: stack) None acc
    | Word [ "end" ] :: rest -> go rest (List.tl stack) None acc
    | Word [ ("val" | "external") ] :: Word [ v ] :: rest ->
        let acc =
          if List.mem None stack then acc
          else (List.rev_map Option.get stack @ [ v ]) :: acc
        in
        go rest stack None acc
    | _ :: rest -> go rest stack pending acc
  in
  go (tokens src) [] None []

(* Every dotted name an implementation uses a value by — [Ch3.progress]
   and [Mpi_core.Ch3.progress] for a use of [Mpi_core.Ch3.progress] —
   resolving module aliases ([module C = Check.Catalogue]) and opens
   ([open M], [let open M in], [M.( ... )]: a bare name in such a file
   may be the opened module's). *)
let value_names src =
  let toks = tokens src in
  let aliases =
    let rec go acc = function
      | Word [ "module" ] :: Word [ a ] :: Sym '=' :: Word p :: rest
        when List.for_all capitalised p ->
          go ((a, p) :: acc) rest
      | _ :: rest -> go acc rest
      | [] -> acc
    in
    go [] toks
  in
  let expand = function
    | a :: rest as p -> (
        match List.assoc_opt a aliases with Some q -> q @ rest | None -> p)
    | [] -> []
  in
  let opens =
    let rec go acc = function
      | Word [ ("open" | "include") ] :: Sym '!' :: Word p :: rest
      | Word [ ("open" | "include") ] :: Word p :: rest
      | Local_open p :: rest ->
          go (expand p :: acc) rest
      | _ :: rest -> go acc rest
      | [] -> acc
    in
    go [] toks
  in
  let names = Hashtbl.create 1024 in
  let rec add_suffixes = function
    | _ :: (_ :: _ as rest) as p ->
        Hashtbl.replace names (String.concat "." p) ();
        add_suffixes rest
    | _ -> ()
  in
  List.iter
    (function
      | Word p when not (capitalised (List.nth p (List.length p - 1))) ->
          let qualified = if List.length p > 1 then [ p; expand p ] else [] in
          List.iter add_suffixes
            (qualified @ List.map (fun o -> o @ p) opens)
      | _ -> ())
    toks;
  names

(* Each interface's values as (["Ch3.progress"], the module's own
   implementation file). *)
let exports interfaces =
  List.concat_map
    (fun (file, src) ->
      let m =
        String.capitalize_ascii
          (Filename.chop_suffix (Filename.basename file) ".mli")
      in
      let own = Filename.chop_suffix file ".mli" ^ ".ml" in
      List.map
        (fun p -> (String.concat "." (m :: p), own))
        (declared_values src))
    interfaces

(* The exports that no implementation outside their own module names. *)
let unused_exports ~interfaces ~implementations =
  let users =
    List.map (fun (file, src) -> (file, value_names src)) implementations
  in
  List.filter_map
    (fun (v, own) ->
      if List.exists (fun (f, names) -> f <> own && Hashtbl.mem names v) users
      then None
      else Some v)
    (exports interfaces)

let export_roots = [ "lib"; "bin"; "examples"; "benchmark"; "tools" ]

let program_sources () =
  List.concat_map
    (fun root ->
      List.map (fun (f, src) -> (Filename.concat root f, src)) (sources root))
    export_roots

let with_suffix suffix =
  List.filter (fun (f, _) -> Filename.check_suffix f suffix)

(* Why an export no program code uses stays exported. *)
type reason =
  | Api  (** MPI or managed API surface that DESIGN.md §2 lists *)
  | Test_hook  (** an oracle, consistency check or planted bug a test drives *)

(* The exports no program code uses that stay: each entry names one
   value, gives one reason, and some test names it. *)
let export_allow_list =
  [
    (* Point-to-point completion, wildcards and communicator management
       (DESIGN.md §2, mpi_core). *)
    ("Mpi.wait_any", Api);
    ("Mpi.wait_some", Api);
    ("Mpi.test_all", Api);
    ("Mpi.test_any", Api);
    ("Mpi.comm_dup", Api);
    ("Mpi.comm_split", Api);
    ("Mpi.shard_comm", Api);
    ("Mpi.leader_comm", Api);
    ("Mpi.is_shard_leader", Api);
    ("Tag_match.any_tag", Api);
    ("Dynamic.remote_size", Api);
    (* Groups and their set algebra. *)
    ("Group.of_ranks", Api);
    ("Group.size", Api);
    ("Group.rank_of", Api);
    ("Group.world_rank", Api);
    ("Group.members", Api);
    ("Group.excl", Api);
    ("Group.union", Api);
    ("Group.intersection", Api);
    ("Group.difference", Api);
    ("Group.equal", Api);
    ("Group.similar", Api);
    (* Cartesian topologies. *)
    ("Cart.dims_create", Api);
    ("Cart.coords", Api);
    ("Cart.rank_of_coords", Api);
    (* Persistent requests. *)
    ("Persistent.send_init", Api);
    ("Persistent.recv_init", Api);
    ("Persistent.start", Api);
    ("Persistent.start_all", Api);
    ("Persistent.wait", Api);
    ("Persistent.is_active", Api);
    (* Collectives, blocking and nonblocking. *)
    ("Collectives.alltoall", Api);
    ("Collectives.scan", Api);
    ("Collectives.reduce_scatter_block", Api);
    ("Collectives.sum_i32", Api);
    ("Collectives.iscatter", Api);
    ("Collectives.igather", Api);
    ("Collectives.iallgather", Api);
    ("Collectives.ialltoall", Api);
    ("Collectives.ireduce", Api);
    ("Collectives.iscan", Api);
    (* One-sided windows. *)
    ("Rma.size_of", Api);
    (* Rank restart: re-admit the rank, give it a fresh VM, restore its
       checkpoint. *)
    ("Mpi.revive_rank", Api);
    ("World.respawn_ctx", Api);
    ("Checkpoint.create_store", Api);
    ("Checkpoint.due", Api);
    ("Checkpoint.save", Api);
    ("Checkpoint.restore", Api);
    ("Checkpoint.digest", Api);
    (* Object-to-object transport and the System_mp managed API. *)
    ("Object_transport.ssend", Api);
    ("Object_transport.test", Api);
    ("Object_transport.wait_all", Api);
    ("System_mp.rank", Api);
    ("System_mp.size", Api);
    ("System_mp.osend_range", Api);
    ("System_mp.obcast", Api);
    ("System_mp.scatter_array", Api);
    ("System_mp.gather_array", Api);
    ("System_mp.ibarrier", Api);
    ("System_mp.ibcast", Api);
    ("System_mp.iallreduce_sum_f64", Api);
    ("System_mp.owin_create", Api);
    ("System_mp.owin_win", Api);
    ("System_mp.owin_free", Api);
    (* Declaring and naming a counter: the counter half of the registry
       whose histogram half [Coll_sched] uses (simtime's counters). *)
    ("Stats.counter", Api);
    ("Stats.counter_name", Api);
    (* The schedule explorer's planted bugs, shrinker, per-spec runner
       and trace corpus. *)
    ("Explore.planted_bug", Test_hook);
    ("Explore.rma_epoch_bug", Test_hook);
    ("Explore.planted_detector_bug", Test_hook);
    ("Explore.minimize_failure", Test_hook);
    ("Explore.check_entry", Test_hook);
    ("Corpus.to_string", Test_hook);
    ("Corpus.of_string", Test_hook);
    (* Heap and collector checks: consistency, poisoning, the live-object
       census and a collection requested from outside. *)
    ("Heap.check_consistency", Test_hook);
    ("Heap.poison_free", Test_hook);
    ("Gc.live_objects", Test_hook);
    ("Gc.request_gc", Test_hook);
    ("Gc.gc_pending", Test_hook);
    ("Object_model.md_dims", Test_hook);
    (* Oracles the serializer and buffer-pool tests compare against. *)
    ("Std_serializer.object_count", Test_hook);
    ("Buffer_pool.pooled", Test_hook);
    (* The registration cache, checked against a naive list model. *)
    ("Rdma_channel.cache", Test_hook);
    ("Rdma_channel.Cache.create", Test_hook);
    ("Rdma_channel.Cache.access", Test_hook);
    ("Rdma_channel.Cache.pin", Test_hook);
    ("Rdma_channel.Cache.unpin", Test_hook);
    ("Rdma_channel.Cache.mem", Test_hook);
    ("Rdma_channel.Cache.entries", Test_hook);
    ("Rdma_channel.Cache.registered_bytes", Test_hook);
    ("Rdma_channel.Cache.pinned_bytes", Test_hook);
    ("Rdma_channel.Cache.hits", Test_hook);
    ("Rdma_channel.Cache.misses", Test_hook);
    ("Rdma_channel.Cache.evictions", Test_hook);
    (* The tag table, the wire header and the collective-selection and
       layout predicates the tag, topology and hierarchy tests check. *)
    ("Comm.tag_ranges", Test_hook);
    ("Packet.header_bytes", Test_hook);
    ("Group.is_range", Test_hook);
    ("Collectives.hier_applicable", Test_hook);
    ("Collectives.hier_allgather_applicable", Test_hook);
    (* Failure-detector, parallel-mode and ring observations. *)
    ("Ft.state", Test_hook);
    ("Ft.detections", Test_hook);
    ("Mpi.parallelism", Test_hook);
    ("Mpi.domain_envs", Test_hook);
    ("Spsc.try_push", Test_hook);
    (* Trace and registry readers the observability tests compare
       against. *)
    ("Trace.events", Test_hook);
    ("Trace.dropped", Test_hook);
    ("Trace.open_spans", Test_hook);
    ("Stats.to_alist", Test_hook);
    ("Stats.declared_counters", Test_hook);
    ("Stats.declared_histograms", Test_hook);
  ]

(* The scanner on fixtures: nested signatures count by their path,
   module types export nothing, and a use counts through an alias, an
   [open], a local open or any qualifying prefix, but not from a comment,
   a string or the module's own file. *)
let test_export_scanner () =
  let foo =
    {|
val a : int
val b : int -> int (* val hidden : int *)
val c : int
val d : string
val e : int
module X : sig
  val f : int
  module Y : sig val g : int end
end
module type S = sig val not_exported : int end
external h : int -> int = "h"
|}
  in
  Alcotest.(check (list (list string)))
    "declared values"
    [ [ "a" ]; [ "b" ]; [ "c" ]; [ "d" ]; [ "e" ]; [ "X"; "f" ];
      [ "X"; "Y"; "g" ]; [ "h" ] ]
    (declared_values foo);
  let implementations =
    [
      ("lib/p/alias.ml", "module A = P.Foo\nlet _ = A.a");
      ("lib/p/opened.ml", "open P.Foo\nlet _ = b 1");
      ("lib/p/local.ml", "let _ = P.Foo.(c + X.Y.g)");
      ("lib/p/nested.ml", "let _ = Lib.P.Foo.X.f");
      ( "lib/p/quoted.ml",
        "open P.Foo\n\
         (* Foo.d *) let _ = \"Foo.d\" ^ {|Foo.d|} ^ String.make 1 'e'" );
      ("lib/p/foo.ml", "let e = 1 let _ = d, e, h");
    ]
  in
  Alcotest.(check (list string))
    "unused" [ "Foo.d"; "Foo.e"; "Foo.h" ]
    (unused_exports ~interfaces:[ ("lib/p/foo.mli", foo) ] ~implementations);
  (* Exports removed as unused stay reported if they come back: the
     parent commit's declarations, against today's implementations. *)
  let returning =
    [
      ("lib/mpi/ch3.mli", "val peer_dead : t -> int -> bool");
      ( "lib/mpi/ft.mli",
        "val declare_dead : t -> int -> unit\nval pending_detection : t -> bool"
      );
      ( "lib/mpi/collectives.mli",
        "val bcast_algo_for :\n\
        \  Simtime.Cost.t -> n:int -> bytes:int -> [ `Binomial | \
         `Scatter_allgather ]" );
      ("lib/vm/heap.mli", "val set_mt_id : t -> addr -> int -> unit");
      ("lib/vm/il.mli", "val pp_instr : Format.formatter -> instr -> unit");
      ("lib/simtime/cost.mli", "val with_build : build -> t -> t");
    ]
  in
  Alcotest.(check (list string))
    "the parent's dead exports"
    [ "Ch3.peer_dead"; "Ft.declare_dead"; "Ft.pending_detection";
      "Collectives.bcast_algo_for"; "Heap.set_mt_id"; "Il.pp_instr";
      "Cost.with_build" ]
    (unused_exports ~interfaces:returning
       ~implementations:(with_suffix ".ml" (program_sources ())))

let test_every_export_has_a_user () =
  let program = program_sources () in
  let interfaces =
    List.filter
      (fun (f, _) -> String.starts_with ~prefix:"lib/" f)
      (with_suffix ".mli" program)
  in
  let declared = List.map fst (exports interfaces) in
  Alcotest.(check bool) "lib/ declares values" true
    (List.length declared > 500);
  let unused =
    unused_exports ~interfaces ~implementations:(with_suffix ".ml" program)
  in
  let allowed = List.map fst export_allow_list in
  let test_names =
    List.map
      (fun (_, src) -> value_names src)
      (with_suffix ".ml" (sources "test"))
  in
  let not_in l = List.filter (fun v -> not (List.mem v l)) in
  Alcotest.(check (list string)) "exports no program code uses" []
    (not_in allowed unused);
  Alcotest.(check (list string)) "allow-list entries that name no value" []
    (not_in declared allowed);
  Alcotest.(check (list string)) "allow-list entries with a program user" []
    (not_in unused (List.filter (fun v -> List.mem v declared) allowed));
  Alcotest.(check (list string)) "allow-list entries no test names" []
    (List.filter
       (fun v ->
         not (List.exists (fun names -> Hashtbl.mem names v) test_names))
       allowed);
  Alcotest.(check (list string)) "allow-list entries listed twice" []
    (List.filter (fun v -> occurrences v allowed > 1) allowed)

let () =
  Alcotest.run "tools"
    [
      ( "gate",
        [
          Alcotest.test_case "malformed json" `Quick test_gate_malformed_json;
          Alcotest.test_case "stats round trip" `Quick
            test_gate_stats_round_trip;
          Alcotest.test_case "speedup ratio" `Quick test_speedup_ratio;
          Alcotest.test_case "speedup cores guard" `Quick
            test_speedup_skipped_on_small_machines;
        ] );
      ( "stats registry",
        [
          Alcotest.test_case "profile snapshot names are declared" `Quick
            test_registry_covers_profile_snapshot;
          Alcotest.test_case "Key names are distinct" `Quick
            test_key_names_distinct;
          Alcotest.test_case "re-declaring as the other kind raises" `Quick
            test_redeclare_other_kind_raises;
          Alcotest.test_case "concurrent declarations share slots" `Quick
            test_concurrent_declarations_share_slots;
        ] );
      ( "csv",
        [
          Alcotest.test_case "creates missing directories" `Quick
            test_csv_creates_missing_dirs;
        ] );
      ( "design",
        [
          Alcotest.test_case "module map matches lib" `Quick
            test_module_map_matches_lib;
          Alcotest.test_case "experiment index names real modules" `Quick
            test_experiment_index_modules_exist;
          Alcotest.test_case "results manifest is complete" `Quick
            test_results_manifest;
          Alcotest.test_case "blocking has one wait path" `Quick
            test_one_wait_path;
          Alcotest.test_case "one workload catalogue" `Quick
            test_one_workload_catalogue;
          Alcotest.test_case "every export has a user" `Quick
            test_every_export_has_a_user;
          Alcotest.test_case "export scanner" `Quick test_export_scanner;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records device events" `Quick
            test_trace_records_device_events;
          Alcotest.test_case "off by default" `Quick test_trace_off_by_default;
          Alcotest.test_case "ring buffer drops oldest" `Quick
            test_trace_ring_buffer_drops_oldest;
          Alcotest.test_case "rendezvous handshake sequence" `Quick
            test_trace_rendezvous_sequence;
        ] );
      ( "chart",
        [
          Alcotest.test_case "renders series with legend" `Quick
            test_chart_renders_series;
          Alcotest.test_case "empty series" `Quick test_chart_empty_series;
          Alcotest.test_case "non-positive values skipped" `Quick
            test_chart_skips_nonpositive;
        ] );
    ]
