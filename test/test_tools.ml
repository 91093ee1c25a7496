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
  Alcotest.(check bool) "no trace attached" true (Trace.find env = None);
  (* Recording without a trace must be a harmless no-op. *)
  Trace.record env ~rank:0 ~op:"x" ~detail:(fun () -> "y")

let test_trace_ring_buffer_drops_oldest () =
  let env = Simtime.Env.create () in
  let trace = Trace.enable ~capacity:8 env in
  for i = 1 to 20 do
    Simtime.Env.charge env 1000.0;
    Trace.record env ~rank:0 ~op:"tick" ~detail:(fun () -> string_of_int i)
  done;
  Alcotest.(check int) "bounded" 8 (Trace.length trace);
  Alcotest.(check int) "dropped counted" 12 (Trace.dropped trace);
  let details = List.map (fun e -> e.Trace.detail) (Trace.events trace) in
  Alcotest.(check (list string)) "kept the newest, oldest first"
    [ "13"; "14"; "15"; "16"; "17"; "18"; "19"; "20" ]
    details;
  Trace.clear trace;
  Alcotest.(check int) "cleared" 0 (Trace.length trace)

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
    Gate.parse (Simtime.Stats.to_json (Simtime.Stats.snapshot stats))
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
    (String.starts_with ~prefix:Speedup.csv_header (read sweep));
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
