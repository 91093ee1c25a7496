type kind = Instant | Span_begin | Span_end

type event = {
  t_us : float;
  rank : int;
  op : string;
  detail : string;
  kind : kind;
  cat : string;
  args : (string * string) list;
  span_id : int option;
}

type t = {
  env : Simtime.Env.t;
  capacity : int;
  buf : event option array;
  mutable next : int;  (* total events ever recorded *)
  mutable open_spans : int;  (* begins minus ends, ever *)
}

let push t ev =
  t.buf.(t.next mod t.capacity) <- Some ev;
  t.next <- t.next + 1

let pp_args = function
  | [] -> ""
  | args ->
      String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) args)

(* The environment's Probe sink: spans emitted anywhere below us (GC,
   serializer, call gates) and device events ([record], an [Instant]
   whose one arg is its detail) land in one ring buffer. *)
let sink t ~kind ~id ~rank ~cat ~name ~args =
  let args = args () in
  let kind, detail, args =
    match (kind : Simtime.Probe.kind) with
    | Begin ->
        t.open_spans <- t.open_spans + 1;
        (Span_begin, pp_args args, args)
    | End ->
        t.open_spans <- t.open_spans - 1;
        (Span_end, pp_args args, args)
    | Instant -> (Instant, String.concat " " (List.map snd args), [])
  in
  push t
    {
      t_us = Simtime.Env.now_us t.env;
      rank;
      op = name;
      detail;
      kind;
      cat;
      args;
      span_id = id;
    }

let enable ?(capacity = 4096) env =
  let t =
    { env; capacity; buf = Array.make capacity None; next = 0; open_spans = 0 }
  in
  Simtime.Probe.set_sink env (sink t);
  t

let disable = Simtime.Probe.clear_sink

let record (env : Simtime.Env.t) ~rank ~op ~detail =
  match env.sink with
  | None -> ()
  | Some sink ->
      sink ~kind:Instant ~id:None ~rank ~cat:"" ~name:op ~args:(fun () ->
          [ ("detail", detail ()) ])

let open_spans t = t.open_spans
let length t = min t.next t.capacity
let dropped t = max 0 (t.next - t.capacity)

let events t =
  let n = length t in
  let start = if t.next > t.capacity then t.next mod t.capacity else 0 in
  List.init n (fun i ->
      match t.buf.((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let pp_timeline ppf t =
  List.iter
    (fun e ->
      let mark =
        match e.kind with
        | Instant -> " "
        | Span_begin -> "["
        | Span_end -> "]"
      in
      Format.fprintf ppf "%10.1fus r%-2d %s%-8s %s@." e.t_us e.rank mark e.op
        e.detail)
    (events t);
  if dropped t > 0 then
    Format.fprintf ppf "(%d earlier events dropped)@." (dropped t)

(* ------------------------------------------------------------------ *)
(* Chrome-trace (chrome://tracing / Perfetto) export                    *)
(* ------------------------------------------------------------------ *)

(* The runtime (rank -1) gets its own thread lane. *)
let tid_of_rank rank = if rank >= 0 then rank else 1000

(* A ring-buffer overflow can behead span pairs: an End whose Begin was
   overwritten, or (at the live end) a Begin whose End never happened.
   The exporter repairs both — orphan Ends are dropped, dangling Begins
   are closed at the last timestamp — so the output always loads. Sync
   spans (no id) pair per rank on a nesting stack; async spans pair on
   (cat, name, id). *)
type resolved = Keep | Drop

let to_chrome_json ?topo t =
  (* With a topology, each node becomes a Chrome process (pid = node id)
     so Perfetto groups the per-rank timelines by machine; the runtime
     lane stays with node 0. *)
  let pid_of_rank rank =
    match topo with
    | Some tp when rank >= 0 -> Simtime.Topology.node_of tp rank
    | _ -> 0
  in
  let evs = Array.of_list (events t) in
  let n = Array.length evs in
  let state = Array.make n Keep in
  let stacks : (int, (string * string * int) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let stack_of rank =
    match Hashtbl.find_opt stacks rank with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.replace stacks rank s;
        s
  in
  let async_open : (string * string * int, int) Hashtbl.t =
    Hashtbl.create 8
  in
  Array.iteri
    (fun i ev ->
      match (ev.kind, ev.span_id) with
      | Instant, _ -> ()
      | Span_begin, None ->
          let s = stack_of ev.rank in
          s := (ev.cat, ev.op, i) :: !s
      | Span_end, None -> (
          let s = stack_of ev.rank in
          match !s with
          | (cat, op, _) :: rest when cat = ev.cat && op = ev.op ->
              s := rest
          | _ -> state.(i) <- Drop)
      | Span_begin, Some id ->
          Hashtbl.replace async_open (ev.cat, ev.op, id) i
      | Span_end, Some id ->
          let key = (ev.cat, ev.op, id) in
          if Hashtbl.mem async_open key then Hashtbl.remove async_open key
          else state.(i) <- Drop)
    evs;
  let t_end =
    if n = 0 then 0.0 else (Array.fold_left (fun a e -> Float.max a e.t_us)) 0.0 evs
  in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "    "
  in
  let emit_args args =
    match args with
    | [] -> ()
    | args ->
        out ", \"args\": {";
        List.iteri
          (fun i (k, v) ->
            out "%s\"%s\": \"%s\""
              (if i = 0 then "" else ", ")
              (Simtime.Stats.json_escape k) (Simtime.Stats.json_escape v))
          args;
        out "}"
  in
  out "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  (* Name the process and each thread lane so Perfetto shows ranks, not
     bare tids. *)
  let ranks =
    Array.fold_left (fun acc e -> if List.mem e.rank acc then acc else e.rank :: acc) [] evs
    |> List.sort compare
  in
  (match topo with
  | None ->
      sep ();
      out
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
         \"args\": {\"name\": \"motor\"}}"
  | Some _ ->
      let pids =
        List.sort_uniq compare (List.map pid_of_rank ranks)
      in
      let pids = if List.mem 0 pids then pids else 0 :: pids in
      List.iter
        (fun pid ->
          sep ();
          out
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \
             \"tid\": 0, \"args\": {\"name\": \"node %d\"}}"
            pid pid)
        pids);
  List.iter
    (fun rank ->
      sep ();
      out
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": %d, \
         \"args\": {\"name\": \"%s\"}}"
        (pid_of_rank rank) (tid_of_rank rank)
        (if rank >= 0 then Printf.sprintf "rank %d" rank else "runtime"))
    ranks;
  let emit_event ?ph_override ev =
    sep ();
    let ph =
      match ph_override with
      | Some p -> p
      | None -> (
          match (ev.kind, ev.span_id) with
          | Instant, _ -> "i"
          | Span_begin, None -> "B"
          | Span_end, None -> "E"
          | Span_begin, Some _ -> "b"
          | Span_end, Some _ -> "e")
    in
    let name_field =
      if ev.kind = Instant && ev.detail <> "" && ev.args = [] then
        ev.op ^ " " ^ ev.detail
      else ev.op
    in
    out "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", \"ts\": %.3f, \
         \"pid\": %d, \"tid\": %d"
      (Simtime.Stats.json_escape name_field)
      (Simtime.Stats.json_escape (if ev.cat = "" then "event" else ev.cat))
      ph ev.t_us (pid_of_rank ev.rank) (tid_of_rank ev.rank);
    (match ev.span_id with Some id -> out ", \"id\": %d" id | None -> ());
    if ph = "i" then out ", \"s\": \"t\"";
    emit_args ev.args;
    out "}"
  in
  Array.iteri
    (fun i ev -> if state.(i) = Keep then emit_event ev)
    evs;
  (* Close dangling sync spans, innermost first. *)
  Hashtbl.iter
    (fun _rank stack ->
      List.iter
        (fun (cat, op, i) ->
          let ev = evs.(i) in
          emit_event ?ph_override:(Some "E")
            { ev with t_us = t_end; cat; op; args = []; detail = "" })
        !stack)
    stacks;
  (* Close dangling async spans. *)
  Hashtbl.iter
    (fun (_cat, _op, _id) i ->
      let ev = evs.(i) in
      emit_event ?ph_override:(Some "e") { ev with t_us = t_end; args = [] })
    async_open;
  out "\n]\n}\n";
  Buffer.contents buf
