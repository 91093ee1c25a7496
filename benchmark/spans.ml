(* Host-clock spans for the traced rep.

   The benchmark wraps every public call it makes into Motor in a span, and
   a Probe sink stamps the library's own sync spans (gc/*, ser/*, the CH3
   eager send) with the same monotonic clock. Spans stay in memory until
   the rep ends.

   Self time comes from one timeline, not from per-span subtraction: in a
   cooperative world one host thread runs every rank, so each interval
   between two consecutive events belongs to exactly one place. It goes to

   - the innermost open GC or serializer span, if any (these carry no
     rank, and nothing else runs while they are open);
   - idle polling when every unfinished rank sits in a blocking receive
     and no library span is open (the scheduler is spinning progress
     pumps until virtual time reaches the next arrival);
   - otherwise the innermost open span of the rank that emitted the last
     event;
   - nowhere ("gap") when that rank has no open span.

   The parts therefore sum to the rep's wall time minus the gap, which is
   what the parts-sum-to-whole check bounds. Only cooperative worlds are
   traced: on several domains there is no single timeline. *)

type name =
  | World
  | Build
  | Verify
  | Ot_send
  | Ot_recv
  | Osend
  | Orecv
  | Allreduce_8B
  | Allreduce_64KiB
  | Bcast_64KiB
  | Sendrecv
  | Gc_young
  | Gc_full
  | Ser_encode
  | Ser_decode
  | Ch3_eager

let names =
  [|
    World; Build; Verify; Ot_send; Ot_recv; Osend; Orecv; Allreduce_8B;
    Allreduce_64KiB; Bcast_64KiB; Sendrecv; Gc_young; Gc_full; Ser_encode;
    Ser_decode; Ch3_eager;
  |]

let index = function
  | World -> 0
  | Build -> 1
  | Verify -> 2
  | Ot_send -> 3
  | Ot_recv -> 4
  | Osend -> 5
  | Orecv -> 6
  | Allreduce_8B -> 7
  | Allreduce_64KiB -> 8
  | Bcast_64KiB -> 9
  | Sendrecv -> 10
  | Gc_young -> 11
  | Gc_full -> 12
  | Ser_encode -> 13
  | Ser_decode -> 14
  | Ch3_eager -> 15

(* Every label is a fixed identifier, so the JSON writers below never need
   to escape anything. *)
let label = function
  | World -> "world"
  | Build -> "app.build"
  | Verify -> "app.verify"
  | Ot_send -> "ot.send"
  | Ot_recv -> "ot.recv"
  | Osend -> "smp.osend"
  | Orecv -> "smp.orecv"
  | Allreduce_8B -> "coll.allreduce_8B"
  | Allreduce_64KiB -> "coll.allreduce_64KiB"
  | Bcast_64KiB -> "coll.bcast_64KiB"
  | Sendrecv -> "mpi.sendrecv"
  | Gc_young -> "gc/young"
  | Gc_full -> "gc/full"
  | Ser_encode -> "ser/encode"
  | Ser_decode -> "ser/decode"
  | Ch3_eager -> "ch3/eager"

(* The layer (DESIGN.md section 7 naming) a span's self time belongs to. *)
let layer = function
  | World -> "setup"
  | Build | Verify -> "app"
  | Ot_send | Ot_recv -> "transport"
  | Osend | Orecv -> "oo"
  | Allreduce_8B | Allreduce_64KiB | Bcast_64KiB -> "coll"
  | Sendrecv -> "p2p"
  | Gc_young | Gc_full -> "gc"
  | Ser_encode | Ser_decode -> "ser"
  | Ch3_eager -> "ch3"

let blocking = function Ot_recv | Orecv | Sendrecv -> true | _ -> false

let of_probe ~cat ~name =
  match (cat, name) with
  | "gc", "gc/young" -> Some Gc_young
  | "gc", "gc/full" -> Some Gc_full
  | "ser", "ser/encode" -> Some Ser_encode
  | "ser", "ser/decode" -> Some Ser_decode
  | "ch3", "eager" -> Some Ch3_eager
  | _ -> None

let now () = Int64.to_int (Monotonic_clock.now ())

(* One lane per rank plus one for the driver. Spans are stored flat,
   [stride] ints each: name, start, end, step, parent. *)
let stride = 5

type lane = {
  mutable data : int array;
  mutable len : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable finished : bool;
}

type t = {
  lanes : lane array;
  ranks : int;
  self : int array;  (** ns per name *)
  mutable idle : int;
  mutable gap : int;
  mutable cur : int;
  mutable last : int;
  mutable busy : int;  (** unfinished ranks not in a blocking receive *)
  mutable finished : int;
  mutable runtime : (int * int) list;
      (** open rank-less library spans, innermost first: lane, name *)
  t_start : int;
  mutable t_stop : int;
}

let active : t option ref = ref None
let recording () = Option.is_some !active

let start ~ranks =
  let t0 = now () in
  active :=
    Some
      {
        lanes =
          Array.init (ranks + 1) (fun _ ->
              { data = Array.make (stride * 1024) 0; len = 0; stack = []; finished = false });
        ranks;
        self = Array.make (Array.length names) 0;
        idle = 0;
        gap = 0;
        cur = ranks;
        last = t0;
        busy = ranks;
        finished = 0;
        runtime = [];
        t_start = t0;
        t_stop = t0;
      }

let driver t = t.ranks
let name_of l i = names.(l.data.(i * stride))

let quiet t li =
  let l = t.lanes.(li) in
  li < t.ranks
  && (l.finished || match l.stack with i :: _ -> blocking (name_of l i) | [] -> false)

let advance t stamp =
  let dt = stamp - t.last in
  t.last <- stamp;
  let charge k = t.self.(k) <- t.self.(k) + dt in
  match t.runtime with
  | (_, k) :: _ -> charge k
  | [] -> (
      if t.busy = 0 && t.finished < t.ranks then t.idle <- t.idle + dt
      else
        let l = t.lanes.(t.cur) in
        match l.stack with i :: _ -> charge l.data.(i * stride) | [] -> t.gap <- t.gap + dt)

(* Run [change] on lane [li] at [stamp], keeping the timeline's idle count
   in step with the lane's quiet state. *)
let on_lane t li stamp change =
  advance t stamp;
  let before = quiet t li in
  change t.lanes.(li);
  let after = quiet t li in
  if before && not after then t.busy <- t.busy + 1
  else if after && not before then t.busy <- t.busy - 1;
  t.cur <- li

let push t li name ~step stamp =
  on_lane t li stamp (fun l ->
      if (l.len + 1) * stride > Array.length l.data then begin
        let grown = Array.make (2 * Array.length l.data) 0 in
        Array.blit l.data 0 grown 0 (l.len * stride);
        l.data <- grown
      end;
      let i = l.len in
      let base = i * stride in
      l.data.(base) <- index name;
      l.data.(base + 1) <- stamp;
      l.data.(base + 2) <- -1;
      l.data.(base + 3) <- step;
      l.data.(base + 4) <- (match l.stack with p :: _ -> p | [] -> -1);
      l.len <- i + 1;
      l.stack <- i :: l.stack)

let pop t li stamp =
  on_lane t li stamp (fun l ->
      match l.stack with
      | i :: rest ->
          l.data.((i * stride) + 2) <- stamp;
          l.stack <- rest
      | [] -> ())

let span ~lane ~step name f =
  match !active with
  | None -> f ()
  | Some t -> (
      push t lane name ~step (now ());
      match f () with
      | v ->
          pop t lane (now ());
          v
      | exception e ->
          pop t lane (now ());
          raise e)

(* The lane a rank-less event belongs to: the rank that emitted the last
   event, or, when that rank has finished, the first one still running. *)
let running t =
  if t.cur < t.ranks && not t.lanes.(t.cur).finished then t.cur
  else
    let rec first r = if r >= t.ranks || not t.lanes.(r).finished then r else first (r + 1) in
    first 0

(* A rank's body returned: it no longer holds the timeline busy. *)
let finish ~lane =
  match !active with
  | Some t ->
      on_lane t lane (now ()) (fun l -> l.finished <- true);
      t.finished <- t.finished + 1;
      t.cur <- running t
  | None -> ()

let current_step l = match l.stack with i :: _ -> l.data.((i * stride) + 3) | [] -> -1

(* Library spans: CH3 names its rank; the GC and the serializer run on
   behalf of the running rank. Async spans (rendezvous, collective
   schedules) overlap freely and are left out. *)
let sink ~kind ~id ~rank ~cat ~name ~args:_ =
  match (!active, id, of_probe ~cat ~name) with
  | Some t, None, Some n -> (
      let stamp = now () in
      match kind with
      | Simtime.Probe.Begin ->
          let li = if rank >= 0 then rank else running t in
          push t li n ~step:(current_step t.lanes.(li)) stamp;
          if rank < 0 then t.runtime <- (li, index n) :: t.runtime
      | Simtime.Probe.End when rank >= 0 -> pop t rank stamp
      | Simtime.Probe.End -> (
          match t.runtime with
          | (li, _) :: rest ->
              pop t li stamp;
              t.runtime <- rest
          | [] -> ())
      | Simtime.Probe.Instant -> ())
  | _ -> ()

let stop () =
  match !active with
  | None -> invalid_arg "Spans.stop: not recording"
  | Some t ->
      let stamp = now () in
      advance t stamp;
      t.t_stop <- stamp;
      active := None;
      t

(* --- Summaries --- *)

let ms ns = float_of_int ns /. 1e6
let wall_ms t = ms (t.t_stop - t.t_start)
let self_ms t name = ms t.self.(index name)
let idle_ms t = ms t.idle

let covered t =
  let wall = t.t_stop - t.t_start in
  if wall <= 0 then 1.0 else 1.0 -. (float_of_int t.gap /. float_of_int wall)

(* Inclusive durations (us) of the closed spans of [name] on one lane. *)
let durations_us t ~lane name =
  let l = t.lanes.(lane) in
  let k = index name in
  let out = ref [] in
  for i = l.len - 1 downto 0 do
    let b = i * stride in
    if l.data.(b) = k && l.data.(b + 2) >= 0 then
      out := (float_of_int (l.data.(b + 2) - l.data.(b + 1)) /. 1e3) :: !out
  done;
  Array.of_list !out

let layers t =
  let acc = Hashtbl.create 16 in
  Array.iter
    (fun n ->
      let l = layer n in
      let prev = Option.value (Hashtbl.find_opt acc l) ~default:0 in
      Hashtbl.replace acc l (prev + t.self.(index n)))
    names;
  List.sort compare (Hashtbl.fold (fun l ns xs -> (l, ms ns) :: xs) acc [])

let write_layers t ~workload path =
  let oc = open_out path in
  Printf.fprintf oc "{\"workload\": \"%s\", \"wall_ms\": %.3f, \"covered\": %.4f,\n"
    workload (wall_ms t) (covered t);
  Printf.fprintf oc " \"idle_ms\": %.3f, \"gap_ms\": %.3f,\n" (idle_ms t) (ms t.gap);
  Printf.fprintf oc " \"layers\": {%s},\n"
    (String.concat ", "
       (List.map (fun (l, v) -> Printf.sprintf "\"%s\": %.3f" l v) (layers t)));
  Printf.fprintf oc " \"spans\": {%s}}\n"
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun n -> Printf.sprintf "\"%s\": %.3f" (label n) (self_ms t n))
             names)));
  close_out oc

(* Chrome trace-event format (loads in Perfetto). A full rep holds
   hundreds of thousands of spans, so only the first [chrome_steps] steps
   (and the set-up/verification spans outside any step) are written; the
   layer summary covers the whole rep. *)
let chrome_steps = 100

let write_chrome t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  let first = ref true in
  let sep () = if !first then first := false else output_string oc ",\n" in
  Array.iteri
    (fun li l ->
      sep ();
      if li = driver t then
        Printf.fprintf oc
          "{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \"thread_name\", \
           \"args\": {\"name\": \"driver\"}}"
          li
      else
        Printf.fprintf oc
          "{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \"thread_name\", \
           \"args\": {\"name\": \"rank %d\"}}"
          li li;
      for i = 0 to l.len - 1 do
        let b = i * stride in
        let step = l.data.(b + 3) in
        if l.data.(b + 2) >= 0 && step < chrome_steps then begin
          let n = names.(l.data.(b)) in
          sep ();
          Printf.fprintf oc
            "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": \"%s\", \"cat\": \
             \"%s\", \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"step\": %d, \
             \"span\": %d, \"parent\": %d}}"
            li (label n) (layer n)
            (float_of_int (l.data.(b + 1) - t.t_start) /. 1e3)
            (float_of_int (l.data.(b + 2) - l.data.(b + 1)) /. 1e3)
            step i l.data.(b + 4)
        end
      done)
    t.lanes;
  output_string oc "\n]}\n";
  close_out oc
