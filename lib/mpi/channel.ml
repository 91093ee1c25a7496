type t = {
  name : string;
  send : src:int -> dst:int -> Packet.t -> unit;
  poll : rank:int -> Packet.t option;
  next_arrival : rank:int -> float option;
  add_rank : unit -> int;
  n_ranks : unit -> int;
}

type inflight = {
  arrival : float;
  seq : int;  (* global send order: stable tiebreak *)
  packet : Packet.t;
}

let make ~name ~per_msg_ns ~per_byte_ns ?topo ?intra ~syscall_fraction ~env
    ~n_ranks () =
  let inboxes : inflight list ref array ref =
    ref (Array.init n_ranks (fun _ -> ref []))
  in
  let count = ref n_ranks in
  let send_seq = ref 0 in
  let last_arrival : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  let clock = env.Simtime.Env.clock in
  let cost = env.Simtime.Env.cost in
  (* Per-tier pricing: with a topology and an intra-node profile,
     same-node endpoints pay the (cheaper) intra figures; everything
     else pays this channel's base figures. *)
  let tier src dst =
    match (topo, intra) with
    | Some tp, Some (im, ib) when Simtime.Topology.same_node tp src dst ->
        (im, ib, true)
    | Some tp, _ -> (per_msg_ns, per_byte_ns, Simtime.Topology.same_node tp src dst)
    | None, _ -> (per_msg_ns, per_byte_ns, true)
  in
  let send ~src ~dst packet =
    if dst < 0 || dst >= !count then
      invalid_arg (Printf.sprintf "%s channel: bad destination %d" name dst);
    let per_msg_ns, per_byte_ns, intra_node = tier src dst in
    let wire = Packet.wire_bytes packet in
    let frags = max 1 ((wire + cost.mtu_bytes - 1) / cost.mtu_bytes) in
    (* Sender-side CPU: one syscall per fragment. *)
    Simtime.Env.charge env
      (syscall_fraction *. per_msg_ns *. float_of_int frags);
    (if topo <> None then
       if intra_node then begin
         Simtime.Env.count env Simtime.Stats.Key.msgs_intra_node;
         Simtime.Env.count_n env Simtime.Stats.Key.bytes_intra_node wire
       end
       else begin
         Simtime.Env.count env Simtime.Stats.Key.msgs_inter_node;
         Simtime.Env.count_n env Simtime.Stats.Key.bytes_inter_node wire
       end);
    let now = Simtime.Clock.now_ns clock in
    let computed = now +. per_msg_ns +. (per_byte_ns *. float_of_int wire) in
    let key = (src, dst) in
    let floor =
      match Hashtbl.find_opt last_arrival key with
      | Some t -> t +. 1.0
      | None -> 0.0
    in
    let arrival = Float.max computed floor in
    Hashtbl.replace last_arrival key arrival;
    incr send_seq;
    let entry = { arrival; seq = !send_seq; packet } in
    let inbox = !inboxes.(dst) in
    (* Insert keeping (arrival, seq) order. *)
    let rec insert = function
      | [] -> [ entry ]
      | e :: rest ->
          if
            e.arrival < entry.arrival
            || (e.arrival = entry.arrival && e.seq < entry.seq)
          then e :: insert rest
          else entry :: e :: rest
    in
    inbox := insert !inbox;
    Simtime.Env.count env Simtime.Stats.Key.msgs_sent;
    Simtime.Env.count_n env Simtime.Stats.Key.bytes_sent wire
  in
  let poll ~rank =
    if rank < 0 || rank >= !count then
      invalid_arg (Printf.sprintf "%s channel: bad rank %d" name rank);
    let inbox = !inboxes.(rank) in
    match !inbox with
    | [] -> None
    | e :: rest ->
        if e.arrival <= Simtime.Clock.now_ns clock then begin
          inbox := rest;
          Fiber.note_activity ();
          Some e.packet
        end
        else begin
          (* In flight: progress is a matter of time, not deadlock. *)
          Fiber.note_activity ();
          None
        end
  in
  (* The inbox is sorted by arrival, so its head is the next delivery. *)
  let next_arrival ~rank =
    match !(!inboxes.(rank)) with
    | [] -> Some Float.infinity
    | e :: _ -> Some e.arrival
  in
  let add_rank () =
    let rank = !count in
    let bigger = Array.init (rank + 1) (fun _ -> ref []) in
    Array.blit !inboxes 0 bigger 0 rank;
    inboxes := bigger;
    incr count;
    rank
  in
  { name; send; poll; next_arrival; add_rank; n_ranks = (fun () -> !count) }
