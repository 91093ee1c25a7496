let create ?topo env ~n_ranks =
  let cost = env.Simtime.Env.cost in
  (* One cost tier: shared memory is intra-node by construction, so the
     topology only feeds the per-tier traffic counters. *)
  Channel.make ~name:"shm" ~per_msg_ns:cost.shm_per_msg_ns
    ~per_byte_ns:cost.shm_ns_per_byte ?topo ~syscall_fraction:0.5 ~env
    ~n_ranks ()

(* ------------------------------------------------------------------ *)
(* Sharded cross-domain variant                                        *)
(* ------------------------------------------------------------------ *)

(* A Channel.t whose transport is real shared memory between OCaml 5
   domains: one SPSC ring per (src, dst) pair, so two domains exchanging
   messages touch only their own rings — sends never funnel through a
   process-wide lock. There is no virtual arrival gating (wall-clock
   replaces the latency model when execution is parallel); the sender
   still charges its own domain's clock the modelled CPU cost and counts
   traffic into its own domain's stats, so per-domain virtual accounting
   stays meaningful and the merged snapshot is comparable with
   cooperative runs.

   Ordering: per-(src,dst) FIFO holds trivially (one ring per pair);
   cross-pair ordering is whatever real time gives, exactly as between
   two sockets. The receiver's poll rotates a cursor over source rings
   so no sender is starved. *)

let max_parallel_ranks = 4096
let ring_capacity = 1024

let create_parallel ~env_for ~n_ranks =
  if n_ranks < 1 then invalid_arg "shm-sharded channel: need at least 1 rank";
  if n_ranks > max_parallel_ranks then
    invalid_arg
      (Printf.sprintf
         "shm-sharded channel: %d ranks exceeds the %d limit (rings are \
          allocated per pair)"
         n_ranks max_parallel_ranks);
  let rings =
    Array.init n_ranks (fun _ ->
        Array.init n_ranks (fun _ -> Spsc.create ~capacity:ring_capacity))
  in
  (* cursors.(r) is touched only by rank r's domain. *)
  let cursors = Array.make n_ranks 0 in
  let send ~src ~dst packet =
    if dst < 0 || dst >= n_ranks then
      invalid_arg
        (Printf.sprintf "shm-sharded channel: bad destination %d" dst);
    let env : Simtime.Env.t = env_for src in
    let cost = env.Simtime.Env.cost in
    let wire = Packet.wire_bytes packet in
    let frags = max 1 ((wire + cost.mtu_bytes - 1) / cost.mtu_bytes) in
    Simtime.Env.charge env
      (0.5 *. cost.shm_per_msg_ns *. float_of_int frags);
    Simtime.Env.count env Simtime.Stats.Key.msgs_sent;
    Simtime.Env.count_n env Simtime.Stats.Key.bytes_sent wire;
    Spsc.push rings.(src).(dst) packet;
    Fiber.note_activity ();
    Fiber.notify_fiber dst
  in
  let poll ~rank =
    if rank < 0 || rank >= n_ranks then
      invalid_arg (Printf.sprintf "shm-sharded channel: bad rank %d" rank);
    let start = cursors.(rank) in
    let found = ref None in
    (try
       for k = 0 to n_ranks - 1 do
         let src = (start + k) mod n_ranks in
         match Spsc.pop rings.(src).(rank) with
         | Some p ->
             cursors.(rank) <- (src + 1) mod n_ranks;
             found := Some p;
             raise Exit
         | None -> ()
       done
     with Exit -> ());
    (match !found with Some _ -> Fiber.note_activity () | None -> ());
    !found
  in
  let add_rank () =
    invalid_arg "shm-sharded channel: dynamic ranks not supported in parallel mode"
  in
  {
    Channel.name = "shm-sharded";
    send;
    poll;
    next_arrival = (fun ~rank:_ -> None);
    add_rank;
    n_ranks = (fun () -> n_ranks);
  }
