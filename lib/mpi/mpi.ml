type world = {
  env : Simtime.Env.t;  (* domain 0's environment (the only one when
                           cooperative) *)
  envs : Simtime.Env.t array;  (* one per domain; length 1 unless parallel *)
  parallel : int option;  (* Some domains when running on real domains *)
  place : int -> int;  (* rank -> domain slot (constant 0 cooperative) *)
  chan : Channel.t;  (* full stack (failure silencer on top, if any) *)
  inner_chan : Channel.t;  (* below the silencer: teardown drains here *)
  mutable devices : Ch3.t array;
  id_counter : int Atomic.t;
  ctl_mu : Mutex.t;  (* control plane: contexts/split_epochs allocation *)
  contexts : (string, int) Hashtbl.t;
  mutable next_context : int;
  split_epochs : (int * int, int ref) Hashtbl.t;  (* (rank, ctx) -> count *)
  spawned : (string, int array) Hashtbl.t;  (* dynamic-spawn rendezvous *)
  initial_n : int;  (* comm_world is fixed at creation, as in MPI *)
  topology : Simtime.Topology.t;  (* nodes x cores placement of ranks *)
  reliable : Reliable.t option;  (* handle on the go-back-N layer, if any *)
  ft : Ft.t option;  (* process-failure service, if kills or a detector *)
  rdma : Rdma_channel.t option;  (* the RDMA fabric, when channel = `Rdma *)
}

type proc = { world : world; prank : int; dev : Ch3.t }

(* Rendezvous ids travel to the receiver, which keys its pending
   transfers by them, so they must stay world-unique even when ranks on
   different domains allocate concurrently — hence the atomic. *)
let fresh_id world () = Atomic.fetch_and_add world.id_counter 1 + 1

(* The one way a device is made, for initial and spawned ranks alike:
   each device charges and counts into its own domain's environment, so
   hot-path accounting never crosses domains ([merged_stats] recombines
   after the run joins), and carries the world's failure service. *)
let make_device w rank =
  Ch3.create ?ft:w.ft w.envs.(w.place rank) w.chan ~rank
    ~fresh_id:(fresh_id w)

let create_world ?(channel = `Sock) ?cost ?env ?fault ?reliable ?detector
    ?topology ?parallel ~n () =
  if n < 1 then invalid_arg "Mpi.create_world: need at least one rank";
  (* Parallel mode executes each simulated node's ranks on a real OCaml 5
     domain (DESIGN.md §15). The layers that iterate cross-device from
     one fiber — fault injection, the reliable-delivery window, the
     failure detector — are cooperative-only, and a caller-supplied
     environment cannot be shared across domains; reject the
     combinations rather than corrupt state. *)
  (match parallel with
  | None -> ()
  | Some d ->
      if d < 1 then
        invalid_arg "Mpi.create_world: ?parallel needs at least one domain";
      if Option.is_some fault then
        invalid_arg
          "Mpi.create_world: ?fault is cooperative-only (the injector and \
           kill teardown iterate every device); drop ?parallel";
      if Option.is_some detector then
        invalid_arg
          "Mpi.create_world: ?detector is cooperative-only (heartbeat \
           bookkeeping spans all devices); drop ?parallel";
      if Option.is_some reliable then
        invalid_arg
          "Mpi.create_world: ?reliable is cooperative-only (go-back-N \
           windows share per-pair sequence state); drop ?parallel";
      if Option.is_some env then
        invalid_arg
          "Mpi.create_world: ?parallel builds one environment per domain; \
           a shared ?env cannot be used");
  let domains =
    match parallel with
    | None -> None
    | Some d ->
        (* An explicit topology with fewer nodes than requested domains
           would leave domains idle forever: placement maps ranks to
           nodes, so only [nodes] distinct domain slots are ever used.
           Clamp rather than spawn dead domains (DESIGN.md §15);
           [parallelism] reports the effective count. *)
        let d = min d n in
        Some
          (match topology with
          | Some t -> min d (Simtime.Topology.nodes t)
          | None -> d)
  in
  let topology =
    match (topology, domains) with
    | Some t, _ ->
        if Simtime.Topology.size t < n then
          invalid_arg "Mpi.create_world: topology smaller than the world";
        t
    | None, Some d ->
        (* One simulated node per domain: cores within a node stay
           cooperative, nodes run truly in parallel. *)
        Simtime.Topology.make ~nodes:d ~cores:((n + d - 1) / d)
    | None, None -> Simtime.Topology.single ~n
  in
  let place =
    match domains with
    | None -> fun _ -> 0
    | Some d ->
        let tp = topology in
        fun rank -> Simtime.Topology.node_of tp rank mod d
  in
  let envs =
    match domains with
    | None -> [||] (* filled below from [env] *)
    | Some d -> Array.init d (fun _ -> Simtime.Env.create ?cost ())
  in
  let env =
    match (env, domains) with
    | Some e, _ -> e
    | None, Some _ -> envs.(0)
    | None, None -> Simtime.Env.create ?cost ()
  in
  let envs = if Array.length envs = 0 then [| env |] else envs in
  (* A single-node topology (the default) is "no placement information":
     the channel keeps its flat pricing, exactly as before topologies
     existed. Only a real multi-node layout turns on tiered pricing. *)
  let topo =
    if Simtime.Topology.multi_node topology then Some topology else None
  in
  let base, rdma =
    match domains with
    | Some _ ->
        (* The transport is real shared memory between domains; the
           modelled [channel] flavour does not apply. *)
        ( Shm_channel.create_parallel
            ~env_for:(fun rank -> envs.(place rank))
            ~n_ranks:n,
          None )
    | None -> (
        match channel with
        | `Shm -> (Shm_channel.create ?topo env ~n_ranks:n, None)
        | `Sock -> (Sock_channel.create ?topo env ~n_ranks:n, None)
        | `Rdma ->
            let h = Rdma_channel.create ?topo env ~n_ranks:n in
            (Rdma_channel.channel h, Some h))
  in
  let faulty =
    match fault with
    | None -> base
    | Some plan -> Fault.wrap ~env plan base
  in
  (* A fault plan without reliable delivery would violate MPI semantics,
     so injecting faults always installs the reliable layer on top. *)
  let inner_chan, rel =
    match (fault, reliable) with
    | None, None -> (faulty, None)
    | _, Some config ->
        let c, r = Reliable.wrap ~config ~env faulty in
        (c, Some r)
    | Some _, None ->
        let c, r = Reliable.wrap ~env faulty in
        (c, Some r)
  in
  let kills = match fault with Some p -> p.Fault.kills | None -> [] in
  let ft =
    match (kills, detector) with
    | [], None -> None
    | _ -> Some (Ft.create ~env ?detector ~kills ~n ())
  in
  (* The silencer sits on top of the whole stack: nothing is framed (or
     retransmitted) toward a dead rank once the failure is known. *)
  let chan =
    match ft with None -> inner_chan | Some ft -> Ft.wrap_channel ft inner_chan
  in
  let world =
    {
      env;
      envs;
      parallel = domains;
      place;
      chan;
      inner_chan;
      devices = [||];
      id_counter = Atomic.make 0;
      ctl_mu = Mutex.create ();
      contexts = Hashtbl.create 16;
      next_context = 10;
      split_epochs = Hashtbl.create 16;
      spawned = Hashtbl.create 4;
      initial_n = n;
      topology;
      reliable = rel;
      ft;
      rdma;
    }
  in
  world.devices <- Array.init n (make_device world);
  (match ft with
  | None -> ()
  | Some ft ->
      Ft.on_death ft (fun dead ->
          (* Discard whatever the dead rank's inbox still holds (its NIC
             is gone), then drop the reliable layer's sequence state on
             both directions so nothing retransmits on its behalf and a
             restarted incarnation starts from sequence zero. *)
          let rec drain () =
            match world.inner_chan.Channel.poll ~rank:dead with
            | Some _ -> drain ()
            | None -> ()
          in
          drain ();
          (match rel with
          | Some r -> ignore (Reliable.reset_peer r ~peer:dead)
          | None -> ());
          (* Every survivor's operations that only the dead rank could
             satisfy complete now, with Proc_failed. *)
          Array.iter
            (fun dev ->
              if Ch3.rank dev <> dead then Ch3.fail_peer dev ~peer:dead)
            world.devices);
      Ft.on_coll_failed ft (fun ~ctx ~peer ->
          Array.iter
            (fun d ->
              Ch3.abort_context d ~ctx ~reason:(Request.Proc_failed peer))
            world.devices);
      Ft.on_revive ft (fun rank ->
          match rel with
          | Some r -> ignore (Reliable.reset_peer r ~peer:rank)
          | None -> ()));
  world

let describe_pending w () =
  Array.to_list w.devices |> List.concat_map Ch3.describe_pending

let env w = w.env
let domain_envs w = Array.copy w.envs
let parallelism w = w.parallel

let merged_stats w =
  Simtime.Stats.merged
    (Array.to_list (Array.map (fun e -> e.Simtime.Env.stats) w.envs))

let world_size w = Array.length w.devices
let topology w = w.topology
let reliable_handle w = w.reliable
let rdma_handle w = w.rdma
let ft_handle w = w.ft
let dead_ranks w = match w.ft with Some ft -> Ft.dead_ranks ft | None -> []

let ft_of p =
  match p.world.ft with
  | Some ft -> ft
  | None ->
      invalid_arg
        "Mpi: this world has no failure service (pass kills or ?detector)"

(* Entry guard, fiber context only: a rank whose kill time has passed
   dies at its next MPI call. *)
let check_self p =
  match p.world.ft with
  | Some ft -> Ft.check_self ft ~rank:p.prank
  | None -> ()

let self_doomed p =
  match p.world.ft with
  | Some ft -> Ft.self_doomed ft ~rank:p.prank
  | None -> false

let raise_reason = function
  | Request.Proc_failed r -> raise (Ft.Proc_failed r)
  | Request.Comm_revoked ctx -> raise (Ft.Revoked ctx)
  | Request.Error msg -> raise (Ch3.Mpi_error msg)

let proc w i =
  if i < 0 || i >= Array.length w.devices then
    invalid_arg "Mpi.proc: bad rank";
  { world = w; prank = i; dev = w.devices.(i) }

(* The world is a pure descriptor: no O(n) membership array even at 64k
   ranks. *)
let comm_world w = Comm.range ~ctx:0 ~start:0 ~count:w.initial_n ()

let rank p = p.prank

let comm_rank p comm =
  match Comm.comm_rank_of comm p.prank with
  | Some r -> r
  | None -> invalid_arg "Mpi.comm_rank: not a member of this communicator"

let world_of p = p.world
let device p = p.dev

(* Control-plane allocation: serialized so parallel-mode ranks splitting
   the same communicator from different domains agree on one context id
   per key. Uncontended in cooperative mode. *)
let alloc_context w ~key =
  Mutex.protect w.ctl_mu (fun () ->
      match Hashtbl.find_opt w.contexts key with
      | Some ctx -> ctx
      | None ->
          let ctx = w.next_context in
          w.next_context <- ctx + 2;
          Hashtbl.replace w.contexts key ctx;
          ctx)

let add_rank w =
  let rank = w.chan.Channel.add_rank () in
  let dev = make_device w rank in
  w.devices <- Array.append w.devices [| dev |];
  { world = w; prank = rank; dev }

(* ------------------------------------------------------------------ *)
(* Point-to-point                                                      *)
(* ------------------------------------------------------------------ *)

let isend p ~comm ~dst ~tag buf =
  check_self p;
  Ch3.isend p.dev
    ~dst:(Comm.world_rank_of comm dst)
    ~tag ~context:comm.Comm.ctx buf

let issend p ~comm ~dst ~tag buf =
  check_self p;
  Ch3.isend p.dev
    ~dst:(Comm.world_rank_of comm dst)
    ~tag ~context:comm.Comm.ctx ~mode:Ch3.Synchronous buf

let irecv p ~comm ~src ~tag buf =
  check_self p;
  let src =
    if src = Tag_match.any_source then src else Comm.world_rank_of comm src
  in
  Ch3.irecv p.dev ~src ~tag ~context:comm.Comm.ctx buf

(* The one polling wait: each poll runs [poll], pumps the device's
   progress engine, then tests [ready]. It suspends, declaring [idle] so
   quiet scans can be skipped. Plain code (unit tests, self-sends) has no
   scheduler to suspend into, so it runs the wait as a one-fiber run of
   its own: a hang is then the same [Fiber.Deadlock], with the world's
   pending dump, at the first scan that finds nothing in flight. The run
   passes its own policy, so an ambient driver records no decisions.

   Another rank's poll can complete this wait partway through a scan (a
   detection failing its requests, a collective abort flood). A wait
   that is [ready] wakes on its next poll, so no scan may be skipped past
   it: its horizon becomes unknown. [ready] runs in scheduler context,
   where an exception would abort the whole run, so it must not raise. *)
let poll_until p ~label ?idle ?(poll = ignore) ready =
  let idle =
    Option.map
      (fun (i : Fiber.idle) ->
        {
          i with
          Fiber.horizon = (fun () -> if ready () then None else i.horizon ());
        })
      idle
  in
  let wait () =
    Fiber.wait_until ~label ?idle (fun () ->
        poll ();
        ignore (Ch3.progress p.dev);
        ready ())
  in
  if Fiber.in_scheduler () then wait ()
  else
    Fiber.run ~policy:Fiber.Round_robin ~pending:(describe_pending p.world)
      [ (label, wait) ]

(* A doomed rank (its kill time passed) wakes from the wait and dies via
   [check_self], in fiber context. In plain code a wait on a request
   that is already complete returns without polling. *)
let wait_with p ?idle ?poll req =
  check_self p;
  let ready () = Request.is_complete req || self_doomed p in
  if Fiber.in_scheduler () || not (ready ()) then
    poll_until p ~label:"mpi-wait" ?idle ?poll ready;
  check_self p;
  match Request.reason req with
  | Some reason -> raise_reason reason
  | None -> Request.status req

let wait_poll ~idle p ~poll req =
  wait_with p ?idle:(Fiber.idle_seq idle (Ch3.idle_poll p.dev)) ~poll req

let wait p req = wait_with p ~idle:(Ch3.idle_poll p.dev) req

let test p req =
  ignore (Ch3.progress p.dev);
  Request.is_complete req

let wait_all p reqs = List.iter (fun r -> ignore (wait p r)) reqs

let wait_any p reqs =
  if reqs = [] then invalid_arg "Mpi.wait_any: empty request list";
  check_self p;
  let found = ref None in
  poll_until p ~label:"mpi-waitany" ~idle:(Ch3.idle_poll p.dev) (fun () ->
      found := List.find_opt Request.is_complete reqs;
      Option.is_some !found || self_doomed p);
  check_self p;
  Option.get !found

let test_all p reqs =
  ignore (Ch3.progress p.dev);
  List.for_all Request.is_complete reqs

let test_any p reqs =
  ignore (Ch3.progress p.dev);
  List.find_opt Request.is_complete reqs

let wait_some p reqs =
  if reqs = [] then invalid_arg "Mpi.wait_some: empty request list";
  check_self p;
  poll_until p ~label:"mpi-waitsome" ~idle:(Ch3.idle_poll p.dev) (fun () ->
      List.exists Request.is_complete reqs || self_doomed p);
  check_self p;
  List.filter Request.is_complete reqs

let comm_status comm (st : Status.t) =
  match Comm.comm_rank_of comm st.Status.source with
  | Some r -> { st with Status.source = r }
  | None -> st

let send p ~comm ~dst ~tag buf = ignore (wait p (isend p ~comm ~dst ~tag buf))
let ssend p ~comm ~dst ~tag buf = ignore (wait p (issend p ~comm ~dst ~tag buf))

let recv p ~comm ~src ~tag buf =
  match wait p (irecv p ~comm ~src ~tag buf) with
  | Some st -> comm_status comm st
  | None -> Status.empty

let sendrecv p ~comm ~dst ~send_tag ~send:sbuf ~src ~recv_tag ~recv:rbuf =
  let sreq = isend p ~comm ~dst ~tag:send_tag sbuf in
  let rreq = irecv p ~comm ~src ~tag:recv_tag rbuf in
  ignore (wait p sreq);
  match wait p rreq with
  | Some st -> comm_status comm st
  | None -> Status.empty

let iprobe p ~comm ~src ~tag =
  ignore (Ch3.progress p.dev);
  let src =
    if src = Tag_match.any_source then src else Comm.world_rank_of comm src
  in
  let pattern =
    { Tag_match.m_src = src; m_tag = tag; m_context = comm.Comm.ctx }
  in
  match Queues.peek_unexpected (Ch3.queues p.dev) pattern with
  | Some e ->
      Some
        (comm_status comm
           {
             Status.source = e.Packet.e_src;
             tag = e.Packet.e_tag;
             bytes = e.Packet.e_bytes;
           })
  | None -> None

(* ------------------------------------------------------------------ *)
(* Communicator management                                             *)
(* ------------------------------------------------------------------ *)

let next_epoch p comm =
  let key = (p.prank, comm.Comm.ctx) in
  Mutex.protect p.world.ctl_mu (fun () ->
      let cell =
        match Hashtbl.find_opt p.world.split_epochs key with
        | Some c -> c
        | None ->
            let c = ref 0 in
            Hashtbl.replace p.world.split_epochs key c;
            c
      in
      incr cell;
      !cell)

let comm_split p comm ~color ~key =
  let size = Comm.size comm in
  let me = comm_rank p comm in
  let ctx = comm.Comm.ctx_coll in
  let tag = Comm.coll_tag Comm.Split in
  (* Gather (color, key) triples at comm rank 0, then broadcast the table:
     a linear allgather with real messages. *)
  let record me_rank =
    let b = Bytes.create 12 in
    Bytes.set_int32_le b 0 (Int32.of_int color);
    Bytes.set_int32_le b 4 (Int32.of_int key);
    Bytes.set_int32_le b 8 (Int32.of_int me_rank);
    b
  in
  let table = Bytes.create (12 * size) in
  if me = 0 then begin
    Bytes.blit (record me) 0 table 0 12;
    List.init (size - 1) (fun i ->
        Ch3.irecv p.dev
          ~src:(Comm.world_rank_of comm (i + 1))
          ~tag:(tag 0) ~context:ctx
          (Buffer_view.of_bytes_sub table ~off:(12 * (i + 1)) ~len:12))
    |> wait_all p;
    for r = 1 to size - 1 do
      Ch3.isend p.dev
        ~dst:(Comm.world_rank_of comm r)
        ~tag:(tag 1) ~context:ctx
        (Buffer_view.of_bytes table)
      |> wait p |> ignore
    done
  end
  else begin
    Ch3.isend p.dev
      ~dst:(Comm.world_rank_of comm 0)
      ~tag:(tag 0) ~context:ctx
      (Buffer_view.of_bytes (record me))
    |> wait p |> ignore;
    Ch3.irecv p.dev
      ~src:(Comm.world_rank_of comm 0)
      ~tag:(tag 1) ~context:ctx
      (Buffer_view.of_bytes table)
    |> wait p |> ignore
  end;
  (* Decode and build my group deterministically. *)
  let entries =
    List.init size (fun r ->
        let c = Int32.to_int (Bytes.get_int32_le table (12 * r)) in
        let k = Int32.to_int (Bytes.get_int32_le table ((12 * r) + 4)) in
        (c, k, r))
  in
  let mine = List.filter (fun (c, _, _) -> c = color) entries in
  let sorted =
    List.sort (fun (_, k1, r1) (_, k2, r2) -> compare (k1, r1) (k2, r2)) mine
  in
  let members =
    Array.of_list
      (List.map (fun (_, _, r) -> Comm.world_rank_of comm r) sorted)
  in
  let e = next_epoch p comm in
  let new_ctx =
    alloc_context p.world
      ~key:(Printf.sprintf "split/%d/%d/%d" comm.Comm.ctx e color)
  in
  Comm.make ~ctx:new_ctx ~members

let comm_dup p comm =
  let e = next_epoch p comm in
  let new_ctx =
    alloc_context p.world ~key:(Printf.sprintf "dup/%d/%d" comm.Comm.ctx e)
  in
  (* Membership descriptor is shared, not copied: dup of the 64k world is
     O(1). *)
  Comm.with_ctx comm ~ctx:new_ctx

(* ------------------------------------------------------------------ *)
(* Hierarchical communicators                                          *)
(* ------------------------------------------------------------------ *)

(* A contiguous communicator on a multi-node topology decomposes into
   per-node shards plus a cross-node leader slice. Both derived comms
   are O(1) descriptors (a contiguous sub-range; a strided slice), and
   context ids come from the shared deterministic allocator keyed by the
   parent context, so no communication is needed to agree on them. *)

let contiguous_info comm =
  match Comm.range_info comm with
  | Some (start, 1, count) -> (start, count)
  | _ ->
      invalid_arg
        "Mpi: hierarchical communicators need a contiguous communicator"

let shard_bounds topo ~start ~count node =
  let cores = Simtime.Topology.cores topo in
  let lo = max start (node * cores) in
  let hi = min (start + count) ((node + 1) * cores) in
  (lo, hi - lo)

let shard_comm p comm =
  let start, count = contiguous_info comm in
  if Comm.comm_rank_of comm p.prank = None then
    invalid_arg "Mpi.shard_comm: not a member of this communicator";
  let topo = p.world.topology in
  let node = Simtime.Topology.node_of topo p.prank in
  let lo, n = shard_bounds topo ~start ~count node in
  let ctx =
    alloc_context p.world
      ~key:(Printf.sprintf "hshard/%d/%d" comm.Comm.ctx node)
  in
  Comm.range ~ctx ~start:lo ~count:n ()

let leader_comm p comm =
  let start, count = contiguous_info comm in
  if Comm.comm_rank_of comm p.prank = None then
    invalid_arg "Mpi.leader_comm: not a member of this communicator";
  let topo = p.world.topology in
  let cores = Simtime.Topology.cores topo in
  let first_node = Simtime.Topology.node_of topo start in
  let last_node = Simtime.Topology.node_of topo (start + count - 1) in
  let shards = last_node - first_node + 1 in
  let ctx =
    alloc_context p.world ~key:(Printf.sprintf "hlead/%d" comm.Comm.ctx)
  in
  if start mod cores = 0 then
    (* Aligned: leaders are a pure strided slice — an O(1) descriptor
       even with thousands of nodes. *)
    Comm.range ~ctx ~step:cores ~start ~count:shards ()
  else
    Comm.make ~ctx
      ~members:
        (Array.init shards (fun i ->
             if i = 0 then start else (first_node + i) * cores))

let is_shard_leader p comm =
  let start, count = contiguous_info comm in
  let topo = p.world.topology in
  let node = Simtime.Topology.node_of topo p.prank in
  let lo, _ = shard_bounds topo ~start ~count node in
  p.prank = lo

(* ------------------------------------------------------------------ *)
(* ULFM-style recovery: revoke / agree / shrink                        *)
(* ------------------------------------------------------------------ *)

let comm_revoke p comm =
  check_self p;
  let ft = ft_of p in
  if not (Ft.is_revoked ft comm.Comm.ctx) then begin
    Ft.revoke ft comm.Comm.ctx;
    Ft.revoke ft comm.Comm.ctx_coll;
    Trace.record p.world.env ~rank:p.prank ~op:"revoke"
      ~detail:(fun () -> Printf.sprintf "ctx=%d" comm.Comm.ctx);
    (* The revocation reaches every rank "now" — the simulation's
       stand-in for ULFM's reliable revoke flood. Every device cancels
       its pending operations on the context, so no rank stays blocked
       on a communicator that can no longer complete collectively. *)
    Array.iter
      (fun dev ->
        Ch3.abort_context dev ~ctx:comm.Comm.ctx
          ~reason:(Request.Comm_revoked comm.Comm.ctx);
        Ch3.abort_context dev ~ctx:comm.Comm.ctx_coll
          ~reason:(Request.Comm_revoked comm.Comm.ctx))
      p.world.devices
  end

(* Fault-tolerant agreement (ULFM's MPI_Comm_agree): bitwise AND of the
   surviving members' contributions. A linear gather at the lowest-rank
   survivor, then one atomic broadcast of the verdict.

   Protocol notes, load-bearing for correctness under failures:
   - each participant sends its contribution at most once per root; on a
     root change (the old root died) it re-sends to the new root, whose
     gather would otherwise miss contributions consumed by the dead one;
   - the root remembers contributions across retries ([got]), because a
     survivor that already delivered will not send again;
   - the verdict broadcast is a sequence of eager sends with no fiber
     suspension in between, so for a single failure it is all-or-nothing:
     either every survivor learns the verdict or none does. Survivors that
     die mid-agreement are routed around on retry; their contribution is
     included only if it was received (ULFM leaves exactly this choice to
     the implementation). *)
let comm_agree p comm ~value =
  check_self p;
  let ft = ft_of p in
  let w = p.world in
  let me = p.prank in
  let members = Array.to_list (Comm.members comm) in
  if not (List.mem me members) then
    invalid_arg "Mpi.comm_agree: not a member of this communicator";
  let e = next_epoch p comm in
  let ctx =
    alloc_context w ~key:(Printf.sprintf "agree/%d/%d" comm.Comm.ctx e)
  in
  let tag_gather = 1 and tag_verdict = 2 in
  let survivors () = List.filter (fun r -> not (Ft.is_down ft r)) members in
  let buf_of v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    b
  in
  let int_of b = Int64.to_int (Bytes.get_int64_le b 0) in
  let got : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let sent_to = ref [] in
  let rec attempt () =
    check_self p;
    let svs = survivors () in
    let root = List.fold_left min me svs in
    try
      if root = me then begin
        List.iter
          (fun s ->
            if s <> me && not (Hashtbl.mem got s) then begin
              let b = Bytes.create 8 in
              ignore
                (wait p
                   (Ch3.irecv p.dev ~src:s ~tag:tag_gather ~context:ctx
                      (Buffer_view.of_bytes b)));
              Hashtbl.replace got s (int_of b)
            end)
          svs;
        let acc =
          List.fold_left
            (fun acc s ->
              if s = me then acc land value
              else
                match Hashtbl.find_opt got s with
                | Some v -> acc land v
                | None -> acc)
            (-1) svs
        in
        List.iter
          (fun s ->
            if s <> me then
              (* 8 bytes is far below the eager threshold: the send
                 completes synchronously, keeping the verdict broadcast
                 atomic with respect to the fiber scheduler. *)
              ignore
                (Ch3.isend p.dev ~dst:s ~tag:tag_verdict ~context:ctx
                   (Buffer_view.of_bytes (buf_of acc))))
          svs;
        acc
      end
      else begin
        if not (List.mem root !sent_to) then begin
          sent_to := root :: !sent_to;
          ignore
            (wait p
               (Ch3.isend p.dev ~dst:root ~tag:tag_gather ~context:ctx
                  (Buffer_view.of_bytes (buf_of value))))
        end;
        let b = Bytes.create 8 in
        ignore
          (wait p
             (Ch3.irecv p.dev ~src:root ~tag:tag_verdict ~context:ctx
                (Buffer_view.of_bytes b)));
        int_of b
      end
    with Ft.Proc_failed _ ->
      (* Someone died mid-agreement: recompute survivors and retry. The
         dead set only grows, so this terminates. *)
      attempt ()
  in
  attempt ()

let max_shrink_members = 62  (* agreement value is an OCaml int bitmap *)

let comm_shrink p comm =
  check_self p;
  let ft = ft_of p in
  let members = Comm.members comm in
  if Array.length members > max_shrink_members then
    invalid_arg "Mpi.comm_shrink: communicator too large for the bitmap \
                 agreement";
  let bitmap = ref 0 in
  Array.iteri
    (fun i r -> if not (Ft.is_down ft r) then bitmap := !bitmap lor (1 lsl i))
    members;
  (* Agree on the intersection of everyone's alive-view, so all survivors
     build the identical member list even if detections straggle. *)
  let agreed = comm_agree p comm ~value:!bitmap in
  let alive =
    Array.to_list members
    |> List.filteri (fun i _ -> agreed land (1 lsl i) <> 0)
  in
  let e = next_epoch p comm in
  let ctx =
    alloc_context p.world
      ~key:(Printf.sprintf "shrink/%d/%d/%x" comm.Comm.ctx e agreed)
  in
  Trace.record p.world.env ~rank:p.prank ~op:"shrink"
    ~detail:(fun () ->
      Printf.sprintf "ctx=%d -> ctx=%d survivors=[%s]" comm.Comm.ctx ctx
        (String.concat ";" (List.map string_of_int alive)));
  Comm.make ~ctx ~members:(Array.of_list alive)

let revive_rank w rank =
  match w.ft with
  | Some ft -> Ft.revive ft ~rank
  | None -> invalid_arg "Mpi.revive_rank: no failure service"

let spawn_table w = w.spawned

let quiescence_report w =
  Array.to_list w.devices
  |> List.filter_map (fun dev ->
         (* A torn-down rank is exempt: its device was purged at death
            and judging it would blame the victim for its own murder. *)
         if
           match w.ft with
           | Some ft -> Ft.is_out ft (Ch3.rank dev)
           | None -> false
         then None
         else begin
         (* Drain anything already delivered before judging. *)
         ignore (Ch3.progress dev);
         let issues = ref [] in
         let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
         let q = Ch3.queues dev in
         let posted = Queues.posted_length q in
         let unexpected = Queues.unexpected_length q in
         let outstanding = Ch3.outstanding dev in
         let rndv = Ch3.pending_rendezvous dev in
         if posted > 0 then add "%d posted receive(s) never matched" posted;
         if unexpected > 0 then
           add "%d unexpected message(s) never received" unexpected;
         if outstanding > 0 then
           add "%d outstanding request(s)" outstanding;
         if rndv > 0 then add "%d unfinished rendezvous transfer(s)" rndv;
         match !issues with
         | [] -> None
         | list -> Some (Ch3.rank dev, String.concat "; " (List.rev list))
         end)

(* ------------------------------------------------------------------ *)
(* Running worlds                                                      *)
(* ------------------------------------------------------------------ *)

(* Fail-stop semantics for a rank's fiber: [Ft.Killed] escaping [body]
   tears the rank down — its device is purged (every local request fails,
   hooks abort, queues empty) and the rank transitions to [Torn_down],
   after which the silencer drops its traffic. The fiber then returns
   normally; survivors learn of the death only when the detector declares
   it. A clean return marks the rank [Finished] so the detector never
   suspects a rank that merely exited. *)
let rank_guard w rank body =
  match w.ft with
  | None -> body ()
  | Some ft -> (
      match body () with
      | () -> Ft.finish ft ~rank
      | exception Ft.Killed r when r = rank ->
          Ch3.purge w.devices.(rank) ~reason:(Request.Proc_failed rank);
          Ft.mark_killed ft ~rank;
          Trace.record w.env ~rank ~op:"kill" ~detail:(fun () ->
              "fiber torn down"))

let launch w body =
  let fibers =
    List.init w.initial_n (fun i ->
        ( Printf.sprintf "rank%d" i,
          fun () -> rank_guard w i (fun () -> body (proc w i)) ))
  in
  let mode =
    Option.map (fun domains -> Fiber.Parallel { domains; place = w.place })
      w.parallel
  in
  Fiber.run ?mode ~pending:(describe_pending w) fibers

let run ?channel ?cost ?env ?fault ?reliable ?detector ?topology ?parallel ~n
    body =
  let w =
    create_world ?channel ?cost ?env ?fault ?reliable ?detector ?topology
      ?parallel ~n ()
  in
  launch w body;
  w
