(* Collective algorithms over point-to-point, with size/rank-aware
   algorithm selection (the MPICH2 pattern: each collective picks an
   algorithm from the payload size and communicator size; the thresholds
   live in the cost model so selection is a measurable, tunable policy).

   Since PR 3 every algorithm *compiles* into a {!Coll_sched} schedule —
   a per-rank DAG of isend/irecv/reduce/copy steps in rounds — executed
   incrementally by the device progress engine. The [i*] entry points
   return the schedule's generalized request; the blocking entry points
   are start + wait shims over them, so selection policy, [?algo]
   oracles and the tag ranges carry over unchanged. The naive reference
   versions are kept as [*_linear] (and the ring allgather) for
   correctness oracles and ablations. *)

(* Every schedule tags its messages from its phase's range on the
   collective context (Comm.tag_ranges). Multi-round algorithms derive
   per-round tags with [rtag], which wraps modulo the range's width, so
   a round tag can never escape into a neighbour's range. *)
let tag phase = Comm.coll_tag phase 0
let rtag = Comm.coll_tag

(* ------------------------------------------------------------------ *)
(* Schedule plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let empty = Buffer_view.of_bytes Bytes.empty
let env_of p = Mpi.env (Mpi.world_of p)
let cost_of p = (env_of p).Simtime.Env.cost

(* All schedule traffic runs on the communicator's collective context,
   so it can never match user receives; [dst]/[src] below are
   communicator ranks, translated to world ranks at build time. *)
let builder p comm kind =
  Coll_sched.make (Mpi.device p) ~context:comm.Comm.ctx_coll kind

(* One schedule kind per collective, each declared (with its step
   histogram) once, here. *)
module Kind = struct
  let barrier = Coll_sched.kind "barrier"
  let bcast = Coll_sched.kind "bcast"
  let scatter = Coll_sched.kind "scatter"
  let gather = Coll_sched.kind "gather"
  let allgather = Coll_sched.kind "allgather"
  let alltoall = Coll_sched.kind "alltoall"
  let reduce = Coll_sched.kind "reduce"
  let allreduce = Coll_sched.kind "allreduce"
  let scan = Coll_sched.kind "scan"
end

let ssend b comm ~dst ~tag v =
  Coll_sched.isend b ~dst:(Comm.world_rank_of comm dst) ~tag v

let srecv b comm ~src ~tag v =
  Coll_sched.irecv b ~src:(Comm.world_rank_of comm src) ~tag v

let wait_sched p req = ignore (Mpi.wait p req)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let floor_pow2 n =
  let rec go v = if 2 * v <= n then go (2 * v) else v in
  go 1

let ceil_pow2 n =
  let rec go v = if v < n then go (2 * v) else v in
  go 1

(* Lowest set bit; the binomial-tree parent of relative rank [r > 0] is
   [r - lsb r] and its subtree spans relative ranks [r, r + extent). *)
let lsb r = r land -r

(* ------------------------------------------------------------------ *)
(* Algorithm selection                                                 *)
(* ------------------------------------------------------------------ *)

type allreduce_algo = [ `Auto | `Linear | `Rd | `Rabenseifner | `Hier ]
type bcast_algo = [ `Auto | `Binomial | `Scatter_allgather | `Hier ]
type allgather_algo = [ `Auto | `Ring | `Rd | `Hier ]
type barrier_algo = [ `Auto | `Dissemination | `Hier ]
type fan_algo = [ `Auto | `Linear | `Binomial ]

let allreduce_algo_for (c : Simtime.Cost.t) ~n ~bytes ~granule ~commutative
    : [ `Linear | `Rd | `Rabenseifner ] =
  let pof2 = floor_pow2 n in
  if
    commutative
    && bytes >= c.Simtime.Cost.coll_rabenseifner_min_bytes
    && granule > 0
    && bytes mod granule = 0
    && bytes / granule >= pof2
    && pof2 >= 2
  then `Rabenseifner
  else `Rd

(* The scatter + ring-allgather bcast saves (log n - 1) x payload of
   store-and-forward bandwidth but pays Theta(n) ring messages per
   member, so its win region scales with n^2: the threshold field is the
   switch point at n = 8 and the comparison scales it by (n/8)^2. *)
let bcast_algo_for (c : Simtime.Cost.t) ~n ~bytes :
    [ `Binomial | `Scatter_allgather ] =
  if n >= 4 && bytes * 64 >= c.Simtime.Cost.coll_bcast_scatter_min_bytes * n * n
  then `Scatter_allgather
  else `Binomial

let allgather_algo_for (c : Simtime.Cost.t) ~n ~bytes : [ `Ring | `Rd ] =
  if is_pow2 n && n >= 4 && n * bytes <= c.Simtime.Cost.coll_allgather_rd_max_bytes
  then `Rd
  else `Ring

let fan_algo_for (c : Simtime.Cost.t) ~n ~block : [ `Linear | `Binomial ] =
  match block with
  | Some b
    when n >= c.Simtime.Cost.coll_binomial_min_ranks
         && b <= c.Simtime.Cost.coll_binomial_max_block ->
      `Binomial
  | _ -> `Linear

(* ------------------------------------------------------------------ *)
(* Hierarchical (two-level) decomposition                              *)
(* ------------------------------------------------------------------ *)

(* A contiguous communicator on a multi-node topology decomposes into
   per-node shards plus the cross-node leader slice (each node's lowest
   member). Everything here is an O(1) descriptor computed locally: no
   communication, no O(world) membership arrays. The derived comms only
   serve rank translation — all hier traffic is scheduled on the
   {e parent}'s collective context under the dedicated [Comm.Hier_*] tag
   ranges, so their own ctx fields are inert (the parent's is reused). *)
type hier = {
  hp_shard : Comm.t;  (* my node's slice of the parent, in rank order *)
  hp_leaders : Comm.t;  (* one member per node, in node order *)
  hp_sme : int;  (* my shard rank; 0 = I am my shard's leader *)
  hp_lme : int;  (* my leader rank, or -1 if I am not a leader *)
}

(* The two-level algorithms apply when the topology is real (multi-node)
   and the communicator is a contiguous range spanning more than one
   node. *)
let hier_applicable p comm =
  let topo = Mpi.topology (Mpi.world_of p) in
  Simtime.Topology.multi_node topo
  &&
  match Comm.range_info comm with
  | Some (start, 1, count) ->
      count > 1
      && Simtime.Topology.node_of topo start
         <> Simtime.Topology.node_of topo (start + count - 1)
  | _ -> false

(* The hier allgather additionally needs equal shards (its block layout
   is arithmetic in the shard size). *)
let hier_allgather_applicable p comm =
  hier_applicable p comm
  &&
  let cores = Simtime.Topology.cores (Mpi.topology (Mpi.world_of p)) in
  match Comm.range_info comm with
  | Some (start, 1, count) -> start mod cores = 0 && count mod cores = 0
  | _ -> false

let hier_parts p comm =
  let topo = Mpi.topology (Mpi.world_of p) in
  let start, count =
    match Comm.range_info comm with
    | Some (s, 1, c) -> (s, c)
    | _ ->
        invalid_arg
          "Collectives: hierarchical algorithms need a contiguous \
           communicator"
  in
  let cores = Simtime.Topology.cores topo in
  let me = Mpi.rank p in
  let node = Simtime.Topology.node_of topo me in
  let first_node = Simtime.Topology.node_of topo start in
  let last_node = Simtime.Topology.node_of topo (start + count - 1) in
  let shards = last_node - first_node + 1 in
  let lo = max start (node * cores) in
  let hi = min (start + count) ((node + 1) * cores) in
  let ctx = comm.Comm.ctx in
  let hp_shard = Comm.range ~ctx ~start:lo ~count:(hi - lo) () in
  let hp_leaders =
    if start mod cores = 0 then
      (* Aligned parent: the leaders are a pure strided slice. *)
      Comm.range ~ctx ~step:cores ~start ~count:shards ()
    else
      Comm.make ~ctx
        ~members:
          (Array.init shards (fun i ->
               if i = 0 then start else (first_node + i) * cores))
  in
  {
    hp_shard;
    hp_leaders;
    hp_sme = me - lo;
    hp_lme =
      (match Comm.comm_rank_of hp_leaders me with Some r -> r | None -> -1);
  }

(* ------------------------------------------------------------------ *)
(* Barrier (dissemination)                                             *)
(* ------------------------------------------------------------------ *)

let sched_barrier ?(phase = Comm.Barrier) b comm ~me =
  let n = Comm.size comm in
  let round = ref 0 and step = ref 1 in
  while !step < n do
    let dst = (me + !step) mod n in
    let src = (me - !step + n) mod n in
    let t = rtag phase !round in
    ssend b comm ~dst ~tag:t empty;
    srecv b comm ~src ~tag:t empty;
    Coll_sched.fence b;
    incr round;
    step := !step lsl 1
  done

(* Two-level barrier: fan-in to each shard leader, dissemination barrier
   across the leaders, fan-out release — 2 + ceil(log2 L) rounds of
   inter-node latency instead of ceil(log2 n). *)
let sched_barrier_hier b p comm =
  let h = hier_parts p comm in
  let s = Comm.size h.hp_shard in
  if s > 1 then begin
    if h.hp_sme = 0 then
      for j = 1 to s - 1 do
        srecv b h.hp_shard ~src:j ~tag:(rtag Comm.Hier_fan 0) empty
      done
    else ssend b h.hp_shard ~dst:0 ~tag:(rtag Comm.Hier_fan 0) empty;
    Coll_sched.fence b
  end;
  if h.hp_lme >= 0 && Comm.size h.hp_leaders > 1 then
    sched_barrier ~phase:Comm.Hier_barrier b h.hp_leaders ~me:h.hp_lme;
  Coll_sched.fence b;
  if s > 1 then
    if h.hp_sme = 0 then
      for j = 1 to s - 1 do
        ssend b h.hp_shard ~dst:j ~tag:(rtag Comm.Hier_fan 1) empty
      done
    else srecv b h.hp_shard ~src:0 ~tag:(rtag Comm.Hier_fan 1) empty

let ibarrier ?(algo : barrier_algo = `Auto) p comm =
  let b = builder p comm Kind.barrier in
  let algo =
    match algo with
    | `Auto -> if hier_applicable p comm then `Hier else `Dissemination
    | (`Dissemination | `Hier) as a -> a
  in
  (match algo with
  | `Dissemination -> sched_barrier b comm ~me:(Mpi.comm_rank p comm)
  | `Hier ->
      if not (hier_applicable p comm) then
        invalid_arg
          "Collectives.barrier: `Hier needs a multi-node topology and a \
           contiguous communicator";
      sched_barrier_hier b p comm);
  Coll_sched.start b

let barrier ?algo p comm = wait_sched p (ibarrier ?algo p comm)

(* ------------------------------------------------------------------ *)
(* Broadcast                                                           *)
(* ------------------------------------------------------------------ *)

let sched_bcast_binomial ?(phase = Comm.Bcast) b comm ~root ~me buf =
  let n = Comm.size comm in
  let rel = (me - root + n) mod n in
  let abs r = (r + root) mod n in
  (* Receive from the parent (clear the lowest set bit of rel). *)
  let mask = ref 1 in
  let recv_mask = ref 0 in
  while !mask < n && !recv_mask = 0 do
    if rel land !mask <> 0 then begin
      srecv b comm ~src:(abs (rel - !mask)) ~tag:(tag phase) buf;
      Coll_sched.fence b;
      recv_mask := !mask
    end
    else mask := !mask lsl 1
  done;
  (* Forward to children: bits below my lowest set bit (or below n for
     the root). All forwards go out in one round. *)
  let top = if rel = 0 then ceil_pow2 n else !recv_mask in
  let m = ref (top lsr 1) in
  while !m > 0 do
    if rel + !m < n then
      ssend b comm ~dst:(abs (rel + !m)) ~tag:(tag phase) buf;
    m := !m lsr 1
  done

(* Van de Geijn large-message broadcast: binomial-scatter the buffer into
   one block per member, then a ring allgather whose rounds pipeline —
   every rank moves ~2x the payload instead of the binomial tree's
   (log n) x payload on internal ranks. The block layout is a pure
   function of (length, size), so every member computes it locally. *)
let sched_bcast_scag b comm ~root ~me buf =
  let n = Comm.size comm in
  let rel = (me - root + n) mod n in
  let abs r = (r + root) mod n in
  let len = Buffer_view.length buf in
  let base = len / n and extra = len mod n in
  let off j = (j * base) + min j extra in
  let size j = base + if j < extra then 1 else 0 in
  let extent r = if r = 0 then n else min (lsb r) (n - r) in
  (* All traffic reads from / lands in windows of the user buffer: no
     scratch copy of the payload. *)
  let window lo hi = Buffer_view.sub_view buf ~off:lo ~len:(hi - lo) in
  (* Phase 1: binomial scatter. The subtree of relative rank r holds the
     contiguous byte range [off r, off (r + extent r)). *)
  if rel <> 0 then begin
    let lo = off rel and hi = off (rel + extent rel) in
    srecv b comm
      ~src:(abs (rel - lsb rel))
      ~tag:(rtag Comm.Bcast_scag 0)
      (window lo hi);
    Coll_sched.fence b
  end;
  let top = if rel = 0 then ceil_pow2 n else lsb rel in
  let m = ref (top lsr 1) in
  while !m > 0 do
    let child = rel + !m in
    if child < n then begin
      let lo = off child and hi = off (child + extent child) in
      ssend b comm ~dst:(abs child)
        ~tag:(rtag Comm.Bcast_scag 0)
        (window lo hi)
    end;
    m := !m lsr 1
  done;
  Coll_sched.fence b;
  (* Phase 2: ring allgather of the blocks (block j lives with relative
     rank j after the scatter). *)
  let right = (me + 1) mod n and left = (me - 1 + n) mod n in
  for step = 0 to n - 2 do
    let sidx = (rel - step + n) mod n in
    let ridx = (rel - step - 1 + n) mod n in
    let t = rtag Comm.Bcast_scag (step + 1) in
    ssend b comm ~dst:right ~tag:t (window (off sidx) (off sidx + size sidx));
    srecv b comm ~src:left ~tag:t
      (window (off ridx) (off ridx + size ridx));
    Coll_sched.fence b
  done

(* Two-level broadcast: one relocation hop if the root is not its
   shard's leader, a binomial bcast across the leaders rooted at the
   root's node, then a binomial bcast down every shard — log L rounds of
   inter-node latency plus log s rounds at the shared-memory tier. *)
let sched_bcast_hier b p comm ~root buf =
  let h = hier_parts p comm in
  let s = Comm.size h.hp_shard in
  let topo = Mpi.topology (Mpi.world_of p) in
  let cores = Simtime.Topology.cores topo in
  let start =
    match Comm.range_info comm with Some (st, _, _) -> st | None -> 0
  in
  let root_w = Comm.world_rank_of comm root in
  let my_w = Mpi.rank p in
  let root_leader_w =
    max start (Simtime.Topology.node_of topo root_w * cores)
  in
  (* Phase 0: relocate the payload to the root's shard leader. *)
  if root_w <> root_leader_w then
    if my_w = root_w then
      ssend b comm
        ~dst:(Option.get (Comm.comm_rank_of comm root_leader_w))
        ~tag:(tag Comm.Hier_root) buf
    else if my_w = root_leader_w then begin
      srecv b comm ~src:root ~tag:(tag Comm.Hier_root) buf;
      Coll_sched.fence b
    end;
  (* Phase 1: across the leaders, rooted at the root's node. *)
  if h.hp_lme >= 0 && Comm.size h.hp_leaders > 1 then begin
    let lroot = Option.get (Comm.comm_rank_of h.hp_leaders root_leader_w) in
    sched_bcast_binomial ~phase:Comm.Hier_xbcast b h.hp_leaders ~root:lroot
      ~me:h.hp_lme buf
  end;
  Coll_sched.fence b;
  (* Phase 2: down each shard. The root re-receives its own payload —
     one redundant shared-memory message buys a root-oblivious shard
     phase. *)
  if s > 1 then
    sched_bcast_binomial ~phase:Comm.Hier_bcast b h.hp_shard ~root:0
      ~me:h.hp_sme buf

let ibcast ?(algo : bcast_algo = `Auto) p comm ~root buf =
  let n = Comm.size comm in
  let b = builder p comm Kind.bcast in
  if n > 1 then begin
    let me = Mpi.comm_rank p comm in
    let algo =
      match algo with
      | `Auto ->
          if hier_applicable p comm then `Hier
          else
            (bcast_algo_for (cost_of p) ~n ~bytes:(Buffer_view.length buf)
              :> [ `Binomial | `Scatter_allgather | `Hier ])
      | (`Binomial | `Scatter_allgather | `Hier) as a -> a
    in
    match algo with
    | `Binomial -> sched_bcast_binomial b comm ~root ~me buf
    | `Scatter_allgather -> sched_bcast_scag b comm ~root ~me buf
    | `Hier ->
        if not (hier_applicable p comm) then
          invalid_arg
            "Collectives.bcast: `Hier needs a multi-node topology and a \
             contiguous communicator";
        sched_bcast_hier b p comm ~root buf
  end;
  Coll_sched.start b

let bcast ?algo p comm ~root buf = wait_sched p (ibcast ?algo p comm ~root buf)

(* ------------------------------------------------------------------ *)
(* Scatter                                                             *)
(* ------------------------------------------------------------------ *)

let root_parts ~what ~n parts =
  match parts with
  | Some a ->
      if Array.length a <> n then
        invalid_arg ("Collectives." ^ what ^ ": need one part per member");
      a
  | None -> invalid_arg ("Collectives." ^ what ^ ": root must supply parts")

let sched_scatter_linear b comm ~root ~me ~parts ~recv =
  let n = Comm.size comm in
  if me = root then begin
    let parts = root_parts ~what:"scatter" ~n parts in
    for r = 0 to n - 1 do
      if r <> root then ssend b comm ~dst:r ~tag:(tag Comm.Scatter) parts.(r)
    done;
    (* Root's own part: local copy. *)
    Coll_sched.copy b ~src:parts.(root) ~dst:recv
  end
  else srecv b comm ~src:root ~tag:(tag Comm.Scatter) recv

(* Binomial scatter of equal [block]-byte parts: each internal node
   forwards its children's contiguous sub-ranges, so the root sends log n
   messages instead of n - 1. The root's message for a child subtree is a
   {!Buffer_view.concat} of the parts in relative-rank order — sent
   straight out of the caller's buffers, where the blocking engine staged
   a packed copy (n x block of charged memcpy). Every member must pass
   the same [block] (MPI_Scatter's recvcount), which is how non-roots
   size their subtree buffers. *)
let sched_scatter_binomial b comm ~root ~me ~parts ~recv ~block =
  let n = Comm.size comm in
  let rel = (me - root + n) mod n in
  let abs r = (r + root) mod n in
  let extent r = if r = 0 then n else min (lsb r) (n - r) in
  if Buffer_view.length recv <> block then
    invalid_arg "Collectives.scatter: recv buffer must be block-sized";
  if rel = 0 then begin
    let parts = root_parts ~what:"scatter" ~n parts in
    Array.iter
      (fun part ->
        if Buffer_view.length part <> block then
          invalid_arg "Collectives.scatter: binomial parts must be block-sized")
      parts;
    (* One concat view per child subtree: relative ranks [m, m + cnt). *)
    let top = ceil_pow2 n in
    let m = ref (top lsr 1) in
    while !m > 0 do
      let child = !m in
      if child < n then begin
        let cnt = extent child in
        let sub =
          Buffer_view.concat
            (List.init cnt (fun j -> parts.(abs (child + j))))
        in
        ssend b comm ~dst:(abs child) ~tag:(tag Comm.Scatter_binomial) sub
      end;
      m := !m lsr 1
    done;
    Coll_sched.copy b ~src:parts.(abs 0) ~dst:recv
  end
  else begin
    let cnt = extent rel in
    if cnt = 1 then
      srecv b comm
        ~src:(abs (rel - lsb rel))
        ~tag:(tag Comm.Scatter_binomial) recv
    else begin
      (* Internal node: my own block lands in [recv]; descendants' blocks
         land in a scratch that exists only for store-and-forward (they
         are not mine to keep), received as one concat view. *)
      let staging = Bytes.create ((cnt - 1) * block) in
      srecv b comm
        ~src:(abs (rel - lsb rel))
        ~tag:(tag Comm.Scatter_binomial)
        (Buffer_view.concat [ recv; Buffer_view.of_bytes staging ]);
      Coll_sched.fence b;
      let m = ref (lsb rel lsr 1) in
      while !m > 0 do
        let child = rel + !m in
        if child < n then begin
          let ccnt = extent child in
          ssend b comm ~dst:(abs child)
            ~tag:(tag Comm.Scatter_binomial)
            (Buffer_view.of_bytes_sub staging
               ~off:((!m - 1) * block)
               ~len:(ccnt * block))
        end;
        m := !m lsr 1
      done
    end
  end

let iscatter ?(algo : fan_algo = `Auto) ?block p comm ~root ~parts ~recv =
  let n = Comm.size comm in
  let me = Mpi.comm_rank p comm in
  let b = builder p comm Kind.scatter in
  let algo =
    match algo with
    | `Auto -> fan_algo_for (cost_of p) ~n ~block
    | (`Linear | `Binomial) as a -> a
  in
  (match (algo, block) with
  | `Binomial, Some blk when n > 1 ->
      sched_scatter_binomial b comm ~root ~me ~parts ~recv ~block:blk
  | `Binomial, None ->
      invalid_arg "Collectives.scatter: the binomial algorithm needs ~block"
  | _ -> sched_scatter_linear b comm ~root ~me ~parts ~recv);
  Coll_sched.start b

let scatter ?algo ?block p comm ~root ~parts ~recv =
  wait_sched p (iscatter ?algo ?block p comm ~root ~parts ~recv)

(* ------------------------------------------------------------------ *)
(* Gather                                                              *)
(* ------------------------------------------------------------------ *)

let sched_gather_linear b comm ~root ~me ~send ~parts =
  let n = Comm.size comm in
  if me = root then begin
    let parts = root_parts ~what:"gather" ~n parts in
    for r = 0 to n - 1 do
      if r <> root then srecv b comm ~src:r ~tag:(tag Comm.Gather) parts.(r)
    done;
    Coll_sched.copy b ~src:send ~dst:parts.(root)
  end
  else ssend b comm ~dst:root ~tag:(tag Comm.Gather) send

(* Mirror of {!sched_scatter_binomial}: leaves send their block up;
   internal nodes receive their subtree and forward it (own block +
   descendants) as one concat message; the root receives each child
   subtree directly into the caller's parts — no packed staging copy at
   either end. *)
let sched_gather_binomial b comm ~root ~me ~send ~parts ~block =
  let n = Comm.size comm in
  let rel = (me - root + n) mod n in
  let abs r = (r + root) mod n in
  let extent r = if r = 0 then n else min (lsb r) (n - r) in
  if Buffer_view.length send <> block then
    invalid_arg "Collectives.gather: send buffer must be block-sized";
  let cnt = extent rel in
  if rel = 0 then begin
    let parts = root_parts ~what:"gather" ~n parts in
    Array.iter
      (fun part ->
        if Buffer_view.length part <> block then
          invalid_arg "Collectives.gather: binomial parts must be block-sized")
      parts;
    Coll_sched.copy b ~src:send ~dst:parts.(abs 0);
    let m = ref 1 in
    while !m < n do
      let child = !m in
      if child < n then begin
        let ccnt = extent child in
        let sub =
          Buffer_view.concat
            (List.init ccnt (fun j -> parts.(abs (child + j))))
        in
        srecv b comm ~src:(abs child) ~tag:(tag Comm.Gather_binomial) sub
      end;
      m := !m lsl 1
    done
  end
  else if cnt = 1 then
    ssend b comm ~dst:(abs (rel - lsb rel)) ~tag:(tag Comm.Gather_binomial) send
  else begin
    let staging = Bytes.create ((cnt - 1) * block) in
    let m = ref 1 in
    while !m < cnt do
      let child = rel + !m in
      if child < n then begin
        let ccnt = extent child in
        srecv b comm ~src:(abs child)
          ~tag:(tag Comm.Gather_binomial)
          (Buffer_view.of_bytes_sub staging
             ~off:((!m - 1) * block)
             ~len:(ccnt * block))
      end;
      m := !m lsl 1
    done;
    Coll_sched.fence b;
    ssend b comm
      ~dst:(abs (rel - lsb rel))
      ~tag:(tag Comm.Gather_binomial)
      (Buffer_view.concat [ send; Buffer_view.of_bytes staging ])
  end

let igather ?(algo : fan_algo = `Auto) ?block p comm ~root ~send ~parts =
  let n = Comm.size comm in
  let me = Mpi.comm_rank p comm in
  let b = builder p comm Kind.gather in
  let algo =
    match algo with
    | `Auto -> fan_algo_for (cost_of p) ~n ~block
    | (`Linear | `Binomial) as a -> a
  in
  (match (algo, block) with
  | `Binomial, Some blk when n > 1 ->
      sched_gather_binomial b comm ~root ~me ~send ~parts ~block:blk
  | `Binomial, None ->
      invalid_arg "Collectives.gather: the binomial algorithm needs ~block"
  | _ -> sched_gather_linear b comm ~root ~me ~send ~parts);
  Coll_sched.start b

let gather ?algo ?block p comm ~root ~send ~parts =
  wait_sched p (igather ?algo ?block p comm ~root ~send ~parts)

(* ------------------------------------------------------------------ *)
(* Allgather                                                           *)
(* ------------------------------------------------------------------ *)

let sched_allgather_ring b comm ~me ~send =
  let n = Comm.size comm in
  let blk = Bytes.length send in
  let blocks = Array.init n (fun _ -> Bytes.create blk) in
  Coll_sched.copy b
    ~src:(Buffer_view.of_bytes send)
    ~dst:(Buffer_view.of_bytes blocks.(me));
  Coll_sched.fence b;
  let right = (me + 1) mod n in
  let left = (me - 1 + n) mod n in
  for step = 0 to n - 2 do
    let send_idx = (me - step + n) mod n in
    let recv_idx = (me - step - 1 + n) mod n in
    let t = rtag Comm.Allgather_ring step in
    ssend b comm ~dst:right ~tag:t (Buffer_view.of_bytes blocks.(send_idx));
    srecv b comm ~src:left ~tag:t (Buffer_view.of_bytes blocks.(recv_idx));
    Coll_sched.fence b
  done;
  blocks

(* Recursive-doubling allgather (power-of-two members only): log n rounds
   of pairwise exchange of doubling aligned block ranges, against the
   ring's n - 1 rounds — the latency-bound winner for small payloads.
   The doubling ranges are concat views over the result blocks, so the
   exchanged data lands where it lives: the blocking engine's contiguous
   staging buffer (and its final n sub-copies) is gone. *)
let sched_allgather_rd b comm ~me ~send =
  let n = Comm.size comm in
  if not (is_pow2 n) then
    invalid_arg
      "Collectives.allgather: recursive doubling needs a power-of-two \
       communicator";
  let blk = Bytes.length send in
  let blocks = Array.init n (fun _ -> Bytes.create blk) in
  let range lo cnt =
    Buffer_view.concat
      (List.init cnt (fun j -> Buffer_view.of_bytes blocks.(lo + j)))
  in
  Coll_sched.copy b
    ~src:(Buffer_view.of_bytes send)
    ~dst:(Buffer_view.of_bytes blocks.(me));
  Coll_sched.fence b;
  let mask = ref 1 and round = ref 0 in
  while !mask < n do
    let partner = me lxor !mask in
    let lo = me land lnot (!mask - 1) in
    let plo = lo lxor !mask in
    let t = rtag Comm.Allgather_rd !round in
    ssend b comm ~dst:partner ~tag:t (range lo !mask);
    srecv b comm ~src:partner ~tag:t (range plo !mask);
    Coll_sched.fence b;
    mask := !mask lsl 1;
    incr round
  done;
  blocks

(* Two-level allgather (equal shards only): gather each shard's blocks
   at its leader, ring the shard aggregates across the leaders (each
   hop moves s blocks at once), then broadcast the assembled table down
   every shard. L - 1 inter-node rounds of s x block bytes, against the
   flat ring's n - 1. *)
let sched_allgather_hier b p comm ~me ~send =
  let h = hier_parts p comm in
  let n = Comm.size comm in
  let s = Comm.size h.hp_shard in
  let nl = Comm.size h.hp_leaders in
  if n <> s * nl then
    invalid_arg "Collectives.allgather: `Hier needs equal shards";
  let blk = Bytes.length send in
  let blocks = Array.init n (fun _ -> Bytes.create blk) in
  let view j = Buffer_view.of_bytes blocks.(j) in
  let range lo cnt =
    Buffer_view.concat (List.init cnt (fun j -> view (lo + j)))
  in
  let shard_base = me - h.hp_sme in
  Coll_sched.copy b ~src:(Buffer_view.of_bytes send) ~dst:(view me);
  Coll_sched.fence b;
  (* Phase 1: gather the shard's blocks at the leader. *)
  if s > 1 then begin
    if h.hp_sme = 0 then
      for j = 1 to s - 1 do
        srecv b h.hp_shard ~src:j ~tag:(tag Comm.Hier_gather)
          (view (shard_base + j))
      done
    else
      ssend b h.hp_shard ~dst:0 ~tag:(tag Comm.Hier_gather)
        (Buffer_view.of_bytes send);
    Coll_sched.fence b
  end;
  (* Phase 2: ring the shard aggregates across the leaders. *)
  if h.hp_sme = 0 && nl > 1 then begin
    let lme = h.hp_lme in
    let right = (lme + 1) mod nl and left = (lme - 1 + nl) mod nl in
    for step = 0 to nl - 2 do
      let sidx = (lme - step + nl) mod nl in
      let ridx = (lme - step - 1 + nl) mod nl in
      let t = rtag Comm.Hier_ring step in
      ssend b h.hp_leaders ~dst:right ~tag:t (range (sidx * s) s);
      srecv b h.hp_leaders ~src:left ~tag:t (range (ridx * s) s);
      Coll_sched.fence b
    done
  end;
  Coll_sched.fence b;
  (* Phase 3: each leader broadcasts the full table down its shard. *)
  if s > 1 then
    sched_bcast_binomial ~phase:Comm.Hier_bcast b h.hp_shard ~root:0
      ~me:h.hp_sme (range 0 n);
  blocks

let iallgather ?(algo : allgather_algo = `Auto) p comm ~send =
  let n = Comm.size comm in
  let me = Mpi.comm_rank p comm in
  let b = builder p comm Kind.allgather in
  let algo =
    match algo with
    | `Auto ->
        if hier_allgather_applicable p comm then `Hier
        else
          (allgather_algo_for (cost_of p) ~n ~bytes:(Bytes.length send)
            :> [ `Ring | `Rd | `Hier ])
    | (`Ring | `Rd | `Hier) as a -> a
  in
  let blocks =
    match algo with
    | `Ring -> sched_allgather_ring b comm ~me ~send
    | `Rd -> sched_allgather_rd b comm ~me ~send
    | `Hier ->
        if not (hier_allgather_applicable p comm) then
          invalid_arg
            "Collectives.allgather: `Hier needs a multi-node topology and \
             a node-aligned contiguous communicator";
        sched_allgather_hier b p comm ~me ~send
  in
  (Coll_sched.start b, blocks)

let allgather ?algo p comm ~send =
  let req, blocks = iallgather ?algo p comm ~send in
  wait_sched p req;
  blocks

(* ------------------------------------------------------------------ *)
(* Alltoall                                                            *)
(* ------------------------------------------------------------------ *)

let ialltoall p comm ~send =
  let n = Comm.size comm in
  let me = Mpi.comm_rank p comm in
  if Array.length send <> n then
    invalid_arg "Collectives.alltoall: need one block per member";
  let blk = Bytes.length send.(0) in
  Array.iter
    (fun bl ->
      if Bytes.length bl <> blk then
        invalid_arg "Collectives.alltoall: blocks must have equal length")
    send;
  let b = builder p comm Kind.alltoall in
  let recv = Array.init n (fun _ -> Bytes.create blk) in
  Coll_sched.copy b
    ~src:(Buffer_view.of_bytes send.(me))
    ~dst:(Buffer_view.of_bytes recv.(me));
  (* Everything in one round: no ordering deadlocks. *)
  for r = 0 to n - 1 do
    if r <> me then begin
      srecv b comm ~src:r ~tag:(tag Comm.Alltoall)
        (Buffer_view.of_bytes recv.(r));
      ssend b comm ~dst:r ~tag:(tag Comm.Alltoall)
        (Buffer_view.of_bytes send.(r))
    end
  done;
  (Coll_sched.start b, recv)

let alltoall p comm ~send =
  let req, recv = ialltoall p comm ~send in
  wait_sched p req;
  recv

(* ------------------------------------------------------------------ *)
(* Reduce (binomial)                                                   *)
(* ------------------------------------------------------------------ *)

(* The tree is rooted at rank 0 rather than rotated to the caller's
   root: rank rotation would fold in rotated order, silently breaking
   non-commutative operators at any root but 0. Rooting at 0 keeps the
   fold in absolute rank order; one extra message relocates the result
   when another root was asked for. (Rank 0 never sends inside the tree,
   so the relocation cannot be confused with a tree message.) *)
let sched_reduce ?(phase = Comm.Reduce) b comm ~root ~me ~op send =
  let n = Comm.size comm in
  let len = Bytes.length send in
  let acc = Bytes.copy send in
  let tmp = Bytes.create len in
  let mask = ref 1 in
  let sent = ref false in
  while !mask < n && not !sent do
    if me land !mask = 0 then begin
      let src = me lor !mask in
      if src < n then begin
        srecv b comm ~src ~tag:(tag phase) (Buffer_view.of_bytes tmp);
        Coll_sched.fence b;
        Coll_sched.reduce b ~label:"fold" (fun () -> op acc tmp);
        Coll_sched.fence b
      end
    end
    else begin
      ssend b comm ~dst:(me land lnot !mask) ~tag:(tag phase)
        (Buffer_view.of_bytes acc);
      sent := true
    end;
    mask := !mask lsl 1
  done;
  Coll_sched.fence b;
  if root = 0 then if me = 0 then Some acc else None
  else if me = 0 then begin
    ssend b comm ~dst:root ~tag:(tag phase) (Buffer_view.of_bytes acc);
    None
  end
  else if me = root then begin
    srecv b comm ~src:0 ~tag:(tag phase) (Buffer_view.of_bytes acc);
    Some acc
  end
  else None

let ireduce p comm ~root ~op send =
  let me = Mpi.comm_rank p comm in
  let b = builder p comm Kind.reduce in
  let out = sched_reduce b comm ~root ~me ~op send in
  (Coll_sched.start b, out)

let reduce p comm ~root ~op send =
  let req, out = ireduce p comm ~root ~op send in
  wait_sched p req;
  out

(* ------------------------------------------------------------------ *)
(* Allreduce                                                           *)
(* ------------------------------------------------------------------ *)

(* The naive reference: a binomial reduce to rank 0 followed by a
   binomial bcast — 2 log n rounds on a serial chain through rank 0. *)
let sched_allreduce_linear b comm ~me ~op send =
  let result =
    match sched_reduce b comm ~root:0 ~me ~op send with
    | Some acc -> acc
    | None -> Bytes.create (Bytes.length send)
  in
  Coll_sched.fence b;
  sched_bcast_binomial b comm ~root:0 ~me (Buffer_view.of_bytes result);
  result

(* Non-power-of-two pre-phase shared by recursive doubling and
   Rabenseifner: the first 2 * rem members collapse pairwise (even ranks
   fold into their odd neighbour and drop out), leaving a power-of-two
   set of "new ranks" whose order preserves old-rank order — so a
   non-commutative (but associative) operator still folds in rank
   order. Returns the new rank, or -1 for a dropped-out member.

   The acc/tmp buffer roles rotate deterministically, so the compiler
   tracks which physical buffer holds the accumulator at every round and
   captures it in the step closures — the schedule never re-reads the
   refs at run time. *)
let sched_fold_pairs b comm ~phase ~op ~acc ~tmp ~me ~rem =
  if me < 2 * rem then
    if me land 1 = 0 then begin
      ssend b comm ~dst:(me + 1) ~tag:(rtag phase 0)
        (Buffer_view.of_bytes !acc);
      Coll_sched.fence b;
      -1
    end
    else begin
      let a = !acc and t = !tmp in
      srecv b comm ~src:(me - 1) ~tag:(rtag phase 0)
        (Buffer_view.of_bytes t);
      Coll_sched.fence b;
      (* The lower rank's data folds first: acc := recv (+) acc. *)
      Coll_sched.reduce b ~label:"fold-pair" (fun () -> op t a);
      Coll_sched.fence b;
      acc := t;
      tmp := a;
      me asr 1
    end
  else me - rem

(* Send the finished result back to the members dropped in the
   pre-phase. *)
let sched_unfold_pairs b comm ~phase ~round ~acc ~me ~rem =
  if me < 2 * rem then
    if me land 1 = 1 then
      ssend b comm ~dst:(me - 1) ~tag:(rtag phase round)
        (Buffer_view.of_bytes !acc)
    else
      srecv b comm ~src:(me + 1) ~tag:(rtag phase round)
        (Buffer_view.of_bytes !acc)

let old_rank_of ~rem pn = if pn < rem then (2 * pn) + 1 else pn + rem

(* Recursive doubling: log n rounds of pairwise whole-buffer exchange.
   At every step the two sides hold folds of adjacent contiguous rank
   blocks, and the fold direction follows block order, so the operator
   need not commute. *)
let sched_allreduce_rd ?(phase = Comm.Allreduce_rd) ?acc:acc0 b comm ~me ~op
    send =
  let n = Comm.size comm in
  let len = Bytes.length send in
  (* [?acc]: start from this buffer in place (its contents materialize at
     run time — e.g. a preceding in-shard reduce phase) instead of a
     build-time copy of [send]. *)
  let acc = ref (match acc0 with Some a -> a | None -> Bytes.copy send) in
  let tmp = ref (Bytes.create len) in
  let pof2 = floor_pow2 n in
  let rem = n - pof2 in
  let newrank = sched_fold_pairs b comm ~phase ~op ~acc ~tmp ~me ~rem in
  if newrank >= 0 then begin
    let mask = ref 1 and round = ref 1 in
    while !mask < pof2 do
      let pn = newrank lxor !mask in
      let po = old_rank_of ~rem pn in
      let t = rtag phase !round in
      let a = !acc and tm = !tmp in
      ssend b comm ~dst:po ~tag:t (Buffer_view.of_bytes a);
      srecv b comm ~src:po ~tag:t (Buffer_view.of_bytes tm);
      Coll_sched.fence b;
      if newrank land !mask = 0 then (* my block is the lower one *)
        Coll_sched.reduce b ~label:"fold-lower" (fun () -> op a tm)
      else begin
        Coll_sched.reduce b ~label:"fold-upper" (fun () -> op tm a);
        acc := tm;
        tmp := a
      end;
      Coll_sched.fence b;
      mask := !mask lsl 1;
      incr round
    done
  end;
  sched_unfold_pairs b comm ~phase
    ~round:((Comm.coll_range phase).width - 1)
    ~acc ~me ~rem;
  !acc

(* Rabenseifner: reduce-scatter by recursive halving, then allgather by
   recursive doubling. Each member moves ~2x the payload in 2 log n
   rounds instead of recursive doubling's (log n) x payload — the
   bandwidth-bound winner. The halving phase combines non-adjacent rank
   groups, so this algorithm requires a commutative operator (as in
   MPICH2); {!allreduce_algo_for} only selects it when [commutative].
   [granule] is the element size in bytes: segment boundaries are aligned
   to it so the opaque byte-wise operator never sees a torn element. *)
let sched_allreduce_rabenseifner ?(phase = Comm.Rabenseifner) ?acc:acc0 b comm
    ~me ~op ~granule send =
  let n = Comm.size comm in
  let len = Bytes.length send in
  if granule <= 0 || len mod granule <> 0 then
    invalid_arg "Collectives.allreduce: granule must divide the payload";
  let pof2 = floor_pow2 n in
  let rem = n - pof2 in
  let elems = len / granule in
  if elems < pof2 then
    invalid_arg
      "Collectives.allreduce: Rabenseifner needs at least one element per \
       member";
  (* Block b spans bytes [boff b, boff (b + 1)); balanced element split. *)
  let bbase = elems / pof2 and bextra = elems mod pof2 in
  let boff b = granule * ((b * bbase) + min b bextra) in
  let acc = ref (match acc0 with Some a -> a | None -> Bytes.copy send) in
  let tmp = ref (Bytes.create len) in
  let newrank = sched_fold_pairs b comm ~phase ~op ~acc ~tmp ~me ~rem in
  if newrank >= 0 then begin
    (* The buffer roles are fixed from here on. *)
    let a = !acc in
    (* Reduce-scatter by recursive halving: narrow [lo, hi) down to my
       own block, folding the half I keep. *)
    let lo = ref 0 and hi = ref pof2 in
    let mask = ref (pof2 asr 1) and round = ref 1 in
    while !mask >= 1 do
      let pn = newrank lxor !mask in
      let po = old_rank_of ~rem pn in
      let mid = !lo + !mask in
      let (slo, shi), (klo, khi) =
        if newrank land !mask = 0 then ((mid, !hi), (!lo, mid))
        else ((!lo, mid), (mid, !hi))
      in
      let sb = boff slo and se = boff shi in
      let kb = boff klo and ke = boff khi in
      let t = rtag phase !round in
      let seg = Bytes.create (ke - kb) in
      ssend b comm ~dst:po ~tag:t
        (Buffer_view.of_bytes_sub a ~off:sb ~len:(se - sb));
      srecv b comm ~src:po ~tag:t (Buffer_view.of_bytes seg);
      Coll_sched.fence b;
      (* Fold the received half into the kept range (commutative op, so
         direction is free); the operator needs a whole buffer, hence the
         sub-copy in and out — the one staging copy that must stay. *)
      Coll_sched.reduce b ~label:"fold-half" (fun () ->
          let mine = Bytes.sub a kb (ke - kb) in
          op mine seg;
          Bytes.blit mine 0 a kb (ke - kb));
      Coll_sched.fence b;
      lo := klo;
      hi := khi;
      mask := !mask asr 1;
      incr round
    done;
    (* Allgather by recursive doubling: exchange doubling aligned block
       ranges until everyone holds the whole reduced buffer. *)
    let mask = ref 1 in
    while !mask < pof2 do
      let pn = newrank lxor !mask in
      let po = old_rank_of ~rem pn in
      let rlo = newrank land lnot (!mask - 1) in
      let plo = rlo lxor !mask in
      let sb = boff rlo and se = boff (rlo + !mask) in
      let rb = boff plo and re = boff (plo + !mask) in
      let t = rtag phase !round in
      ssend b comm ~dst:po ~tag:t
        (Buffer_view.of_bytes_sub a ~off:sb ~len:(se - sb));
      srecv b comm ~src:po ~tag:t
        (Buffer_view.of_bytes_sub a ~off:rb ~len:(re - rb));
      Coll_sched.fence b;
      mask := !mask lsl 1;
      incr round
    done
  end;
  sched_unfold_pairs b comm ~phase
    ~round:((Comm.coll_range phase).width - 1)
    ~acc ~me ~rem;
  !acc

(* Two-level allreduce: binomial reduce within each shard (rank order,
   so non-commutative operators stay correct), allreduce of the shard
   results across the leaders — picked by the same size-aware policy as
   the flat path, at n = #nodes — then binomial bcast down each shard.
   Total messages with equal shards: 2S(s - 1) intra-node plus the
   leader phase's 2 rem + pof2 log2(pof2) inter-node; the critical path
   is ~2 log s shared-memory hops + 2 log L wire hops instead of the
   flat algorithm's 2 log n wire hops. *)
let sched_allreduce_hier b p comm ~op ~granule ~commutative send =
  let h = hier_parts p comm in
  let s = Comm.size h.hp_shard in
  let nl = Comm.size h.hp_leaders in
  let len = Bytes.length send in
  (* Phase 1: fold the shard into its leader. *)
  let acc =
    if s > 1 then
      match
        sched_reduce ~phase:Comm.Hier_reduce b h.hp_shard ~root:0 ~me:h.hp_sme
          ~op send
      with
      | Some acc -> acc
      | None -> Bytes.create len (* filled by the phase-3 bcast *)
    else Bytes.copy send
  in
  Coll_sched.fence b;
  (* Phase 2: leaders combine the shard results across nodes. The
     accumulator is threaded in place ([?acc]): its contents exist only
     at run time, after phase 1 retires. *)
  let result =
    if h.hp_sme = 0 && nl > 1 then begin
      match
        allreduce_algo_for (cost_of p) ~n:nl ~bytes:len ~granule ~commutative
      with
      | `Rabenseifner ->
          sched_allreduce_rabenseifner ~phase:Comm.Hier_rs ~acc b h.hp_leaders
            ~me:h.hp_lme ~op ~granule acc
      | `Rd | `Linear ->
          sched_allreduce_rd ~phase:Comm.Hier_rd ~acc b h.hp_leaders
            ~me:h.hp_lme ~op acc
    end
    else acc
  in
  Coll_sched.fence b;
  (* Phase 3: each leader broadcasts the finished result down its
     shard. *)
  if s > 1 then
    sched_bcast_binomial ~phase:Comm.Hier_bcast b h.hp_shard ~root:0
      ~me:h.hp_sme
      (Buffer_view.of_bytes result);
  result

let iallreduce ?(algo : allreduce_algo = `Auto) ?(granule = 8)
    ?(commutative = true) p comm ~op send =
  let n = Comm.size comm in
  let b = builder p comm Kind.allreduce in
  if n = 1 then (Coll_sched.start b, Bytes.copy send)
  else begin
    let me = Mpi.comm_rank p comm in
    let algo =
      match algo with
      | `Auto ->
          if hier_applicable p comm then `Hier
          else
            (allreduce_algo_for (cost_of p) ~n ~bytes:(Bytes.length send)
               ~granule ~commutative
              :> [ `Linear | `Rd | `Rabenseifner | `Hier ])
      | (`Linear | `Rd | `Rabenseifner | `Hier) as a -> a
    in
    let out =
      match algo with
      | `Linear -> sched_allreduce_linear b comm ~me ~op send
      | `Rd -> sched_allreduce_rd b comm ~me ~op send
      | `Rabenseifner -> sched_allreduce_rabenseifner b comm ~me ~op ~granule send
      | `Hier ->
          if not (hier_applicable p comm) then
            invalid_arg
              "Collectives.allreduce: `Hier needs a multi-node topology \
               and a contiguous communicator";
          sched_allreduce_hier b p comm ~op ~granule ~commutative send
    in
    (Coll_sched.start b, out)
  end

let allreduce ?algo ?granule ?commutative p comm ~op send =
  let req, out = iallreduce ?algo ?granule ?commutative p comm ~op send in
  wait_sched p req;
  out

(* ------------------------------------------------------------------ *)
(* Scan                                                                *)
(* ------------------------------------------------------------------ *)

(* Linear pipeline scan: member r receives the prefix of 0..r-1 from its
   left neighbour, folds its own contribution, and forwards. MPI requires
   rank order for non-commutative operators, which this preserves. The
   fold runs as [op prefix mine] with the result living in the prefix
   buffer, dropping the blocking engine's copy-swap of the accumulator. *)
let iscan p comm ~op send =
  let n = Comm.size comm in
  let me = Mpi.comm_rank p comm in
  let b = builder p comm Kind.scan in
  let mine = Bytes.copy send in
  let result =
    if me > 0 then begin
      let prefix = Bytes.create (Bytes.length send) in
      srecv b comm ~src:(me - 1) ~tag:(tag Comm.Scan)
        (Buffer_view.of_bytes prefix);
      Coll_sched.fence b;
      (* prefix := prefix op mine, keeping rank order. *)
      Coll_sched.reduce b ~label:"fold-prefix" (fun () -> op prefix mine);
      Coll_sched.fence b;
      prefix
    end
    else mine
  in
  if me < n - 1 then
    ssend b comm ~dst:(me + 1) ~tag:(tag Comm.Scan)
      (Buffer_view.of_bytes result);
  (Coll_sched.start b, result)

let scan p comm ~op send =
  let req, out = iscan p comm ~op send in
  wait_sched p req;
  out

(* ------------------------------------------------------------------ *)
(* Reduce-scatter                                                      *)
(* ------------------------------------------------------------------ *)

let reduce_scatter_block p comm ~op send =
  let n = Comm.size comm in
  let total = Bytes.length send in
  if total mod n <> 0 then
    invalid_arg
      "Collectives.reduce_scatter_block: length must be a multiple of the \
       communicator size";
  let block = total / n in
  let me = Mpi.comm_rank p comm in
  let full =
    match reduce p comm ~root:0 ~op send with
    | Some acc -> acc
    | None -> Bytes.create total
  in
  let mine = Bytes.create block in
  let parts =
    if me = 0 then
      Some
        (Array.init n (fun r ->
             Buffer_view.of_bytes_sub full ~off:(r * block) ~len:block))
    else None
  in
  scatter ~block p comm ~root:0 ~parts ~recv:(Buffer_view.of_bytes mine);
  mine

(* ------------------------------------------------------------------ *)
(* Predefined operators                                                *)
(* ------------------------------------------------------------------ *)

let lanes op acc x =
  Lanes.combine op ~dst:acc ~dst_off:0 ~src:x ~len:(Bytes.length acc)

let sum_f64 acc x = lanes Lanes.Add_f64 acc x
let sum_i32 acc x = lanes Lanes.Add_i32 acc x
let sum_i64 acc x = lanes Lanes.Add_i64 acc x
