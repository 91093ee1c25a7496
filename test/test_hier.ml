(* Topology-aware hierarchical collectives and sparse communicator
   state: the two-level algorithms against the flat oracles, the derived
   shard/leader communicators, O(1) membership at scale, and the
   analytic two-level shape (rounds and per-tier message counts) at
   4096 ranks. *)

module Mpi = Mpi_core.Mpi
module Comm = Mpi_core.Comm
module Group = Mpi_core.Group
module Coll = Mpi_core.Collectives
module Sched = Mpi_core.Coll_sched
module Bv = Mpi_core.Buffer_view
module Topology = Simtime.Topology
module Key = Simtime.Stats.Key

let stats w = (Mpi.env w).Simtime.Env.stats
let payload n seed = Bytes.init n (fun i -> Char.chr ((i * 7 + seed) land 0xff))

let log2i n =
  let r = ref 0 and v = ref n in
  while !v > 1 do
    incr r;
    v := !v lsr 1
  done;
  !r

(* ------------------------------------------------------------------ *)
(* The fabric model                                                    *)
(* ------------------------------------------------------------------ *)

let test_topology_model () =
  let t = Topology.make ~nodes:4 ~cores:3 in
  Alcotest.(check int) "size" 12 (Topology.size t);
  Alcotest.(check bool) "multi-node" true (Topology.multi_node t);
  Alcotest.(check int) "node of 7" 2 (Topology.node_of t 7);
  Alcotest.(check bool) "same node" true (Topology.same_node t 3 5);
  Alcotest.(check bool) "node boundary" false (Topology.same_node t 2 3);
  (* Ranks beyond the fabric (dynamic spawns) clamp to the last node. *)
  Alcotest.(check int) "overflow clamps" 3 (Topology.node_of t 40);
  let s = Topology.single ~n:5 in
  Alcotest.(check bool) "single is flat" false (Topology.multi_node s);
  Alcotest.(check bool) "all same node" true (Topology.same_node s 0 4)

(* ------------------------------------------------------------------ *)
(* Sparse membership: no O(world) arrays for identity communicators    *)
(* ------------------------------------------------------------------ *)

let test_sparse_world_64k () =
  (* Constructing a 64k-rank world must not materialize membership
     arrays: the world communicator, its group, and the derived
     shard/leader communicators are all O(1) descriptors. *)
  let n = 65536 in
  let w =
    Mpi.create_world ~topology:(Topology.make ~nodes:1024 ~cores:64) ~n ()
  in
  let comm = Mpi.comm_world w in
  Alcotest.(check bool) "world is a range" true (Comm.range_info comm <> None);
  Alcotest.(check int) "world size" n (Comm.size comm);
  Alcotest.(check (option (triple int int int)))
    "contiguous descriptor"
    (Some (0, 1, n))
    (Comm.range_info comm);
  Alcotest.(check bool) "group stays a range" true
    (Group.is_range (Group.of_comm comm));
  (* Both rank mappings are O(1) lookups on the descriptor. *)
  Alcotest.(check int) "world_rank_of" 65535 (Comm.world_rank_of comm 65535);
  Alcotest.(check (option int)) "comm_rank_of" (Some 40000)
    (Comm.comm_rank_of comm 40000)

let test_hier_comms () =
  ignore
    (Mpi.run ~n:12 ~topology:(Topology.make ~nodes:4 ~cores:3) (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         let me = Mpi.rank p in
         let node = me / 3 in
         let shard = Mpi.shard_comm p comm in
         Alcotest.(check int) "shard size" 3 (Comm.size shard);
         Alcotest.(check (option (triple int int int)))
           "shard is my node's contiguous slice"
           (Some (node * 3, 1, 3))
           (Comm.range_info shard);
         Alcotest.(check (option int))
           "my shard rank"
           (Some (me mod 3))
           (Comm.comm_rank_of shard me);
         let leaders = Mpi.leader_comm p comm in
         Alcotest.(check (option (triple int int int)))
           "leaders are a strided slice"
           (Some (0, 3, 4))
           (Comm.range_info leaders);
         Alcotest.(check bool)
           "leader iff first on node"
           (me mod 3 = 0)
           (Mpi.is_shard_leader p comm)))

(* ------------------------------------------------------------------ *)
(* Two-level collectives vs the flat oracles                           *)
(* ------------------------------------------------------------------ *)

let run_hier body =
  ignore (Mpi.run ~n:16 ~topology:(Topology.make ~nodes:4 ~cores:4) body)

let test_hier_allreduce_matches_oracle () =
  run_hier (fun p ->
      let comm = Mpi.comm_world (Mpi.world_of p) in
      let me = Mpi.rank p in
      Alcotest.(check bool) "hier applies" true (Coll.hier_applicable p comm);
      let mine = Bytes.create 16 in
      for j = 0 to 3 do
        Bytes.set_int32_le mine (4 * j) (Int32.of_int ((me * 131) + j))
      done;
      let hier = Coll.allreduce ~algo:`Hier p comm ~op:Coll.sum_i32 mine in
      let flat = Coll.allreduce ~algo:`Linear p comm ~op:Coll.sum_i32 mine in
      Alcotest.(check bytes)
        (Printf.sprintf "rank %d converged" me)
        flat hier)

(* Affine maps x -> a*x + b under composition: associative but not
   commutative, so this catches any fold-order violation across the
   shard-reduce / leader-allreduce / shard-bcast phases. *)
let affine_op acc x =
  let a1 = Bytes.get_int32_le acc 0 and b1 = Bytes.get_int32_le acc 4 in
  let a2 = Bytes.get_int32_le x 0 and b2 = Bytes.get_int32_le x 4 in
  Bytes.set_int32_le acc 0 (Int32.mul a1 a2);
  Bytes.set_int32_le acc 4 (Int32.add (Int32.mul a1 b2) b1)

let affine_of me =
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int ((2 * me) + 3));
  Bytes.set_int32_le b 4 (Int32.of_int (me - 5));
  b

let test_hier_allreduce_non_commutative () =
  let n = 16 in
  let expected =
    let acc = Bytes.copy (affine_of 0) in
    for r = 1 to n - 1 do
      affine_op acc (affine_of r)
    done;
    acc
  in
  run_hier (fun p ->
      let comm = Mpi.comm_world (Mpi.world_of p) in
      let got =
        Coll.allreduce ~algo:`Hier ~commutative:false p comm ~op:affine_op
          (affine_of (Mpi.rank p))
      in
      Alcotest.(check bytes)
        (Printf.sprintf "rank %d rank-order fold" (Mpi.rank p))
        expected got)

let test_hier_bcast () =
  run_hier (fun p ->
      let comm = Mpi.comm_world (Mpi.world_of p) in
      let me = Mpi.rank p in
      (* Root 5 is a non-leader on node 1: exercises the relocation hop. *)
      let buf = if me = 5 then Bytes.copy (payload 96 5) else Bytes.create 96 in
      Coll.bcast ~algo:`Hier p comm ~root:5 (Bv.of_bytes buf);
      Alcotest.(check bytes)
        (Printf.sprintf "rank %d got root payload" me)
        (payload 96 5) buf)

let test_hier_allgather () =
  run_hier (fun p ->
      let comm = Mpi.comm_world (Mpi.world_of p) in
      let me = Mpi.rank p in
      let blocks = Coll.allgather ~algo:`Hier p comm ~send:(payload 8 me) in
      Alcotest.(check int) "one block per member" 16 (Array.length blocks);
      Array.iteri
        (fun r b ->
          Alcotest.(check bytes)
            (Printf.sprintf "rank %d block %d" me r)
            (payload 8 r) b)
        blocks)

let test_hier_uneven_subcomm () =
  (* A contiguous sub-communicator that straddles node boundaries with
     unequal shards (ranks 2..10 on 4 nodes of 3: shards of 1, 3, 3, 2).
     Allreduce / bcast / barrier work; the allgather's equal-shard layout
     does not apply, so forcing it must be rejected. *)
  ignore
    (Mpi.run ~n:12 ~topology:(Topology.make ~nodes:4 ~cores:3) (fun p ->
         let world = Mpi.comm_world (Mpi.world_of p) in
         let me = Mpi.rank p in
         let inside = me >= 2 && me <= 10 in
         let sub =
           Mpi.comm_split p world ~color:(if inside then 0 else 1) ~key:me
         in
         if inside then begin
           Alcotest.(check bool)
             "contiguous split is a range" true (Comm.range_info sub <> None);
           Alcotest.(check bool)
             "hier applies" true (Coll.hier_applicable p sub);
           Alcotest.(check bool)
             "hier allgather does not" false
             (Coll.hier_allgather_applicable p sub);
           let v = Bytes.create 4 in
           Bytes.set_int32_le v 0 (Int32.of_int (1 lsl me));
           let acc = Coll.allreduce ~algo:`Hier p sub ~op:Coll.sum_i32 v in
           Alcotest.(check int)
             (Printf.sprintf "rank %d bitmask" me)
             0b11111111100
             (Int32.to_int (Bytes.get_int32_le acc 0));
           let buf =
             if me = 4 then Bytes.copy (payload 32 4) else Bytes.create 32
           in
           Coll.bcast ~algo:`Hier p sub ~root:2 (Bv.of_bytes buf);
           (* Root is sub rank 2 = world rank 4. *)
           Alcotest.(check bytes)
             (Printf.sprintf "rank %d bcast" me)
             (payload 32 4) buf;
           Coll.barrier ~algo:`Hier p sub;
           Alcotest.check_raises "forced hier allgather rejected"
             (Invalid_argument
                "Collectives.allgather: `Hier needs a multi-node topology \
                 and a node-aligned contiguous communicator")
             (fun () -> ignore (Coll.allgather ~algo:`Hier p sub ~send:v))
         end))

let test_hier_barrier_overlap () =
  (* A hier barrier and a flat collective in flight on the same
     communicator must not cross-match: disjoint tag ranges. *)
  run_hier (fun p ->
      let comm = Mpi.comm_world (Mpi.world_of p) in
      let me = Mpi.rank p in
      let breq = Coll.ibarrier ~algo:`Hier p comm in
      let areq, acc =
        Coll.iallreduce ~algo:`Rd p comm ~op:Coll.sum_i32
          (let b = Bytes.create 4 in
           Bytes.set_int32_le b 0 (Int32.of_int me);
           b)
      in
      ignore (Mpi.wait p breq);
      ignore (Mpi.wait p areq);
      Alcotest.(check int)
        "sum unharmed" 120
        (Int32.to_int (Bytes.get_int32_le acc 0)))

(* ------------------------------------------------------------------ *)
(* The analytic two-level model at scale                               *)
(* ------------------------------------------------------------------ *)

(* 4096 ranks as 64 nodes x 64 cores, one 8-byte Auto allreduce. Auto
   must choose the two-level algorithm, whose shape is exact:
   - intra-node: a binomial reduce and a binomial bcast per shard,
     2 * S * (s - 1) messages;
   - inter-node: recursive doubling across the 64 leaders (8 bytes is
     far below the Rabenseifner threshold), pof2 * log2 pof2 messages
     (plus 2 * rem for a non-power-of-two leader count — zero here);
   - the leader's schedule runs 2 log2 s + 2 log2 L + 1 rounds (recv +
     fold per reduce level, exchange + fold per RD level, one final
     bcast fan-out round). *)
let test_analytic_shape_4k () =
  let nodes = 64 and cores = 64 in
  let n = nodes * cores in
  let len = 8 in
  let rounds_at_0 = ref None in
  let w =
    Mpi.run ~n ~topology:(Topology.make ~nodes ~cores) (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let me = Mpi.rank p in
        let mine = Bytes.create len in
        Bytes.set_int64_le mine 0 (Int64.of_int (me + 1));
        let req, acc = Coll.iallreduce p comm ~op:Coll.sum_i64 mine in
        ignore (Mpi.wait p req);
        if me = 0 then rounds_at_0 := Sched.info req;
        let expect = n * (n + 1) / 2 in
        if Int64.to_int (Bytes.get_int64_le acc 0) <> expect then
          Alcotest.failf "rank %d: bad sum" me)
  in
  let st = stats w in
  let get k = Simtime.Stats.get st k in
  let intra_expected = 2 * nodes * (cores - 1) in
  let inter_expected = nodes * log2i nodes in
  Alcotest.(check int) "intra-node messages" intra_expected
    (get Key.msgs_intra_node);
  Alcotest.(check int) "inter-node messages" inter_expected
    (get Key.msgs_inter_node);
  (* Eager wire bytes: payload plus the packet header, per message. *)
  let wire = len + Mpi_core.Packet.header_bytes in
  Alcotest.(check int) "intra-node bytes" (wire * intra_expected)
    (get Key.bytes_intra_node);
  Alcotest.(check int) "inter-node bytes" (wire * inter_expected)
    (get Key.bytes_inter_node);
  let rounds_expected = (2 * log2i cores) + (2 * log2i nodes) + 1 in
  match !rounds_at_0 with
  | None -> Alcotest.fail "rank 0 schedule shape evicted"
  | Some (rounds, _steps) ->
      Alcotest.(check int) "leader rounds" rounds_expected rounds

let () =
  Alcotest.run "hier"
    [
      ( "topology",
        [
          Alcotest.test_case "fabric model" `Quick test_topology_model;
          Alcotest.test_case "64k world is O(1) state" `Quick
            test_sparse_world_64k;
          Alcotest.test_case "shard and leader comms" `Quick test_hier_comms;
        ] );
      ( "collectives",
        [
          Alcotest.test_case "allreduce matches oracle" `Quick
            test_hier_allreduce_matches_oracle;
          Alcotest.test_case "non-commutative fold order" `Quick
            test_hier_allreduce_non_commutative;
          Alcotest.test_case "bcast from non-leader root" `Quick
            test_hier_bcast;
          Alcotest.test_case "allgather aligned" `Quick test_hier_allgather;
          Alcotest.test_case "uneven sub-communicator" `Quick
            test_hier_uneven_subcomm;
          Alcotest.test_case "overlaps a flat collective" `Quick
            test_hier_barrier_overlap;
        ] );
      ( "scale",
        [
          Alcotest.test_case "analytic shape at 4096 ranks" `Quick
            test_analytic_shape_4k;
        ] );
    ]
