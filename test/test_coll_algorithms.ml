(* The algorithm-selection layer of lib/mpi/collectives.ml: every
   algorithm against its linear/reference oracle across power-of-two and
   non-power-of-two communicators, rank-order preservation for
   non-commutative operators, the collective-context tag ranges, the
   trace-verified O(log n) round count, and the hot-path data structures
   the collectives lean on (matching queues, go-back-N window, buffer
   pool). *)

module Mpi = Mpi_core.Mpi
module Comm = Mpi_core.Comm
module Coll = Mpi_core.Collectives
module Bv = Mpi_core.Buffer_view
module Env = Simtime.Env

let payload seed n = Bytes.init n (fun i -> Char.chr ((i * 7 + seed) land 0xff))

(* Every collective — blocking shim or in-flight schedule — must leave
   the world quiescent: no posted receives never matched, no unexpected
   messages never claimed, no outstanding requests, no half-done
   rendezvous. Asserted after every oracle run below. *)
let assert_quiescent label w =
  match Mpi.quiescence_report w with
  | [] -> ()
  | issues ->
      Alcotest.failf "%s left debris: %s" label
        (String.concat "; "
           (List.map (fun (r, s) -> Printf.sprintf "rank %d: %s" r s) issues))

let run_quiescent ?fault ~n label body =
  assert_quiescent label (Mpi.run ?fault ~n body)

(* ------------------------------------------------------------------ *)
(* Collective-context tags                                             *)
(* ------------------------------------------------------------------ *)

(* Each case runs one algorithm (or comm_split) and names the phases
   whose ranges its messages may use. Every (context, tag) matched during
   the run must lie on the collective context, inside exactly one
   declared range, and that range must belong to one of the case's
   phases: a phase never emits another phase's tag. Together the cases
   exercise every declared range. *)
let test_coll_tags () =
  let module Topology = Simtime.Topology in
  let cost = { Simtime.Cost.motor with coll_rabenseifner_min_bytes = 64 } in
  let hier = Topology.make ~nodes:2 ~cores:4 in
  let world p = Mpi.comm_world (Mpi.world_of p) in
  let fan ~algo ~n f p =
    let comm = world p and me = Mpi.rank p in
    let parts = Array.init n (fun i -> Bv.of_bytes (payload i 16)) in
    f ~algo ~block:16 p comm ~root:1 ~me ~parts
  in
  let scatter ~algo ~block p comm ~root ~me ~parts =
    Coll.scatter ~algo ~block p comm ~root
      ~parts:(if me = root then Some parts else None)
      ~recv:(Bv.of_bytes (Bytes.create block))
  in
  let gather ~algo ~block p comm ~root ~me ~parts =
    Coll.gather ~algo ~block p comm ~root ~send:parts.(me)
      ~parts:(if me = root then Some parts else None)
  in
  let allreduce ?(bytes = 64) algo p =
    ignore
      (Coll.allreduce ~algo p (world p) ~op:Coll.sum_i64
         (payload (Mpi.rank p) bytes))
  in
  let bcast algo p =
    Coll.bcast ~algo p (world p) ~root:5 (Bv.of_bytes (Bytes.create 1024))
  in
  let allgather algo p =
    ignore (Coll.allgather ~algo p (world p) ~send:(payload (Mpi.rank p) 8))
  in
  let cases =
    let open Comm in
    [
      ("barrier", 6, None, [ Barrier ], fun p -> Coll.barrier p (world p));
      ("bcast binomial", 6, None, [ Bcast ], bcast `Binomial);
      ("bcast scag", 6, None, [ Bcast_scag ], bcast `Scatter_allgather);
      ("scatter", 8, None, [ Scatter ], fan ~algo:`Linear ~n:8 scatter);
      ( "scatter binomial", 8, None, [ Scatter_binomial ],
        fan ~algo:`Binomial ~n:8 scatter );
      ("gather", 8, None, [ Gather ], fan ~algo:`Linear ~n:8 gather);
      ( "gather binomial", 8, None, [ Gather_binomial ],
        fan ~algo:`Binomial ~n:8 gather );
      ("allgather ring", 6, None, [ Allgather_ring ], allgather `Ring);
      ("allgather rd", 8, None, [ Allgather_rd ], allgather `Rd);
      ( "reduce", 6, None, [ Reduce ],
        fun p ->
          ignore
            (Coll.reduce p (world p) ~root:2 ~op:Coll.sum_i64 (payload 0 64))
      );
      ("allreduce linear", 6, None, [ Reduce; Bcast ], allreduce `Linear);
      ("allreduce rd", 6, None, [ Allreduce_rd ], allreduce `Rd);
      ( "allreduce rabenseifner", 6, None, [ Rabenseifner ],
        allreduce `Rabenseifner );
      ( "alltoall", 6, None, [ Alltoall ],
        fun p ->
          ignore
            (Coll.alltoall p (world p)
               ~send:(Array.init 6 (fun i -> payload i 8))) );
      ( "scan", 6, None, [ Scan ],
        fun p ->
          ignore (Coll.scan p (world p) ~op:Coll.sum_i64 (payload 0 16)) );
      ( "hier allreduce rd", 8, Some hier,
        [ Hier_reduce; Hier_rd; Hier_bcast ], allreduce ~bytes:8 `Hier );
      ( "hier allreduce rabenseifner", 8, Some hier,
        [ Hier_reduce; Hier_rs; Hier_bcast ], allreduce `Hier );
      ( "hier bcast", 8, Some hier, [ Hier_root; Hier_xbcast; Hier_bcast ],
        bcast `Hier );
      ( "hier allgather", 8, Some hier,
        [ Hier_gather; Hier_ring; Hier_bcast ], allgather `Hier );
      ( "hier barrier", 8, Some hier, [ Hier_fan; Hier_barrier ],
        fun p -> Coll.barrier ~algo:`Hier p (world p) );
      ( "comm_split", 6, None, [ Split ],
        fun p ->
          ignore (Mpi.comm_split p (world p) ~color:(Mpi.rank p mod 2) ~key:0)
      );
    ]
  in
  let hit = Hashtbl.create 32 in
  List.iter
    (fun (name, n, topology, phases, body) ->
      let seen = ref [] in
      let w =
        Mpi.run ~cost ?topology ~n (fun p ->
            Mpi_core.Ch3.set_match_observer (Mpi.device p)
              (Some
                 (fun e ->
                   seen :=
                     (e.Mpi_core.Packet.e_context, e.e_tag) :: !seen));
            body p)
      in
      assert_quiescent name w;
      let ctx_coll = (Mpi.comm_world w).Comm.ctx_coll in
      if !seen = [] then Alcotest.failf "%s sent nothing" name;
      List.iter
        (fun (ctx, tag) ->
          if ctx <> ctx_coll then
            Alcotest.failf "%s: tag %#x on context %d, not %d" name tag ctx
              ctx_coll;
          match
            List.filter
              (fun r -> r.Comm.base <= tag && tag < r.base + r.width)
              Comm.tag_ranges
          with
          | [ r ] ->
              if not (List.mem r.phase phases) then
                Alcotest.failf "%s: tag %#x is in another phase's range \
                                [%#x, %#x)"
                  name tag r.base (r.base + r.width);
              Hashtbl.replace hit r.phase ()
          | rs ->
              Alcotest.failf "%s: tag %#x lies in %d declared ranges" name tag
                (List.length rs))
        !seen)
    cases;
  List.iter
    (fun r ->
      if not (Hashtbl.mem hit r.Comm.phase) then
        Alcotest.failf "range [%#x, %#x) never exercised" r.base
          (r.base + r.width))
    Comm.tag_ranges

(* ------------------------------------------------------------------ *)
(* Oracle tests: each algorithm vs its linear reference                *)
(* ------------------------------------------------------------------ *)

(* 2..9 covers 2 through 8 = power-of-two and 3,5,6,7,9 = the
   non-power-of-two pre-phase paths (rem folding, odd tails). *)
let oracle_sizes = [ 2; 3; 4; 5; 6; 7; 8; 9 ]

let test_allreduce_oracle () =
  List.iter
    (fun n ->
      List.iter
        (fun bytes ->
          (* The oracle: the linear algorithm on the same inputs. *)
          let expected = ref Bytes.empty in
          run_quiescent ~n "allreduce linear oracle" (fun p ->
              let comm = Mpi.comm_world (Mpi.world_of p) in
              let mine = payload (Mpi.rank p) bytes in
              let r = Coll.allreduce ~algo:`Linear p comm ~op:Coll.sum_i64 mine in
              if Mpi.rank p = 0 then expected := r);
          List.iter
            (fun (algo, name) ->
              run_quiescent ~n ("allreduce " ^ name) (fun p ->
                  let comm = Mpi.comm_world (Mpi.world_of p) in
                  let mine = payload (Mpi.rank p) bytes in
                  let keep = Bytes.copy mine in
                  let r = Coll.allreduce ~algo p comm ~op:Coll.sum_i64 mine in
                  Alcotest.(check bytes)
                    (Printf.sprintf "%s n=%d bytes=%d rank=%d input intact"
                       name n bytes (Mpi.rank p))
                    keep mine;
                  Alcotest.(check bytes)
                    (Printf.sprintf "%s n=%d bytes=%d rank=%d" name n bytes
                       (Mpi.rank p))
                    !expected r))
            ([ (`Rd, "rd"); (`Auto, "auto") ]
            @
            (* Rabenseifner needs >= 1 granule per member of the pow2
               subgroup. *)
            if bytes / 8 >= n then [ (`Rabenseifner, "rabenseifner") ]
            else []))
        [ 64; 1024 ])
    oracle_sizes

let test_bcast_oracle () =
  List.iter
    (fun n ->
      List.iter
        (fun bytes ->
          List.iter
            (fun (algo, name) ->
              let root = (n - 1) mod n in
              run_quiescent ~n ("bcast " ^ name) (fun p ->
                  let comm = Mpi.comm_world (Mpi.world_of p) in
                  let me = Mpi.rank p in
                  let b =
                    if me = root then Bytes.copy (payload 42 bytes)
                    else Bytes.create bytes
                  in
                  Coll.bcast ~algo p comm ~root (Bv.of_bytes b);
                  Alcotest.(check bytes)
                    (Printf.sprintf "%s n=%d bytes=%d rank=%d" name n bytes me)
                    (payload 42 bytes) b))
            [ (`Binomial, "binomial"); (`Scatter_allgather, "scag");
              (`Auto, "auto") ])
        [ 63; 1024 ])
    oracle_sizes

let test_scatter_gather_oracle () =
  List.iter
    (fun n ->
      List.iter
        (fun block ->
          List.iter
            (fun (algo, name) ->
              let root = n / 2 in
              run_quiescent ~n
                ("scatter/gather " ^ name)
                (fun p ->
                     let comm = Mpi.comm_world (Mpi.world_of p) in
                     let me = Mpi.rank p in
                     (* Scatter: rank r must get part r. *)
                     let parts =
                       if me = root then
                         Some
                           (Array.init n (fun i ->
                                Bv.of_bytes (payload i block)))
                       else None
                     in
                     let mine = Bytes.create block in
                     Coll.scatter ~algo ~block p comm ~root ~parts
                       ~recv:(Bv.of_bytes mine);
                     Alcotest.(check bytes)
                       (Printf.sprintf "scatter/%s n=%d block=%d rank=%d" name
                          n block me)
                       (payload me block) mine;
                     (* Gather the same data back: root must reassemble. *)
                     let out =
                       if me = root then
                         Some (Array.init n (fun _ -> Bytes.create block))
                       else None
                     in
                     Coll.gather ~algo ~block p comm ~root
                       ~send:(Bv.of_bytes mine)
                       ~parts:
                         (Option.map (Array.map Bv.of_bytes) out);
                     match out with
                     | Some arr ->
                         Array.iteri
                           (fun i b ->
                             Alcotest.(check bytes)
                               (Printf.sprintf "gather/%s n=%d block=%d part=%d"
                                  name n block i)
                               (payload i block) b)
                           arr
                     | None -> ()))
            [ (`Linear, "linear"); (`Binomial, "binomial"); (`Auto, "auto") ])
        [ 16; 1000 ])
    oracle_sizes

let test_allgather_oracle () =
  List.iter
    (fun n ->
      List.iter
        (fun block ->
          let algos =
            [ (`Ring, "ring"); (`Auto, "auto") ]
            @ if n land (n - 1) = 0 then [ (`Rd, "rd") ] else []
          in
          List.iter
            (fun (algo, name) ->
              run_quiescent ~n ("allgather " ^ name) (fun p ->
                  let comm = Mpi.comm_world (Mpi.world_of p) in
                  let me = Mpi.rank p in
                  let blocks =
                    Coll.allgather ~algo p comm ~send:(payload me block)
                  in
                  Alcotest.(check int)
                    (Printf.sprintf "allgather/%s n=%d count" name n)
                    n (Array.length blocks);
                  Array.iteri
                    (fun i b ->
                      Alcotest.(check bytes)
                        (Printf.sprintf "allgather/%s n=%d block=%d @%d"
                           name n block i)
                        (payload i block) b)
                    blocks))
            algos)
        [ 8; 640 ])
    oracle_sizes

let test_allgather_rd_rejects_non_pow2 () =
  ignore
    (Mpi.run ~n:3 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         Alcotest.check_raises "rd on 3 ranks" (Invalid_argument
           "Collectives.allgather: recursive doubling needs a power-of-two \
            communicator") (fun () ->
             ignore (Coll.allgather ~algo:`Rd p comm ~send:(Bytes.create 8)))))

(* ------------------------------------------------------------------ *)
(* Nonblocking collectives vs the blocking oracles                     *)
(* ------------------------------------------------------------------ *)

(* The blocking result of sum_i64 over ranks 0..n-1, computed locally:
   the oracle for ireduce/iallreduce. *)
let fold_sum n bytes =
  let acc = Bytes.copy (payload 0 bytes) in
  for r = 1 to n - 1 do
    Coll.sum_i64 acc (payload r bytes)
  done;
  acc

(* One body exercising every i-collective back to back; run over every
   oracle size so the schedules see power-of-two and ragged
   communicators, and always followed by the quiescence check (no
   schedule may leave stray posted receives or unclaimed messages). *)
let icoll_body n p =
  let comm = Mpi.comm_world (Mpi.world_of p) in
  let me = Mpi.rank p in
  (* ibarrier *)
  ignore (Mpi.wait p (Coll.ibarrier p comm));
  (* ibcast *)
  let broot = 1 mod n in
  let bbytes = 300 in
  let bbuf =
    if me = broot then Bytes.copy (payload 77 bbytes)
    else Bytes.create bbytes
  in
  ignore (Mpi.wait p (Coll.ibcast p comm ~root:broot (Bv.of_bytes bbuf)));
  Alcotest.(check bytes)
    (Printf.sprintf "ibcast n=%d rank=%d" n me)
    (payload 77 bbytes) bbuf;
  (* iscatter / igather round trip *)
  let block = 64 in
  let sroot = n - 1 in
  let parts =
    if me = sroot then
      Some (Array.init n (fun i -> Bv.of_bytes (payload i block)))
    else None
  in
  let mine = Bytes.create block in
  ignore
    (Mpi.wait p
       (Coll.iscatter ~block p comm ~root:sroot ~parts
          ~recv:(Bv.of_bytes mine)));
  Alcotest.(check bytes)
    (Printf.sprintf "iscatter n=%d rank=%d" n me)
    (payload me block) mine;
  let out =
    if me = sroot then Some (Array.init n (fun _ -> Bytes.create block))
    else None
  in
  ignore
    (Mpi.wait p
       (Coll.igather ~block p comm ~root:sroot ~send:(Bv.of_bytes mine)
          ~parts:(Option.map (Array.map Bv.of_bytes) out)));
  (match out with
  | Some arr ->
      Array.iteri
        (fun i b ->
          Alcotest.(check bytes)
            (Printf.sprintf "igather n=%d part=%d" n i)
            (payload i block) b)
        arr
  | None -> ());
  (* iallgather *)
  let ag = 48 in
  let req, blocks = Coll.iallgather p comm ~send:(payload me ag) in
  ignore (Mpi.wait p req);
  Alcotest.(check int) (Printf.sprintf "iallgather n=%d count" n) n
    (Array.length blocks);
  Array.iteri
    (fun i b ->
      Alcotest.(check bytes)
        (Printf.sprintf "iallgather n=%d @%d" n i)
        (payload i ag) b)
    blocks;
  (* ialltoall: cell (src, dst) carries payload (src * n + dst). *)
  let a2a = 32 in
  let send = Array.init n (fun d -> payload ((me * n) + d) a2a) in
  let req, recvd = Coll.ialltoall p comm ~send in
  ignore (Mpi.wait p req);
  Array.iteri
    (fun s b ->
      Alcotest.(check bytes)
        (Printf.sprintf "ialltoall n=%d from=%d" n s)
        (payload ((s * n) + me) a2a)
        b)
    recvd;
  (* ireduce at root 0 *)
  let rbytes = 128 in
  let req, acc = Coll.ireduce p comm ~root:0 ~op:Coll.sum_i64 (payload me rbytes) in
  ignore (Mpi.wait p req);
  (match acc with
  | Some b ->
      Alcotest.(check bytes)
        (Printf.sprintf "ireduce n=%d" n)
        (fold_sum n rbytes) b
  | None ->
      if me = 0 then Alcotest.fail "ireduce: root got no buffer");
  (* iallreduce *)
  let req, total = Coll.iallreduce p comm ~op:Coll.sum_i64 (payload me rbytes) in
  ignore (Mpi.wait p req);
  Alcotest.(check bytes)
    (Printf.sprintf "iallreduce n=%d rank=%d" n me)
    (fold_sum n rbytes) total;
  (* iscan: rank r holds the prefix over 0..r. *)
  let sbytes = 96 in
  let req, prefix = Coll.iscan p comm ~op:Coll.sum_i64 (payload me sbytes) in
  ignore (Mpi.wait p req);
  Alcotest.(check bytes)
    (Printf.sprintf "iscan n=%d rank=%d" n me)
    (fold_sum (me + 1) sbytes)
    prefix

let test_icoll_oracle () =
  List.iter
    (fun n -> run_quiescent ~n "icoll suite" (icoll_body n))
    oracle_sizes

let test_icoll_overlapping_kinds () =
  (* Three different collectives in flight at once on the same
     communicator: the per-collective tag ranges must keep their traffic
     apart even though the schedules interleave in the progress loop. *)
  List.iter
    (fun n ->
      run_quiescent ~n "icoll overlap kinds" (fun p ->
          let comm = Mpi.comm_world (Mpi.world_of p) in
          let me = Mpi.rank p in
          let bbytes = 256 in
          let bbuf =
            if me = 0 then Bytes.copy (payload 9 bbytes)
            else Bytes.create bbytes
          in
          let r_bcast = Coll.ibcast p comm ~root:0 (Bv.of_bytes bbuf) in
          let r_bar = Coll.ibarrier p comm in
          let r_red, total =
            Coll.iallreduce p comm ~op:Coll.sum_i64 (payload me 64)
          in
          let reqs = [ r_bcast; r_bar; r_red ] in
          (* Drain via the request-set calls rather than one-by-one. *)
          let pending = ref reqs in
          while !pending <> [] do
            let finished = Mpi.wait_some p !pending in
            pending :=
              List.filter (fun r -> not (List.memq r finished)) !pending
          done;
          Alcotest.(check bool) "all complete" true (Mpi.test_all p reqs);
          Alcotest.(check bytes)
            (Printf.sprintf "overlapped ibcast n=%d rank=%d" n me)
            (payload 9 bbytes) bbuf;
          Alcotest.(check bytes)
            (Printf.sprintf "overlapped iallreduce n=%d rank=%d" n me)
            (fold_sum n 64) total))
    [ 2; 3; 4; 5; 8 ]

let test_icoll_under_fault () =
  (* Same i-collective suite under a lossy, duplicating, corrupting
     channel with the reliable layer on: results must still match and —
     the point of the test — the world must still be quiescent, i.e. the
     schedules' retransmit traffic is fully claimed. *)
  List.iter
    (fun n ->
      let fault =
        Mpi_core.Fault.plan ~seed:7 ~drop:0.05 ~duplicate:0.02 ~corrupt:0.01
          ()
      in
      run_quiescent ~fault ~n "icoll under fault" (icoll_body n))
    [ 3; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Non-commutative operator: rank order must be preserved              *)
(* ------------------------------------------------------------------ *)

(* 2x2 matrix multiply over Z/256: associative, NOT commutative. Each
   matrix is 4 one-byte cells. [op acc x] computes
   acc := acc * x, matching the left-to-right rank order MPI requires for
   non-commutative operators. *)
let matmul acc x =
  let g b i = Char.code (Bytes.get b i) in
  let a0 = g acc 0 and a1 = g acc 1 and a2 = g acc 2 and a3 = g acc 3 in
  let b0 = g x 0 and b1 = g x 1 and b2 = g x 2 and b3 = g x 3 in
  Bytes.set acc 0 (Char.chr (((a0 * b0) + (a1 * b2)) land 0xff));
  Bytes.set acc 1 (Char.chr (((a0 * b1) + (a1 * b3)) land 0xff));
  Bytes.set acc 2 (Char.chr (((a2 * b0) + (a3 * b2)) land 0xff));
  Bytes.set acc 3 (Char.chr (((a2 * b1) + (a3 * b3)) land 0xff))

let matrix_of_rank r =
  Bytes.init 4 (fun i -> Char.chr (((r * 5) + (i * 3) + 1) land 0xff))

let seq_product lo hi =
  let acc = Bytes.copy (matrix_of_rank lo) in
  for r = lo + 1 to hi do
    matmul acc (matrix_of_rank r)
  done;
  acc

let test_non_commutative_rank_order () =
  List.iter
    (fun n ->
      ignore
        (Mpi.run ~n (fun p ->
             let comm = Mpi.comm_world (Mpi.world_of p) in
             let me = Mpi.rank p in
             let mine = matrix_of_rank me in
             (* reduce folds in rank order at any root. *)
             (match Coll.reduce p comm ~root:(n - 1) ~op:matmul mine with
             | Some acc ->
                 Alcotest.(check bytes)
                   (Printf.sprintf "reduce n=%d" n)
                   (seq_product 0 (n - 1))
                   acc
             | None -> ());
             (* scan: rank r holds the product of 0..r. *)
             let prefix = Coll.scan p comm ~op:matmul mine in
             Alcotest.(check bytes)
               (Printf.sprintf "scan n=%d rank=%d" n me)
               (seq_product 0 me) prefix;
             (* allreduce: recursive doubling preserves rank order, and
                `Auto with ~commutative:false must never pick
                Rabenseifner. *)
             List.iter
               (fun algo ->
                 let r =
                   Coll.allreduce ~algo ~commutative:false p comm
                     ~op:matmul mine
                 in
                 Alcotest.(check bytes)
                   (Printf.sprintf "allreduce n=%d rank=%d" n me)
                   (seq_product 0 (n - 1))
                   r)
               [ `Rd; `Auto; `Linear ])))
    oracle_sizes

let test_policy_respects_commutativity () =
  (* Whatever the payload size, a non-commutative operator must never be
     routed to Rabenseifner (recursive halving reorders the fold). *)
  List.iter
    (fun n ->
      List.iter
        (fun bytes ->
          match
            Coll.allreduce_algo_for Simtime.Cost.native_cpp ~n ~bytes
              ~granule:8 ~commutative:false
          with
          | `Rabenseifner ->
              Alcotest.failf
                "policy picked Rabenseifner for a non-commutative op \
                 (n=%d bytes=%d)"
                n bytes
          | `Rd | `Linear -> ())
        [ 64; 16_384; 262_144; 4_194_304 ])
    [ 2; 3; 8; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* Round complexity: trace-verified O(log n)                           *)
(* ------------------------------------------------------------------ *)

let test_allreduce_rd_log_rounds () =
  (* At 32 (a power of two) ranks, recursive doubling must complete in
     exactly log2 32 = 5 exchange rounds: 5 isends per rank, no more. *)
  let n = 32 in
  let env = Env.create ~cost:Simtime.Cost.native_cpp () in
  let tr = Mpi_core.Trace.enable ~capacity:65_536 env in
  ignore
    (Mpi.run ~env ~n (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         ignore (Coll.allreduce ~algo:`Rd p comm ~op:Coll.sum_i64 (payload 1 64))));
  let sends = Array.make n 0 in
  List.iter
    (fun (e : Mpi_core.Trace.event) ->
      if e.op = "isend" || e.op = "isend/rndv" then
        sends.(e.rank) <- sends.(e.rank) + 1)
    (Mpi_core.Trace.events tr);
  Mpi_core.Trace.disable env;
  Array.iteri
    (fun r c ->
      Alcotest.(check int) (Printf.sprintf "rank %d sends" r) 5 c)
    sends

let test_allreduce_sched_log_rounds () =
  (* Same claim, restated against the schedule engine's own step events:
     the recursive-doubling schedule at 32 ranks carries exactly 5 isend
     steps per rank, spread over 5 distinct rounds (r0..r4). This pins
     the round-barrier dependency encoding, not just the wire traffic. *)
  let n = 32 in
  let env = Env.create ~cost:Simtime.Cost.native_cpp () in
  let tr = Mpi_core.Trace.enable ~capacity:65_536 env in
  ignore
    (Mpi.run ~env ~n (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         ignore (Coll.allreduce ~algo:`Rd p comm ~op:Coll.sum_i64 (payload 1 64))));
  let isends = Array.make n 0 in
  let rounds = Hashtbl.create 8 in
  List.iter
    (fun (e : Mpi_core.Trace.event) ->
      (* detail: "allreduce[3] r2 isend dst=17 tag=.. 64B" *)
      if e.op = "sched/step" then
        match String.split_on_char ' ' e.detail with
        | _ :: round :: "isend" :: _ ->
            isends.(e.rank) <- isends.(e.rank) + 1;
            Hashtbl.replace rounds round ()
        | _ -> ())
    (Mpi_core.Trace.events tr);
  Mpi_core.Trace.disable env;
  Array.iteri
    (fun r c ->
      Alcotest.(check int) (Printf.sprintf "rank %d isend steps" r) 5 c)
    isends;
  Alcotest.(check int) "distinct exchange rounds" 5 (Hashtbl.length rounds)

let coll_time ~n body =
  let env = Env.create ~cost:Simtime.Cost.native_cpp () in
  let t0 = ref 0.0 and t1 = ref 0.0 in
  ignore
    (Mpi.run ~env ~n (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         Coll.barrier p comm;
         if Mpi.rank p = 0 then t0 := Env.now_us env;
         body p comm;
         Coll.barrier p comm;
         if Mpi.rank p = 0 then t1 := Env.now_us env));
  !t1 -. !t0

let test_rabenseifner_beats_rd_past_threshold () =
  (* The acceptance claim behind coll_rabenseifner_min_bytes: at 16 ranks
     x 256 KiB (past the threshold) Rabenseifner must beat recursive
     doubling; below the threshold (16 KiB) recursive doubling must hold
     its ground. *)
  let size = 262_144 in
  let t_rd =
    coll_time ~n:16 (fun p comm ->
        ignore
          (Coll.allreduce ~algo:`Rd p comm ~op:Coll.sum_i64
             (Bytes.create size)))
  in
  let t_rab =
    coll_time ~n:16 (fun p comm ->
        ignore
          (Coll.allreduce ~algo:`Rabenseifner p comm ~op:Coll.sum_i64
             (Bytes.create size)))
  in
  if t_rab >= t_rd then
    Alcotest.failf "rabenseifner (%.1f us) not faster than rd (%.1f us)"
      t_rab t_rd;
  let small = 16_384 in
  let t_rd_small =
    coll_time ~n:16 (fun p comm ->
        ignore
          (Coll.allreduce ~algo:`Rd p comm ~op:Coll.sum_i64
             (Bytes.create small)))
  in
  let t_rab_small =
    coll_time ~n:16 (fun p comm ->
        ignore
          (Coll.allreduce ~algo:`Rabenseifner p comm ~op:Coll.sum_i64
             (Bytes.create small)))
  in
  if t_rd_small >= t_rab_small then
    Alcotest.failf "rd (%.1f us) not faster than rabenseifner (%.1f us) below \
                    the threshold"
      t_rd_small t_rab_small

(* ------------------------------------------------------------------ *)
(* Matching queues: FIFO order and O(1) append under backlog           *)
(* ------------------------------------------------------------------ *)

let envelope ~src ~tag ~seq =
  {
    Mpi_core.Packet.e_src = src;
    e_dst = 0;
    e_tag = tag;
    e_context = 0;
    e_bytes = 8;
    e_seq = seq;
  }

let test_queue_fifo_order () =
  let env = Env.create ~cost:Simtime.Cost.native_cpp () in
  let q = Mpi_core.Queues.create env in
  (* Two receives with identical patterns: the first posted must match
     first (non-overtaking). Interleave appends and takes to exercise the
     two-list structure's back-to-front folding. *)
  let post id =
    Mpi_core.Queues.post_recv q
      {
        Mpi_core.Queues.p_pattern =
          { Mpi_core.Tag_match.m_src = 1; m_tag = 7; m_context = 0 };
        p_sink = Bv.of_bytes (Bytes.create 8);
        p_req = Mpi_core.Request.create ~id Mpi_core.Request.Recv_req;
      }
  in
  post 1;
  post 2;
  let e = envelope ~src:1 ~tag:7 ~seq:1 in
  (match Mpi_core.Queues.take_posted q e with
  | Some p ->
      Alcotest.(check int) "oldest first" 1
        (Mpi_core.Request.id p.Mpi_core.Queues.p_req)
  | None -> Alcotest.fail "no match");
  post 3;
  (match Mpi_core.Queues.take_posted q e with
  | Some p ->
      Alcotest.(check int) "then second" 2
        (Mpi_core.Request.id p.Mpi_core.Queues.p_req)
  | None -> Alcotest.fail "no match");
  Alcotest.(check int) "one left" 1 (Mpi_core.Queues.posted_length q);
  (* Unexpected side: arrival order, across the append boundary. *)
  for i = 1 to 5 do
    Mpi_core.Queues.add_unexpected q
      (Mpi_core.Queues.U_eager (envelope ~src:2 ~tag:i ~seq:i, Bytes.create 8))
  done;
  let any =
    {
      Mpi_core.Tag_match.m_src = Mpi_core.Tag_match.any_source;
      m_tag = Mpi_core.Tag_match.any_tag;
      m_context = 0;
    }
  in
  for i = 1 to 5 do
    match Mpi_core.Queues.take_unexpected q any with
    | Some (Mpi_core.Queues.U_eager (e, _)) ->
        Alcotest.(check int)
          (Printf.sprintf "arrival order %d" i)
          i e.Mpi_core.Packet.e_tag
    | _ -> Alcotest.fail "missing unexpected message"
  done;
  Alcotest.(check int) "drained" 0 (Mpi_core.Queues.unexpected_length q)

let test_queue_backlog_linear_time () =
  (* 20k appends then a head match: with the old [list @ [x]] append this
     is ~200M list-cell copies and visibly hangs; with the two-list FIFO
     it is instant. The probe accounting still charges only the elements
     actually scanned by the one search. *)
  let env = Env.create ~cost:Simtime.Cost.native_cpp () in
  let q = Mpi_core.Queues.create env in
  let backlog = 20_000 in
  for i = 1 to backlog do
    Mpi_core.Queues.add_unexpected q
      (Mpi_core.Queues.U_eager (envelope ~src:1 ~tag:i ~seq:i, Bytes.create 8))
  done;
  Alcotest.(check int) "size counter" backlog
    (Mpi_core.Queues.unexpected_length q);
  let t_before = Env.now_us env in
  (match
     Mpi_core.Queues.take_unexpected q
       { Mpi_core.Tag_match.m_src = 1; m_tag = 1; m_context = 0 }
   with
  | Some (Mpi_core.Queues.U_eager (e, _)) ->
      Alcotest.(check int) "head matched" 1 e.Mpi_core.Packet.e_tag
  | _ -> Alcotest.fail "head not matched");
  (* One element inspected -> exactly one probe charged. *)
  let probe_ns = Simtime.Cost.native_cpp.Simtime.Cost.queue_probe_ns in
  Alcotest.(check (float 0.001))
    "one probe charged" (probe_ns /. 1000.0)
    (Env.now_us env -. t_before);
  Alcotest.(check int) "size after take" (backlog - 1)
    (Mpi_core.Queues.unexpected_length q)

(* ------------------------------------------------------------------ *)
(* Reliable go-back-N window under a burst                             *)
(* ------------------------------------------------------------------ *)

(* Minimal in-memory channel: per-rank FIFO mailboxes, no arrival
   latency. Enough to drive Reliable's window bookkeeping directly. *)
let stub_channel () =
  let boxes : (int, Mpi_core.Packet.t Queue.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let box r =
    match Hashtbl.find_opt boxes r with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace boxes r q;
        q
  in
  let next = ref 2 in
  {
    Mpi_core.Channel.name = "stub";
    send = (fun ~src:_ ~dst p -> Queue.add p (box dst));
    poll =
      (fun ~rank ->
        let q = box rank in
        if Queue.is_empty q then None else Some (Queue.pop q));
    next_arrival = (fun ~rank:_ -> None);
    add_rank =
      (fun () ->
        let r = !next in
        incr next;
        r);
    n_ranks = (fun () -> !next);
  }

let test_reliable_window_burst () =
  let env = Env.create ~cost:Simtime.Cost.native_cpp () in
  let chan, handle =
    Mpi_core.Reliable.wrap ~env (stub_channel ())
  in
  let burst = 3000 in
  let dummy i =
    Mpi_core.Packet.Eager (envelope ~src:0 ~tag:i ~seq:i, Bytes.create 8)
  in
  (* A fire-hose of sends 0 -> 1: each send appends to the go-back-N
     window (O(1) now; the old list append made this burst quadratic). *)
  for i = 1 to burst do
    chan.Mpi_core.Channel.send ~src:0 ~dst:1 (dummy i)
  done;
  (* Rank 1 drains the frames in order; its acks land in rank 0's
     mailbox. *)
  let got = ref 0 in
  let continue = ref true in
  while !continue do
    match chan.Mpi_core.Channel.poll ~rank:1 with
    | Some (Mpi_core.Packet.Eager (e, _)) ->
        incr got;
        Alcotest.(check int) "in order" !got e.Mpi_core.Packet.e_tag
    | Some _ -> ()
    | None -> continue := false
  done;
  Alcotest.(check int) "all delivered" burst !got;
  (* Rank 0 processes the cumulative acks: the whole window must trim. *)
  let continue = ref true in
  while !continue do
    if chan.Mpi_core.Channel.poll ~rank:0 = None then continue := false
  done;
  Alcotest.(check int) "window empty" 0 (Mpi_core.Reliable.stranded handle)

(* ------------------------------------------------------------------ *)
(* Buffer pool: sorted pool, single-scan best fit                      *)
(* ------------------------------------------------------------------ *)

let test_buffer_pool_best_fit () =
  let rt = Vm.Runtime.create () in
  let pool = Motor.Buffer_pool.create rt.Vm.Runtime.gc in
  let b300 = Motor.Buffer_pool.acquire pool 300 in
  let b50 = Motor.Buffer_pool.acquire pool 50 in
  let b100 = Motor.Buffer_pool.acquire pool 100 in
  (* Release out of order: the pool must still serve best fit. *)
  Motor.Buffer_pool.release pool b300;
  Motor.Buffer_pool.release pool b50;
  Motor.Buffer_pool.release pool b100;
  Alcotest.(check int) "pooled" 3 (Motor.Buffer_pool.pooled pool);
  (* 60 bytes fit the 100-buffer (smallest adequate), not the 300. *)
  let a = Motor.Buffer_pool.acquire pool 60 in
  Alcotest.(check bool) "best fit 60 -> 100" true (a == b100);
  (* 200 bytes skip the 50 and take the 300. *)
  let b = Motor.Buffer_pool.acquire pool 200 in
  Alcotest.(check bool) "best fit 200 -> 300" true (b == b300);
  (* 10 bytes take the smallest. *)
  let c = Motor.Buffer_pool.acquire pool 10 in
  Alcotest.(check bool) "best fit 10 -> 50" true (c == b50);
  Alcotest.(check int) "drained" 0 (Motor.Buffer_pool.pooled pool)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "coll_algorithms"
    [
      ( "tags",
        [
          Alcotest.test_case "every tag in its phase's range" `Quick
            test_coll_tags;
        ]
      );
      ( "oracles",
        [
          Alcotest.test_case "allreduce vs linear" `Quick
            test_allreduce_oracle;
          Alcotest.test_case "bcast both algorithms" `Quick test_bcast_oracle;
          Alcotest.test_case "scatter/gather binomial vs linear" `Quick
            test_scatter_gather_oracle;
          Alcotest.test_case "allgather rd vs ring" `Quick
            test_allgather_oracle;
          Alcotest.test_case "allgather rd rejects non-pow2" `Quick
            test_allgather_rd_rejects_non_pow2;
        ] );
      ( "nonblocking",
        [
          Alcotest.test_case "every i-collective vs blocking oracle" `Quick
            test_icoll_oracle;
          Alcotest.test_case "three kinds in flight at once" `Quick
            test_icoll_overlapping_kinds;
          Alcotest.test_case "i-collectives quiescent under faults" `Quick
            test_icoll_under_fault;
        ] );
      ( "rank order",
        [
          Alcotest.test_case "non-commutative operator" `Quick
            test_non_commutative_rank_order;
          Alcotest.test_case "policy respects commutativity" `Quick
            test_policy_respects_commutativity;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "rd allreduce is log n rounds at 32 ranks"
            `Quick test_allreduce_rd_log_rounds;
          Alcotest.test_case "rd schedule is 5 isend steps over 5 rounds"
            `Quick test_allreduce_sched_log_rounds;
          Alcotest.test_case "rabenseifner crossover" `Quick
            test_rabenseifner_beats_rd_past_threshold;
        ] );
      ( "hot paths",
        [
          Alcotest.test_case "queue FIFO order" `Quick test_queue_fifo_order;
          Alcotest.test_case "queue backlog is linear" `Quick
            test_queue_backlog_linear_time;
          Alcotest.test_case "reliable window burst" `Quick
            test_reliable_window_burst;
          Alcotest.test_case "buffer pool best fit" `Quick
            test_buffer_pool_best_fit;
        ] );
    ]
