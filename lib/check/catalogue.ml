module Mpi = Mpi_core.Mpi
module Collectives = Mpi_core.Collectives
module Fault = Mpi_core.Fault
module Reliable = Mpi_core.Reliable
module Ft = Mpi_core.Ft
module Comm = Mpi_core.Comm
module Bv = Mpi_core.Buffer_view
module Rma = Mpi_core.Rma
module Tm = Mpi_core.Tag_match

type spec = {
  n : int;
  channel : [ `Shm | `Sock | `Rdma ];
  topology : Simtime.Topology.t option;
  fault : Fault.plan option;
  reliable : Reliable.config option;
  detector : Ft.detector option;
  parallel : int option;
}

type entry = {
  name : string;
  spec : spec;
  start :
    Mpi.world ->
    (Mpi.proc -> unit) * (unit -> string * Invariant.violation list);
}

let spec ~n =
  {
    n;
    channel = `Sock;
    topology = None;
    fault = None;
    reliable = None;
    detector = None;
    parallel = None;
  }

let world s =
  Mpi.create_world ~channel:s.channel ?topology:s.topology ?fault:s.fault
    ?reliable:s.reliable ?detector:s.detector ?parallel:s.parallel ~n:s.n ()

let launch e w =
  let body, finish = e.start w in
  Mpi.launch w body;
  finish

let run e s =
  let w = world s in
  let digest, bad = launch e w () in
  (digest, bad, w)

let digest_bytes finals =
  Digest.to_hex (Digest.bytes (Bytes.concat Bytes.empty (Array.to_list finals)))

let digest_strings finals =
  Digest.to_hex (Digest.string (String.concat "#" (Array.to_list finals)))

(* One "oracle" violation per rank whose result differs from the
   sequential model's. *)
let against_model what finals model =
  List.filter_map
    (fun r ->
      if finals.(r) = model.(r) then None
      else
        Some
          (Invariant.v "oracle" "rank %d: %s result differs from the \
                                 sequential model" r what))
    (List.init (Array.length finals) Fun.id)

let need_ranks what n =
  if n < 2 then
    invalid_arg (Printf.sprintf "Catalogue.%s: need at least two ranks" what)

(* ------------------------------------------------------------------ *)
(* Point-to-point ring (eager sendrecv, optional rendezvous ssend)     *)
(* ------------------------------------------------------------------ *)

let ring_init r size = Bytes.init size (fun i -> Char.chr ((r + i) land 0xff))

let ring_mix buf inb round =
  for i = 0 to Bytes.length buf - 1 do
    Bytes.set buf i
      (Char.chr
         ((Char.code (Bytes.get buf i) + (Char.code (Bytes.get inb i) * 31)
          + round)
         land 0xff))
  done

(* Payload evolves every round as a function of what was received, so any
   lost, duplicated, reordered or corrupted delivery the stack fails to
   mask changes the digest. The optional tail exchange uses synchronous
   mode in parity order (even ranks send first), covering the RTS/CTS
   rendezvous path without deadlock. *)
let ring ~n ~rounds ~size ~ssend_tail =
  need_ranks "ring" n;
  if size < 1 then invalid_arg "Catalogue.ring: need a positive size";
  let start w =
    let comm = Mpi.comm_world w in
    let finals = Array.make n Bytes.empty in
    let body p =
      let r = Mpi.rank p in
      let right = (r + 1) mod n and left = (r + n - 1) mod n in
      let buf = ring_init r size in
      let inb = Bytes.create size in
      for round = 1 to rounds do
        ignore
          (Mpi.sendrecv p ~comm ~dst:right ~send_tag:round
             ~send:(Bv.of_bytes buf) ~src:left ~recv_tag:round
             ~recv:(Bv.of_bytes inb));
        ring_mix buf inb round
      done;
      if ssend_tail then begin
        let send () = Mpi.ssend p ~comm ~dst:right ~tag:99 (Bv.of_bytes buf)
        and recv () =
          ignore (Mpi.recv p ~comm ~src:left ~tag:99 (Bv.of_bytes inb))
        in
        if r mod 2 = 0 then (send (); recv ()) else (recv (); send ());
        ring_mix buf inb 0
      end;
      finals.(r) <- Bytes.copy buf
    in
    let finish () =
      let model = Array.init n (fun r -> ring_init r size) in
      let step round =
        let sent = Array.map Bytes.copy model in
        Array.iteri (fun r b -> ring_mix b sent.((r + n - 1) mod n) round) model
      in
      for round = 1 to rounds do
        step round
      done;
      if ssend_tail then step 0;
      (digest_bytes finals, against_model "ring" finals model)
    in
    (body, finish)
  in
  { name = "ring"; spec = spec ~n; start }

(* ------------------------------------------------------------------ *)
(* Chained allreduce + non-commutative reduce                          *)
(* ------------------------------------------------------------------ *)

(* 2x2 matrix multiply over Z/256: associative, not commutative — a
   reduction must fold in rank order under every schedule. *)
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

let int64_digest finals tail =
  Digest.to_hex
    (Digest.string
       (String.concat "," (Array.to_list (Array.map Int64.to_string finals))
       ^ "|" ^ tail))

(* Each round's input depends on the previous round's result; every rank
   must end with the sequential model's running sum. *)
let allreduce_chain ~n ~rounds =
  need_ranks "allreduce_chain" n;
  let start w =
    let comm = Mpi.comm_world w in
    let finals = Array.make n 0L in
    let reduced = Array.make n Bytes.empty in
    let body p =
      let r = Mpi.rank p in
      let acc = ref (Int64.of_int (r + 1)) in
      for round = 1 to rounds do
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0
          (Int64.add !acc (Int64.of_int (round * (r + 1))));
        let out = Collectives.allreduce p comm ~op:Collectives.sum_i64 b in
        acc := Bytes.get_int64_le out 0
      done;
      finals.(r) <- !acc;
      match Collectives.reduce p comm ~root:0 ~op:matmul (matrix_of_rank r) with
      | Some res -> reduced.(r) <- Bytes.copy res
      | None -> ()
    in
    let finish () =
      let model = Array.init n (fun r -> Int64.of_int (r + 1)) in
      for round = 1 to rounds do
        let sum = ref 0L in
        Array.iteri
          (fun r acc ->
            sum := Int64.(add !sum (add acc (of_int (round * (r + 1))))))
          model;
        Array.fill model 0 n !sum
      done;
      let order =
        if Bytes.equal reduced.(0) (seq_product 0 (n - 1)) then []
        else
          [
            Invariant.v "reduce-order"
              "non-commutative reduce result differs from the rank-order fold";
          ]
      in
      ( int64_digest finals (Bytes.to_string reduced.(0)),
        against_model "allreduce_chain" finals model @ order )
    in
    (body, finish)
  in
  { name = "allreduce_chain"; spec = spec ~n; start }

(* ------------------------------------------------------------------ *)
(* Compute-heavy vector allreduce                                      *)
(* ------------------------------------------------------------------ *)

let bytes_init r size =
  Bytes.init size (fun i -> Char.chr (((r * 7) + i) land 0xff))

let bytes_remix buf out r round =
  for i = 0 to Bytes.length buf - 1 do
    Bytes.set buf i
      (Char.chr
         (((Char.code (Bytes.get out i) * 31) + round + ((r + 1) * (i + 1)))
         land 0xff))
  done

(* A vector allreduce (sum over i64 lanes) whose input each rank remixes
   locally every round. Both the reduction and the remix are O(size) per
   rank per round, so the work parallelizes across domains; the result
   is schedule-independent. The algorithm is pinned to recursive
   doubling to keep the communication pattern identical at every domain
   count. *)
let allreduce_bytes ~n ~rounds ~size =
  need_ranks "allreduce_bytes" n;
  if size < 8 || size mod 8 <> 0 then
    invalid_arg
      "Catalogue.allreduce_bytes: size must be a positive multiple of 8";
  let start w =
    let comm = Mpi.comm_world w in
    let finals = Array.make n Bytes.empty in
    let body p =
      let r = Mpi.rank p in
      let buf = bytes_init r size in
      for round = 1 to rounds do
        let out =
          Collectives.allreduce ~algo:`Rd p comm ~op:Collectives.sum_i64 buf
        in
        bytes_remix buf out r round
      done;
      finals.(r) <- Bytes.copy buf
    in
    let finish () =
      let model = Array.init n (fun r -> bytes_init r size) in
      let sum = Bytes.create size in
      for round = 1 to rounds do
        Bytes.fill sum 0 size '\000';
        Array.iter
          (fun b ->
            for l = 0 to (size / 8) - 1 do
              Bytes.set_int64_le sum (8 * l)
                (Int64.add
                   (Bytes.get_int64_le sum (8 * l))
                   (Bytes.get_int64_le b (8 * l)))
            done)
          model;
        Array.iteri (fun r b -> bytes_remix b sum r round) model
      done;
      (digest_bytes finals, against_model "allreduce_bytes" finals model)
    in
    (body, finish)
  in
  { name = "allreduce_bytes"; spec = spec ~n; start }

(* ------------------------------------------------------------------ *)
(* Two-level collectives on a multi-node topology                      *)
(* ------------------------------------------------------------------ *)

(* A 2x2-node world, so [`Auto] routes every collective through the
   hierarchical (shard + leader) algorithms: chained allreduces, an
   explicit `Hier-vs-`Linear cross-check, a non-commutative fold and a
   bcast from a non-leader root, digested for schedule invariance. *)
let hier_allreduce ~rounds =
  let nodes = 2 and cores = 2 in
  let n = nodes * cores in
  let start w =
    let comm = Mpi.comm_world w in
    let finals = Array.make n 0L in
    let bcasts = Array.make n Bytes.empty in
    let semantic = ref [] in
    let body p =
      let r = Mpi.rank p in
      let acc = ref (Int64.of_int ((r * 3) + 1)) in
      for round = 1 to rounds do
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0
          (Int64.add !acc (Int64.of_int (round * (r + 2))));
        (* `Auto: hierarchical, multi-node topology. *)
        let out = Collectives.allreduce p comm ~op:Collectives.sum_i64 b in
        acc := Bytes.get_int64_le out 0
      done;
      finals.(r) <- !acc;
      (* The two-level result must equal the flat oracle's, including for
         a non-commutative operator (rank-order fold across shards). *)
      let hier =
        Collectives.allreduce ~algo:`Hier ~commutative:false p comm
          ~op:matmul (matrix_of_rank r)
      in
      let flat =
        Collectives.allreduce ~algo:`Linear ~commutative:false p comm
          ~op:matmul (matrix_of_rank r)
      in
      if not (Bytes.equal hier flat) then
        semantic :=
          Invariant.v "hier-oracle"
            "rank %d: hierarchical allreduce differs from the flat oracle" r
          :: !semantic;
      Collectives.barrier p comm;
      (* Bcast from a non-leader root exercises the relocation hop. *)
      let bb =
        if r = n - 1 then
          Bytes.init 12 (fun i -> Char.chr (((i * 13) + 5) land 0xff))
        else Bytes.create 12
      in
      Collectives.bcast p comm ~root:(n - 1) (Bv.of_bytes bb);
      bcasts.(r) <- Bytes.copy bb
    in
    let finish () =
      Array.iteri
        (fun r f ->
          if f <> finals.(0) then
            semantic :=
              Invariant.v "agreement" "rank %d ended with %Ld, rank 0 with %Ld"
                r f finals.(0)
              :: !semantic)
        finals;
      let bcasts = Array.to_list (Array.map Bytes.to_string bcasts) in
      (int64_digest finals (String.concat "," bcasts), List.rev !semantic)
    in
    (body, finish)
  in
  let topology = Some (Simtime.Topology.make ~nodes ~cores) in
  { name = "hier_allreduce"; spec = { (spec ~n) with topology }; start }

(* ------------------------------------------------------------------ *)
(* Overlapping nonblocking collectives + point-to-point                *)
(* ------------------------------------------------------------------ *)

let icoll_overlap ~n =
  let start w =
    let comm = Mpi.comm_world w in
    let per_rank = Array.make n "" in
    let body p =
      let r = Mpi.rank p in
      let rb = Collectives.ibarrier p comm in
      let bbuf =
        Bytes.init 16 (fun i ->
            if r = 0 then Char.chr (((i * 11) + 3) land 0xff) else '\000')
      in
      let rbc = Collectives.ibcast p comm ~root:0 (Bv.of_bytes bbuf) in
      let ab = Bytes.create 8 in
      Bytes.set_int64_le ab 0 (Int64.of_int ((r + 1) * 1000));
      let rar, asum =
        Collectives.iallreduce p comm ~op:Collectives.sum_i64 ab
      in
      let out = Bytes.init 24 (fun i -> Char.chr (((r * 17) + i) land 0xff)) in
      let inb = Bytes.create 24 in
      let rs =
        Mpi.isend p ~comm ~dst:((r + 1) mod n) ~tag:77 (Bv.of_bytes out)
      in
      let rr =
        Mpi.irecv p ~comm ~src:((r + n - 1) mod n) ~tag:77 (Bv.of_bytes inb)
      in
      Mpi.wait_all p [ rb; rbc; rar; rs; rr ];
      per_rank.(r) <-
        Printf.sprintf "%s|%s|%Ld" (Bytes.to_string bbuf)
          (Bytes.to_string inb)
          (Bytes.get_int64_le asum 0)
    in
    (body, fun () -> (digest_strings per_rank, []))
  in
  { name = "icoll_overlap"; spec = spec ~n; start }

(* ------------------------------------------------------------------ *)
(* One-sided fence epochs (put/accumulate/get + oracles)               *)
(* ------------------------------------------------------------------ *)

let rma_pattern ~rank ~len =
  Bytes.init len (fun i -> Char.chr (((rank * 37) + i + 5) land 0xff))

(* Active-target RMA on the RDMA channel: three fence epochs covering an
   eager put ring, accumulates into rank 0 (a commutative sum and a
   non-commutative matmul that must fold in rank order), a
   rendezvous-sized put ring (above the CH3 eager threshold, so a fault
   plan exercises RTS/CTS retransmission under the reliable layer and
   the RDMA rendezvous cost path), and a get ring. The epoch-discipline
   invariant: a probe between the puts and the closing fence must find
   the local window untouched — updates become visible only at the
   sync. *)
let rma_fence ~n ~big =
  let small = 2048 in
  let blk = 4096 + big in
  let start w =
    let comm = Mpi.comm_world w in
    let semantic = ref [] in
    let finals = Array.make n "" in
    let flag inv r fmt = semantic := Invariant.v inv fmt r :: !semantic in
    let body p =
      let r = Mpi.rank p in
      let right = (r + 1) mod n and left = (r + n - 1) mod n in
      let mine = Bytes.make blk '\000' in
      if r = 0 then begin
        (* Matmul identity at the accumulate cell. *)
        Bytes.set mine 8 '\001';
        Bytes.set mine 11 '\001'
      end;
      let win = Rma.win_create p ~comm mine in
      let before = Bytes.copy mine in
      (* Epoch 0: eager put ring + accumulates into rank 0. *)
      Rma.put win ~target:right ~target_off:1024
        (rma_pattern ~rank:r ~len:small) ~off:0 ~len:small;
      let contrib = Bytes.create 8 in
      Bytes.set_int64_le contrib 0 (Int64.of_int ((r + 1) * 11));
      Rma.accumulate win ~target:0 ~target_off:0 ~op:Rma.Sum contrib ~off:0
        ~len:8;
      Rma.accumulate win ~target:0 ~target_off:8 ~op:Rma.Matmul
        (matrix_of_rank r) ~off:0 ~len:4;
      (* The epoch invariant: nothing is visible before the closing sync,
         under any schedule (iprobe pumps progress, so arrived updates
         would have their chance to leak here if the target applied them
         eagerly). *)
      ignore (Mpi.iprobe p ~comm ~src:Tm.any_source ~tag:424242);
      if not (Bytes.equal mine before) then
        flag "rma-epoch" r "rank %d: window mutated before win_fence";
      Rma.win_fence win;
      if
        not
          (Bytes.equal
             (Bytes.sub mine 1024 small)
             (rma_pattern ~rank:left ~len:small))
      then flag "rma-put" r "rank %d: fence did not deliver the put ring";
      if r = 0 then begin
        let expect_sum = Int64.of_int (11 * (n * (n + 1) / 2)) in
        if Bytes.get_int64_le mine 0 <> expect_sum then
          flag "rma-acc" r "rank %d: commutative accumulate sum wrong";
        if not (Bytes.equal (Bytes.sub mine 8 4) (seq_product 0 (n - 1))) then
          flag "rma-order" r
            "rank %d: non-commutative accumulate broke rank order"
      end;
      (* Epoch 1: rendezvous-sized put ring. *)
      Rma.put win ~target:right ~target_off:4096
        (rma_pattern ~rank:(r + n) ~len:big) ~off:0 ~len:big;
      Rma.win_fence win;
      if
        not
          (Bytes.equal (Bytes.sub mine 4096 big)
             (rma_pattern ~rank:(left + n) ~len:big))
      then flag "rma-rndv" r "rank %d: rendezvous put ring wrong";
      (* Epoch 2: read the right neighbour's small slot back. *)
      let fetched = Bytes.create small in
      Rma.get win ~target:right ~target_off:1024 fetched ~off:0 ~len:small;
      if not (Bytes.equal fetched (rma_pattern ~rank:r ~len:small)) then
        flag "rma-get" r "rank %d: get disagrees with the committed window";
      Rma.win_fence win;
      finals.(r) <-
        Digest.to_hex (Digest.bytes mine)
        ^ Digest.to_hex (Digest.bytes fetched);
      Rma.win_free win
    in
    (body, fun () -> (digest_strings finals, List.rev !semantic))
  in
  { name = "rma_fence"; spec = { (spec ~n) with channel = `Rdma }; start }

(* ------------------------------------------------------------------ *)
(* Passive-target lock/unlock mutual exclusion                         *)
(* ------------------------------------------------------------------ *)

(* Every rank runs two exclusive-lock read-modify-write sessions against
   rank 0's window (get the counter, add, put it back — the put applies
   at unlock, before the next grant, so the increments are atomic under
   every grant order), writes its own slot, and finally checks the
   total under a shared lock. Grant order varies with the schedule; the
   final state must not. *)
let rma_lock ~n =
  let rounds = 2 in
  let blk = 8 * (n + 1) in
  let start w =
    let comm = Mpi.comm_world w in
    let semantic = ref [] in
    let finals = Array.make n "" in
    let body p =
      let r = Mpi.rank p in
      let mine = Bytes.make blk '\000' in
      let win = Rma.win_create p ~comm mine in
      let cell = Bytes.create 8 in
      for round = 1 to rounds do
        Rma.win_lock win ~target:0;
        Rma.get win ~target:0 ~target_off:0 cell ~off:0 ~len:8;
        Bytes.set_int64_le cell 0
          (Int64.add (Bytes.get_int64_le cell 0) (Int64.of_int (r + 1)));
        Rma.put win ~target:0 ~target_off:0 cell ~off:0 ~len:8;
        if round = 1 then begin
          (* My slot, same session: applied atomically at the unlock. *)
          Bytes.set_int64_le cell 0 (Int64.of_int ((r * 1000) + 7));
          Rma.put win ~target:0 ~target_off:(8 * (r + 1)) cell ~off:0 ~len:8
        end;
        Rma.win_unlock win ~target:0
      done;
      (* Everyone waits for all sessions, then audits under a shared
         lock. *)
      Rma.win_fence win;
      Rma.win_lock ~exclusive:false win ~target:0;
      let audit = Bytes.create blk in
      Rma.get win ~target:0 ~target_off:0 audit ~off:0 ~len:blk;
      Rma.win_unlock win ~target:0;
      (* Second barrier: rank 0 must not reach win_free while a delayed
         audit lock from another rank is still held on its window. *)
      Rma.win_fence win;
      let expect = Int64.of_int (rounds * (n * (n + 1) / 2)) in
      if Bytes.get_int64_le audit 0 <> expect then
        semantic :=
          Invariant.v "rma-lock-atomic"
            "rank %d read counter %Ld, expected %Ld (lost update under \
             lock)"
            r
            (Bytes.get_int64_le audit 0)
            expect
          :: !semantic;
      for s = 0 to n - 1 do
        if
          Bytes.get_int64_le audit (8 * (s + 1))
          <> Int64.of_int ((s * 1000) + 7)
        then
          semantic :=
            Invariant.v "rma-lock-slot" "rank %d sees a corrupted slot %d" r s
            :: !semantic
      done;
      finals.(r) <- Digest.to_hex (Digest.bytes audit);
      Rma.win_free win
    in
    (body, fun () -> (digest_strings finals, List.rev !semantic))
  in
  { name = "rma_lock"; spec = spec ~n; start }

(* ------------------------------------------------------------------ *)
(* One fence epoch, optionally applying updates on arrival             *)
(* ------------------------------------------------------------------ *)

(* A window created with [eager_apply] applies updates the moment they
   arrive instead of at the closing fence. Whether the probe between a
   neighbour's put and the fence can see the leak depends on virtual
   time: the 4 KiB puts have an arrival floor well past the charges a
   rank accumulates before its probe, so strict round-robin always
   probes too early and stays clean — only a perturbed schedule lets
   the clock (driven by the other ranks' charges) pass the floor before
   some rank's probe pumps its device. Without [eager_apply] the window
   defers (the production path) and is clean under every schedule. *)
let rma_epoch ~eager_apply ~n =
  let blk = 4096 in
  let start w =
    let comm = Mpi.comm_world w in
    let semantic = ref [] in
    let finals = Array.make n "" in
    let body p =
      let r = Mpi.rank p in
      let right = (r + 1) mod n and left = (r + n - 1) mod n in
      let mine = Bytes.make blk '\000' in
      let win = Rma.win_create ~eager_apply p ~comm mine in
      let before = Bytes.copy mine in
      Rma.put win ~target:right ~target_off:0 (rma_pattern ~rank:r ~len:blk)
        ~off:0 ~len:blk;
      (* One pre-fence probe, directly after the put: it pumps the device
         once, so an arrived eager-applied update gets exactly one chance
         to leak here. Under round-robin the probe runs before the
         neighbour's put has crossed its virtual-time arrival floor; a
         perturbed schedule can park this rank while the others' charges
         (or a blocked-world clock leap) pass the floor first. *)
      ignore (Mpi.iprobe p ~comm ~src:Tm.any_source ~tag:424242);
      if not (Bytes.equal mine before) then
        semantic :=
          Invariant.v "rma-epoch"
            "rank %d: put visible before win_fence (eager apply)" r
          :: !semantic;
      Rma.win_fence win;
      if not (Bytes.equal mine (rma_pattern ~rank:left ~len:blk)) then
        semantic :=
          Invariant.v "rma-put" "rank %d: fence did not deliver the put" r
          :: !semantic;
      finals.(r) <- Digest.to_hex (Digest.bytes mine);
      Rma.win_free win
    in
    (body, fun () -> (digest_strings finals, List.rev !semantic))
  in
  { name = "rma_epoch"; spec = spec ~n; start }

(* ------------------------------------------------------------------ *)
(* Rank death under the ULFM recovery loop                             *)
(* ------------------------------------------------------------------ *)

(* A detector fast enough that detecting a death costs microseconds of
   virtual time, not the default milliseconds — the kill sweep runs
   hundreds of worlds. *)
let sweep_detector = { Ft.hb_period_ns = 5_000.0; hb_timeout_ns = 200_000.0 }

(* The uniform ULFM recovery loop: attempt the work, agree on whether
   every member succeeded, and on any failure revoke, shrink and retry
   over the survivors. The unilateral revoke in the failure arm matters
   for point-to-point work: a survivor blocked on a pairwise operation
   with a live partner that already bailed out would otherwise hang. *)
let recover p comm work =
  let rec attempt () =
    let ok =
      match work !comm with
      | () -> 1
      | exception (Ft.Proc_failed _ | Ft.Revoked _) ->
          Mpi.comm_revoke p !comm;
          0
    in
    if Mpi.comm_agree p !comm ~value:ok <> 1 then begin
      Mpi.comm_revoke p !comm;
      comm := Mpi.comm_shrink p !comm;
      attempt ()
    end
  in
  attempt ()

(* Shared shape: run [work] (which must leave this rank's converged value
   in a ref) under the recovery loop on every rank, then check survivor
   convergence plus an oracle tying the value to the final membership.
   The digest is constant: which ranks survive depends on the kill, so
   correctness is judged by the invariants, not by a digest. *)
let kill ~name ?topology ~work ~oracle () =
  let n = 4 in
  let start w =
    let reports = ref [] in
    let semantic = ref [] in
    let body p =
      let r = Mpi.rank p in
      let comm = ref (Mpi.comm_world w) in
      let value = ref 0L in
      recover p comm (fun c -> work p c value);
      let members = Comm.members !comm in
      let expect = oracle members in
      if !value <> expect then
        semantic :=
          Invariant.v "oracle"
            "rank %d converged to %Ld but its membership implies %Ld" r
            !value expect
          :: !semantic;
      reports := (r, members, Int64.to_string !value) :: !reports
    in
    let finish () =
      (* "Survivor" means the rank finished alive: a victim killed after
         its last operation is torn down but never declared (nobody had
         to detect it), so [dead_ranks] alone would under-count the
         dead. *)
      let out =
        match Mpi.ft_handle w with Some ft -> Ft.out_ranks ft | None -> []
      in
      let survivors =
        List.filter (fun r -> not (List.mem r out)) (List.init n Fun.id)
      in
      ( "converged",
        Invariant.survivor_convergence ~survivors !reports
        @ List.rev !semantic )
    in
    (body, finish)
  in
  {
    name;
    spec = { (spec ~n) with topology; detector = Some sweep_detector };
    start;
  }

let sum_plus_one members =
  Array.fold_left (fun acc m -> Int64.add acc (Int64.of_int (m + 1))) 0L members

let allreduce_rank_sum p c value =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (Mpi.rank p + 1));
  let out = Collectives.allreduce p c ~op:Collectives.sum_i64 b in
  value := Bytes.get_int64_le out 0

(* Collective flavor: a summing allreduce; the aborted-schedule path,
   the collective-failure flood and agreement over mixed outcomes. *)
let kill_allreduce () =
  kill ~name:"kill_allreduce" ~work:allreduce_rank_sum ~oracle:sum_plus_one ()

(* Point-to-point flavor: a ring allreduce by token passing, so failures
   surface on pairwise operations (and on ranks not adjacent to the
   victim only via the revoke flood). *)
let kill_p2p () =
  let work p c value =
    let size = Comm.size c in
    let me = Mpi.comm_rank p c in
    let cur = ref (Int64.of_int ((Mpi.rank p + 1) * 7)) in
    let acc = ref !cur in
    let sbuf = Bytes.create 8 and rbuf = Bytes.create 8 in
    for _ = 1 to size - 1 do
      Bytes.set_int64_le sbuf 0 !cur;
      ignore
        (Mpi.sendrecv p ~comm:c
           ~dst:((me + 1) mod size)
           ~send_tag:5 ~send:(Bv.of_bytes sbuf)
           ~src:((me + size - 1) mod size)
           ~recv_tag:5 ~recv:(Bv.of_bytes rbuf));
      cur := Bytes.get_int64_le rbuf 0;
      acc := Int64.add !acc !cur
    done;
    value := !acc
  in
  let oracle members =
    Array.fold_left
      (fun acc m -> Int64.add acc (Int64.of_int ((m + 1) * 7)))
      0L members
  in
  kill ~name:"kill_p2p" ~work ~oracle ()

(* Hierarchical flavor: the summing allreduce again, on a 2x2-node
   topology, so killing a shard leader tears the two-level schedule at
   its fan-in point and the shrunken communicator exercises both the
   uneven-shard and flat-fallback paths. *)
let kill_hier_leader () =
  kill ~name:"kill_hier_leader"
    ~topology:(Simtime.Topology.make ~nodes:2 ~cores:2)
    ~work:allreduce_rank_sum ~oracle:sum_plus_one ()
