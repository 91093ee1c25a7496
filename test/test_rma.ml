(* One-sided RMA: the registration cache in isolation, put/get/accumulate
   oracles under both synchronization flavours (fence and lock/unlock) at
   2-9 ranks, epoch/win_free discipline, RDMA-channel cost accounting and
   fault-plan survival of the rendezvous paths. *)

module Mpi = Mpi_core.Mpi
module Comm = Mpi_core.Comm
module Rma = Mpi_core.Rma
module Rdma = Mpi_core.Rdma_channel
module Cache = Mpi_core.Rdma_channel.Cache
module Fault = Mpi_core.Fault
module Key = Simtime.Stats.Key

let stats w = (Mpi.env w).Simtime.Env.stats
let counter w k = Simtime.Stats.get (stats w) k

let check_quiescent w =
  Alcotest.(check (list (pair int string)))
    "quiescent" [] (Mpi.quiescence_report w)

(* ------------------------------------------------------------------ *)
(* Registration cache in isolation                                     *)
(* ------------------------------------------------------------------ *)

let is_hit = function Cache.Hit -> true | Cache.Miss _ -> false

let evicted = function
  | Cache.Hit -> []
  | Cache.Miss { evicted } -> evicted

let test_cache_hit_miss () =
  let c = Cache.create ~capacity_bytes:4096 in
  Alcotest.(check bool) "cold miss" false (is_hit (Cache.access c ~addr:0 ~len:1024));
  Alcotest.(check bool) "re-access hits" true (is_hit (Cache.access c ~addr:0 ~len:1024));
  Alcotest.(check bool) "subrange hits" true (is_hit (Cache.access c ~addr:128 ~len:512));
  Alcotest.(check bool) "overlap past end misses" false
    (is_hit (Cache.access c ~addr:512 ~len:1024));
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c);
  Alcotest.(check int) "evictions" 0 (Cache.evictions c);
  Alcotest.(check int) "entries" 2 (Cache.entries c);
  Alcotest.(check int) "registered" 2048 (Cache.registered_bytes c)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity_bytes:3000 in
  ignore (Cache.access c ~addr:0 ~len:1000);
  ignore (Cache.access c ~addr:10_000 ~len:1000);
  ignore (Cache.access c ~addr:20_000 ~len:1000);
  (* Touch the oldest so the middle entry becomes LRU. *)
  ignore (Cache.access c ~addr:0 ~len:1000);
  let out = evicted (Cache.access c ~addr:30_000 ~len:1000) in
  Alcotest.(check (list (pair int int))) "LRU victim" [ (10_000, 1000) ] out;
  Alcotest.(check int) "capacity respected" 3000 (Cache.registered_bytes c);
  Alcotest.(check bool) "victim gone" false (Cache.mem c ~addr:10_000 ~len:1000);
  (* Re-registration after eviction is a fresh miss. *)
  Alcotest.(check bool) "re-register misses" false
    (is_hit (Cache.access c ~addr:10_000 ~len:1000));
  Alcotest.(check int) "eviction count grows" 2 (Cache.evictions c)

let test_cache_multi_eviction () =
  let c = Cache.create ~capacity_bytes:1000 in
  ignore (Cache.access c ~addr:0 ~len:400);
  ignore (Cache.access c ~addr:1000 ~len:400);
  (* 800 bytes held; a 900-byte registration must evict both, LRU first. *)
  let out = evicted (Cache.access c ~addr:2000 ~len:900) in
  Alcotest.(check (list (pair int int)))
    "both evicted, LRU first" [ (0, 400); (1000, 400) ] out

let test_cache_pinning () =
  let c = Cache.create ~capacity_bytes:2000 in
  ignore (Cache.pin c ~addr:0 ~len:1500);
  Alcotest.(check int) "pinned bytes" 1500 (Cache.pinned_bytes c);
  (* The pinned entry cannot be evicted: a miss larger than the remaining
     room registers over capacity rather than touch it. *)
  let out = evicted (Cache.access c ~addr:10_000 ~len:1000) in
  Alcotest.(check (list (pair int int))) "pinned survives" [] out;
  Alcotest.(check bool) "pinned still cached" true (Cache.mem c ~addr:0 ~len:1500);
  Cache.unpin c ~addr:0 ~len:1500;
  Alcotest.(check int) "unpinned" 0 (Cache.pinned_bytes c);
  (* Lazy deregistration: the entry stays cached and now evictable. *)
  Alcotest.(check bool) "still a hit after unpin" true
    (is_hit (Cache.access c ~addr:100 ~len:100));
  let out = evicted (Cache.access c ~addr:20_000 ~len:1800) in
  Alcotest.(check bool) "evictable after unpin" true
    (List.mem (0, 1500) out)

let test_cache_pin_hit_promotes () =
  let c = Cache.create ~capacity_bytes:4096 in
  ignore (Cache.access c ~addr:0 ~len:1024);
  Alcotest.(check bool) "pin over cached range hits" true
    (is_hit (Cache.pin c ~addr:0 ~len:1024));
  Alcotest.(check int) "now pinned" 1024 (Cache.pinned_bytes c);
  Alcotest.(check_raises) "unpin of unpinned range raises"
    (Invalid_argument "Rdma_channel.Cache.unpin: no pinned entry covers [5000,+8)")
    (fun () -> Cache.unpin c ~addr:5000 ~len:8)

let test_cache_oversized_region () =
  let c = Cache.create ~capacity_bytes:1000 in
  ignore (Cache.access c ~addr:0 ~len:500);
  (* A region larger than the whole capacity still registers (pinned I/O
     cannot be split), evicting everything evictable. *)
  let out = evicted (Cache.access c ~addr:4096 ~len:5000) in
  Alcotest.(check (list (pair int int))) "drained" [ (0, 500) ] out;
  Alcotest.(check int) "over capacity transiently" 5000 (Cache.registered_bytes c);
  Alcotest.(check bool) "oversized is cached" true (Cache.mem c ~addr:4096 ~len:5000)

(* ------------------------------------------------------------------ *)
(* Put/get/accumulate oracles: fence synchronization                   *)
(* ------------------------------------------------------------------ *)

let pattern ~rank ~len = Bytes.init len (fun i -> Char.chr ((rank * 31 + i) land 0xff))

(* Ring of puts: rank r writes its pattern into (r+1) mod n's window.
   After the fence every window holds its left neighbour's pattern; a
   second epoch of gets reads it back. *)
let fence_ring ?channel n () =
  let blk = 96 in
  let oks = Array.make n false in
  let w =
    Mpi.run ?channel ~n (fun p ->
        let r = Mpi.rank p in
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let mine = Bytes.make blk '\000' in
        let win = Rma.win_create p ~comm mine in
        let right = (r + 1) mod n in
        let left = (r + n - 1) mod n in
        Rma.put win ~target:right ~target_off:0 (pattern ~rank:r ~len:blk)
          ~off:0 ~len:blk;
        Rma.win_fence win;
        let local_ok = Bytes.equal mine (pattern ~rank:left ~len:blk) in
        (* Second epoch: read the right neighbour's window remotely. *)
        let fetched = Bytes.create blk in
        Rma.get win ~target:right ~target_off:0 fetched ~off:0 ~len:blk;
        Rma.win_fence win;
        oks.(r) <- local_ok && Bytes.equal fetched (pattern ~rank:r ~len:blk);
        Rma.win_free win)
  in
  check_quiescent w;
  Array.iteri
    (fun r ok -> Alcotest.(check bool) (Printf.sprintf "rank %d" r) true ok)
    oks;
  Alcotest.(check int) "puts counted" n (counter w Key.rma_puts);
  Alcotest.(check int) "gets counted" n (counter w Key.rma_gets)

let test_fence_ring_sizes () =
  for n = 2 to 9 do
    fence_ring n ()
  done

let test_fence_self_put () =
  let w =
    Mpi.run ~n:2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let mine = Bytes.make 32 '\000' in
        let win = Rma.win_create p ~comm mine in
        if Mpi.rank p = 0 then
          Rma.put win ~target:0 ~target_off:8 (Bytes.make 8 'x') ~off:0 ~len:8;
        Rma.win_fence win;
        if Mpi.rank p = 0 then
          Alcotest.(check bytes) "self put applied at fence"
            (Bytes.of_string "\000\000\000\000\000\000\000\000xxxxxxxx\
                              \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000")
            mine;
        Rma.win_free win)
  in
  check_quiescent w

(* All ranks accumulate into rank 0's window. Sum over int64 lanes is
   order-insensitive; Matmul is associative but non-commutative, so the
   deferred application must fold strictly in rank order. *)
let matmul_oracle acc x =
  let g b i = Char.code (Bytes.get b i) in
  let a0 = g acc 0 and a1 = g acc 1 and a2 = g acc 2 and a3 = g acc 3 in
  let b0 = g x 0 and b1 = g x 1 and b2 = g x 2 and b3 = g x 3 in
  Bytes.set acc 0 (Char.chr (((a0 * b0) + (a1 * b2)) land 0xff));
  Bytes.set acc 1 (Char.chr (((a0 * b1) + (a1 * b3)) land 0xff));
  Bytes.set acc 2 (Char.chr (((a2 * b0) + (a3 * b2)) land 0xff));
  Bytes.set acc 3 (Char.chr (((a2 * b1) + (a3 * b3)) land 0xff))

let rank_matrix r = Bytes.init 4 (fun i -> Char.chr (((r * 5) + (i * 3) + 1) land 0xff))

let accumulate_oracle ~lock n () =
  let sum_cell = ref 0L in
  let mat_cell = ref Bytes.empty in
  let w =
    Mpi.run ~n (fun p ->
        let r = Mpi.rank p in
        let comm = Mpi.comm_world (Mpi.world_of p) in
        (* Rank 0 exposes [ 8-byte sum lane | 4-byte matrix ]; identity
           matrix so the fold is exactly the product of contributions. *)
        let mine =
          if r = 0 then begin
            let b = Bytes.make 12 '\000' in
            Bytes.set b 8 '\001';
            Bytes.set b 11 '\001';
            b
          end
          else Bytes.create 0
        in
        let win = Rma.win_create p ~comm mine in
        let contrib = Bytes.create 8 in
        Bytes.set_int64_le contrib 0 (Int64.of_int (r + 1));
        if lock then begin
          Rma.win_lock win ~target:0;
          Rma.accumulate win ~target:0 ~target_off:0 ~op:Rma.Sum contrib
            ~off:0 ~len:8;
          Rma.win_unlock win ~target:0;
          (* Matmul under lock would fold in lock-grant order, which is
             schedule-dependent; rank order is a fence-epoch guarantee. *)
          Rma.win_fence win;
          Rma.accumulate win ~target:0 ~target_off:8 ~op:Rma.Matmul
            (rank_matrix r) ~off:0 ~len:4;
          Rma.win_fence win
        end
        else begin
          Rma.accumulate win ~target:0 ~target_off:0 ~op:Rma.Sum contrib
            ~off:0 ~len:8;
          Rma.accumulate win ~target:0 ~target_off:8 ~op:Rma.Matmul
            (rank_matrix r) ~off:0 ~len:4;
          Rma.win_fence win
        end;
        if r = 0 then begin
          sum_cell := Bytes.get_int64_le mine 0;
          mat_cell := Bytes.sub mine 8 4
        end;
        Rma.win_free win)
  in
  check_quiescent w;
  let expect_sum = Int64.of_int (n * (n + 1) / 2) in
  Alcotest.(check int64) "commutative sum" expect_sum !sum_cell;
  let expect_mat = Bytes.of_string "\001\000\000\001" in
  for r = 0 to n - 1 do
    matmul_oracle expect_mat (rank_matrix r)
  done;
  Alcotest.(check bytes) "rank-order matmul fold" expect_mat !mat_cell

let test_accumulate_fence_sizes () =
  for n = 2 to 9 do
    accumulate_oracle ~lock:false n ()
  done

let test_accumulate_lock_sizes () =
  for n = 2 to 9 do
    accumulate_oracle ~lock:true n ()
  done

(* ------------------------------------------------------------------ *)
(* Passive target: lock/unlock                                         *)
(* ------------------------------------------------------------------ *)

(* Every rank takes rank 0's exclusive lock and writes its slot; after a
   closing fence (as a barrier) rank 0 sees every slot. Visibility at
   unlock is checked by the writer itself with a shared-lock get. *)
let lock_slots n () =
  let final = ref Bytes.empty in
  let w =
    Mpi.run ~n (fun p ->
        let r = Mpi.rank p in
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let mine = if r = 0 then Bytes.make (8 * n) '\000' else Bytes.create 0 in
        let win = Rma.win_create p ~comm mine in
        let slot = Bytes.create 8 in
        Bytes.set_int64_le slot 0 (Int64.of_int ((r * 1000) + 7));
        Rma.win_lock win ~target:0;
        Rma.put win ~target:0 ~target_off:(8 * r) slot ~off:0 ~len:8;
        Rma.win_unlock win ~target:0;
        (* My update must be visible now: read it back under a shared
           lock. *)
        Rma.win_lock ~exclusive:false win ~target:0;
        let back = Bytes.create 8 in
        Rma.get win ~target:0 ~target_off:(8 * r) back ~off:0 ~len:8;
        Rma.win_unlock win ~target:0;
        Alcotest.(check bytes)
          (Printf.sprintf "rank %d sees its slot after unlock" r)
          slot back;
        Rma.win_fence win;
        if r = 0 then final := Bytes.copy mine;
        Rma.win_free win)
  in
  check_quiescent w;
  for r = 0 to n - 1 do
    Alcotest.(check int64)
      (Printf.sprintf "slot %d" r)
      (Int64.of_int ((r * 1000) + 7))
      (Bytes.get_int64_le !final (8 * r))
  done;
  Alcotest.(check bool) "locks counted" true (counter w Key.rma_locks >= 2 * n)

let test_lock_slots_sizes () =
  for n = 2 to 9 do
    lock_slots n ()
  done

(* ------------------------------------------------------------------ *)
(* Epoch discipline: win_free is a checked error inside an open epoch   *)
(* ------------------------------------------------------------------ *)

let test_free_with_unfenced_put () =
  let raised = ref false in
  let w =
    Mpi.run ~n:2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let win = Rma.win_create p ~comm (Bytes.make 16 '\000') in
        if Mpi.rank p = 0 then begin
          Rma.put win ~target:1 ~target_off:0 (Bytes.make 8 'a') ~off:0 ~len:8;
          (match Rma.win_free win with
          | () -> ()
          | exception Invalid_argument _ -> raised := true)
        end;
        Rma.win_fence win;
        Rma.win_free win)
  in
  check_quiescent w;
  Alcotest.(check bool) "free with unfenced put raises" true !raised

let test_free_with_held_lock () =
  let raised = ref false in
  let w =
    Mpi.run ~n:2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let win = Rma.win_create p ~comm (Bytes.make 16 '\000') in
        if Mpi.rank p = 0 then begin
          Rma.win_lock win ~target:1;
          (match Rma.win_free win with
          | () -> ()
          | exception Invalid_argument _ -> raised := true);
          Rma.win_unlock win ~target:1
        end;
        Rma.win_free win)
  in
  check_quiescent w;
  Alcotest.(check bool) "free with held lock raises" true !raised

(* A peer's lock epoch on this window is the peer's to close: a target
   that reaches [win_free] while rank 1 still holds its exclusive lock
   synchronizes first, so the epoch ends and the put lands before the
   lock is judged. *)
let test_free_waits_for_peer_lock () =
  let seen = ref Bytes.empty in
  let w =
    Mpi.run ~n:2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let buf = Bytes.make 16 '\000' in
        let win = Rma.win_create p ~comm buf in
        let token = Bytes.create 1 in
        if Mpi.rank p = 1 then begin
          Rma.win_lock win ~target:0;
          Mpi.send p ~comm ~dst:0 ~tag:7 (Mpi_core.Buffer_view.of_bytes token);
          Rma.put win ~target:0 ~target_off:4 (Bytes.make 8 'z') ~off:0 ~len:8;
          Rma.win_unlock win ~target:0
        end
        else
          ignore
            (Mpi.recv p ~comm ~src:1 ~tag:7
               (Mpi_core.Buffer_view.of_bytes token));
        Rma.win_free win;
        if Mpi.rank p = 0 then seen := Bytes.copy buf)
  in
  check_quiescent w;
  Alcotest.(check string) "put visible after free"
    (String.make 4 '\000' ^ String.make 8 'z' ^ String.make 4 '\000')
    (Bytes.to_string !seen)

let test_freed_window_rejects_ops () =
  let w =
    Mpi.run ~n:2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let win = Rma.win_create p ~comm (Bytes.make 8 '\000') in
        Rma.win_free win;
        Alcotest.(check bool) "not exposed" false (Rma.exposed win);
        match
          Rma.put win ~target:0 ~target_off:0 (Bytes.make 8 'x') ~off:0 ~len:8
        with
        | () -> Alcotest.fail "put on freed window must raise"
        | exception Invalid_argument _ -> ())
  in
  check_quiescent w

let test_out_of_range_put () =
  let w =
    Mpi.run ~n:2 (fun p ->
        let r = Mpi.rank p in
        let comm = Mpi.comm_world (Mpi.world_of p) in
        (* Heterogeneous sizes: rank 1 exposes only 8 bytes. *)
        let win =
          Rma.win_create p ~comm (Bytes.make (if r = 0 then 64 else 8) '\000')
        in
        Alcotest.(check int) "peer size known" (if r = 0 then 8 else 64)
          (Rma.size_of win ~rank:(1 - r));
        if r = 0 then (
          match
            Rma.put win ~target:1 ~target_off:4 (Bytes.make 8 'x') ~off:0
              ~len:8
          with
          | () -> Alcotest.fail "out-of-range put must raise"
          | exception Invalid_argument _ -> ());
        Rma.win_fence win;
        Rma.win_free win)
  in
  check_quiescent w

(* ------------------------------------------------------------------ *)
(* RDMA channel: registration accounting end to end                    *)
(* ------------------------------------------------------------------ *)

let test_rdma_registration_amortized () =
  let big = 32_768 in
  let w =
    Mpi.run ~channel:`Rdma ~n:2 (fun p ->
        let r = Mpi.rank p in
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let mine = Bytes.make big '\000' in
        let win = Rma.win_create p ~comm mine in
        let src = Bytes.make big 'r' in
        if r = 0 then
          (* Same origin buffer three times: first transfer registers,
             the rest hit the pin-down cache. *)
          for _ = 1 to 3 do
            Rma.put win ~target:1 ~target_off:0 src ~off:0 ~len:big
          done;
        Rma.win_fence win;
        (* Small put stages through bounce buffers: no registration. *)
        if r = 0 then
          Rma.put win ~target:1 ~target_off:0 src ~off:0 ~len:64;
        Rma.win_fence win;
        Rma.win_free win)
  in
  check_quiescent w;
  Alcotest.(check bool) "cache hits observed" true (counter w Key.rdma_reg_hits >= 2);
  (* Misses: two window pins + the first large-put registration. *)
  Alcotest.(check int) "misses" 3 (counter w Key.rdma_reg_misses);
  Alcotest.(check int) "eager copies" 1 (counter w Key.rdma_eager_copies);
  Alcotest.(check int) "rendezvous writes (32 KiB > 12 KiB crossover)" 3
    (counter w Key.rdma_write_rndv);
  (* Window pins released at win_free. *)
  (match Mpi.rdma_handle w with
  | None -> Alcotest.fail "rdma world must expose the fabric handle"
  | Some h ->
      for rank = 0 to 1 do
        Alcotest.(check int)
          (Printf.sprintf "rank %d pin table empty" rank)
          0
          (Cache.pinned_bytes (Rdma.cache h ~rank))
      done)

let test_rdma_read_variant_below_crossover () =
  let mid = 8_192 in
  let w =
    Mpi.run ~channel:`Rdma ~n:2 (fun p ->
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let win = Rma.win_create p ~comm (Bytes.make mid '\000') in
        if Mpi.rank p = 0 then
          Rma.put win ~target:1 ~target_off:0 (Bytes.make mid 's') ~off:0
            ~len:mid;
        Rma.win_fence win;
        Rma.win_free win)
  in
  (* 8 KiB is above the RDMA eager threshold but below the 12 KiB
     write/read crossover: the read variant wins. *)
  Alcotest.(check int) "read rendezvous" 1 (counter w Key.rdma_read_rndv);
  Alcotest.(check int) "no write rendezvous" 0 (counter w Key.rdma_write_rndv)

(* ------------------------------------------------------------------ *)
(* Fault-plan coverage: rendezvous RMA survives a lossy wire           *)
(* ------------------------------------------------------------------ *)

let test_rma_under_faults () =
  let big = 131_072 in
  (* > CH3 eager threshold: real RTS/CTS rendezvous *)
  let ok = ref false in
  let fault = Fault.plan ~seed:11 ~drop:0.05 ~duplicate:0.02 ~delay:0.05 () in
  let w =
    Mpi.run ~fault ~n:2 (fun p ->
        let r = Mpi.rank p in
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let mine = Bytes.make big '\000' in
        let win = Rma.win_create p ~comm mine in
        if r = 0 then
          Rma.put win ~target:1 ~target_off:0 (pattern ~rank:0 ~len:big)
            ~off:0 ~len:big;
        Rma.win_fence win;
        if r = 1 then ok := Bytes.equal mine (pattern ~rank:0 ~len:big);
        let back = Bytes.create 256 in
        Rma.get win ~target:(1 - r) ~target_off:0 back ~off:0 ~len:256;
        Rma.win_fence win;
        Rma.win_free win)
  in
  check_quiescent w;
  Alcotest.(check bool) "rendezvous put intact under faults" true !ok;
  Alcotest.(check bool) "wire actually dropped frames" true
    (counter w Key.fault_drops > 0)

(* ------------------------------------------------------------------ *)
(* Managed windows under the GC pinning policy                         *)
(* ------------------------------------------------------------------ *)

module World = Poison.World
module Smp = Motor.System_mp
module Pin = Motor.Pinning
module Om = Vm.Object_model
module VGc = Vm.Gc
module Heap = Vm.Heap
module Types = Vm.Types
module Invariant = Check.Invariant

let no_violations label vs =
  List.iter (fun v -> Format.eprintf "%a@." Invariant.pp v) vs;
  Alcotest.(check int) label 0 (List.length vs)

let payload_digest gc obj =
  let addr, len = Om.payload_region gc obj in
  Digest.to_hex (Digest.subbytes (Heap.mem (VGc.heap gc)) addr len)

(* A full collection during an open exposure epoch: the conditional pin
   (Deferred policy) must keep the window's backing object in place —
   address and contents digest both unchanged — and evaporate at the
   first collection after owin_free. *)
let test_owin_survives_full_collection () =
  let elems = 64 in
  let w = World.create ~n:2 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let r = World.rank ctx in
      let comm = Smp.comm_world ctx in
      let a = Om.alloc_array gc (Types.Eprim Types.I4) elems in
      for i = 0 to elems - 1 do
        Om.set_elem_int gc a i ((r * 100) + i)
      done;
      Alcotest.(check bool) "window object starts young" true
        (Heap.in_young (VGc.heap gc) (Om.addr_of gc a));
      let addr0 = Om.addr_of gc a in
      let ow = Smp.owin_create ctx ~comm a in
      let win = Smp.owin_win ow in
      Alcotest.(check int) "conditional pin registered" 1
        (VGc.conditional_pin_count gc);
      (* Open an epoch with traffic in flight toward the peer. *)
      let update = Bytes.create (4 * elems) in
      for i = 0 to elems - 1 do
        Bytes.set_int32_le update (4 * i) (Int32.of_int (((1 - r) * 100) + i))
      done;
      Rma.put win ~target:(1 - r) ~target_off:0 update ~off:0
        ~len:(Bytes.length update);
      let digest0 = payload_digest gc a in
      (* Full collection mid-epoch: the put is still deferred, so the
         window must be bit-identical and unmoved. *)
      VGc.collect gc ~full:true;
      Alcotest.(check int) "window buffer unmoved" addr0 (Om.addr_of gc a);
      Alcotest.(check string) "window contents digest-stable" digest0
        (payload_digest gc a);
      Rma.win_fence win;
      (* The peer's put landed in the managed object, in place. *)
      for i = 0 to elems - 1 do
        Alcotest.(check int)
          (Printf.sprintf "elem %d" i)
          ((r * 100) + i)
          (Om.get_elem_int gc a i)
      done;
      Smp.owin_free ow;
      Alcotest.(check bool) "window retired" false (Rma.exposed win);
      VGc.collect gc ~full:true;
      Alcotest.(check int) "pin dropped after free" 0
        (VGc.conditional_pin_count gc);
      no_violations "pin table empty" (Invariant.pin_table ~rank:r gc))

(* The sticky-pin policies must leave no pin behind either. *)
let test_owin_sticky_policies_unpin () =
  List.iter
    (fun policy ->
      let config = { World.default_config with policy } in
      let w = World.create ~config ~n:2 () in
      World.run w (fun ctx ->
          let gc = World.gc ctx in
          let r = World.rank ctx in
          let comm = Smp.comm_world ctx in
          let a = Om.alloc_array gc (Types.Eprim Types.I4) 16 in
          let ow = Smp.owin_create ctx ~comm a in
          Rma.put (Smp.owin_win ow) ~target:(1 - r) ~target_off:0
            (Bytes.make 8 'p') ~off:0 ~len:8;
          Rma.win_fence (Smp.owin_win ow);
          Smp.owin_free ow;
          VGc.collect gc ~full:true;
          no_violations
            (Motor.Pinning.policy_name policy ^ ": pin table empty")
            (Invariant.pin_table ~rank:r gc)))
    [ Pin.Always_pin; Pin.Boundary_check ]

let () =
  Alcotest.run "rma"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss/overlap" `Quick test_cache_hit_miss;
          Alcotest.test_case "lru eviction + re-registration" `Quick
            test_cache_lru_eviction;
          Alcotest.test_case "multi-victim eviction" `Quick
            test_cache_multi_eviction;
          Alcotest.test_case "pinning blocks eviction" `Quick
            test_cache_pinning;
          Alcotest.test_case "pin promotes cached entry" `Quick
            test_cache_pin_hit_promotes;
          Alcotest.test_case "oversized region" `Quick
            test_cache_oversized_region;
        ] );
      ( "fence",
        [
          Alcotest.test_case "put/get ring, 2-9 ranks" `Quick
            test_fence_ring_sizes;
          Alcotest.test_case "self put" `Quick test_fence_self_put;
          Alcotest.test_case "accumulate oracles, 2-9 ranks" `Quick
            test_accumulate_fence_sizes;
        ] );
      ( "lock",
        [
          Alcotest.test_case "exclusive slots + shared get, 2-9 ranks"
            `Quick test_lock_slots_sizes;
          Alcotest.test_case "accumulate via lock + fence, 2-9 ranks" `Quick
            test_accumulate_lock_sizes;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "free with unfenced put" `Quick
            test_free_with_unfenced_put;
          Alcotest.test_case "free with held lock" `Quick
            test_free_with_held_lock;
          Alcotest.test_case "free waits for a peer's lock epoch" `Quick
            test_free_waits_for_peer_lock;
          Alcotest.test_case "freed window rejects ops" `Quick
            test_freed_window_rejects_ops;
          Alcotest.test_case "out-of-range put" `Quick test_out_of_range_put;
        ] );
      ( "rdma",
        [
          Alcotest.test_case "registration amortized" `Quick
            test_rdma_registration_amortized;
          Alcotest.test_case "read variant below crossover" `Quick
            test_rdma_read_variant_below_crossover;
        ] );
      ( "faults",
        [ Alcotest.test_case "rendezvous under loss" `Quick test_rma_under_faults ] );
      ( "managed",
        [
          Alcotest.test_case "full collection during open epoch" `Quick
            test_owin_survives_full_collection;
          Alcotest.test_case "sticky policies unpin at free" `Quick
            test_owin_sticky_policies_unpin;
        ] );
    ]
