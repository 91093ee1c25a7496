(* Integration tests for the Motor core: VM-integrated MPI with the
   pinning policy, the object-transport integrity rules, the custom
   serializer (Transportable traversal, identity, split representation),
   the OO operations, the buffer pool, and managed MIL programs doing
   message passing — the paper's full stack. *)

module World = Poison.World
module Runtime = Poison.Runtime
module Ot = Motor.Object_transport
module Smp = Motor.System_mp
module Ser = Motor.Serializer
module Pin = Motor.Pinning
module Pool = Motor.Buffer_pool
module Om = Vm.Object_model
module Gc = Vm.Gc
module Heap = Vm.Heap
module Classes = Vm.Classes
module Types = Vm.Types
module Key = Simtime.Stats.Key
module Tm = Mpi_core.Tag_match

let stats w = (World.env w).Simtime.Env.stats

(* The paper's LinkedArray (Figure 5): data and next propagate, next2 does
   not. *)
let linked_array_class registry =
  match Classes.find_by_name registry "LinkedArray" with
  | Some mt -> mt
  | None ->
      let id = Classes.declare registry ~name:"LinkedArray" in
      let arr = Classes.array_class registry (Types.Eprim Types.I4) in
      Classes.complete registry id ~transportable:true
        ~fields:
          [
            ("array", Types.Ref arr.Classes.c_id, true);
            ("next", Types.Ref id, true);
            ("next2", Types.Ref id, false);
          ]
        ()

let build_list gc mt ~elems ~ints_per_node =
  let farray = Classes.field mt "array" in
  let fnext = Classes.field mt "next" in
  let head = ref (Om.null gc) in
  for i = elems - 1 downto 0 do
    let node = Om.alloc_instance gc mt in
    let arr = Om.alloc_array gc (Types.Eprim Types.I4) ints_per_node in
    for j = 0 to ints_per_node - 1 do
      Om.set_elem_int gc arr j ((i * 1000) + j)
    done;
    Om.set_ref gc node farray (Some arr);
    Om.free gc arr;
    if not (Om.is_null gc !head) then begin
      Om.set_ref gc node fnext (Some !head);
      Om.free gc !head
    end;
    head := node
  done;
  !head

let list_contents gc mt head =
  let farray = Classes.field mt "array" in
  let fnext = Classes.field mt "next" in
  let out = ref [] in
  let cur = ref (Gc.Handle.alloc gc (Om.addr_of gc head)) in
  let continue_ = ref true in
  while !continue_ do
    (match Om.get_ref gc !cur farray with
    | Some arr ->
        let n = Om.array_length gc arr in
        let vals = List.init n (fun j -> Om.get_elem_int gc arr j) in
        out := vals :: !out;
        Om.free gc arr
    | None -> out := [] :: !out);
    match Om.get_ref gc !cur fnext with
    | Some next ->
        Om.free gc !cur;
        cur := next
    | None -> continue_ := false
  done;
  Om.free gc !cur;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Regular (zero-copy) object transport                                 *)
(* ------------------------------------------------------------------ *)

let test_array_roundtrip () =
  let w = World.create ~n:2 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      if World.rank ctx = 0 then begin
        let a = Om.alloc_array gc (Types.Eprim Types.R8) 100 in
        for i = 0 to 99 do
          Om.set_elem_float gc a i (float_of_int i *. 0.5)
        done;
        Ot.send ctx ~comm ~dst:1 ~tag:0 a
      end
      else begin
        let a = Om.alloc_array gc (Types.Eprim Types.R8) 100 in
        let st = Ot.recv ctx ~comm ~src:0 ~tag:0 a in
        Alcotest.(check int) "800 bytes" 800 st.Mpi_core.Status.bytes;
        for i = 0 to 99 do
          Alcotest.(check (float 0.0))
            (Printf.sprintf "elem %d" i)
            (float_of_int i *. 0.5)
            (Om.get_elem_float gc a i)
        done
      end)

let test_plain_object_roundtrip () =
  let w = World.create ~n:2 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      let mt =
        Classes.complete (World.registry ctx)
          (Classes.declare (World.registry ctx) ~name:"Vec3")
          ~fields:
            [
              ("x", Types.Prim Types.R8, false);
              ("y", Types.Prim Types.R8, false);
              ("z", Types.Prim Types.R8, false);
            ]
          ()
      in
      let o = Om.alloc_instance gc mt in
      if World.rank ctx = 0 then begin
        Om.set_float gc o (Classes.field mt "x") 1.0;
        Om.set_float gc o (Classes.field mt "y") 2.0;
        Om.set_float gc o (Classes.field mt "z") 3.0;
        Ot.send ctx ~comm ~dst:1 ~tag:0 o
      end
      else begin
        ignore (Ot.recv ctx ~comm ~src:0 ~tag:0 o);
        Alcotest.(check (float 0.0)) "y field" 2.0
          (Om.get_float gc o (Classes.field mt "y"))
      end)

let test_range_transfer () =
  let w = World.create ~n:2 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      let a = Om.alloc_array gc (Types.Eprim Types.I4) 10 in
      if World.rank ctx = 0 then begin
        for i = 0 to 9 do
          Om.set_elem_int gc a i (100 + i)
        done;
        (* Send elements [3..7). *)
        Ot.send_range ctx ~comm ~dst:1 ~tag:0 a ~offset:3 ~count:4
      end
      else begin
        (* Receive into elements [6..10). *)
        ignore (Ot.recv_range ctx ~comm ~src:0 ~tag:0 a ~offset:6 ~count:4);
        Alcotest.(check (list int)) "offset landing"
          [ 0; 0; 0; 0; 0; 0; 103; 104; 105; 106 ]
          (List.init 10 (fun i -> Om.get_elem_int gc a i))
      end)

let test_refful_object_rejected () =
  let w = World.create ~n:1 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      let mt = linked_array_class (World.registry ctx) in
      let o = Om.alloc_instance gc mt in
      (* Objects with reference fields may not use the regular ops: that is
         how Motor protects object-model integrity (Section 4.2.1). *)
      try
        Ot.send ctx ~comm ~dst:0 ~tag:0 o;
        Alcotest.fail "expected Transport_error"
      with Ot.Transport_error _ -> ())

let test_ref_array_rejected () =
  let w = World.create ~n:1 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      let mt = linked_array_class (World.registry ctx) in
      let a = Om.alloc_array gc (Types.Eref mt.Classes.c_id) 3 in
      try
        Ot.send ctx ~comm ~dst:0 ~tag:0 a;
        Alcotest.fail "expected Transport_error"
      with Ot.Transport_error _ -> ())

let test_oversized_message_rejected () =
  (try
     let w = World.create ~n:2 () in
     World.run w (fun ctx ->
         let gc = World.gc ctx in
         let comm = Smp.comm_world ctx in
         if World.rank ctx = 0 then begin
           let a = Om.alloc_array gc (Types.Eprim Types.I4) 16 in
           Ot.send ctx ~comm ~dst:1 ~tag:0 a
         end
         else begin
           let a = Om.alloc_array gc (Types.Eprim Types.I4) 4 in
           ignore (Ot.recv ctx ~comm ~src:0 ~tag:0 a)
         end);
     Alcotest.fail "expected truncation error"
   with Mpi_core.Ch3.Mpi_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Pinning policy                                                      *)
(* ------------------------------------------------------------------ *)

let ping_pong_world policy =
  let config = { World.default_config with policy } in
  let w = World.create ~config ~n:2 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      let a = Om.alloc_array gc (Types.Eprim Types.I4) 64 in
      for _ = 1 to 20 do
        if World.rank ctx = 0 then begin
          Ot.send ctx ~comm ~dst:1 ~tag:0 a;
          ignore (Ot.recv ctx ~comm ~src:1 ~tag:0 a)
        end
        else begin
          ignore (Ot.recv ctx ~comm ~src:0 ~tag:0 a);
          Ot.send ctx ~comm ~dst:0 ~tag:0 a
        end
      done);
  w

let test_always_pin_pins_every_op () =
  let w = ping_pong_world Pin.Always_pin in
  (* 20 iterations x 2 ops x 2 ranks = 80 operations. *)
  Alcotest.(check int) "80 pins" 80 (Simtime.Stats.get (stats w) Key.pins);
  Alcotest.(check int) "80 unpins" 80 (Simtime.Stats.get (stats w) Key.unpins)

let test_deferred_policy_avoids_pins () =
  let w = ping_pong_world Pin.Deferred in
  let pins = Simtime.Stats.get (stats w) Key.pins in
  let avoided =
    Simtime.Stats.get (stats w) Key.pins_avoided
    + Simtime.Stats.get (stats w) Key.pins_deferred
  in
  (* Eager blocking sends complete before the polling wait, so their
     deferred pins are never taken; only the receives (which really wait
     on the wire) pin. Always-pin does 80; deferred at most 40. *)
  Alcotest.(check bool)
    (Printf.sprintf "at most half the pins of always-pin (%d)" pins)
    true (pins <= 40);
  Alcotest.(check bool)
    (Printf.sprintf "every send avoided its pin (%d avoided)" avoided)
    true (avoided >= 40)

let test_elder_objects_never_pin () =
  let config = { World.default_config with policy = Pin.Boundary_check } in
  let w = World.create ~config ~n:2 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      let a = Om.alloc_array gc (Types.Eprim Types.I4) 64 in
      (* Promote the buffer to the elder generation first. *)
      Gc.collect gc ~full:false;
      Alcotest.(check bool) "promoted" false
        (Heap.in_young (Gc.heap gc) (Om.addr_of gc a));
      if World.rank ctx = 0 then begin
        Ot.send ctx ~comm ~dst:1 ~tag:0 a;
        ignore (Ot.recv ctx ~comm ~src:1 ~tag:0 a)
      end
      else begin
        ignore (Ot.recv ctx ~comm ~src:0 ~tag:0 a);
        Ot.send ctx ~comm ~dst:0 ~tag:0 a
      end);
  Alcotest.(check int) "zero pins" 0 (Simtime.Stats.get (stats w) Key.pins);
  Alcotest.(check int) "all four ops avoided" 4
    (Simtime.Stats.get (stats w) Key.pins_avoided)

let test_conditional_pin_protects_irecv () =
  (* A non-blocking receive into a young object, with a GC triggered while
     the transfer is outstanding: the conditional pin must hold the buffer
     in place until the data lands, then evaporate. *)
  let w = World.create ~n:2 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      if World.rank ctx = 0 then begin
        (* Delay the send so the receiver's GC happens mid-operation. *)
        for _ = 1 to 5 do
          Fiber.yield ()
        done;
        let a = Om.alloc_array gc (Types.Eprim Types.I4) 32 in
        for i = 0 to 31 do
          Om.set_elem_int gc a i (i * 3)
        done;
        Ot.send ctx ~comm ~dst:1 ~tag:0 a
      end
      else begin
        let a = Om.alloc_array gc (Types.Eprim Types.I4) 32 in
        Alcotest.(check bool) "buffer starts young" true
          (Heap.in_young (Gc.heap gc) (Om.addr_of gc a));
        let addr0 = Om.addr_of gc a in
        let req = Ot.irecv ctx ~comm ~src:0 ~tag:0 a in
        Alcotest.(check int) "conditional pin registered" 1
          (Gc.conditional_pin_count gc);
        (* Collection while the operation is outstanding. *)
        Gc.collect gc ~full:false;
        Alcotest.(check int) "buffer held in place" addr0 (Om.addr_of gc a);
        ignore (Ot.wait ctx req);
        Alcotest.(check int) "payload intact" 93 (Om.get_elem_int gc a 31);
        (* Next collection drops the request. The object itself was
           promoted in place when its pinned young block was reassigned to
           the elder generation, so its address never changes again (the
           elder generation is not compacted). *)
        Gc.collect gc ~full:false;
        Alcotest.(check int) "request dropped after completion" 0
          (Gc.conditional_pin_count gc);
        Alcotest.(check bool) "promoted out of the young generation" false
          (Heap.in_young (Gc.heap gc) (Om.addr_of gc a));
        Alcotest.(check int) "promoted in place, not copied" addr0
          (Om.addr_of gc a)
      end)

let test_conditional_pin_protects_iallreduce () =
  (* The collective version of the same claim: a GC forced while an
     iallreduce schedule is in flight must poll the collective's
     generalized request (kind Coll_req) through the conditional pin,
     hold the Motor buffer in place for the completion write-back, and
     drop the pin at the first collection after completion. *)
  let n = 4 in
  let w = World.create ~n () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      let me = World.rank ctx in
      if me = 0 then
        (* Stagger rank 0: recursive doubling needs every contribution,
           so no other rank's schedule can finish before rank 0 joins —
           their collections below run against genuinely in-flight
           requests. *)
        for _ = 1 to 5 do
          Fiber.yield ()
        done;
      let elems = 64 in
      let a = Om.alloc_array gc (Types.Eprim Types.R8) elems in
      for i = 0 to elems - 1 do
        Om.set_elem_float gc a i (float_of_int ((me + 1) * (i + 1)))
      done;
      Alcotest.(check bool) "buffer starts young" true
        (Heap.in_young (Gc.heap gc) (Om.addr_of gc a));
      let addr0 = Om.addr_of gc a in
      let req = Smp.iallreduce_sum_f64 ctx ~comm a in
      if me <> 0 then begin
        Alcotest.(check int) "conditional pin registered" 1
          (Gc.conditional_pin_count gc);
        Alcotest.(check bool) "still in flight" false (Ot.test ctx req);
        (* Collection while the schedule is outstanding. *)
        Gc.collect gc ~full:false;
        Alcotest.(check int) "buffer held in place" addr0 (Om.addr_of gc a)
      end;
      Ot.wait_all ctx [ req ];
      (* sum over ranks of (r+1)*(i+1) = (i+1) * n(n+1)/2. *)
      let scale = float_of_int (n * (n + 1) / 2) in
      for i = 0 to elems - 1 do
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "elem %d" i)
          (scale *. float_of_int (i + 1))
          (Om.get_elem_float gc a i)
      done;
      Gc.collect gc ~full:false;
      Alcotest.(check int) "pin dropped after completion" 0
        (Gc.conditional_pin_count gc));
  Alcotest.(check (list (pair int string)))
    "world quiescent" []
    (Mpi_core.Mpi.quiescence_report (World.mpi w))

(* The managed API's rank, size, ibcast and ibarrier: every rank gets the
   root's array in place, and the barrier completes on every rank. *)
let test_managed_ibcast_ibarrier () =
  let n = 4 in
  let w = World.create ~n () in
  let seen = Array.make n (-1, -1) in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      let me = Smp.rank ctx in
      seen.(me) <- (me, Smp.size ctx comm);
      let a = Om.alloc_array gc (Types.Eprim Types.I4) 16 in
      if me = 2 then
        for i = 0 to 15 do
          Om.set_elem_int gc a i (100 + i)
        done;
      let bcast = Smp.ibcast ctx ~comm ~root:2 a in
      let barrier = Smp.ibarrier ctx comm in
      Ot.wait_all ctx [ bcast; barrier ];
      for i = 0 to 15 do
        Alcotest.(check int) (Printf.sprintf "rank %d elem %d" me i) (100 + i)
          (Om.get_elem_int gc a i)
      done);
  Alcotest.(check (array (pair int int))) "rank and size"
    (Array.init n (fun r -> (r, n)))
    seen

let test_no_pin_policy_corrupts () =
  (* The honest DMA model: without pinning, a collection during an
     outstanding receive moves the buffer and the data lands at the stale
     address — the crash scenario of Section 2.3. *)
  let config = { World.default_config with policy = Pin.No_pin } in
  let w = World.create ~config ~n:2 () in
  let corrupted = ref false in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      if World.rank ctx = 0 then begin
        for _ = 1 to 5 do
          Fiber.yield ()
        done;
        let a = Om.alloc_array gc (Types.Eprim Types.I4) 32 in
        for i = 0 to 31 do
          Om.set_elem_int gc a i 7
        done;
        Ot.send ctx ~comm ~dst:1 ~tag:0 a
      end
      else begin
        let a = Om.alloc_array gc (Types.Eprim Types.I4) 32 in
        let req = Ot.irecv ctx ~comm ~src:0 ~tag:0 a in
        Gc.collect gc ~full:false;  (* moves the buffer: no pin held it *)
        ignore (Ot.wait ctx req);
        if Om.get_elem_int gc a 31 <> 7 then corrupted := true
      end);
  Alcotest.(check bool) "data lost without pinning" true !corrupted


let test_rendezvous_send_pins_once () =
  (* A blocking send above the eager threshold must enter its polling wait
     (waiting for CTS), so the deferred pin is taken exactly once and
     released at completion. *)
  let w = World.create ~n:2 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      if World.rank ctx = 0 then begin
        let a = Om.alloc_array gc (Types.Eprim Types.I1) 8192 in
        Alcotest.(check bool) "young buffer" true
          (Heap.in_young (Gc.heap gc) (Om.addr_of gc a));
        (* Force rendezvous regardless of size. *)
        Ot.ssend ctx ~comm ~dst:1 ~tag:0 a
      end
      else begin
        for _ = 1 to 10 do
          Fiber.yield ()
        done;
        let a = Om.alloc_array gc (Types.Eprim Types.I1) 8192 in
        ignore (Ot.recv ctx ~comm ~src:0 ~tag:0 a)
      end);
  let stats = stats w in
  Alcotest.(check bool) "sender pinned in its wait" true
    (Simtime.Stats.get stats Key.pins >= 1);
  Alcotest.(check int) "all pins released" 
    (Simtime.Stats.get stats Key.pins)
    (Simtime.Stats.get stats Key.unpins)

let test_boundary_check_nonblocking_unpins_on_completion () =
  (* Under Boundary_check the non-blocking path takes a sticky pin and
     registers an unpin on the request's completion callback — the
     "test and release" flavour. *)
  let config = { World.default_config with policy = Pin.Boundary_check } in
  let w = World.create ~config ~n:2 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      if World.rank ctx = 0 then begin
        let a = Om.alloc_array gc (Types.Eprim Types.I4) 16 in
        Ot.send ctx ~comm ~dst:1 ~tag:0 a
      end
      else begin
        let a = Om.alloc_array gc (Types.Eprim Types.I4) 16 in
        let req = Ot.irecv ctx ~comm ~src:0 ~tag:0 a in
        Alcotest.(check int) "pinned while outstanding" 1
          (Gc.pinned_count gc);
        ignore (Ot.wait ctx req);
        Alcotest.(check int) "unpinned at completion" 0
          (Gc.pinned_count gc)
      end)


(* ------------------------------------------------------------------ *)
(* Serializer                                                          *)
(* ------------------------------------------------------------------ *)

let with_runtime f =
  let rt = Runtime.create () in
  f rt.Vm.Runtime.gc rt.Vm.Runtime.registry

let test_serializer_roundtrip_list () =
  with_runtime (fun gc registry ->
      let mt = linked_array_class registry in
      let head = build_list gc mt ~elems:5 ~ints_per_node:3 in
      let data = Ser.serialize gc ~visited:Ser.Linear head in
      (* 5 nodes + 5 arrays. *)
      Alcotest.(check int) "object count" 10 (Ser.object_count data);
      let copy = Ser.deserialize gc data in
      Alcotest.(check bool) "fresh object" false (Om.same_object gc copy head);
      let expected = list_contents gc mt head in
      Alcotest.(check (list (list int))) "contents equal" expected
        (list_contents gc mt copy))

let test_serializer_nulls_non_transportable () =
  with_runtime (fun gc registry ->
      let mt = linked_array_class registry in
      let fnext2 = Classes.field mt "next2" in
      let a = Om.alloc_instance gc mt in
      let b = Om.alloc_instance gc mt in
      Om.set_ref gc a fnext2 (Some b);
      let copy = Ser.deserialize gc (Ser.serialize gc ~visited:Ser.Linear a) in
      Alcotest.(check bool) "next2 not propagated" true
        (Om.get_ref gc copy fnext2 = None);
      (* Only the root travelled: b was reachable solely through next2. *)
      Alcotest.(check int) "one object" 1
        (Ser.object_count (Ser.serialize gc ~visited:Ser.Linear a)))

let test_serializer_cycle () =
  with_runtime (fun gc registry ->
      let mt = linked_array_class registry in
      let fnext = Classes.field mt "next" in
      let a = Om.alloc_instance gc mt in
      Om.set_ref gc a fnext (Some a);
      let data = Ser.serialize gc ~visited:Ser.Linear a in
      Alcotest.(check int) "cycle is one object" 1 (Ser.object_count data);
      let copy = Ser.deserialize gc data in
      match Om.get_ref gc copy fnext with
      | Some n ->
          Alcotest.(check bool) "cycle rebuilt" true (Om.same_object gc n copy)
      | None -> Alcotest.fail "cycle lost")

let test_serializer_shared_identity () =
  with_runtime (fun gc registry ->
      let mt = linked_array_class registry in
      let fnext = Classes.field mt "next" in
      let fa = Classes.field mt "array" in
      (* a.next = b; a.array == b.array (shared). *)
      let a = Om.alloc_instance gc mt in
      let b = Om.alloc_instance gc mt in
      let shared = Om.alloc_array gc (Types.Eprim Types.I4) 4 in
      Om.set_ref gc a fnext (Some b);
      Om.set_ref gc a fa (Some shared);
      Om.set_ref gc b fa (Some shared);
      let copy = Ser.deserialize gc (Ser.serialize gc ~visited:Ser.Linear a) in
      let ca = Option.get (Om.get_ref gc copy fa) in
      let cb = Option.get (Om.get_ref gc copy fnext) in
      let cba = Option.get (Om.get_ref gc cb fa) in
      Alcotest.(check bool) "sharing preserved" true (Om.same_object gc ca cba))

let test_serializer_md_array () =
  with_runtime (fun gc _registry ->
      let m = Om.alloc_md_array gc (Types.Eprim Types.R8) [| 2; 3 |] in
      for i = 0 to 5 do
        Om.set_elem_float gc m i (float_of_int i +. 0.25)
      done;
      let copy = Ser.deserialize gc (Ser.serialize gc ~visited:Ser.Linear m) in
      Alcotest.(check (array int)) "dims" [| 2; 3 |] (Om.md_dims gc copy);
      Alcotest.(check (float 0.0)) "payload" 5.25 (Om.get_elem_float gc copy 5))

let test_serializer_null_root () =
  with_runtime (fun gc _ ->
      let n = Om.null gc in
      let copy = Ser.deserialize gc (Ser.serialize gc ~visited:Ser.Linear n) in
      Alcotest.(check bool) "null root" true (Om.is_null gc copy))

let test_linear_and_hashed_agree () =
  with_runtime (fun gc registry ->
      let mt = linked_array_class registry in
      let head = build_list gc mt ~elems:12 ~ints_per_node:2 in
      let a = Ser.serialize gc ~visited:Ser.Linear head in
      let b = Ser.serialize gc ~visited:Ser.Hashed head in
      Alcotest.(check bytes) "identical representations" a b)

let test_linear_visited_quadratic_probes () =
  with_runtime (fun gc registry ->
      let mt = linked_array_class registry in
      let env = Vm.Heap.env (Gc.heap gc) in
      (* [m] objects: [m / 2] nodes, each with its data array. *)
      let probes () =
        Simtime.Stats.get env.Simtime.Env.stats Key.visited_probes
      in
      let probes_for m =
        let before = probes () in
        let head = build_list gc mt ~elems:(m / 2) ~ints_per_node:1 in
        ignore (Ser.serialize gc ~visited:Ser.Linear head);
        probes () - before
      in
      (* A list has no sharing, so every lookup misses and walks the whole
         newest-first list: 1 probe for the root (empty list), then
         1, 2, ..., m - 1. For m = 1024 that is 523,777; the benchmark's
         objects step (4 x 64 + 1 x 1024 objects, each sent and echoed)
         makes 1,063,690, so 140 steps make 148,916,600. *)
      List.iter
        (fun m ->
          Alcotest.(check int)
            (Printf.sprintf "%d objects" m)
            (1 + (m * (m - 1) / 2))
            (probes_for m))
        [ 2; 64; 400; 1024 ])

let test_split_sizes () =
  with_runtime (fun gc registry ->
      let mt = linked_array_class registry in
      let arr = Om.alloc_array gc (Types.Eref mt.Classes.c_id) 10 in
      for i = 0 to 9 do
        let node = Om.alloc_instance gc mt in
        Om.set_elem_ref gc arr i (Some node);
        Om.free gc node
      done;
      let parts = Ser.split gc ~visited:Ser.Linear arr ~parts:4 in
      Alcotest.(check (list int)) "3+3+2+2 elements"
        [ 4; 4; 3; 3 ]
        (* each segment: sub-array root + its nodes *)
        (Array.to_list (Array.map Ser.object_count parts));
      (* Each part deserializes standalone. *)
      let p0 = Ser.deserialize gc parts.(0) in
      Alcotest.(check int) "first segment has 3 elements" 3
        (Om.array_length gc p0))

let test_split_concat_roundtrip () =
  with_runtime (fun gc registry ->
      let mt = linked_array_class registry in
      let fa = Classes.field mt "array" in
      let arr = Om.alloc_array gc (Types.Eref mt.Classes.c_id) 7 in
      for i = 0 to 6 do
        let node = Om.alloc_instance gc mt in
        let data = Om.alloc_array gc (Types.Eprim Types.I4) 1 in
        Om.set_elem_int gc data 0 (i * 11);
        Om.set_ref gc node fa (Some data);
        Om.set_elem_ref gc arr i (Some node);
        Om.free gc node;
        Om.free gc data
      done;
      let parts = Ser.split gc ~visited:Ser.Linear arr ~parts:3 in
      let roots =
        Array.to_list (Array.map (fun p -> Ser.deserialize gc p) parts)
      in
      let combined = Ser.concat_arrays gc roots in
      Alcotest.(check int) "combined length" 7 (Om.array_length gc combined);
      for i = 0 to 6 do
        let node = Option.get (Om.get_elem_ref gc combined i) in
        let data = Option.get (Om.get_ref gc node fa) in
        Alcotest.(check int)
          (Printf.sprintf "element %d in order" i)
          (i * 11)
          (Om.get_elem_int gc data 0)
      done)

(* ------------------------------------------------------------------ *)
(* OO operations across ranks                                          *)
(* ------------------------------------------------------------------ *)

let test_osend_orecv () =
  let w = World.create ~n:2 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      let mt = linked_array_class (World.registry ctx) in
      if World.rank ctx = 0 then begin
        let head = build_list gc mt ~elems:6 ~ints_per_node:4 in
        Smp.osend ctx ~comm ~dst:1 ~tag:0 head
      end
      else begin
        let obj, st = Smp.orecv ctx ~comm ~src:0 ~tag:0 in
        Alcotest.(check int) "from rank 0" 0 st.Mpi_core.Status.source;
        let contents = list_contents gc mt obj in
        Alcotest.(check int) "six nodes" 6 (List.length contents);
        Alcotest.(check (list int)) "first node payload"
          [ 0; 1; 2; 3 ] (List.hd contents)
      end)

let test_obcast () =
  let w = World.create ~n:4 () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      let mt = linked_array_class (World.registry ctx) in
      let input =
        if World.rank ctx = 2 then
          Some (build_list gc mt ~elems:3 ~ints_per_node:2)
        else None
      in
      let obj = Smp.obcast ctx ~comm ~root:2 input in
      let contents = list_contents gc mt obj in
      Alcotest.(check int)
        (Printf.sprintf "rank %d got 3 nodes" (World.rank ctx))
        3 (List.length contents))

let test_oscatter_ogather () =
  let n = 4 in
  let w = World.create ~n () in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let comm = Smp.comm_world ctx in
      let registry = World.registry ctx in
      let mt = linked_array_class registry in
      let fa = Classes.field mt "array" in
      let r = World.rank ctx in
      let input =
        if r = 0 then begin
          (* 10 work items; item i carries value i. *)
          let arr = Om.alloc_array gc (Types.Eref mt.Classes.c_id) 10 in
          for i = 0 to 9 do
            let node = Om.alloc_instance gc mt in
            let data = Om.alloc_array gc (Types.Eprim Types.I4) 1 in
            Om.set_elem_int gc data 0 i;
            Om.set_ref gc node fa (Some data);
            Om.set_elem_ref gc arr i (Some node);
            Om.free gc node;
            Om.free gc data
          done;
          Some arr
        end
        else None
      in
      (* Scatter: ranks get 3,3,2,2 items. *)
      let mine = Smp.oscatter ctx ~comm ~root:0 input in
      let expected_len = if r < 2 then 3 else 2 in
      Alcotest.(check int)
        (Printf.sprintf "rank %d share" r)
        expected_len
        (Om.array_length gc mine);
      (* Process: multiply every value by 10. *)
      for i = 0 to Om.array_length gc mine - 1 do
        let node = Option.get (Om.get_elem_ref gc mine i) in
        let data = Option.get (Om.get_ref gc node fa) in
        Om.set_elem_int gc data 0 (Om.get_elem_int gc data 0 * 10);
        Om.free gc node;
        Om.free gc data
      done;
      (* Gather the processed items back, in order. *)
      match Smp.ogather ctx ~comm ~root:0 mine with
      | Some combined ->
          Alcotest.(check int) "root is rank 0" 0 r;
          Alcotest.(check int) "all items back" 10
            (Om.array_length gc combined);
          for i = 0 to 9 do
            let node = Option.get (Om.get_elem_ref gc combined i) in
            let data = Option.get (Om.get_ref gc node fa) in
            Alcotest.(check int)
              (Printf.sprintf "item %d processed" i)
              (i * 10)
              (Om.get_elem_int gc data 0)
          done
      | None -> Alcotest.(check bool) "non-root" true (r <> 0))

(* ------------------------------------------------------------------ *)
(* Buffer pool                                                          *)
(* ------------------------------------------------------------------ *)

let test_buffer_pool_reuse () =
  let rt = Runtime.create () in
  let pool = Pool.create rt.Vm.Runtime.gc in
  let b1 = Pool.acquire pool 1000 in
  Pool.release pool b1;
  let b2 = Pool.acquire pool 500 in
  Alcotest.(check bool) "recycled the larger buffer" true (b1 == b2);
  Pool.release pool b2;
  let env = rt.Vm.Runtime.env in
  Alcotest.(check int) "one creation" 1
    (Simtime.Stats.get env.Simtime.Env.stats Key.buffers_created);
  Alcotest.(check int) "one reuse" 1
    (Simtime.Stats.get env.Simtime.Env.stats Key.buffers_reused)

let test_buffer_pool_reaped_at_gc () =
  let rt = Runtime.create () in
  let gc = rt.Vm.Runtime.gc in
  let pool = Pool.create gc in
  let b = Pool.acquire pool 256 in
  Pool.release pool b;
  Alcotest.(check int) "pooled" 1 (Pool.pooled pool);
  (* Used at epoch 0; still within one collection of its last use. *)
  Gc.collect gc ~full:false;
  Alcotest.(check int) "survives first gc" 1 (Pool.pooled pool);
  (* Unused since the previous collection: reaped now. *)
  Gc.collect gc ~full:false;
  Alcotest.(check int) "reaped at second gc" 0 (Pool.pooled pool);
  Alcotest.(check int) "reap counted" 1
    (Simtime.Stats.get rt.Vm.Runtime.env.Simtime.Env.stats Key.buffers_reaped)

(* ------------------------------------------------------------------ *)
(* Managed MIL programs doing MPI                                       *)
(* ------------------------------------------------------------------ *)

let mil_pingpong =
  {|
  .method void main() {
    .locals (int32[] buf, int64 me, int64 i)
    intcall mp.rank
    stloc me
    ldc.i8 8
    newarr int32
    stloc buf
    ldloc me
    ldc.i8 0
    ceq
    brfalse receiver

    // rank 0: fill the buffer and play 5 rounds of ping-pong
    ldloc buf
    ldc.i8 0
    ldc.i8 42
    stelem int32
    ldc.i8 0
    stloc i
  send_loop:
    ldloc i
    ldc.i8 5
    clt
    brfalse finish
    ldloc buf
    ldc.i8 1
    ldc.i8 0
    intcall mp.send
    ldloc buf
    ldc.i8 1
    ldc.i8 0
    intcall mp.recv
    ldloc i
    ldc.i8 1
    add
    stloc i
    br send_loop

  receiver:
    ldc.i8 0
    stloc i
  recv_loop:
    ldloc i
    ldc.i8 5
    clt
    brfalse finish
    ldloc buf
    ldc.i8 0
    ldc.i8 0
    intcall mp.recv
    // increment slot 0 before sending it back
    ldloc buf
    ldc.i8 0
    ldloc buf
    ldc.i8 0
    ldelem int32
    ldc.i8 1
    add
    stelem int32
    ldloc buf
    ldc.i8 0
    ldc.i8 0
    intcall mp.send
    ldloc i
    ldc.i8 1
    add
    stloc i
    br recv_loop

  finish:
    ldloc buf
    ldc.i8 0
    ldelem int32
    intcall sys.print_i
    intcall sys.print_nl
    ret
  }
|}

let test_mil_managed_pingpong () =
  let w = World.create ~n:2 () in
  let outputs = Array.make 2 "" in
  World.run w (fun ctx ->
      let interp = Motor.Mil_bindings.load ctx mil_pingpong in
      ignore (Vm.Interp.run_entry interp []);
      outputs.(World.rank ctx) <- Vm.Runtime.output ctx.World.rt);
  (* 42 incremented once per round on rank 1: both end at 47. *)
  Alcotest.(check string) "rank 0 final value" "47\n" outputs.(0);
  Alcotest.(check string) "rank 1 final value" "47\n" outputs.(1)

let test_mil_managed_object_transport () =
  let src =
    {|
  .class transportable Cell {
    .field transportable int32[] data
    .field transportable Cell next
  }

  .method void main() {
    .locals (Cell head, Cell second, object got, int64 me)
    intcall mp.rank
    stloc me
    ldloc me
    ldc.i8 0
    ceq
    brfalse receiver

    // build a 2-cell list and OSend it
    newobj Cell
    stloc head
    newobj Cell
    stloc second
    ldloc head
    ldloc second
    stfld Cell::next
    ldloc head
    ldc.i8 4
    newarr int32
    stfld Cell::data
    ldloc head
    ldc.i8 1
    ldc.i8 3
    intcall mp.osend
    ret

  receiver:
    ldc.i8 0
    ldc.i8 3
    intcall mp.orecv
    stloc got
    ldc.i8 1
    intcall sys.print_i
    intcall sys.print_nl
    ret
  }
|}
  in
  let w = World.create ~n:2 () in
  let ok = ref "" in
  World.run w (fun ctx ->
      let interp = Motor.Mil_bindings.load ctx src in
      ignore (Vm.Interp.run_entry interp []);
      if World.rank ctx = 1 then ok := Vm.Runtime.output ctx.World.rt);
  Alcotest.(check string) "managed orecv completed" "1\n" !ok

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_serializer_roundtrip_random_lists =
  QCheck.Test.make ~name:"serializer roundtrips random lists" ~count:40
    QCheck.(pair (int_range 0 30) (int_range 0 8))
    (fun (elems, ints) ->
      with_runtime (fun gc registry ->
          let mt = linked_array_class registry in
          if elems = 0 then true
          else begin
            let head = build_list gc mt ~elems ~ints_per_node:ints in
            let copy =
              Ser.deserialize gc (Ser.serialize gc ~visited:Ser.Hashed head)
            in
            list_contents gc mt head = list_contents gc mt copy
          end))

let prop_split_preserves_order_and_count =
  QCheck.Test.make ~name:"split covers all elements in order" ~count:40
    QCheck.(pair (int_range 1 40) (int_range 1 8))
    (fun (len, parts) ->
      let parts = min parts len in
      with_runtime (fun gc registry ->
          let mt = linked_array_class registry in
          let fa = Classes.field mt "array" in
          let arr = Om.alloc_array gc (Types.Eref mt.Classes.c_id) len in
          for i = 0 to len - 1 do
            let node = Om.alloc_instance gc mt in
            let data = Om.alloc_array gc (Types.Eprim Types.I4) 1 in
            Om.set_elem_int gc data 0 i;
            Om.set_ref gc node fa (Some data);
            Om.set_elem_ref gc arr i (Some node);
            Om.free gc node;
            Om.free gc data
          done;
          let segs = Ser.split gc ~visited:Ser.Hashed arr ~parts in
          let roots =
            Array.to_list (Array.map (fun s -> Ser.deserialize gc s) segs)
          in
          let combined = Ser.concat_arrays gc roots in
          Om.array_length gc combined = len
          && List.for_all
               (fun i ->
                 let node = Option.get (Om.get_elem_ref gc combined i) in
                 let data = Option.get (Om.get_ref gc node fa) in
                 Om.get_elem_int gc data 0 = i)
               (List.init len (fun i -> i))))


let prop_buffer_pool_always_adequate =
  QCheck.Test.make ~name:"pool buffers always satisfy the request" ~count:80
    QCheck.(list (int_range 1 4096))
    (fun sizes ->
      let rt = Runtime.create () in
      let pool = Pool.create rt.Vm.Runtime.gc in
      List.for_all
        (fun size ->
          let b = Pool.acquire pool size in
          let ok = Bytes.length b >= size in
          Pool.release pool b;
          ok)
        sizes)

let () =
  Alcotest.run "motor"
    [
      ( "regular transport",
        [
          Alcotest.test_case "array roundtrip" `Quick test_array_roundtrip;
          Alcotest.test_case "plain object roundtrip" `Quick
            test_plain_object_roundtrip;
          Alcotest.test_case "array range transfer" `Quick
            test_range_transfer;
          Alcotest.test_case "refful object rejected" `Quick
            test_refful_object_rejected;
          Alcotest.test_case "ref array rejected" `Quick
            test_ref_array_rejected;
          Alcotest.test_case "oversized message rejected" `Quick
            test_oversized_message_rejected;
        ] );
      ( "pinning",
        [
          Alcotest.test_case "always-pin pins every op" `Quick
            test_always_pin_pins_every_op;
          Alcotest.test_case "deferred policy avoids pins" `Quick
            test_deferred_policy_avoids_pins;
          Alcotest.test_case "elder objects never pin" `Quick
            test_elder_objects_never_pin;
          Alcotest.test_case "conditional pin protects irecv" `Quick
            test_conditional_pin_protects_irecv;
          Alcotest.test_case "conditional pin protects in-flight iallreduce"
            `Quick test_conditional_pin_protects_iallreduce;
          Alcotest.test_case "managed ibcast and ibarrier" `Quick
            test_managed_ibcast_ibarrier;
          Alcotest.test_case "no-pin policy corrupts (DMA model)" `Quick
            test_no_pin_policy_corrupts;
          Alcotest.test_case "rendezvous send pins once" `Quick
            test_rendezvous_send_pins_once;
          Alcotest.test_case "boundary-check unpins at completion" `Quick
            test_boundary_check_nonblocking_unpins_on_completion;
        ] );
      ( "serializer",
        [
          Alcotest.test_case "roundtrip linked list" `Quick
            test_serializer_roundtrip_list;
          Alcotest.test_case "non-transportable refs become null" `Quick
            test_serializer_nulls_non_transportable;
          Alcotest.test_case "cycles" `Quick test_serializer_cycle;
          Alcotest.test_case "shared identity preserved" `Quick
            test_serializer_shared_identity;
          Alcotest.test_case "multidimensional arrays" `Quick
            test_serializer_md_array;
          Alcotest.test_case "null root" `Quick test_serializer_null_root;
          Alcotest.test_case "linear and hashed agree" `Quick
            test_linear_and_hashed_agree;
          Alcotest.test_case "linear visited is quadratic" `Quick
            test_linear_visited_quadratic_probes;
          Alcotest.test_case "split sizes" `Quick test_split_sizes;
          Alcotest.test_case "split/concat roundtrip" `Quick
            test_split_concat_roundtrip;
        ] );
      ( "oo operations",
        [
          Alcotest.test_case "osend/orecv" `Quick test_osend_orecv;
          Alcotest.test_case "obcast" `Quick test_obcast;
          Alcotest.test_case "oscatter/ogather" `Quick
            test_oscatter_ogather;
        ] );
      ( "buffer pool",
        [
          Alcotest.test_case "reuse" `Quick test_buffer_pool_reuse;
          Alcotest.test_case "reaped at gc" `Quick
            test_buffer_pool_reaped_at_gc;
        ] );
      ( "managed programs",
        [
          Alcotest.test_case "MIL ping-pong over mp.send/recv" `Quick
            test_mil_managed_pingpong;
          Alcotest.test_case "MIL object transport over mp.osend" `Quick
            test_mil_managed_object_transport;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_serializer_roundtrip_random_lists;
          QCheck_alcotest.to_alcotest prop_split_preserves_order_and_count;
          QCheck_alcotest.to_alcotest prop_buffer_pool_always_adequate;
        ] );
    ]
