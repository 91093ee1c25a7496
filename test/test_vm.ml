(* Unit and integration tests for the managed runtime: heap layout, the
   two-generational collector with pinning, the object model's integrity
   checks, and the MIL toolchain (assembler / verifier / interpreter). *)

(* Tiny substring helper to avoid a dependency. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

module Om = Vm.Object_model
module Gc = Vm.Gc
module Heap = Vm.Heap
module Classes = Vm.Classes
module Types = Vm.Types
module Runtime = Poison.Runtime

let make_runtime () = Runtime.create ()

let point_class rt =
  Classes.complete rt.Runtime.registry
    (Classes.declare rt.Runtime.registry ~name:"Point")
    ~fields:
      [
        ("x", Types.Prim Types.I4, false);
        ("y", Types.Prim Types.I4, false);
        ("w", Types.Prim Types.R8, false);
      ]
    ()

let node_class rt =
  (* A linked-list node like the paper's LinkedArray (Figure 5). *)
  let id = Classes.declare rt.Runtime.registry ~name:"Node" in
  let arr = Classes.array_class rt.Runtime.registry (Types.Eprim Types.I4) in
  Classes.complete rt.Runtime.registry id ~transportable:true
    ~fields:
      [
        ("data", Types.Ref arr.Classes.c_id, true);
        ("next", Types.Ref id, true);
        ("next2", Types.Ref id, false);
      ]
    ()

(* ------------------------------------------------------------------ *)
(* Heap and object model                                               *)
(* ------------------------------------------------------------------ *)

let test_field_roundtrip () =
  let rt = make_runtime () in
  let mt = point_class rt in
  let o = Om.alloc_instance rt.Runtime.gc mt in
  let fx = Classes.field mt "x" in
  let fw = Classes.field mt "w" in
  Alcotest.(check int) "zero initialised" 0 (Om.get_int rt.Runtime.gc o fx);
  Om.set_int rt.Runtime.gc o fx (-123);
  Om.set_float rt.Runtime.gc o fw 2.5;
  Alcotest.(check int) "int roundtrip" (-123) (Om.get_int rt.Runtime.gc o fx);
  Alcotest.(check (float 0.0)) "float roundtrip" 2.5
    (Om.get_float rt.Runtime.gc o fw)

let test_field_type_confusion_rejected () =
  let rt = make_runtime () in
  let mt = point_class rt in
  let o = Om.alloc_instance rt.Runtime.gc mt in
  let fw = Classes.field mt "w" in
  (try
     ignore (Om.get_int rt.Runtime.gc o fw);
     Alcotest.fail "expected Managed_error"
   with Om.Managed_error _ -> ())

let test_foreign_field_rejected () =
  let rt = make_runtime () in
  let mt = point_class rt in
  let other =
    Classes.complete rt.Runtime.registry
      (Classes.declare rt.Runtime.registry ~name:"Other")
      ~fields:[ ("z", Types.Prim Types.I4, false) ]
      ()
  in
  let o = Om.alloc_instance rt.Runtime.gc mt in
  let fz = Classes.field other "z" in
  (try
     ignore (Om.get_int rt.Runtime.gc o fz);
     Alcotest.fail "expected Managed_error"
   with Om.Managed_error _ -> ())

let test_array_roundtrip_and_bounds () =
  let rt = make_runtime () in
  let a = Om.alloc_array rt.Runtime.gc (Types.Eprim Types.I4) 10 in
  Alcotest.(check int) "length" 10 (Om.array_length rt.Runtime.gc a);
  for i = 0 to 9 do
    Om.set_elem_int rt.Runtime.gc a i (i * i)
  done;
  Alcotest.(check int) "elem" 49 (Om.get_elem_int rt.Runtime.gc a 7);
  (try
     ignore (Om.get_elem_int rt.Runtime.gc a 10);
     Alcotest.fail "expected bounds error"
   with Om.Managed_error _ -> ());
  (try
     Om.set_elem_int rt.Runtime.gc a (-1) 0;
     Alcotest.fail "expected bounds error"
   with Om.Managed_error _ -> ())

let test_md_array () =
  let rt = make_runtime () in
  let a = Om.alloc_md_array rt.Runtime.gc (Types.Eprim Types.R8) [| 3; 4 |] in
  Alcotest.(check int) "total elems" 12 (Om.array_length rt.Runtime.gc a);
  Alcotest.(check (array int)) "dims" [| 3; 4 |] (Om.md_dims rt.Runtime.gc a);
  let idx = Om.md_flat_index rt.Runtime.gc a [| 2; 3 |] in
  Alcotest.(check int) "row-major flat index" 11 idx;
  Om.set_elem_float rt.Runtime.gc a idx 6.25;
  Alcotest.(check (float 0.0)) "md roundtrip" 6.25
    (Om.get_elem_float rt.Runtime.gc a idx);
  (try
     ignore (Om.md_flat_index rt.Runtime.gc a [| 3; 0 |]);
     Alcotest.fail "expected bounds error"
   with Om.Managed_error _ -> ())

let test_ref_field_type_check () =
  let rt = make_runtime () in
  let node = node_class rt in
  let point = point_class rt in
  let n = Om.alloc_instance rt.Runtime.gc node in
  let p = Om.alloc_instance rt.Runtime.gc point in
  let fnext = Classes.field node "next" in
  (* Storing a Point into a Node-typed slot must be rejected: this is the
     object-model integrity property of Section 2.4. *)
  (try
     Om.set_ref rt.Runtime.gc n fnext (Some p);
     Alcotest.fail "expected type mismatch"
   with Om.Managed_error _ -> ());
  let n2 = Om.alloc_instance rt.Runtime.gc node in
  Om.set_ref rt.Runtime.gc n fnext (Some n2);
  match Om.get_ref rt.Runtime.gc n fnext with
  | Some got ->
      Alcotest.(check bool) "same object" true
        (Om.same_object rt.Runtime.gc got n2)
  | None -> Alcotest.fail "next is null"

let test_payload_region_sizes () =
  let rt = make_runtime () in
  let a = Om.alloc_array rt.Runtime.gc (Types.Eprim Types.I8) 5 in
  let _, bytes = Om.payload_region rt.Runtime.gc a in
  Alcotest.(check int) "payload excludes length word" 40 bytes

let test_elem_region_bounds () =
  let rt = make_runtime () in
  let a = Om.alloc_array rt.Runtime.gc (Types.Eprim Types.I4) 8 in
  let _, bytes = Om.elem_region rt.Runtime.gc a ~offset:2 ~count:3 in
  Alcotest.(check int) "subrange bytes" 12 bytes;
  (try
     ignore (Om.elem_region rt.Runtime.gc a ~offset:6 ~count:3);
     Alcotest.fail "expected bounds error"
   with Om.Managed_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Garbage collection                                                  *)
(* ------------------------------------------------------------------ *)

let test_minor_gc_promotes_live () =
  let rt = make_runtime () in
  let gc = rt.Runtime.gc in
  let mt = point_class rt in
  let o = Om.alloc_instance gc mt in
  let fx = Classes.field mt "x" in
  Om.set_int gc o fx 42;
  let addr_before = Om.addr_of gc o in
  Alcotest.(check bool) "starts young" true
    (Heap.in_young rt.Runtime.heap addr_before);
  Gc.collect gc ~full:false;
  let addr_after = Om.addr_of gc o in
  Alcotest.(check bool) "moved out of young" false
    (Heap.in_young rt.Runtime.heap addr_after);
  Alcotest.(check bool) "handle updated" true (addr_before <> addr_after);
  Alcotest.(check int) "contents survive" 42 (Om.get_int gc o fx)

let test_minor_gc_discards_garbage () =
  let rt = make_runtime () in
  let gc = rt.Runtime.gc in
  let mt = point_class rt in
  for _ = 1 to 100 do
    let o = Om.alloc_instance gc mt in
    Om.free gc o
  done;
  let live = Om.alloc_instance gc mt in
  Gc.collect gc ~full:false;
  Alcotest.(check int) "only survivor promoted" 1 (Gc.live_objects gc);
  ignore live

let test_gc_traces_object_graph () =
  let rt = make_runtime () in
  let gc = rt.Runtime.gc in
  let node = node_class rt in
  let fdata = Classes.field node "data" in
  let fnext = Classes.field node "next" in
  (* Build a 5-node list rooted in a single handle. *)
  let head = Om.alloc_instance gc node in
  let cur = ref head in
  for i = 1 to 4 do
    let n = Om.alloc_instance gc node in
    let arr = Om.alloc_array gc (Types.Eprim Types.I4) 4 in
    Om.set_elem_int gc arr 0 i;
    Om.set_ref gc n fdata (Some arr);
    Om.set_ref gc !cur fnext (Some n);
    if !cur != head then Om.free gc !cur;
    Om.free gc arr;
    cur := n
  done;
  if !cur != head then Om.free gc !cur;
  Gc.collect gc ~full:false;
  Gc.collect gc ~full:true;
  (* Walk the list again: 5 nodes, 4 arrays. *)
  let count = ref 1 in
  let p = ref head in
  let continue_ = ref true in
  while !continue_ do
    match Om.get_ref gc !p fnext with
    | Some n ->
        incr count;
        (match Om.get_ref gc n fdata with
        | Some arr ->
            Alcotest.(check bool) "array payload intact" true
              (Om.get_elem_int gc arr 0 >= 1);
            Om.free gc arr
        | None -> if !count > 1 then Alcotest.fail "lost data array");
        if !p != head then Om.free gc !p;
        p := n
    | None -> continue_ := false
  done;
  Alcotest.(check int) "list length preserved" 5 !count

let test_full_gc_sweeps_elder_garbage () =
  let rt = make_runtime () in
  let gc = rt.Runtime.gc in
  let mt = point_class rt in
  (* Promote 50 objects to elder, then drop half. *)
  let objs = Array.init 50 (fun _ -> Om.alloc_instance gc mt) in
  Gc.collect gc ~full:false;
  Array.iteri (fun i o -> if i mod 2 = 0 then Om.free gc o) objs;
  Gc.collect gc ~full:true;
  Alcotest.(check int) "half swept" 25 (Gc.live_objects gc);
  Heap.check_consistency rt.Runtime.heap

let test_pinned_object_does_not_move () =
  let rt = make_runtime () in
  let gc = rt.Runtime.gc in
  let mt = point_class rt in
  let o = Om.alloc_instance gc mt in
  let addr_before = Om.addr_of gc o in
  Gc.pin gc o;
  Gc.collect gc ~full:false;
  Alcotest.(check int) "pinned object stayed put" addr_before
    (Om.addr_of gc o);
  (* The whole young block must have been promoted (paper Section 5.2). *)
  Alcotest.(check bool) "block reassigned to elder" false
    (Heap.in_young rt.Runtime.heap addr_before);
  Alcotest.(check int) "promotion counted" 1
    (Simtime.Stats.get rt.Runtime.env.Simtime.Env.stats
       Simtime.Stats.Key.young_blocks_promoted);
  Gc.unpin gc o;
  Gc.collect gc ~full:true;
  Alcotest.(check int) "survives full gc too" addr_before (Om.addr_of gc o);
  Heap.check_consistency rt.Runtime.heap

let test_unpin_without_pin_rejected () =
  let rt = make_runtime () in
  let gc = rt.Runtime.gc in
  let o = Om.alloc_instance gc (point_class rt) in
  (try
     Gc.unpin gc o;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_conditional_pin_lifecycle () =
  let rt = make_runtime () in
  let gc = rt.Runtime.gc in
  let mt = point_class rt in
  let o = Om.alloc_instance gc mt in
  let addr0 = Om.addr_of gc o in
  let active = ref true in
  Gc.add_conditional_pin gc o ~still_active:(fun () -> !active);
  Alcotest.(check int) "request registered" 1 (Gc.conditional_pin_count gc);
  (* While the operation is in flight, the object must not move. *)
  Gc.collect gc ~full:false;
  Alcotest.(check int) "held in place while active" addr0 (Om.addr_of gc o);
  Alcotest.(check int) "request kept" 1 (Gc.conditional_pin_count gc);
  (* Once the transport completes, the next mark phase drops the request
     and the object is free to move again. *)
  active := false;
  Gc.collect gc ~full:true;
  Alcotest.(check int) "request dropped" 0 (Gc.conditional_pin_count gc);
  Alcotest.(check int) "drop counted" 1
    (Simtime.Stats.get rt.Runtime.env.Simtime.Env.stats
       Simtime.Stats.Key.conditional_pins_dropped);
  Alcotest.(check int) "object survived" 1 (Gc.live_objects gc)

let test_remembered_set () =
  let rt = make_runtime () in
  let gc = rt.Runtime.gc in
  let node = node_class rt in
  let fnext = Classes.field node "next" in
  (* Promote a node to elder, then point it at a young node: only the
     write barrier can keep the young node alive across a minor GC. *)
  let old_node = Om.alloc_instance gc node in
  Gc.collect gc ~full:false;
  Alcotest.(check bool) "promoted" false
    (Heap.in_young rt.Runtime.heap (Om.addr_of gc old_node));
  let young_node = Om.alloc_instance gc node in
  Om.set_ref gc old_node fnext (Some young_node);
  Om.free gc young_node;
  (* drop the handle: the elder slot is now the only root path *)
  Gc.collect gc ~full:false;
  match Om.get_ref gc old_node fnext with
  | Some survivor ->
      Alcotest.(check bool) "survivor now elder" false
        (Heap.in_young rt.Runtime.heap (Om.addr_of gc survivor))
  | None -> Alcotest.fail "young node lost: write barrier broken"

let test_gc_pressure_many_allocations () =
  let rt = make_runtime () in
  let gc = rt.Runtime.gc in
  let node = node_class rt in
  let fnext = Classes.field node "next" in
  (* Allocate a long-lived list while churning garbage; forces many minor
     collections and some promotions. *)
  let head = Om.alloc_instance gc node in
  let cur = ref head in
  for _ = 1 to 2000 do
    let garbage = Om.alloc_array gc (Types.Eprim Types.I8) 64 in
    Om.free gc garbage;
    let n = Om.alloc_instance gc node in
    Om.set_ref gc !cur fnext (Some n);
    if !cur != head then Om.free gc !cur;
    cur := n
  done;
  if !cur != head then Om.free gc !cur;
  Alcotest.(check bool) "minor collections happened" true
    (Gc.minor_count gc > 0);
  (* Count the list length. *)
  let count = ref 1 in
  let p = ref (Gc.Handle.alloc gc (Om.addr_of gc head)) in
  let continue_ = ref true in
  while !continue_ do
    match Om.get_ref gc !p fnext with
    | Some n ->
        incr count;
        Om.free gc !p;
        p := n
    | None -> continue_ := false
  done;
  Alcotest.(check int) "no node lost under pressure" 2001 !count;
  Heap.check_consistency rt.Runtime.heap

let test_safepoint_polling () =
  let rt = make_runtime () in
  let gc = rt.Runtime.gc in
  let o = Om.alloc_instance gc (point_class rt) in
  let before = Om.addr_of gc o in
  Gc.request_gc gc;
  Alcotest.(check bool) "pending" true (Gc.gc_pending gc);
  Alcotest.(check int) "not yet run" before (Om.addr_of gc o);
  Gc.poll gc;
  Alcotest.(check bool) "ran at safepoint" false (Gc.gc_pending gc);
  Alcotest.(check bool) "object moved by the collection" true
    (before <> Om.addr_of gc o)

let test_large_object_goes_to_elder () =
  let rt = make_runtime () in
  let gc = rt.Runtime.gc in
  (* 512 KiB array: bigger than the 256 KiB young block. *)
  let a = Om.alloc_array gc (Types.Eprim Types.I8) 65536 in
  Alcotest.(check bool) "allocated outside young" false
    (Heap.in_young rt.Runtime.heap (Om.addr_of gc a));
  Om.set_elem_int gc a 65535 7;
  Alcotest.(check int) "tail element" 7 (Om.get_elem_int gc a 65535)

let test_out_of_memory () =
  let rt =
    Runtime.create ~arena_bytes:(1024 * 1024) ~block_bytes:(128 * 1024) ()
  in
  let gc = rt.Runtime.gc in
  Alcotest.check_raises "arena exhausts" Heap.Out_of_memory (fun () ->
      let keep = ref [] in
      for _ = 1 to 10_000 do
        keep := Om.alloc_array gc (Types.Eprim Types.I8) 1024 :: !keep
      done)

(* Every argument check of Heap.create, including the int32 address
   limit: addresses, sizes and forwarding addresses are stored as int32,
   so an arena past 2^31 bytes would wrap them negative. The checks run
   before the arena is allocated. *)
let test_create_rejects_bad_geometry () =
  let env = Simtime.Env.create () in
  let rejects label ~arena_bytes ~block_bytes =
    match Heap.create ~arena_bytes ~block_bytes env with
    | _ -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument _ -> ()
  in
  let mib = 1024 * 1024 in
  rejects "block not a power of two" ~arena_bytes:mib ~block_bytes:12288;
  rejects "block below 4 KiB" ~arena_bytes:mib ~block_bytes:2048;
  rejects "arena not a multiple of the block" ~arena_bytes:(mib + 4096)
    ~block_bytes:8192;
  rejects "arena below two blocks" ~arena_bytes:4096 ~block_bytes:4096;
  rejects "arena one block past 2^31" ~arena_bytes:((1 lsl 31) + (256 * 1024))
    ~block_bytes:(256 * 1024);
  rejects "arena of 2^32" ~arena_bytes:(1 lsl 32) ~block_bytes:(256 * 1024);
  (* Two blocks is the smallest arena accepted. *)
  ignore (Heap.create ~arena_bytes:8192 ~block_bytes:4096 env)

(* A header that does not parse to its region's boundary raises the
   typed Heap.Corrupt, both for a malformed size and for an overrun. *)
let test_corrupt_header_detected () =
  let rt = make_runtime () in
  let heap = rt.Runtime.heap in
  let o = Om.alloc_instance rt.Runtime.gc (point_class rt) in
  let a = Om.addr_of rt.Runtime.gc o in
  let size = Heap.size_of heap a in
  Heap.check_consistency heap;
  let corrupt label bad =
    Heap.set_i32 heap (a + 8) bad;
    (match Heap.check_consistency heap with
    | () -> Alcotest.failf "%s: accepted" label
    | exception Heap.Corrupt _ -> ());
    Heap.set_i32 heap (a + 8) size
  in
  corrupt "unaligned size" (size + 8);
  corrupt "size below a header" 0;
  corrupt "overrun past the bump pointer" (size + 16);
  Heap.check_consistency heap

(* ------------------------------------------------------------------ *)
(* MIL toolchain                                                       *)
(* ------------------------------------------------------------------ *)

let fib_src =
  {|
  .method int64 fib(int64 n) {
    ldarg n
    ldc.i8 2
    clt
    brfalse recurse
    ldarg n
    ret
  recurse:
    ldarg n
    ldc.i8 1
    sub
    call fib
    ldarg n
    ldc.i8 2
    sub
    call fib
    add
    ret
  }

  .method void main() {
    ldc.i8 10
    call fib
    intcall sys.print_i
    intcall sys.print_nl
    ret
  }
|}

let test_interp_fib () =
  let rt = make_runtime () in
  let interp = Runtime.load rt fib_src in
  ignore (Vm.Interp.run_entry interp []);
  Alcotest.(check string) "fib(10) printed" "55\n" (Runtime.output rt)

let list_sum_src =
  {|
  .class transportable Node {
    .field transportable int32[] data
    .field transportable Node next
    .field int32 tag
  }

  .method Node build(int64 n) {
    .locals (Node head, Node cur, int64 i)
    ldnull
    stloc head
    ldc.i8 0
    stloc i
  loop:
    ldloc i
    ldarg n
    clt
    brfalse done
    newobj Node
    stloc cur
    ldloc cur
    ldloc head
    stfld Node::next
    ldloc cur
    ldc.i8 16
    newarr int32
    stfld Node::data
    ldloc cur
    stloc head
    ldloc i
    ldc.i8 1
    add
    stloc i
    br loop
  done:
    ldloc head
    ret
  }

  .method void main() {
    ldc.i8 5
    call build
    pop
    ret
  }
|}

let test_interp_builds_objects () =
  let rt = make_runtime () in
  let interp = Runtime.load rt list_sum_src in
  ignore (Vm.Interp.run_entry interp []);
  Alcotest.(check pass) "ran" () ()

let test_verifier_rejects_underflow () =
  let rt = make_runtime () in
  let bad = {|
  .method void main() {
    add
    ret
  }
|} in
  (try
     ignore (Runtime.load rt bad);
     Alcotest.fail "expected Verify_error"
   with Vm.Verifier.Verify_error _ -> ())

let test_verifier_rejects_type_confusion () =
  let rt = make_runtime () in
  let bad = {|
  .method void main() {
    ldc.i8 1
    ldnull
    add
    pop
    ret
  }
|} in
  (try
     ignore (Runtime.load rt bad);
     Alcotest.fail "expected Verify_error"
   with Vm.Verifier.Verify_error _ -> ())

let test_verifier_rejects_bad_merge () =
  let rt = make_runtime () in
  let bad = {|
  .method void main() {
    ldc.i8 1
    brtrue other
    ldc.i8 5
    br join
  other:
    ldnull
    br join
  join:
    pop
    ret
  }
|} in
  (try
     ignore (Runtime.load rt bad);
     Alcotest.fail "expected Verify_error"
   with Vm.Verifier.Verify_error _ -> ())

let test_interp_null_deref_faults () =
  let rt = make_runtime () in
  let src = {|
  .class Box { .field int32 v }
  .method void main() {
    ldnull
    ldfld Box::v
    pop
    ret
  }
|} in
  let interp = Runtime.load rt src in
  (try
     ignore (Vm.Interp.run_entry interp []);
     Alcotest.fail "expected Runtime_error"
   with Vm.Interp.Runtime_error _ -> ())

let test_interp_managed_stack_overflow () =
  let rt = make_runtime () in
  let src = {|
  .method void loop() {
    call loop
    ret
  }
  .method void main() {
    call loop
    ret
  }
|} in
  let interp = Runtime.load rt src in
  Alcotest.check_raises "stack overflow" Vm.Interp.Managed_stack_overflow
    (fun () -> ignore (Vm.Interp.run_entry interp []))

let test_interp_gc_during_execution () =
  let rt = make_runtime () in
  (* Allocate in a loop; GC must run and the program must still see a
     consistent list of live objects via its locals. *)
  let src = {|
  .class Cell { .field int64 v .field Cell prev }
  .method int64 main() {
    .locals (Cell cur, Cell n, int64 i, int64 sum)
    ldnull
    stloc cur
    ldc.i8 0
    stloc i
  build:
    ldloc i
    ldc.i8 30000
    clt
    brfalse sumup
    newobj Cell
    stloc n
    ldloc n
    ldloc i
    stfld Cell::v
    ldloc n
    ldloc cur
    stfld Cell::prev
    ldloc n
    stloc cur
    ldloc i
    ldc.i8 1
    add
    stloc i
    br build
  sumup:
    ldc.i8 0
    stloc sum
  walk:
    ldloc cur
    ldnull
    ceq
    brtrue done
    ldloc sum
    ldloc cur
    ldfld Cell::v
    add
    stloc sum
    ldloc cur
    ldfld Cell::prev
    stloc cur
    br walk
  done:
    ldloc sum
    ret
  }
|} in
  let interp = Runtime.load rt src in
  (match Vm.Interp.run_entry interp [] with
  | Some (Vm.Il.V_int v) ->
      (* sum 0..29999 = 449985000 *)
      Alcotest.(check int64) "sum survives GC churn" 449985000L v
  | Some _ | None -> Alcotest.fail "no result");
  Alcotest.(check bool) "collections actually happened" true
    (Gc.minor_count rt.Runtime.gc > 0)

let test_assembler_parse_error_has_line () =
  let rt = make_runtime () in
  (try
     ignore (Runtime.load rt ".method void main() {\n  bogus\n  ret\n}");
     Alcotest.fail "expected Parse_error"
   with Vm.Assembler.Parse_error msg ->
     Alcotest.(check bool) "mentions line 2" true (contains msg "line 2"))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_array_roundtrip =
  QCheck.Test.make ~name:"array contents survive arbitrary GC schedules"
    ~count:60
    QCheck.(pair (list small_int) (int_range 0 3))
    (fun (xs, gcs) ->
      let rt = make_runtime () in
      let gc = rt.Runtime.gc in
      let a =
        Om.alloc_array gc (Types.Eprim Types.I4) (List.length xs)
      in
      List.iteri (fun i x -> Om.set_elem_int gc a i x) xs;
      for i = 1 to gcs do
        Gc.collect gc ~full:(i mod 2 = 0)
      done;
      List.for_all
        (fun (i, x) -> Om.get_elem_int gc a i = x)
        (List.mapi (fun i x -> (i, x)) xs))

let prop_heap_consistent_after_random_churn =
  QCheck.Test.make ~name:"heap parses after random alloc/free/gc churn"
    ~count:40
    QCheck.(list (int_range 0 5))
    (fun ops ->
      let rt = make_runtime () in
      let gc = rt.Runtime.gc in
      let mt = point_class rt in
      let kept = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 | 1 -> kept := Om.alloc_instance gc mt :: !kept
          | 2 ->
              kept :=
                Om.alloc_array gc (Types.Eprim Types.I8) 32 :: !kept
          | 3 -> (
              match !kept with
              | o :: rest ->
                  Om.free gc o;
                  kept := rest
              | [] -> ())
          | 4 -> Gc.collect gc ~full:false
          | _ -> Gc.collect gc ~full:true)
        ops;
      Heap.check_consistency rt.Runtime.heap;
      true)

let prop_field_layout_no_overlap =
  QCheck.Test.make ~name:"field layout never overlaps" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 12) (int_range 0 6))
    (fun kinds ->
      let registry = Classes.create () in
      let ty = function
        | 0 -> Types.Prim Types.I1
        | 1 -> Types.Prim Types.I2
        | 2 -> Types.Prim Types.I4
        | 3 -> Types.Prim Types.I8
        | 4 -> Types.Prim Types.R4
        | 5 -> Types.Prim Types.R8
        | _ -> Types.Ref 1
      in
      let fields =
        List.mapi (fun i k -> (Printf.sprintf "f%d" i, ty k, false)) kinds
      in
      let mt = Classes.complete registry
                 (Classes.declare registry ~name:"T") ~fields () in
      let ranges =
        Array.to_list mt.Classes.c_fields
        |> List.map (fun fd ->
               ( fd.Classes.f_offset,
                 fd.Classes.f_offset + Types.field_size fd.Classes.f_type ))
      in
      let rec no_overlap = function
        | [] -> true
        | (lo, hi) :: rest ->
            List.for_all (fun (lo', hi') -> hi <= lo' || hi' <= lo) rest
            && no_overlap rest
      in
      no_overlap ranges
      && List.for_all (fun (_, hi) -> hi <= mt.Classes.c_instance_size) ranges)

let () =
  Alcotest.run "vm"
    [
      ( "object model",
        [
          Alcotest.test_case "field roundtrip" `Quick test_field_roundtrip;
          Alcotest.test_case "field type confusion rejected" `Quick
            test_field_type_confusion_rejected;
          Alcotest.test_case "foreign field rejected" `Quick
            test_foreign_field_rejected;
          Alcotest.test_case "array roundtrip and bounds" `Quick
            test_array_roundtrip_and_bounds;
          Alcotest.test_case "multidimensional arrays" `Quick test_md_array;
          Alcotest.test_case "ref field type check" `Quick
            test_ref_field_type_check;
          Alcotest.test_case "payload region sizes" `Quick
            test_payload_region_sizes;
          Alcotest.test_case "elem region bounds" `Quick
            test_elem_region_bounds;
        ] );
      ( "gc",
        [
          Alcotest.test_case "minor gc promotes live objects" `Quick
            test_minor_gc_promotes_live;
          Alcotest.test_case "minor gc discards garbage" `Quick
            test_minor_gc_discards_garbage;
          Alcotest.test_case "traces object graphs" `Quick
            test_gc_traces_object_graph;
          Alcotest.test_case "full gc sweeps elder garbage" `Quick
            test_full_gc_sweeps_elder_garbage;
          Alcotest.test_case "pinned object does not move" `Quick
            test_pinned_object_does_not_move;
          Alcotest.test_case "unpin without pin rejected" `Quick
            test_unpin_without_pin_rejected;
          Alcotest.test_case "conditional pin lifecycle" `Quick
            test_conditional_pin_lifecycle;
          Alcotest.test_case "remembered set keeps young alive" `Quick
            test_remembered_set;
          Alcotest.test_case "survives allocation pressure" `Quick
            test_gc_pressure_many_allocations;
          Alcotest.test_case "safepoint polling" `Quick
            test_safepoint_polling;
          Alcotest.test_case "large objects go to elder" `Quick
            test_large_object_goes_to_elder;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "create rejects bad geometry" `Quick
            test_create_rejects_bad_geometry;
          Alcotest.test_case "corrupt headers raise Corrupt" `Quick
            test_corrupt_header_detected;
        ] );
      ( "mil",
        [
          Alcotest.test_case "interp fib" `Quick test_interp_fib;
          Alcotest.test_case "interp builds objects" `Quick
            test_interp_builds_objects;
          Alcotest.test_case "verifier rejects underflow" `Quick
            test_verifier_rejects_underflow;
          Alcotest.test_case "verifier rejects type confusion" `Quick
            test_verifier_rejects_type_confusion;
          Alcotest.test_case "verifier rejects bad merge" `Quick
            test_verifier_rejects_bad_merge;
          Alcotest.test_case "null deref faults" `Quick
            test_interp_null_deref_faults;
          Alcotest.test_case "managed stack overflow" `Quick
            test_interp_managed_stack_overflow;
          Alcotest.test_case "gc during managed execution" `Quick
            test_interp_gc_during_execution;
          Alcotest.test_case "parse error carries line" `Quick
            test_assembler_parse_error_has_line;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_array_roundtrip;
          QCheck_alcotest.to_alcotest prop_heap_consistent_after_random_churn;
          QCheck_alcotest.to_alcotest prop_field_layout_no_overlap;
        ] );
    ]
