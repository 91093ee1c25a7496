(* Edge-case and feature tests for the VM beyond test_vm.ml: assembler
   corner cases, verifier rejections, interpreter faults, multidimensional
   MIL instructions, heap free-list behaviour, and GC pin bookkeeping. *)

module Om = Vm.Object_model
module Gc = Vm.Gc
module Heap = Vm.Heap
module Classes = Vm.Classes
module Types = Vm.Types
module Runtime = Poison.Runtime

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_parse_error src fragment =
  let rt = Runtime.create () in
  try
    ignore (Runtime.load rt src);
    Alcotest.fail "expected Parse_error"
  with Vm.Assembler.Parse_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S mentions %S" msg fragment)
      true (contains msg fragment)

let expect_verify_error src fragment =
  let rt = Runtime.create () in
  try
    ignore (Runtime.load rt src);
    Alcotest.fail "expected Verify_error"
  with Vm.Verifier.Verify_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S mentions %S" msg fragment)
      true (contains msg fragment)

let run_main rt src =
  let interp = Runtime.load rt src in
  Vm.Interp.run_entry interp []

(* ------------------------------------------------------------------ *)
(* Assembler                                                           *)
(* ------------------------------------------------------------------ *)

let test_asm_named_args_and_locals () =
  let rt = Runtime.create () in
  let src =
    {|
  .method int64 weigh(int64 kilos, int64 grams) {
    .locals (int64 total)
    ldarg kilos
    ldc.i8 1000
    mul
    ldarg grams
    add
    stloc total
    ldloc total
    ret
  }
  .method void main() { ret }
|}
  in
  let interp = Runtime.load rt ~entry:"weigh" src in
  match Vm.Interp.run_entry interp [ Vm.Il.V_int 2L; Vm.Il.V_int 250L ] with
  | Some (Vm.Il.V_int v) -> Alcotest.(check int64) "2kg250g" 2250L v
  | _ -> Alcotest.fail "no result"

let test_asm_array_of_arrays_type () =
  let rt = Runtime.create () in
  let src =
    {|
  .method int64 main() {
    .locals (int32[][] rows, int32[] row)
    ldc.i8 3
    newarr int32[]
    stloc rows
    ldc.i8 4
    newarr int32
    stloc row
    ldloc rows
    ldc.i8 1
    ldloc row
    stelem int32[]
    ldloc rows
    ldc.i8 1
    ldelem int32[]
    ldlen
    ret
  }
|}
  in
  match run_main rt src with
  | Some (Vm.Il.V_int v) -> Alcotest.(check int64) "inner length" 4L v
  | _ -> Alcotest.fail "no result"

let test_asm_unknown_label () =
  expect_parse_error
    ".method void main() {\n  br nowhere\n  ret\n}" "unknown label"

let test_asm_duplicate_method () =
  expect_parse_error
    ".method void main() { ret }\n.method void main() { ret }"
    "duplicate method"

let test_asm_missing_operand () =
  expect_parse_error ".method void main() {\n  ldc.i8\n}" "operand"

let test_asm_unknown_field () =
  expect_parse_error
    ".class Box { .field int32 v }\n\
     .method void main() {\n\
    \  newobj Box\n\
    \  ldfld Box::w\n\
    \  pop\n\
    \  ret\n\
     }"
    "no field"

let test_asm_comments_and_blank_lines () =
  let rt = Runtime.create () in
  let src =
    "// leading comment\n\n.method int64 main() { // inline\n  ldc.i8 7 // \
     seven\n  ret\n}\n// trailing"
  in
  match run_main rt src with
  | Some (Vm.Il.V_int 7L) -> ()
  | _ -> Alcotest.fail "comment handling broke the program"

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)
(* ------------------------------------------------------------------ *)

let test_verify_ret_wrong_type () =
  expect_verify_error ".method int64 main() {\n  ldnull\n  ret\n}"
    "wrong stack shape"

let test_verify_ret_nonempty_stack () =
  expect_verify_error
    ".method void main() {\n  ldc.i8 1\n  ret\n}" "non-empty"

let test_verify_newobj_array_class () =
  (* The int32[] class is interned by the local declaration; newobj on it
     must still be rejected. *)
  expect_verify_error
    ".method void main() {\n\
    \  .locals (int32[] scratch)\n\
    \  newobj int32[]\n\
    \  pop\n\
    \  ret\n\
     }"
    "newobj on array class"

let test_verify_md_rank_checked () =
  (* newmd needs `rank` ints on the stack. *)
  expect_verify_error
    ".method void main() {\n  ldc.i8 4\n  newmd float64[,]\n  pop\n  ret\n}"
    "underflow"

let test_verify_fallthrough () =
  expect_verify_error ".method void main() {\n  ldc.i8 1\n  pop\n}"
    "fallthrough"

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let expect_runtime_error src fragment =
  let rt = Runtime.create () in
  try
    ignore (run_main rt src);
    Alcotest.fail "expected Runtime_error"
  with Vm.Interp.Runtime_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S mentions %S" msg fragment)
      true (contains msg fragment)

let test_interp_division_by_zero () =
  expect_runtime_error
    ".method void main() {\n  ldc.i8 1\n  ldc.i8 0\n  div\n  pop\n  ret\n}"
    "division by zero"

let test_interp_negative_array_length () =
  expect_runtime_error
    ".method void main() {\n  ldc.i8 0\n  ldc.i8 1\n  sub\n  newarr int32\n  pop\n  ret\n}"
    "negative array length"

let test_interp_md_roundtrip () =
  let rt = Runtime.create () in
  let src =
    {|
  .method float64 main() {
    .locals (float64[,] m)
    ldc.i8 2
    ldc.i8 3
    newmd float64[,]
    stloc m
    ldloc m
    ldc.i8 1
    ldc.i8 2
    ldc.r8 6.5
    stelem.md float64[,]
    ldloc m
    ldc.i8 1
    ldc.i8 2
    ldelem.md float64[,]
    ret
  }
|}
  in
  match run_main rt src with
  | Some (Vm.Il.V_float v) -> Alcotest.(check (float 0.0)) "m[1,2]" 6.5 v
  | _ -> Alcotest.fail "no result"

let test_interp_md_bounds () =
  expect_runtime_error
    {|
  .method void main() {
    .locals (float64[,] m)
    ldc.i8 2
    ldc.i8 3
    newmd float64[,]
    stloc m
    ldloc m
    ldc.i8 0
    ldc.i8 3
    ldelem.md float64[,]
    pop
    ret
  }
|}
    "out of bounds"

let test_interp_md_ref_elements_traced () =
  (* Reference elements of an md array must keep objects alive through
     collections (GC tracing of K_md_array with Eref). *)
  let rt = Runtime.create () in
  let gc = rt.Runtime.gc in
  let box =
    Classes.complete rt.Runtime.registry
      (Classes.declare rt.Runtime.registry ~name:"Box")
      ~fields:[ ("v", Types.Prim Types.I4, false) ]
      ()
  in
  let grid =
    Om.alloc_md_array gc (Types.Eref box.Classes.c_id) [| 2; 2 |]
  in
  let b = Om.alloc_instance gc box in
  Om.set_int gc b (Classes.field box "v") 77;
  Om.set_elem_ref gc grid 3 (Some b);
  Om.free gc b;
  Gc.collect gc ~full:false;
  Gc.collect gc ~full:true;
  match Om.get_elem_ref gc grid 3 with
  | Some survivor ->
      Alcotest.(check int) "payload" 77
        (Om.get_int gc survivor (Classes.field box "v"))
  | None -> Alcotest.fail "md ref element lost by GC"

let test_interp_fuel () =
  let rt = Runtime.create () in
  let program =
    Vm.Assembler.assemble rt.Runtime.registry
      ".method void main() {\nspin:\n  br spin\n}"
  in
  let interp = Vm.Interp.create ~fuel:10_000 rt.Runtime.gc program in
  Vm.Syslib.register interp ~env:rt.Runtime.env ~out:rt.Runtime.out;
  Vm.Interp.verify interp;
  (try
     ignore (Vm.Interp.run_entry interp []);
     Alcotest.fail "expected fuel exhaustion"
   with Vm.Interp.Runtime_error msg ->
     Alcotest.(check bool) "out of fuel" true (contains msg "fuel"))

let test_interp_starg () =
  let rt = Runtime.create () in
  let src =
    {|
  .method int64 clamp(int64 x) {
    ldarg x
    ldc.i8 100
    cgt
    brfalse done
    ldc.i8 100
    starg x
  done:
    ldarg x
    ret
  }
  .method void main() { ret }
|}
  in
  let interp = Runtime.load rt ~entry:"clamp" src in
  (match Vm.Interp.run_entry interp [ Vm.Il.V_int 500L ] with
  | Some (Vm.Il.V_int v) -> Alcotest.(check int64) "clamped" 100L v
  | _ -> Alcotest.fail "no result");
  match Vm.Interp.run_entry interp [ Vm.Il.V_int 31L ] with
  | Some (Vm.Il.V_int v) -> Alcotest.(check int64) "unclamped" 31L v
  | _ -> Alcotest.fail "no result"

(* ------------------------------------------------------------------ *)
(* Heap internals                                                      *)
(* ------------------------------------------------------------------ *)

let test_heap_free_list_reuse () =
  let rt = Runtime.create () in
  let gc = rt.Runtime.gc in
  let mt = Classes.object_class rt.Runtime.registry in
  ignore mt;
  (* Promote an object to elder, free it with a full GC, and check the
     space is reused by the next elder allocation. *)
  let a = Om.alloc_array gc (Types.Eprim Types.I8) 1000 in
  Gc.collect gc ~full:false;
  let addr_a = Om.addr_of gc a in
  Alcotest.(check bool) "promoted" false (Heap.in_young rt.Runtime.heap addr_a);
  let used_before = Heap.elder_used rt.Runtime.heap in
  Om.free gc a;
  Gc.collect gc ~full:true;
  let used_after = Heap.elder_used rt.Runtime.heap in
  Alcotest.(check bool) "space reclaimed" true (used_after < used_before);
  Heap.check_consistency rt.Runtime.heap

let test_heap_elder_accounting () =
  let rt = Runtime.create () in
  let gc = rt.Runtime.gc in
  Alcotest.(check int) "elder initially empty" 0
    (Heap.elder_used rt.Runtime.heap);
  let keep = Om.alloc_array gc (Types.Eprim Types.I8) 100 in
  Gc.collect gc ~full:false;
  Alcotest.(check bool) "elder grows on promotion" true
    (Heap.elder_used rt.Runtime.heap > 0);
  ignore keep

let test_heap_many_pins_consistency () =
  (* Repeated pin-driven block promotions must keep the heap parseable. *)
  let rt = Runtime.create () in
  let gc = rt.Runtime.gc in
  for round = 1 to 5 do
    let pinned = Om.alloc_array gc (Types.Eprim Types.I4) 32 in
    Om.set_elem_int gc pinned 0 round;
    Gc.pin gc pinned;
    (* Garbage plus a survivor in the same young block. *)
    for _ = 1 to 20 do
      Om.free gc (Om.alloc_array gc (Types.Eprim Types.I8) 64)
    done;
    Gc.collect gc ~full:false;
    Alcotest.(check int)
      (Printf.sprintf "round %d payload" round)
      round
      (Om.get_elem_int gc pinned 0);
    Gc.unpin gc pinned;
    Om.free gc pinned
  done;
  Gc.collect gc ~full:true;
  Heap.check_consistency rt.Runtime.heap

(* ------------------------------------------------------------------ *)
(* GC pin bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

let test_nested_pins () =
  let rt = Runtime.create () in
  let gc = rt.Runtime.gc in
  let o = Om.alloc_instance gc (Classes.object_class rt.Runtime.registry) in
  let addr = Om.addr_of gc o in
  Gc.pin gc o;
  Gc.pin gc o;
  Gc.unpin gc o;
  (* Still pinned once: must not move. *)
  Gc.collect gc ~full:false;
  Alcotest.(check int) "held by remaining pin" addr (Om.addr_of gc o);
  Gc.unpin gc o;
  Alcotest.(check int) "fully unpinned" 0 (Gc.pinned_count gc)

let test_multiple_conditional_pins_same_object () =
  let rt = Runtime.create () in
  let gc = rt.Runtime.gc in
  let o = Om.alloc_instance gc (Classes.object_class rt.Runtime.registry) in
  let a_active = ref true and b_active = ref true in
  Gc.add_conditional_pin gc o ~still_active:(fun () -> !a_active);
  Gc.add_conditional_pin gc o ~still_active:(fun () -> !b_active);
  let addr = Om.addr_of gc o in
  Gc.collect gc ~full:false;
  Alcotest.(check int) "held" addr (Om.addr_of gc o);
  a_active := false;
  Gc.collect gc ~full:false;
  Alcotest.(check int) "one request left" 1 (Gc.conditional_pin_count gc);
  Alcotest.(check int) "still held by the other" addr (Om.addr_of gc o);
  b_active := false;
  Gc.collect gc ~full:false;
  Alcotest.(check int) "all dropped" 0 (Gc.conditional_pin_count gc)

let test_handle_free_releases_root () =
  let rt = Runtime.create () in
  let gc = rt.Runtime.gc in
  let o = Om.alloc_instance gc (Classes.object_class rt.Runtime.registry) in
  Gc.collect gc ~full:false;
  Alcotest.(check int) "alive via handle" 1 (Gc.live_objects gc);
  Om.free gc o;
  Gc.collect gc ~full:true;
  Alcotest.(check int) "collected after free" 0 (Gc.live_objects gc)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_md_flat_index_bijective =
  QCheck.Test.make ~name:"md flat indexing is a bijection" ~count:60
    QCheck.(pair (int_range 1 5) (int_range 1 5))
    (fun (d0, d1) ->
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      let m = Om.alloc_md_array gc (Types.Eprim Types.I4) [| d0; d1 |] in
      (* Write distinct values via [i;j], read back via flat index. *)
      for i = 0 to d0 - 1 do
        for j = 0 to d1 - 1 do
          let flat = Om.md_flat_index gc m [| i; j |] in
          Om.set_elem_int gc m flat ((i * 100) + j)
        done
      done;
      let ok = ref true in
      for i = 0 to d0 - 1 do
        for j = 0 to d1 - 1 do
          let flat = Om.md_flat_index gc m [| i; j |] in
          if Om.get_elem_int gc m flat <> (i * 100) + j then ok := false
        done
      done;
      !ok)

let prop_assemble_verify_run_arithmetic =
  QCheck.Test.make
    ~name:"assembled arithmetic programs verify and compute correctly"
    ~count:60
    QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (a, b) ->
      let rt = Runtime.create () in
      let src =
        Printf.sprintf
          ".method int64 main() {\n\
          \  ldc.i8 %d\n\
          \  ldc.i8 %d\n\
          \  add\n\
          \  ldc.i8 %d\n\
          \  mul\n\
          \  ret\n\
           }"
          a b (a - b)
      in
      match run_main rt src with
      | Some (Vm.Il.V_int v) -> Int64.to_int v = (a + b) * (a - b)
      | _ -> false)


let test_ldstr_print () =
  let rt = Runtime.create () in
  let src =
    {|
  .method void main() {
    ldstr "x=\"1\"\ttab"
    intcall sys.print_str
    intcall sys.print_nl
    ret
  }
|}
  in
  ignore (run_main rt src);
  Alcotest.(check string) "escapes handled" "x=\"1\"\ttab\n"
    (Runtime.output rt)

let test_ldstr_is_char_array () =
  let rt = Runtime.create () in
  let src =
    {|
  .method int64 main() {
    ldstr "abcd"
    ldlen
    ret
  }
|}
  in
  match run_main rt src with
  | Some (Vm.Il.V_int v) -> Alcotest.(check int64) "length 4" 4L v
  | _ -> Alcotest.fail "no result"

let test_unterminated_string () =
  expect_parse_error
    ".method void main() {\n  ldstr \"oops\n  ret\n}" "unterminated"

let test_isinst () =
  let rt = Runtime.create () in
  let src =
    {|
  .class Cat { .field int32 lives }
  .class Dog { .field int32 barks }
  .method int64 main() {
    .locals (object x, int64 acc)
    newobj Cat
    stloc x
    ldloc x
    isinst Cat
    ldc.i8 1000
    mul
    ldloc x
    isinst Dog
    ldc.i8 100
    mul
    add
    ldloc x
    isinst System.Object
    ldc.i8 10
    mul
    add
    stloc acc
    ldnull
    isinst Cat
    ldloc acc
    add
    ret
  }
|}
  in
  match run_main rt src with
  | Some (Vm.Il.V_int v) ->
      (* Cat:1 Dog:0 Object:1 null:0 -> 1000 + 0 + 10 + 0 *)
      Alcotest.(check int64) "isinst truth table" 1010L v
  | _ -> Alcotest.fail "no result"


let test_handle_use_after_free_detected () =
  let rt = Runtime.create () in
  let gc = rt.Runtime.gc in
  let o = Om.alloc_instance gc (Classes.object_class rt.Runtime.registry) in
  Om.free gc o;
  (try
     ignore (Om.addr_of gc o);
     Alcotest.fail "expected use-after-free"
   with Invalid_argument _ -> ());
  try
    Om.free gc o;
    Alcotest.fail "expected double-free"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "vm-extra"
    [
      ( "assembler",
        [
          Alcotest.test_case "named args and locals" `Quick
            test_asm_named_args_and_locals;
          Alcotest.test_case "array-of-arrays types" `Quick
            test_asm_array_of_arrays_type;
          Alcotest.test_case "unknown label" `Quick test_asm_unknown_label;
          Alcotest.test_case "duplicate method" `Quick
            test_asm_duplicate_method;
          Alcotest.test_case "missing operand" `Quick
            test_asm_missing_operand;
          Alcotest.test_case "unknown field" `Quick test_asm_unknown_field;
          Alcotest.test_case "comments and blank lines" `Quick
            test_asm_comments_and_blank_lines;
          Alcotest.test_case "ldstr printing and escapes" `Quick
            test_ldstr_print;
          Alcotest.test_case "ldstr is a char array" `Quick
            test_ldstr_is_char_array;
          Alcotest.test_case "unterminated string" `Quick
            test_unterminated_string;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "ret wrong type" `Quick
            test_verify_ret_wrong_type;
          Alcotest.test_case "ret non-empty stack" `Quick
            test_verify_ret_nonempty_stack;
          Alcotest.test_case "newobj on array class" `Quick
            test_verify_newobj_array_class;
          Alcotest.test_case "md rank arity" `Quick
            test_verify_md_rank_checked;
          Alcotest.test_case "fallthrough" `Quick test_verify_fallthrough;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "division by zero" `Quick
            test_interp_division_by_zero;
          Alcotest.test_case "negative array length" `Quick
            test_interp_negative_array_length;
          Alcotest.test_case "md array roundtrip" `Quick
            test_interp_md_roundtrip;
          Alcotest.test_case "md bounds" `Quick test_interp_md_bounds;
          Alcotest.test_case "md ref elements traced by GC" `Quick
            test_interp_md_ref_elements_traced;
          Alcotest.test_case "fuel exhaustion" `Quick test_interp_fuel;
          Alcotest.test_case "starg" `Quick test_interp_starg;
          Alcotest.test_case "isinst" `Quick test_isinst;
        ] );
      ( "heap",
        [
          Alcotest.test_case "free-list reclaims elder space" `Quick
            test_heap_free_list_reuse;
          Alcotest.test_case "elder accounting" `Quick
            test_heap_elder_accounting;
          Alcotest.test_case "repeated pin promotions stay consistent"
            `Quick test_heap_many_pins_consistency;
        ] );
      ( "gc pins",
        [
          Alcotest.test_case "nested pins" `Quick test_nested_pins;
          Alcotest.test_case "multiple conditional pins on one object"
            `Quick test_multiple_conditional_pins_same_object;
          Alcotest.test_case "handle free releases the root" `Quick
            test_handle_free_releases_root;
          Alcotest.test_case "use-after-free detected" `Quick
            test_handle_use_after_free_detected;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_md_flat_index_bijective;
          QCheck_alcotest.to_alcotest prop_assemble_verify_run_arithmetic;
        ] );
    ]
