(* Failure-injection and fuzz tests: corrupted wire representations,
   out-of-memory during deserialization, and GC integrity over random
   object graphs under random collection schedules. *)

module Ser = Motor.Serializer
module Om = Vm.Object_model
module Gc = Vm.Gc
module Heap = Vm.Heap
module Classes = Vm.Classes
module Types = Vm.Types
module Runtime = Poison.Runtime

let node_class registry =
  match Classes.find_by_name registry "FuzzNode" with
  | Some mt -> mt
  | None ->
      let id = Classes.declare registry ~name:"FuzzNode" in
      let arr = Classes.array_class registry (Types.Eprim Types.I4) in
      Classes.complete registry id ~transportable:true
        ~fields:
          [
            ("data", Types.Ref arr.Classes.c_id, true);
            ("left", Types.Ref id, true);
            ("right", Types.Ref id, true);
            ("tag", Types.Prim Types.I4, false);
          ]
        ()

(* Build a random object graph over [n] nodes: random tree edges plus
   random extra edges (sharing and cycles), values derived from [seed]. *)
let build_graph gc registry ~n ~seed =
  let mt = node_class registry in
  let fdata = Classes.field mt "data" in
  let fleft = Classes.field mt "left" in
  let fright = Classes.field mt "right" in
  let ftag = Classes.field mt "tag" in
  let nodes =
    Array.init n (fun i ->
        let node = Om.alloc_instance gc mt in
        Om.set_int gc node ftag ((seed * 31) + i);
        let arr = Om.alloc_array gc (Types.Eprim Types.I4) (1 + (i mod 4)) in
        Om.set_elem_int gc arr 0 (i * 7);
        Om.set_ref gc node fdata (Some arr);
        Om.free gc arr;
        node)
  in
  let pick i salt = nodes.((((i * 131) + salt + seed) mod n + n) mod n) in
  Array.iteri
    (fun i node ->
      if (i + seed) mod 3 <> 0 then Om.set_ref gc node fleft (Some (pick i 1));
      if (i + seed) mod 4 <> 0 then Om.set_ref gc node fright (Some (pick i 2)))
    nodes;
  nodes

(* A structural fingerprint of the graph reachable from [root], following
   object identity (visited set) so cycles terminate. *)
let fingerprint gc registry root =
  let mt = node_class registry in
  let fdata = Classes.field mt "data" in
  let fleft = Classes.field mt "left" in
  let fright = Classes.field mt "right" in
  let ftag = Classes.field mt "tag" in
  let seen = Hashtbl.create 64 in
  let acc = Buffer.create 256 in
  let rec go o =
    let addr = Om.addr_of gc o in
    match Hashtbl.find_opt seen addr with
    | Some id -> Buffer.add_string acc (Printf.sprintf "@%d;" id)
    | None ->
        let id = Hashtbl.length seen in
        Hashtbl.replace seen addr id;
        Buffer.add_string acc (Printf.sprintf "#%d:" (Om.get_int gc o ftag));
        (match Om.get_ref gc o fdata with
        | Some arr ->
            Buffer.add_string acc
              (Printf.sprintf "d%d=%d;"
                 (Om.array_length gc arr)
                 (Om.get_elem_int gc arr 0));
            Om.free gc arr
        | None -> Buffer.add_string acc "d-;");
        (match Om.get_ref gc o fleft with
        | Some l ->
            go l;
            Om.free gc l
        | None -> Buffer.add_string acc "l-;");
        (match Om.get_ref gc o fright with
        | Some r ->
            go r;
            Om.free gc r
        | None -> Buffer.add_string acc "r-;")
  in
  go root;
  Buffer.contents acc

let test_oom_during_deserialize_is_clean () =
  (* A tiny arena cannot hold the incoming graph: the failure must be
     Out_of_memory, and the heap must stay parseable. *)
  let big_rt = Runtime.create () in
  let gc = big_rt.Runtime.gc in
  let nodes = build_graph gc big_rt.Runtime.registry ~n:20_000 ~seed:5 in
  let repr = Ser.serialize gc ~visited:Ser.Hashed nodes.(0) in
  let small_rt =
    Runtime.create ~arena_bytes:(512 * 1024) ~block_bytes:(64 * 1024) ()
  in
  ignore (node_class small_rt.Runtime.registry);
  (try
     ignore (Ser.deserialize small_rt.Runtime.gc repr);
     Alcotest.fail "expected Out_of_memory"
   with Heap.Out_of_memory -> ());
  Heap.check_consistency small_rt.Runtime.heap

let test_wrong_class_shape_rejected () =
  (* Receiver's class has a different field signature: decode must fail
     with a Serialize_error, not corrupt objects. *)
  let src_rt = Runtime.create () in
  let gc = src_rt.Runtime.gc in
  let mt =
    Classes.complete src_rt.Runtime.registry
      (Classes.declare src_rt.Runtime.registry ~name:"Shape")
      ~fields:[ ("x", Types.Prim Types.I8, false) ]
      ()
  in
  let o = Om.alloc_instance gc mt in
  let repr = Ser.serialize gc ~visited:Ser.Hashed o in
  let dst_rt = Runtime.create () in
  ignore
    (Classes.complete dst_rt.Runtime.registry
       (Classes.declare dst_rt.Runtime.registry ~name:"Shape")
       ~fields:[ ("x", Types.Prim Types.R4, false) ]
       ());
  try
    ignore (Ser.deserialize dst_rt.Runtime.gc repr);
    Alcotest.fail "expected Serialize_error"
  with Ser.Serialize_error msg ->
    Alcotest.(check bool) "mentions the mismatch" true
      (String.length msg > 0)

let prop_fuzzed_representations_never_crash =
  QCheck.Test.make
    ~name:"bit-flipped representations raise Serialize_error or decode"
    ~count:300
    QCheck.(triple (int_range 1 12) (int_range 0 2000) (int_range 0 255))
    (fun (n, flip_pos, flip_val) ->
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      let nodes = build_graph gc rt.Runtime.registry ~n ~seed:n in
      let repr = Ser.serialize gc ~visited:Ser.Hashed nodes.(0) in
      let mutated = Bytes.copy repr in
      let pos = flip_pos mod Bytes.length mutated in
      Bytes.set mutated pos (Char.chr flip_val);
      (* Acceptable outcomes: clean decode of something, or a categorized
         error. Anything else (Invalid_argument, Failure, assert) fails. *)
      match Ser.deserialize gc mutated with
      | obj ->
          Om.free gc obj;
          true
      | exception Ser.Serialize_error _ -> true
      | exception Om.Managed_error _ -> true
      | exception Heap.Out_of_memory -> true)

let prop_truncated_representations_never_crash =
  QCheck.Test.make ~name:"truncated representations raise Serialize_error"
    ~count:150
    QCheck.(pair (int_range 1 10) (int_range 0 99))
    (fun (n, keep_pct) ->
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      let nodes = build_graph gc rt.Runtime.registry ~n ~seed:(n + 1) in
      let repr = Ser.serialize gc ~visited:Ser.Hashed nodes.(0) in
      let keep = Bytes.length repr * keep_pct / 100 in
      let truncated = Bytes.sub repr 0 keep in
      match Ser.deserialize gc truncated with
      | obj ->
          Om.free gc obj;
          true
      | exception Ser.Serialize_error _ -> true
      | exception Om.Managed_error _ -> true)

let prop_gc_preserves_random_graphs =
  QCheck.Test.make
    ~name:"random graphs survive random GC schedules intact" ~count:40
    QCheck.(triple (int_range 1 40) (int_range 0 100) (list (int_range 0 2)))
    (fun (n, seed, gcs) ->
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      let registry = rt.Runtime.registry in
      let nodes = build_graph gc registry ~n ~seed in
      let root = nodes.(0) in
      (* Drop every handle except the root: the graph must survive through
         reachability alone. *)
      Array.iteri (fun i o -> if i > 0 then Om.free gc o) nodes;
      let before = fingerprint gc registry root in
      List.iter
        (fun k ->
          (match k with
          | 0 -> Gc.collect gc ~full:false
          | 1 -> Gc.collect gc ~full:true
          | _ ->
              (* allocation churn to trigger natural collections *)
              for _ = 1 to 200 do
                Om.free gc (Om.alloc_array gc (Types.Eprim Types.I8) 64)
              done);
          Heap.check_consistency rt.Runtime.heap)
        gcs;
      let after = fingerprint gc registry root in
      before = after)

let prop_serializer_roundtrip_random_graphs =
  QCheck.Test.make
    ~name:"random graphs (cycles, sharing) roundtrip the serializer"
    ~count:60
    QCheck.(pair (int_range 1 30) (int_range 0 50))
    (fun (n, seed) ->
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      let registry = rt.Runtime.registry in
      let nodes = build_graph gc registry ~n ~seed in
      let root = nodes.(0) in
      let before = fingerprint gc registry root in
      let copy =
        Ser.deserialize gc (Ser.serialize gc ~visited:Ser.Linear root)
      in
      fingerprint gc registry copy = before)

let () =
  Alcotest.run "robustness"
    [
      ( "failure injection",
        [
          Alcotest.test_case "OOM during deserialize is clean" `Quick
            test_oom_during_deserialize_is_clean;
          Alcotest.test_case "wrong class shape rejected" `Quick
            test_wrong_class_shape_rejected;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_fuzzed_representations_never_crash;
          QCheck_alcotest.to_alcotest
            prop_truncated_representations_never_crash;
        ] );
      ( "gc integrity",
        [
          QCheck_alcotest.to_alcotest prop_gc_preserves_random_graphs;
          QCheck_alcotest.to_alcotest
            prop_serializer_roundtrip_random_graphs;
        ] );
    ]
