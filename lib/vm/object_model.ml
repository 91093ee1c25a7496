exception Managed_error of string

type obj = Gc.Handle.t

let err fmt = Format.kasprintf (fun s -> raise (Managed_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let alloc_instance gc (mt : Classes.method_table) =
  (match mt.Classes.c_kind with
  | Classes.K_class -> ()
  | Classes.K_array _ | Classes.K_md_array _ ->
      err "alloc_instance: %s is an array class" mt.Classes.c_name);
  let addr = Gc.alloc gc ~mt ~data_bytes:mt.Classes.c_instance_size in
  Gc.Handle.alloc gc addr

let alloc_array gc elem len =
  if len < 0 then err "alloc_array: negative length %d" len;
  let mt = Classes.array_class (Gc.registry gc) elem in
  let data_bytes = 4 + (len * Types.elem_size elem) in
  let addr = Gc.alloc gc ~mt ~data_bytes in
  let h = Gc.heap gc in
  Heap.set_i32 h (Heap.data_of addr) len;
  Gc.Handle.alloc gc addr

let alloc_md_array gc elem dims =
  let rank = Array.length dims in
  if rank < 2 then err "alloc_md_array: rank must be >= 2";
  Array.iter (fun d -> if d < 0 then err "alloc_md_array: negative dim") dims;
  let mt = Classes.md_array_class (Gc.registry gc) elem ~rank in
  let n = Array.fold_left ( * ) 1 dims in
  let data_bytes = (4 * rank) + (n * Types.elem_size elem) in
  let addr = Gc.alloc gc ~mt ~data_bytes in
  let h = Gc.heap gc in
  Array.iteri
    (fun i d -> Heap.set_i32 h (Heap.data_of addr + (4 * i)) d)
    dims;
  Gc.Handle.alloc gc addr

let null gc = Gc.Handle.alloc gc Heap.null
let free gc o = Gc.Handle.free gc o
let is_null gc o = Gc.Handle.is_null gc o
let addr_of gc o = Gc.Handle.get gc o
let class_of gc o = Gc.method_table_of gc (addr_of gc o)
let same_object gc a b = addr_of gc a = addr_of gc b

(* ------------------------------------------------------------------ *)
(* Instance fields                                                     *)
(* ------------------------------------------------------------------ *)

let field_slot gc o (fd : Classes.field_desc) =
  let addr = addr_of gc o in
  if addr = Heap.null then raise Gc.Null_reference;
  let mt = Gc.method_table_of gc addr in
  (match mt.Classes.c_kind with
  | Classes.K_class -> ()
  | Classes.K_array _ | Classes.K_md_array _ ->
      err "field access on array %s" mt.Classes.c_name);
  if
    fd.Classes.f_index >= Array.length mt.Classes.c_fields
    || mt.Classes.c_fields.(fd.Classes.f_index) != fd
  then
    err "field %s does not belong to class %s" fd.Classes.f_name
      mt.Classes.c_name;
  Heap.data_of addr + fd.Classes.f_offset

let get_int gc o fd =
  let h = Gc.heap gc in
  let slot = field_slot gc o fd in
  match fd.Classes.f_type with
  | Types.Prim Types.I1 ->
      let v = Heap.get_u8 h slot in
      if v > 127 then v - 256 else v
  | Types.Prim Types.Bool -> Heap.get_u8 h slot
  | Types.Prim Types.Char -> Heap.get_i16 h slot land 0xffff
  | Types.Prim Types.I2 -> Heap.get_i16 h slot
  | Types.Prim Types.I4 -> Heap.get_i32 h slot
  | Types.Prim Types.I8 -> Int64.to_int (Heap.get_i64 h slot)
  | Types.Prim (Types.R4 | Types.R8) | Types.Ref _ ->
      err "get_int: field %s is not integral" fd.Classes.f_name

let set_int gc o fd v =
  let h = Gc.heap gc in
  let slot = field_slot gc o fd in
  match fd.Classes.f_type with
  | Types.Prim (Types.I1 | Types.Bool) -> Heap.set_u8 h slot (v land 0xff)
  | Types.Prim (Types.I2 | Types.Char) -> Heap.set_i16 h slot v
  | Types.Prim Types.I4 -> Heap.set_i32 h slot v
  | Types.Prim Types.I8 -> Heap.set_i64 h slot (Int64.of_int v)
  | Types.Prim (Types.R4 | Types.R8) | Types.Ref _ ->
      err "set_int: field %s is not integral" fd.Classes.f_name

let get_float gc o fd =
  let h = Gc.heap gc in
  let slot = field_slot gc o fd in
  match fd.Classes.f_type with
  | Types.Prim Types.R4 -> Heap.get_f32 h slot
  | Types.Prim Types.R8 -> Heap.get_f64 h slot
  | _ -> err "get_float: field %s is not floating" fd.Classes.f_name

let set_float gc o fd v =
  let h = Gc.heap gc in
  let slot = field_slot gc o fd in
  match fd.Classes.f_type with
  | Types.Prim Types.R4 -> Heap.set_f32 h slot v
  | Types.Prim Types.R8 -> Heap.set_f64 h slot v
  | _ -> err "set_float: field %s is not floating" fd.Classes.f_name

let ref_field_slot gc o fd =
  match fd.Classes.f_type with
  | Types.Ref _ -> field_slot gc o fd
  | Types.Prim _ -> err "field %s is not a reference" fd.Classes.f_name

let get_ref_addr gc o fd = Heap.get_ref (Gc.heap gc) (ref_field_slot gc o fd)

let get_ref gc o fd =
  let a = get_ref_addr gc o fd in
  if a = Heap.null then None else Some (Gc.Handle.alloc gc a)

let check_assignable gc ~slot_class ~value_addr =
  if value_addr <> Heap.null then begin
    let vmt = Gc.method_table_of gc value_addr in
    let obj_id = (Classes.object_class (Gc.registry gc)).Classes.c_id in
    if slot_class <> obj_id && vmt.Classes.c_id <> slot_class then
      err "type mismatch: cannot store %s into a ref<%d> slot"
        vmt.Classes.c_name slot_class
  end

let set_ref gc o fd value =
  let h = Gc.heap gc in
  let slot = ref_field_slot gc o fd in
  let value_addr =
    match value with None -> Heap.null | Some v -> addr_of gc v
  in
  (match fd.Classes.f_type with
  | Types.Ref cid -> check_assignable gc ~slot_class:cid ~value_addr
  | Types.Prim _ -> assert false);
  Heap.set_ref_raw h slot value_addr;
  Gc.record_write gc ~container:(addr_of gc o) ~value:value_addr ~slot

(* ------------------------------------------------------------------ *)
(* Arrays                                                              *)
(* ------------------------------------------------------------------ *)

let array_info gc o =
  let addr = addr_of gc o in
  if addr = Heap.null then raise Gc.Null_reference;
  let mt = Gc.method_table_of gc addr in
  let h = Gc.heap gc in
  let data = Heap.data_of addr in
  match mt.Classes.c_kind with
  | Classes.K_array elem ->
      let len = Heap.get_i32 h data in
      (addr, elem, len, data + 4)
  | Classes.K_md_array (elem, rank) ->
      let n = ref 1 in
      for d = 0 to rank - 1 do
        n := !n * Heap.get_i32 h (data + (4 * d))
      done;
      (addr, elem, !n, data + (4 * rank))
  | Classes.K_class -> err "%s is not an array" mt.Classes.c_name

let array_length gc o =
  let _, _, len, _ = array_info gc o in
  len

let array_elem_type gc o =
  let _, elem, _, _ = array_info gc o in
  elem

let elem_slot gc o i =
  let _, elem, len, base = array_info gc o in
  if i < 0 || i >= len then err "array index %d out of bounds [0,%d)" i len;
  (elem, base + (i * Types.elem_size elem))

let get_elem_int gc o i =
  let h = Gc.heap gc in
  match elem_slot gc o i with
  | Types.Eprim Types.I1, s ->
      let v = Heap.get_u8 h s in
      if v > 127 then v - 256 else v
  | Types.Eprim Types.Bool, s -> Heap.get_u8 h s
  | Types.Eprim Types.Char, s -> Heap.get_i16 h s land 0xffff
  | Types.Eprim Types.I2, s -> Heap.get_i16 h s
  | Types.Eprim Types.I4, s -> Heap.get_i32 h s
  | Types.Eprim Types.I8, s -> Int64.to_int (Heap.get_i64 h s)
  | (Types.Eprim (Types.R4 | Types.R8) | Types.Eref _), _ ->
      err "get_elem_int: not an integral array"

let set_elem_int gc o i v =
  let h = Gc.heap gc in
  match elem_slot gc o i with
  | Types.Eprim (Types.I1 | Types.Bool), s -> Heap.set_u8 h s (v land 0xff)
  | Types.Eprim (Types.I2 | Types.Char), s -> Heap.set_i16 h s v
  | Types.Eprim Types.I4, s -> Heap.set_i32 h s v
  | Types.Eprim Types.I8, s -> Heap.set_i64 h s (Int64.of_int v)
  | (Types.Eprim (Types.R4 | Types.R8) | Types.Eref _), _ ->
      err "set_elem_int: not an integral array"

let get_elem_int64 gc o i =
  match elem_slot gc o i with
  | Types.Eprim Types.I8, s -> Heap.get_i64 (Gc.heap gc) s
  | _ -> Int64.of_int (get_elem_int gc o i)

let set_elem_int64 gc o i v =
  match elem_slot gc o i with
  | Types.Eprim Types.I8, s -> Heap.set_i64 (Gc.heap gc) s v
  | _ -> set_elem_int gc o i (Int64.to_int v)

let get_elem_float gc o i =
  let h = Gc.heap gc in
  match elem_slot gc o i with
  | Types.Eprim Types.R4, s -> Heap.get_f32 h s
  | Types.Eprim Types.R8, s -> Heap.get_f64 h s
  | _ -> err "get_elem_float: not a floating array"

let set_elem_float gc o i v =
  let h = Gc.heap gc in
  match elem_slot gc o i with
  | Types.Eprim Types.R4, s -> Heap.set_f32 h s v
  | Types.Eprim Types.R8, s -> Heap.set_f64 h s v
  | _ -> err "set_elem_float: not a floating array"

let get_elem_ref gc o i =
  match elem_slot gc o i with
  | Types.Eref _, s ->
      let a = Heap.get_ref (Gc.heap gc) s in
      if a = Heap.null then None else Some (Gc.Handle.alloc gc a)
  | Types.Eprim _, _ -> err "get_elem_ref: not a reference array"

let set_elem_ref gc o i value =
  match elem_slot gc o i with
  | Types.Eref cid, s ->
      let value_addr =
        match value with None -> Heap.null | Some v -> addr_of gc v
      in
      check_assignable gc ~slot_class:cid ~value_addr;
      Heap.set_ref_raw (Gc.heap gc) s value_addr;
      Gc.record_write gc ~container:(addr_of gc o) ~value:value_addr ~slot:s
  | Types.Eprim _, _ -> err "set_elem_ref: not a reference array"

let md_dims gc o =
  let addr = addr_of gc o in
  if addr = Heap.null then raise Gc.Null_reference;
  let mt = Gc.method_table_of gc addr in
  match mt.Classes.c_kind with
  | Classes.K_md_array (_, rank) ->
      let h = Gc.heap gc in
      let data = Heap.data_of addr in
      Array.init rank (fun d -> Heap.get_i32 h (data + (4 * d)))
  | Classes.K_array _ | Classes.K_class ->
      err "%s is not a multidimensional array" mt.Classes.c_name

let md_flat_index gc o idx =
  let dims = md_dims gc o in
  if Array.length idx <> Array.length dims then
    err "md_flat_index: rank mismatch";
  let flat = ref 0 in
  Array.iteri
    (fun d i ->
      if i < 0 || i >= dims.(d) then
        err "md index %d out of bounds [0,%d) in dimension %d" i dims.(d) d;
      flat := (!flat * dims.(d)) + i)
    idx;
  !flat

(* ------------------------------------------------------------------ *)
(* Raw regions                                                         *)
(* ------------------------------------------------------------------ *)

let payload_region gc o =
  let addr = addr_of gc o in
  if addr = Heap.null then raise Gc.Null_reference;
  let h = Gc.heap gc in
  let mt = Gc.method_table_of gc addr in
  let data = Heap.data_of addr in
  match mt.Classes.c_kind with
  | Classes.K_class -> (data, mt.Classes.c_instance_size)
  | Classes.K_array elem ->
      let len = Heap.get_i32 h data in
      (data + 4, len * Types.elem_size elem)
  | Classes.K_md_array (elem, rank) ->
      let n = ref 1 in
      for d = 0 to rank - 1 do
        n := !n * Heap.get_i32 h (data + (4 * d))
      done;
      (data + (4 * rank), !n * Types.elem_size elem)

let elem_region gc o ~offset ~count =
  let _, elem, len, base = array_info gc o in
  if offset < 0 || count < 0 || offset + count > len then
    err "array range [%d,%d) out of bounds [0,%d)" offset (offset + count)
      len;
  let esz = Types.elem_size elem in
  (base + (offset * esz), count * esz)

let fill_array_bytes gc o bytes =
  let _, elem, _, _ = array_info gc o in
  if Types.elem_is_ref elem then err "fill_array_bytes: reference array";
  let addr, len = payload_region gc o in
  if Bytes.length bytes <> len then
    err "fill_array_bytes: size mismatch (%d vs %d)" (Bytes.length bytes) len;
  Heap.blit_in (Gc.heap gc) ~src:bytes ~src_off:0 ~dst:addr ~len

let read_array_bytes gc o =
  let _, elem, _, _ = array_info gc o in
  if Types.elem_is_ref elem then err "read_array_bytes: reference array";
  let addr, len = payload_region gc o in
  let b = Bytes.create len in
  Heap.blit_out (Gc.heap gc) ~src:addr ~dst:b ~dst_off:0 ~len;
  b
