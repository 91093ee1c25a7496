module Env = Simtime.Env
module Key = Simtime.Stats.Key
module Gc = Vm.Gc
module Om = Vm.Object_model
module Heap = Vm.Heap
module Classes = Vm.Classes
module Types = Vm.Types

exception Serialize_error of string

type visited_strategy = Linear | Hashed

let err fmt = Format.kasprintf (fun s -> raise (Serialize_error s)) fmt

let magic = 0x4D4F5452 (* "MOTR" *)

(* ------------------------------------------------------------------ *)
(* Wire primitives                                                     *)
(* ------------------------------------------------------------------ *)

let u8 b v = Buffer.add_uint8 b v
let u16 b v = Buffer.add_uint16_le b v
let u32 b v = Buffer.add_int32_le b (Int32.of_int v)

let str b s =
  u16 b (String.length s);
  Buffer.add_string b s

type reader = { data : Bytes.t; mutable pos : int }

(* Every read is bounds-checked so corrupted or truncated wire data
   surfaces as Serialize_error, never as a runtime crash or a silent
   mis-parse. *)
let need r n =
  if r.pos < 0 || r.pos + n > Bytes.length r.data then
    err "truncated representation (need %d bytes at offset %d of %d)" n
      r.pos (Bytes.length r.data)

let r_u8 r =
  need r 1;
  let v = Bytes.get_uint8 r.data r.pos in
  r.pos <- r.pos + 1;
  v

let r_u16 r =
  need r 2;
  let v = Bytes.get_uint16_le r.data r.pos in
  r.pos <- r.pos + 2;
  v

let r_u32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_le r.data r.pos) in
  r.pos <- r.pos + 4;
  v

let r_str r =
  let n = r_u16 r in
  need r n;
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_skip r n =
  if n < 0 then err "negative payload length";
  need r n;
  r.pos <- r.pos + n

let prim_code = function
  | Types.I1 -> 1
  | Types.I2 -> 2
  | Types.I4 -> 3
  | Types.I8 -> 4
  | Types.R4 -> 5
  | Types.R8 -> 6
  | Types.Bool -> 7
  | Types.Char -> 8

let ref_code = 0xff

let field_code (fd : Classes.field_desc) =
  match fd.Classes.f_type with
  | Types.Prim p -> prim_code p
  | Types.Ref _ -> ref_code

let elem_code = function
  | Types.Eprim p -> prim_code p
  | Types.Eref _ -> ref_code

(* ------------------------------------------------------------------ *)
(* Visited structures                                                  *)
(* ------------------------------------------------------------------ *)

(* Both strategies record visited objects in one address -> id table and
   differ only in the probes a lookup charges. [Hashed] charges one.
   [Linear] charges exactly what the paper's list would have walked,
   without walking it: the list is newest-first and every insertion takes
   the next id, so a hit on [id] is the [(newest id - id + 1)]-th entry,
   and a miss walks all entries (at least one probe). *)
module Addr_tbl = Hashtbl.Make (struct
  type t = Heap.addr

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* The serialize pass never yields and never calls user code, so each
   domain reuses one table across passes instead of allocating a fresh
   table (and its garbage) per message. [busy] guards against re-entry
   all the same: a nested pass gets a table of its own and never clears
   a live one. *)
type visited_table = { table : int Addr_tbl.t; mutable busy : bool }

let visited_key =
  Domain.DLS.new_key (fun () -> { table = Addr_tbl.create 1024; busy = false })

let with_visited_table f =
  let v = Domain.DLS.get visited_key in
  if v.busy then f (Addr_tbl.create 64)
  else begin
    v.busy <- true;
    Fun.protect
      ~finally:(fun () ->
        Addr_tbl.clear v.table;
        v.busy <- false)
      (fun () -> f v.table)
  end

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

type root = Whole of Heap.addr | Slice of Heap.addr * int * int

(* Raw (non-moving) access: serialization allocates no managed memory, so
   addresses are stable for its whole duration and no pinning is needed
   (Section 7.4). *)
(* The encode pass proper: everything inside the ser/encode histogram
   ([serialize_raw] below wraps it with the timer and span). *)
let serialize_pass gc ~visited ~table root =
  let env = Vm.Heap.env (Gc.heap gc) in
  let cost = env.Env.cost in
  let heap = Gc.heap gc in
  let charge_probes n =
    Env.charge env (cost.visited_probe_ns *. float_of_int n);
    Env.count_n env Key.visited_probes n
  in
  let types = Buffer.create 256 in
  let objects = Buffer.create 1024 in
  let type_index : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let n_types = ref 0 in
  let intern_type (mt : Classes.method_table) =
    match Hashtbl.find_opt type_index mt.Classes.c_id with
    | Some i -> i
    | None ->
        let i = !n_types in
        incr n_types;
        Hashtbl.replace type_index mt.Classes.c_id i;
        (match mt.Classes.c_kind with
        | Classes.K_class ->
            u8 types 0;
            str types mt.Classes.c_name;
            u16 types (Array.length mt.Classes.c_fields);
            Array.iter
              (fun fd -> u8 types (field_code fd))
              mt.Classes.c_fields
        | Classes.K_array elem ->
            u8 types 1;
            str types mt.Classes.c_name;
            u8 types (elem_code elem)
        | Classes.K_md_array (elem, rank) ->
            u8 types 2;
            str types mt.Classes.c_name;
            u8 types (elem_code elem);
            u8 types rank);
        i
  in
  let n_objects = ref 0 in
  let queue = Queue.create () in
  (* Assign an id to a reachable object, enqueueing it on first sight. *)
  let id_of addr =
    if addr = Heap.null then 0
    else
      match Addr_tbl.find table addr with
      | id ->
          charge_probes
            (match visited with Linear -> !n_objects - id + 1 | Hashed -> 1);
          id
      | exception Not_found ->
          charge_probes
            (match visited with
            | Linear -> max 1 (Addr_tbl.length table)
            | Hashed -> 1);
          incr n_objects;
          let id = !n_objects in
          Addr_tbl.add table addr id;
          Queue.push addr queue;
          id
  in
  let emit_prim_payload src len =
    Buffer.add_subbytes objects (Heap.mem heap) src len;
    Env.charge_per_byte env cost.ser_ns_per_byte len
  in
  let emit_object addr =
    Env.charge env cost.ser_per_obj_ns;
    Env.count env Key.ser_objects;
    let mt = Gc.method_table_of gc addr in
    u32 objects (intern_type mt);
    let data = Heap.data_of addr in
    match mt.Classes.c_kind with
    | Classes.K_class ->
        Array.iter
          (fun (fd : Classes.field_desc) ->
            Env.charge env (cost.ser_per_field_ns +. cost.reflect_field_ns);
            let slot = data + fd.Classes.f_offset in
            match fd.Classes.f_type with
            | Types.Prim p ->
                emit_prim_payload slot (Types.prim_size p)
            | Types.Ref _ ->
                let target = Heap.get_ref heap slot in
                (* Only Transportable references propagate; the rest
                   serialize as null (Section 4.2.2). *)
                let id =
                  if fd.Classes.f_transportable then id_of target else 0
                in
                u32 objects id)
          mt.Classes.c_fields
    | Classes.K_array elem ->
        let len = Heap.get_i32 heap data in
        u32 objects len;
        (match elem with
        | Types.Eprim p ->
            emit_prim_payload (data + 4) (len * Types.prim_size p)
        | Types.Eref _ ->
            for i = 0 to len - 1 do
              Env.charge env cost.ser_per_field_ns;
              u32 objects (id_of (Heap.get_ref heap (data + 4 + (4 * i))))
            done)
    | Classes.K_md_array (elem, rank) ->
        let n = ref 1 in
        for d = 0 to rank - 1 do
          let dim = Heap.get_i32 heap (data + (4 * d)) in
          u32 objects dim;
          n := !n * dim
        done;
        let base = data + (4 * rank) in
        (match elem with
        | Types.Eprim p -> emit_prim_payload base (!n * Types.prim_size p)
        | Types.Eref _ ->
            for i = 0 to !n - 1 do
              Env.charge env cost.ser_per_field_ns;
              u32 objects (id_of (Heap.get_ref heap (base + (4 * i))))
            done)
  in
  (* Seed with the root. A slice root is synthesized: an array record that
     references the slice's elements without materializing a sub-array —
     this is what makes the split representation cheap. *)
  let root_id =
    match root with
    | Whole addr -> id_of addr
    | Slice (addr, offset, count) ->
        let mt = Gc.method_table_of gc addr in
        (match mt.Classes.c_kind with
        | Classes.K_array (Types.Eref _) -> ()
        | Classes.K_array (Types.Eprim _)
        | Classes.K_class | Classes.K_md_array _ ->
            err "slice root must be a reference array");
        incr n_objects;
        let id = !n_objects in
        Env.charge env cost.ser_per_obj_ns;
        Env.count env Key.ser_objects;
        u32 objects (intern_type mt);
        u32 objects count;
        let data = Heap.data_of addr in
        for i = offset to offset + count - 1 do
          Env.charge env cost.ser_per_field_ns;
          u32 objects (id_of (Heap.get_ref heap (data + 4 + (4 * i))))
        done;
        id
  in
  while not (Queue.is_empty queue) do
    emit_object (Queue.pop queue)
  done;
  let out = Buffer.create (Buffer.length types + Buffer.length objects + 32) in
  u32 out magic;
  u32 out !n_types;
  Buffer.add_buffer out types;
  u32 out !n_objects;
  Buffer.add_buffer out objects;
  u32 out root_id;
  Buffer.to_bytes out

let serialize_raw gc ~visited root =
  let env = Vm.Heap.env (Gc.heap gc) in
  Env.with_timer env Key.h_ser_encode (fun () ->
      Simtime.Probe.with_span env ~rank:(-1) ~cat:"ser" ~name:"ser/encode"
        (fun () ->
          with_visited_table (fun table ->
              serialize_pass gc ~visited ~table root)))

let serialize gc ~visited obj =
  serialize_raw gc ~visited (Whole (Om.addr_of gc obj))

let serialize_array_slice gc ~visited obj ~offset ~count =
  let len = Om.array_length gc obj in
  if offset < 0 || count < 0 || offset + count > len then
    err "slice [%d,%d) out of bounds [0,%d)" offset (offset + count) len;
  serialize_raw gc ~visited (Slice (Om.addr_of gc obj, offset, count))

(* ------------------------------------------------------------------ *)
(* Deserialization                                                     *)
(* ------------------------------------------------------------------ *)

(* Resolve a serialized type name against the receiving registry. Array
   names are rebuilt structurally ("Node[]" interns the array class of
   "Node"); unknown class names are an error — the receiving runtime must
   define the same classes. *)
let rec resolve_elem registry name : Types.elem =
  let n = String.length name in
  if n > 1 && name.[n - 1] = ']' then begin
    match String.rindex_opt name '[' with
    | None -> err "malformed type name %s" name
    | Some i ->
        let base = String.sub name 0 i in
        let rank = n - i - 1 in
        let elem = resolve_elem registry base in
        let mt =
          if rank = 1 then Classes.array_class registry elem
          else Classes.md_array_class registry elem ~rank
        in
        Types.Eref mt.Classes.c_id
  end
  else
    match name with
    | "int8" -> Types.Eprim Types.I1
    | "int16" -> Types.Eprim Types.I2
    | "int32" -> Types.Eprim Types.I4
    | "int64" -> Types.Eprim Types.I8
    | "float32" -> Types.Eprim Types.R4
    | "float64" -> Types.Eprim Types.R8
    | "bool" -> Types.Eprim Types.Bool
    | "char" -> Types.Eprim Types.Char
    | _ -> (
        match Classes.find_by_name registry name with
        | Some mt -> Types.Eref mt.Classes.c_id
        | None -> err "receiver has no class named %s" name)

type resolved =
  | R_class of Classes.method_table
  | R_array of Types.elem
  | R_md of Types.elem * int

let read_types gc r =
  let registry = Gc.registry gc in
  let n = r_u32 r in
  (* Each type entry takes at least 4 bytes: bound against the input. *)
  if n < 0 || n > (Bytes.length r.data - r.pos) / 4 then
    err "implausible type count %d" n;
  Array.init n (fun _ ->
      match r_u8 r with
      | 0 ->
          let name = r_str r in
          let n_fields = r_u16 r in
          let codes = Array.init n_fields (fun _ -> r_u8 r) in
          let mt =
            match Classes.find_by_name registry name with
            | Some mt -> mt
            | None -> err "receiver has no class named %s" name
          in
          if Array.length mt.Classes.c_fields <> n_fields then
            err "class %s: field count mismatch (%d vs %d)" name n_fields
              (Array.length mt.Classes.c_fields);
          Array.iteri
            (fun i fd ->
              if field_code fd <> codes.(i) then
                err "class %s: field %s signature mismatch" name
                  fd.Classes.f_name)
            mt.Classes.c_fields;
          R_class mt
      | 1 ->
          let name = r_str r in
          let elem_c = r_u8 r in
          let elem =
            match
              (* Strip one array suffix off the interned array name to get
                 the element type. *)
              resolve_elem registry name
            with
            | Types.Eref id -> (
                match (Classes.find registry id).Classes.c_kind with
                | Classes.K_array e -> e
                | Classes.K_class | Classes.K_md_array _ ->
                    err "%s is not an array class" name)
            | Types.Eprim _ -> err "%s is not an array class" name
          in
          if elem_code elem <> elem_c then
            err "array %s: element kind mismatch" name;
          R_array elem
      | 2 ->
          let name = r_str r in
          let elem_c = r_u8 r in
          let rank = r_u8 r in
          let elem =
            match resolve_elem registry name with
            | Types.Eref id -> (
                match (Classes.find registry id).Classes.c_kind with
                | Classes.K_md_array (e, rk) ->
                    if rk <> rank then err "md array %s: rank mismatch" name;
                    e
                | Classes.K_class | Classes.K_array _ ->
                    err "%s is not a multidimensional array class" name)
            | Types.Eprim _ -> err "%s is not an array class" name
          in
          if elem_code elem <> elem_c then
            err "md array %s: element kind mismatch" name;
          R_md (elem, rank)
      | k -> err "bad type kind %d" k)

let deserialize_pass gc data =
  let env = Vm.Heap.env (Gc.heap gc) in
  let cost = env.Env.cost in
  let r = { data; pos = 0 } in
  if r_u32 r <> magic then err "bad magic";
  let types = read_types gc r in
  let n_objects = r_u32 r in
  (* Each record takes at least 4 bytes (its type index). *)
  if n_objects < 0 || n_objects > (Bytes.length r.data - r.pos) / 4 then
    err "implausible object count %d" n_objects;
  (* Pass 1: parse records and allocate every object; remember each
     record's payload position for the fixup pass. *)
  let handles = Array.make (n_objects + 1) None in
  let payload_pos = Array.make (n_objects + 1) 0 in
  let type_of = Array.make (n_objects + 1) (-1) in
  for id = 1 to n_objects do
    Env.charge env cost.deser_per_obj_ns;
    Env.count env Key.deser_objects;
    let ti = r_u32 r in
    if ti < 0 || ti >= Array.length types then err "bad type index %d" ti;
    type_of.(id) <- ti;
    payload_pos.(id) <- r.pos;
    match types.(ti) with
    | R_class mt ->
        handles.(id) <- Some (Om.alloc_instance gc mt);
        (* Skip the payload: prim fields inline, refs as u32 ids. *)
        Array.iter
          (fun (fd : Classes.field_desc) ->
            match fd.Classes.f_type with
            | Types.Prim p -> r_skip r (Types.prim_size p)
            | Types.Ref _ -> r_skip r 4)
          mt.Classes.c_fields
    | R_array elem ->
        let len = r_u32 r in
        if len < 0 then err "negative array length %d" len;
        let esz =
          match elem with
          | Types.Eprim p -> Types.prim_size p
          | Types.Eref _ -> 4
        in
        (* Validate the payload bounds before allocating managed memory,
           so corrupt lengths cannot balloon the heap. *)
        r_skip r (len * esz);
        handles.(id) <- Some (Om.alloc_array gc elem len)
    | R_md (elem, rank) ->
        let dims = Array.init rank (fun _ -> r_u32 r) in
        Array.iter
          (fun d -> if d < 0 then err "negative array dimension %d" d)
          dims;
        let n = Array.fold_left ( * ) 1 dims in
        let esz =
          match elem with
          | Types.Eprim p -> Types.prim_size p
          | Types.Eref _ -> 4
        in
        r_skip r (n * esz);
        handles.(id) <- Some (Om.alloc_md_array gc elem dims)
  done;
  let root_id = r_u32 r in
  let handle_of id =
    if id = 0 then None
    else if id < 0 || id > n_objects then err "object id %d out of range" id
    else
      match handles.(id) with
      | Some h -> Some h
      | None -> err "dangling object id %d" id
  in
  (* Pass 2: fill payloads and patch references. *)
  for id = 1 to n_objects do
    let o = match handles.(id) with Some h -> h | None -> assert false in
    let rr = { data; pos = payload_pos.(id) } in
    match types.(type_of.(id)) with
    | R_class mt ->
        Array.iter
          (fun (fd : Classes.field_desc) ->
            Env.charge env cost.ser_per_field_ns;
            match fd.Classes.f_type with
            | Types.Prim p ->
                let size = Types.prim_size p in
                let addr = Om.addr_of gc o in
                Heap.blit_in (Gc.heap gc) ~src:rr.data ~src_off:rr.pos
                  ~dst:(Heap.data_of addr + fd.Classes.f_offset)
                  ~len:size;
                Env.charge_per_byte env cost.deser_ns_per_byte size;
                rr.pos <- rr.pos + size
            | Types.Ref _ ->
                let target = r_u32 rr in
                Om.set_ref gc o fd (handle_of target))
          mt.Classes.c_fields
    | R_array elem -> (
        let len = r_u32 rr in
        match elem with
        | Types.Eprim p ->
            let size = len * Types.prim_size p in
            let addr = Om.addr_of gc o in
            Heap.blit_in (Gc.heap gc) ~src:rr.data ~src_off:rr.pos
              ~dst:(Heap.data_of addr + 4)
              ~len:size;
            Env.charge_per_byte env cost.deser_ns_per_byte size
        | Types.Eref _ ->
            for i = 0 to len - 1 do
              Env.charge env cost.ser_per_field_ns;
              Om.set_elem_ref gc o i (handle_of (r_u32 rr))
            done)
    | R_md (elem, rank) -> (
        let dims = Array.init rank (fun _ -> r_u32 rr) in
        let n = Array.fold_left ( * ) 1 dims in
        match elem with
        | Types.Eprim p ->
            let size = n * Types.prim_size p in
            let addr = Om.addr_of gc o in
            Heap.blit_in (Gc.heap gc) ~src:rr.data ~src_off:rr.pos
              ~dst:(Heap.data_of addr + (4 * rank))
              ~len:size;
            Env.charge_per_byte env cost.deser_ns_per_byte size
        | Types.Eref _ ->
            for i = 0 to n - 1 do
              Env.charge env cost.ser_per_field_ns;
              Om.set_elem_ref gc o i (handle_of (r_u32 rr))
            done)
  done;
  (* Release every temporary handle except the root's. *)
  let root =
    if root_id = 0 then Om.null gc
    else if root_id < 0 || root_id > n_objects then
      err "root id %d out of range" root_id
    else
      match handles.(root_id) with
      | Some h -> h
      | None -> err "bad root id %d" root_id
  in
  for id = 1 to n_objects do
    if id <> root_id then
      match handles.(id) with
      | Some h -> Om.free gc h
      | None -> ()
  done;
  root

let deserialize gc data =
  let env = Vm.Heap.env (Gc.heap gc) in
  Env.with_timer env Key.h_ser_decode (fun () ->
      Simtime.Probe.with_span env ~rank:(-1) ~cat:"ser" ~name:"ser/decode"
        (fun () -> deserialize_pass gc data))

(* ------------------------------------------------------------------ *)
(* Split representation                                                *)
(* ------------------------------------------------------------------ *)

let split gc ~visited obj ~parts =
  if parts < 1 then err "split: need at least one part";
  let len = Om.array_length gc obj in
  let base = len / parts and extra = len mod parts in
  let segments = Array.make parts Bytes.empty in
  let offset = ref 0 in
  for i = 0 to parts - 1 do
    let count = base + (if i < extra then 1 else 0) in
    segments.(i) <-
      serialize_array_slice gc ~visited obj ~offset:!offset ~count;
    offset := !offset + count
  done;
  segments

let concat_arrays gc roots =
  match roots with
  | [] -> err "concat_arrays: no segments"
  | first :: _ ->
      let elem = Om.array_elem_type gc first in
      (match elem with
      | Types.Eref _ -> ()
      | Types.Eprim _ -> err "concat_arrays: not a reference array");
      let total =
        List.fold_left (fun acc o -> acc + Om.array_length gc o) 0 roots
      in
      let combined = Om.alloc_array gc elem total in
      let pos = ref 0 in
      List.iter
        (fun o ->
          let n = Om.array_length gc o in
          for i = 0 to n - 1 do
            let e = Om.get_elem_ref gc o i in
            Om.set_elem_ref gc combined !pos e;
            (match e with Some h -> Om.free gc h | None -> ());
            incr pos
          done)
        roots;
      combined

let object_count data =
  let r = { data; pos = 0 } in
  if r_u32 r <> magic then err "bad magic";
  let n_types = r_u32 r in
  for _ = 1 to n_types do
    match r_u8 r with
    | 0 ->
        let _ = r_str r in
        let n_fields = r_u16 r in
        r.pos <- r.pos + n_fields
    | 1 ->
        let _ = r_str r in
        r.pos <- r.pos + 1
    | 2 ->
        let _ = r_str r in
        r.pos <- r.pos + 2
    | k -> err "bad type kind %d" k
  done;
  r_u32 r
