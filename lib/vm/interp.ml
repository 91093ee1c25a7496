exception Runtime_error of string
exception Managed_stack_overflow

type intcall_impl = Il.value array -> Il.value option

type frame = {
  args : Il.value array;
  locals : Il.value array;
  stack : Il.value array;
  mutable sp : int;
}

type t = {
  gc : Gc.t;
  program : Il.program;
  intcalls : (string, Verifier.intcall_sig * intcall_impl) Hashtbl.t;
  fuel : int option;
  mutable frames : frame list;
  mutable executed : int;
}

let err fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

let scan_frames ctx visit =
  let scan_array arr limit =
    for i = 0 to limit - 1 do
      match arr.(i) with
      | Il.V_ref a when a <> Heap.null -> arr.(i) <- Il.V_ref (visit a)
      | Il.V_ref _ | Il.V_int _ | Il.V_float _ -> ()
    done
  in
  List.iter
    (fun f ->
      scan_array f.args (Array.length f.args);
      scan_array f.locals (Array.length f.locals);
      scan_array f.stack f.sp)
    ctx.frames

(* Bound on the managed call stack. *)
let max_depth = 1024

let create ?fuel gc program =
  let ctx =
    {
      gc;
      program;
      intcalls = Hashtbl.create 32;
      fuel;
      frames = [];
      executed = 0;
    }
  in
  Gc.add_scanner gc (scan_frames ctx);
  ctx

let gc t = t.gc
let program t = t.program

let register_intcall t name sg impl =
  if Hashtbl.mem t.intcalls name then
    invalid_arg ("Interp.register_intcall: duplicate " ^ name);
  Hashtbl.replace t.intcalls name (sg, impl)

let intcall_sig t name =
  Option.map fst (Hashtbl.find_opt t.intcalls name)

let verify t =
  Verifier.verify_program (Gc.registry t.gc) t.program
    ~intcall:(intcall_sig t)

(* Typed slot access for fields and array elements. *)

let read_slot gc slot (ftype : Types.field_type) =
  let h = Gc.heap gc in
  match ftype with
  | Types.Prim Types.I1 ->
      let v = Heap.get_u8 h slot in
      Il.V_int (Int64.of_int (if v > 127 then v - 256 else v))
  | Types.Prim Types.Bool -> Il.V_int (Int64.of_int (Heap.get_u8 h slot))
  | Types.Prim Types.Char ->
      Il.V_int (Int64.of_int (Heap.get_i16 h slot land 0xffff))
  | Types.Prim Types.I2 -> Il.V_int (Int64.of_int (Heap.get_i16 h slot))
  | Types.Prim Types.I4 -> Il.V_int (Int64.of_int (Heap.get_i32 h slot))
  | Types.Prim Types.I8 -> Il.V_int (Heap.get_i64 h slot)
  | Types.Prim Types.R4 -> Il.V_float (Heap.get_f32 h slot)
  | Types.Prim Types.R8 -> Il.V_float (Heap.get_f64 h slot)
  | Types.Ref _ -> Il.V_ref (Heap.get_ref h slot)

let write_slot gc slot (ftype : Types.field_type) v =
  let h = Gc.heap gc in
  match (ftype, v) with
  | Types.Prim (Types.I1 | Types.Bool), Il.V_int n ->
      Heap.set_u8 h slot (Int64.to_int n land 0xff)
  | Types.Prim (Types.I2 | Types.Char), Il.V_int n ->
      Heap.set_i16 h slot (Int64.to_int n)
  | Types.Prim Types.I4, Il.V_int n -> Heap.set_i32 h slot (Int64.to_int n)
  | Types.Prim Types.I8, Il.V_int n -> Heap.set_i64 h slot n
  | Types.Prim Types.R4, Il.V_float f -> Heap.set_f32 h slot f
  | Types.Prim Types.R8, Il.V_float f -> Heap.set_f64 h slot f
  | Types.Ref _, Il.V_ref a -> Heap.set_ref_raw h slot a
  | _ -> err "type confusion in slot write"

let field_type_of_elem = function
  | Types.Eprim p -> Types.Prim p
  | Types.Eref c -> Types.Ref c

let check_store_class gc cid value_addr =
  if value_addr <> Heap.null then begin
    let vmt = Gc.method_table_of gc value_addr in
    let obj_id = (Classes.object_class (Gc.registry gc)).Classes.c_id in
    if cid <> obj_id && vmt.Classes.c_id <> cid then
      err "cannot store %s into ref<%d> slot" vmt.Classes.c_name cid
  end

let as_int = function
  | Il.V_int n -> n
  | Il.V_float _ | Il.V_ref _ -> err "expected int on stack"

(* Row-major slot of an md-array element, with per-dimension bounds
   checks; the object's actual rank must match the instruction's. *)
let md_slot gc heap a elem rank idx =
  let mt = Gc.method_table_of gc a in
  (match mt.Classes.c_kind with
  | Classes.K_md_array (_, r) when r = rank -> ()
  | Classes.K_md_array (_, r) ->
      err "rank mismatch: array has rank %d, instruction expects %d" r rank
  | Classes.K_class | Classes.K_array _ ->
      err "%s is not a multidimensional array" mt.Classes.c_name);
  let data = Heap.data_of a in
  let flat = ref 0 in
  for d = 0 to rank - 1 do
    let dim = Heap.get_i32 heap (data + (4 * d)) in
    if idx.(d) < 0 || idx.(d) >= dim then
      err "index %d out of bounds [0,%d) in dimension %d" idx.(d) dim d;
    flat := (!flat * dim) + idx.(d)
  done;
  data + (4 * rank) + (!flat * Types.elem_size elem)

let as_float = function
  | Il.V_float f -> f
  | Il.V_int _ | Il.V_ref _ -> err "expected float on stack"

let as_ref = function
  | Il.V_ref a -> a
  | Il.V_int _ | Il.V_float _ -> err "expected ref on stack"

let rec exec ctx depth (m : Il.mth) args =
  if depth > max_depth then raise Managed_stack_overflow;
  let registry = Gc.registry ctx.gc in
  let heap = Gc.heap ctx.gc in
  let env = Heap.env heap in
  let instr_ns = env.Simtime.Env.cost.Simtime.Cost.managed_instr_ns in
  let frame =
    {
      args;
      locals = Array.of_list (List.map Il.default_value m.Il.m_locals);
      stack = Array.make 1024 (Il.V_int 0L);
      sp = 0;
    }
  in
  ctx.frames <- frame :: ctx.frames;
  let pop () =
    if frame.sp = 0 then err "stack underflow";
    frame.sp <- frame.sp - 1;
    frame.stack.(frame.sp)
  in
  let push v =
    if frame.sp >= Array.length frame.stack then err "stack overflow";
    frame.stack.(frame.sp) <- v;
    frame.sp <- frame.sp + 1
  in
  let code = m.Il.m_code in
  let n = Array.length code in
  let result = ref None in
  let pc = ref 0 in
  let running = ref true in
  (try
     while !running do
       if !pc >= n then err "fell off end of %s" m.Il.m_name;
       (match ctx.fuel with
       | Some max when ctx.executed >= max -> err "out of fuel"
       | Some _ | None -> ());
       ctx.executed <- ctx.executed + 1;
       if instr_ns > 0.0 then Simtime.Env.charge env instr_ns;
       let i = !pc in
       incr pc;
       match code.(i) with
       | Il.Nop -> ()
       | Il.Ldc_i v -> push (Il.V_int v)
       | Il.Ldc_f v -> push (Il.V_float v)
       | Il.Ldstr text ->
           Gc.poll ctx.gc;
           let len = String.length text in
           let mt = Classes.array_class registry (Types.Eprim Types.Char) in
           let a = Gc.alloc ctx.gc ~mt ~data_bytes:(4 + (len * 2)) in
           Heap.set_i32 heap (Heap.data_of a) len;
           String.iteri
             (fun i c ->
               Heap.set_i16 heap (Heap.data_of a + 4 + (2 * i)) (Char.code c))
             text;
           push (Il.V_ref a)
       | Il.Ldnull -> push (Il.V_ref Heap.null)
       | Il.Ldloc j -> push frame.locals.(j)
       | Il.Stloc j -> frame.locals.(j) <- pop ()
       | Il.Ldarg j -> push frame.args.(j)
       | Il.Starg j -> frame.args.(j) <- pop ()
       | Il.Add ->
           let b = as_int (pop ()) and a = as_int (pop ()) in
           push (Il.V_int (Int64.add a b))
       | Il.Sub ->
           let b = as_int (pop ()) and a = as_int (pop ()) in
           push (Il.V_int (Int64.sub a b))
       | Il.Mul ->
           let b = as_int (pop ()) and a = as_int (pop ()) in
           push (Il.V_int (Int64.mul a b))
       | Il.Div ->
           let b = as_int (pop ()) and a = as_int (pop ()) in
           if Int64.equal b 0L then err "division by zero";
           push (Il.V_int (Int64.div a b))
       | Il.Rem ->
           let b = as_int (pop ()) and a = as_int (pop ()) in
           if Int64.equal b 0L then err "division by zero";
           push (Il.V_int (Int64.rem a b))
       | Il.Neg -> push (Il.V_int (Int64.neg (as_int (pop ()))))
       | Il.Fadd ->
           let b = as_float (pop ()) and a = as_float (pop ()) in
           push (Il.V_float (a +. b))
       | Il.Fsub ->
           let b = as_float (pop ()) and a = as_float (pop ()) in
           push (Il.V_float (a -. b))
       | Il.Fmul ->
           let b = as_float (pop ()) and a = as_float (pop ()) in
           push (Il.V_float (a *. b))
       | Il.Fdiv ->
           let b = as_float (pop ()) and a = as_float (pop ()) in
           push (Il.V_float (a /. b))
       | Il.Fneg -> push (Il.V_float (-.as_float (pop ())))
       | Il.Conv_i -> push (Il.V_int (Int64.of_float (as_float (pop ()))))
       | Il.Conv_f -> push (Il.V_float (Int64.to_float (as_int (pop ()))))
       | Il.Ceq -> (
           let b = pop () and a = pop () in
           match (a, b) with
           | Il.V_int x, Il.V_int y ->
               push (Il.V_int (if Int64.equal x y then 1L else 0L))
           | Il.V_ref x, Il.V_ref y ->
               push (Il.V_int (if x = y then 1L else 0L))
           | _ -> err "ceq type confusion")
       | Il.Clt ->
           let b = as_int (pop ()) and a = as_int (pop ()) in
           push (Il.V_int (if Int64.compare a b < 0 then 1L else 0L))
       | Il.Cgt ->
           let b = as_int (pop ()) and a = as_int (pop ()) in
           push (Il.V_int (if Int64.compare a b > 0 then 1L else 0L))
       | Il.Fceq ->
           let b = as_float (pop ()) and a = as_float (pop ()) in
           push (Il.V_int (if a = b then 1L else 0L))
       | Il.Fclt ->
           let b = as_float (pop ()) and a = as_float (pop ()) in
           push (Il.V_int (if a < b then 1L else 0L))
       | Il.Fcgt ->
           let b = as_float (pop ()) and a = as_float (pop ()) in
           push (Il.V_int (if a > b then 1L else 0L))
       | Il.Br target ->
           if target <= i then Gc.poll ctx.gc;
           pc := target
       | Il.Brtrue target ->
           if not (Int64.equal (as_int (pop ())) 0L) then begin
             if target <= i then Gc.poll ctx.gc;
             pc := target
           end
       | Il.Brfalse target ->
           if Int64.equal (as_int (pop ())) 0L then begin
             if target <= i then Gc.poll ctx.gc;
             pc := target
           end
       | Il.Ldfld (cid, fidx) ->
           let a = as_ref (pop ()) in
           if a = Heap.null then err "null reference";
           let mt = Classes.find registry cid in
           let fd = Classes.field_by_index mt fidx in
           push
             (read_slot ctx.gc
                (Heap.data_of a + fd.Classes.f_offset)
                fd.Classes.f_type)
       | Il.Stfld (cid, fidx) ->
           let v = pop () in
           let a = as_ref (pop ()) in
           if a = Heap.null then err "null reference";
           let mt = Classes.find registry cid in
           let fd = Classes.field_by_index mt fidx in
           let slot = Heap.data_of a + fd.Classes.f_offset in
           (match (fd.Classes.f_type, v) with
           | Types.Ref fcid, Il.V_ref va ->
               check_store_class ctx.gc fcid va;
               Gc.record_write ctx.gc ~container:a ~value:va ~slot
           | _ -> ());
           write_slot ctx.gc slot fd.Classes.f_type v
       | Il.Isinst cid ->
           let a = as_ref (pop ()) in
           let obj_id = (Classes.object_class registry).Classes.c_id in
           let matches =
             a <> Heap.null
             && (cid = obj_id || (Gc.method_table_of ctx.gc a).Classes.c_id = cid)
           in
           push (Il.V_int (if matches then 1L else 0L))
       | Il.Newobj cid ->
           Gc.poll ctx.gc;
           let mt = Classes.find registry cid in
           let a =
             Gc.alloc ctx.gc ~mt ~data_bytes:mt.Classes.c_instance_size
           in
           push (Il.V_ref a)
       | Il.Newarr elem ->
           Gc.poll ctx.gc;
           let len = Int64.to_int (as_int (pop ())) in
           if len < 0 then err "negative array length";
           let mt = Classes.array_class registry elem in
           let data_bytes = 4 + (len * Types.elem_size elem) in
           let a = Gc.alloc ctx.gc ~mt ~data_bytes in
           Heap.set_i32 heap (Heap.data_of a) len;
           push (Il.V_ref a)
       | Il.Ldlen ->
           let a = as_ref (pop ()) in
           if a = Heap.null then err "null reference";
           push (Il.V_int (Int64.of_int (Heap.get_i32 heap (Heap.data_of a))))
       | Il.Ldelem elem ->
           let idx = Int64.to_int (as_int (pop ())) in
           let a = as_ref (pop ()) in
           if a = Heap.null then err "null reference";
           let len = Heap.get_i32 heap (Heap.data_of a) in
           if idx < 0 || idx >= len then
             err "index %d out of bounds [0,%d)" idx len;
           let slot =
             Heap.data_of a + 4 + (idx * Types.elem_size elem)
           in
           push (read_slot ctx.gc slot (field_type_of_elem elem))
       | Il.Stelem elem ->
           let v = pop () in
           let idx = Int64.to_int (as_int (pop ())) in
           let a = as_ref (pop ()) in
           if a = Heap.null then err "null reference";
           let len = Heap.get_i32 heap (Heap.data_of a) in
           if idx < 0 || idx >= len then
             err "index %d out of bounds [0,%d)" idx len;
           let slot =
             Heap.data_of a + 4 + (idx * Types.elem_size elem)
           in
           (match (elem, v) with
           | Types.Eref cid, Il.V_ref va ->
               check_store_class ctx.gc cid va;
               Gc.record_write ctx.gc ~container:a ~value:va ~slot
           | _ -> ());
           write_slot ctx.gc slot (field_type_of_elem elem) v
       | Il.Newmd (elem, rank) ->
           Gc.poll ctx.gc;
           let dims = Array.make rank 0 in
           for d = rank - 1 downto 0 do
             dims.(d) <- Int64.to_int (as_int (pop ()))
           done;
           Array.iter
             (fun d -> if d < 0 then err "negative array dimension")
             dims;
           let mt = Classes.md_array_class registry elem ~rank in
           let n = Array.fold_left ( * ) 1 dims in
           let data_bytes = (4 * rank) + (n * Types.elem_size elem) in
           let a = Gc.alloc ctx.gc ~mt ~data_bytes in
           Array.iteri
             (fun d dim -> Heap.set_i32 heap (Heap.data_of a + (4 * d)) dim)
             dims;
           push (Il.V_ref a)
       | Il.Ldelem_md (elem, rank) ->
           let idx = Array.make rank 0 in
           for d = rank - 1 downto 0 do
             idx.(d) <- Int64.to_int (as_int (pop ()))
           done;
           let a = as_ref (pop ()) in
           if a = Heap.null then err "null reference";
           let slot = md_slot ctx.gc heap a elem rank idx in
           push (read_slot ctx.gc slot (field_type_of_elem elem))
       | Il.Stelem_md (elem, rank) ->
           let v = pop () in
           let idx = Array.make rank 0 in
           for d = rank - 1 downto 0 do
             idx.(d) <- Int64.to_int (as_int (pop ()))
           done;
           let a = as_ref (pop ()) in
           if a = Heap.null then err "null reference";
           let slot = md_slot ctx.gc heap a elem rank idx in
           (match (elem, v) with
           | Types.Eref cid, Il.V_ref va ->
               check_store_class ctx.gc cid va;
               Gc.record_write ctx.gc ~container:a ~value:va ~slot
           | _ -> ());
           write_slot ctx.gc slot (field_type_of_elem elem) v
       | Il.Call mid ->
           Gc.poll ctx.gc;
           let callee = ctx.program.Il.methods.(mid) in
           let argc = List.length callee.Il.m_params in
           let cargs = Array.make argc (Il.V_int 0L) in
           for j = argc - 1 downto 0 do
             cargs.(j) <- pop ()
           done;
           (match exec ctx (depth + 1) callee cargs with
           | Some v -> push v
           | None -> ())
       | Il.Intcall name -> (
           match Hashtbl.find_opt ctx.intcalls name with
           | None -> err "unknown internal call %s" name
           | Some ((param_tys, _ret), impl) ->
               let argc = List.length param_tys in
               let cargs = Array.make argc (Il.V_int 0L) in
               for j = argc - 1 downto 0 do
                 cargs.(j) <- pop ()
               done;
               (* Protect intcall arguments across any collection the call
                  triggers by housing them in a pseudo-frame. *)
               let pseudo =
                 { args = cargs; locals = [||]; stack = [||]; sp = 0 }
               in
               ctx.frames <- pseudo :: ctx.frames;
               let res =
                 Fun.protect
                   ~finally:(fun () -> ctx.frames <- List.tl ctx.frames)
                   (fun () -> impl cargs)
               in
               (match res with Some v -> push v | None -> ()))
       | Il.Ret ->
           (match m.Il.m_ret with
           | Some _ -> result := Some (pop ())
           | None -> ());
           running := false
       | Il.Pop -> ignore (pop ())
       | Il.Dup ->
           let v = pop () in
           push v;
           push v
     done
   with e ->
     ctx.frames <- List.tl ctx.frames;
     raise e);
  ctx.frames <- List.tl ctx.frames;
  !result

let run_entry t args =
  let m = t.program.Il.methods.(t.program.Il.entry) in
  if List.length args <> List.length m.Il.m_params then
    err "%s expects %d arguments" m.Il.m_name (List.length m.Il.m_params);
  exec t 0 m (Array.of_list args)
