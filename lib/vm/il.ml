type value = V_int of int64 | V_float of float | V_ref of Heap.addr
type vtype = S_int | S_float | S_ref

type instr =
  | Nop
  | Ldc_i of int64
  | Ldc_f of float
  | Ldstr of string
  | Ldnull
  | Ldloc of int
  | Stloc of int
  | Ldarg of int
  | Starg of int
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Neg
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fneg
  | Conv_i
  | Conv_f
  | Ceq
  | Clt
  | Cgt
  | Fceq
  | Fclt
  | Fcgt
  | Br of int
  | Brtrue of int
  | Brfalse of int
  | Ldfld of Types.class_id * int
  | Stfld of Types.class_id * int
  | Isinst of Types.class_id
  | Newobj of Types.class_id
  | Newarr of Types.elem
  | Ldlen
  | Ldelem of Types.elem
  | Stelem of Types.elem
  | Newmd of Types.elem * int
  | Ldelem_md of Types.elem * int
  | Stelem_md of Types.elem * int
  | Call of int
  | Intcall of string
  | Ret
  | Pop
  | Dup

type mth = {
  m_id : int;
  m_name : string;
  m_params : Types.field_type list;
  m_ret : Types.field_type option;
  m_locals : Types.field_type list;
  m_code : instr array;
}

type program = {
  methods : mth array;
  entry : int;
}

let vtype_of_field_type = function
  | Types.Prim (Types.R4 | Types.R8) -> S_float
  | Types.Prim _ -> S_int
  | Types.Ref _ -> S_ref

let default_value = function
  | Types.Prim (Types.R4 | Types.R8) -> V_float 0.0
  | Types.Prim _ -> V_int 0L
  | Types.Ref _ -> V_ref Heap.null

let pp_vtype ppf t =
  Format.pp_print_string ppf
    (match t with S_int -> "int" | S_float -> "float" | S_ref -> "ref")

let pp_instr ppf = function
  | Nop -> Format.pp_print_string ppf "nop"
  | Ldc_i n -> Format.fprintf ppf "ldc.i %Ld" n
  | Ldc_f f -> Format.fprintf ppf "ldc.r %g" f
  | Ldstr s -> Format.fprintf ppf "ldstr %S" s
  | Ldnull -> Format.pp_print_string ppf "ldnull"
  | Ldloc i -> Format.fprintf ppf "ldloc %d" i
  | Stloc i -> Format.fprintf ppf "stloc %d" i
  | Ldarg i -> Format.fprintf ppf "ldarg %d" i
  | Starg i -> Format.fprintf ppf "starg %d" i
  | Add -> Format.pp_print_string ppf "add"
  | Sub -> Format.pp_print_string ppf "sub"
  | Mul -> Format.pp_print_string ppf "mul"
  | Div -> Format.pp_print_string ppf "div"
  | Rem -> Format.pp_print_string ppf "rem"
  | Neg -> Format.pp_print_string ppf "neg"
  | Fadd -> Format.pp_print_string ppf "fadd"
  | Fsub -> Format.pp_print_string ppf "fsub"
  | Fmul -> Format.pp_print_string ppf "fmul"
  | Fdiv -> Format.pp_print_string ppf "fdiv"
  | Fneg -> Format.pp_print_string ppf "fneg"
  | Conv_i -> Format.pp_print_string ppf "conv.i"
  | Conv_f -> Format.pp_print_string ppf "conv.r"
  | Ceq -> Format.pp_print_string ppf "ceq"
  | Clt -> Format.pp_print_string ppf "clt"
  | Cgt -> Format.pp_print_string ppf "cgt"
  | Fceq -> Format.pp_print_string ppf "fceq"
  | Fclt -> Format.pp_print_string ppf "fclt"
  | Fcgt -> Format.pp_print_string ppf "fcgt"
  | Br l -> Format.fprintf ppf "br %d" l
  | Brtrue l -> Format.fprintf ppf "brtrue %d" l
  | Brfalse l -> Format.fprintf ppf "brfalse %d" l
  | Ldfld (c, f) -> Format.fprintf ppf "ldfld %d:%d" c f
  | Stfld (c, f) -> Format.fprintf ppf "stfld %d:%d" c f
  | Isinst c -> Format.fprintf ppf "isinst %d" c
  | Newobj c -> Format.fprintf ppf "newobj %d" c
  | Newarr _ -> Format.pp_print_string ppf "newarr"
  | Ldlen -> Format.pp_print_string ppf "ldlen"
  | Ldelem _ -> Format.pp_print_string ppf "ldelem"
  | Stelem _ -> Format.pp_print_string ppf "stelem"
  | Newmd (_, r) -> Format.fprintf ppf "newmd/%d" r
  | Ldelem_md (_, r) -> Format.fprintf ppf "ldelem.md/%d" r
  | Stelem_md (_, r) -> Format.fprintf ppf "stelem.md/%d" r
  | Call m -> Format.fprintf ppf "call %d" m
  | Intcall s -> Format.fprintf ppf "intcall %s" s
  | Ret -> Format.pp_print_string ppf "ret"
  | Pop -> Format.pp_print_string ppf "pop"
  | Dup -> Format.pp_print_string ppf "dup"

let pp_method ppf m =
  Format.fprintf ppf ".method %s  (%d params, %d locals)@." m.m_name
    (List.length m.m_params) (List.length m.m_locals);
  Array.iteri
    (fun pc instr -> Format.fprintf ppf "  %4d: %a@." pc pp_instr instr)
    m.m_code

let pp_program ppf p =
  Array.iter
    (fun m ->
      pp_method ppf m;
      Format.pp_print_newline ppf ())
    p.methods;
  Format.fprintf ppf "entry: %s@." p.methods.(p.entry).m_name
