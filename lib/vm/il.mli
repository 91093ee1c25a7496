(** MIL — the runtime's processor-agnostic intermediate language.

    A small stack-based instruction set in the spirit of CIL: enough to
    write managed MPI applications (the paper's "compile once, run
    anywhere" programs) that run on this VM via {!Interp}, after static
    checking by {!Verifier}. *)

type value = V_int of int64 | V_float of float | V_ref of Heap.addr

(** Stack cell types used by the verifier. *)
type vtype = S_int | S_float | S_ref

type instr =
  | Nop
  | Ldc_i of int64
  | Ldc_f of float
  | Ldstr of string  (** allocates a char array holding the literal *)
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
  | Conv_i  (** float -> int *)
  | Conv_f  (** int -> float *)
  | Ceq
  | Clt
  | Cgt
  | Fceq
  | Fclt
  | Fcgt
  | Br of int
  | Brtrue of int
  | Brfalse of int
  | Ldfld of Types.class_id * int  (** class id, field index *)
  | Stfld of Types.class_id * int
  | Isinst of Types.class_id
      (** pops an object ref, pushes 1 if it is an instance of the class
          (or the class is System.Object), else 0; null gives 0 *)
  | Newobj of Types.class_id
  | Newarr of Types.elem  (** pops length *)
  | Ldlen
  | Ldelem of Types.elem  (** pops index, array *)
  | Stelem of Types.elem  (** pops value, index, array *)
  | Newmd of Types.elem * int
      (** true multidimensional array; pops the dimensions (first pushed
          first) *)
  | Ldelem_md of Types.elem * int  (** pops the indices, then the array *)
  | Stelem_md of Types.elem * int  (** pops value, indices, array *)
  | Call of int  (** method id *)
  | Intcall of string  (** internal (runtime) call by name *)
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
  methods : mth array;  (** index = method id *)
  entry : int;  (** id of the entry method *)
}

val vtype_of_field_type : Types.field_type -> vtype
val default_value : Types.field_type -> value
val pp_vtype : Format.formatter -> vtype -> unit

val pp_program : Format.formatter -> program -> unit
