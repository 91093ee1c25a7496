(** Static bytecode verification.

    Abstract interpretation of each method's stack: every instruction's
    operand types are checked, merge points must agree on stack shape, and
    fallthrough past the end of a method is rejected. Programs that verify
    cannot underflow the evaluation stack or confuse references with
    numbers at runtime — the VM-level half of the safety argument the paper
    makes for running MPI applications on a managed runtime. *)

exception Verify_error of string

type intcall_sig = Types.field_type list * Types.field_type option
(** Parameter types and optional result type of an internal call. *)

val verify_program :
  Classes.t -> Il.program -> intcall:(string -> intcall_sig option) -> unit
