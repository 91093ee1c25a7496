(** The MIL interpreter (the execution engine standing in for the JIT).

    Each execution context owns a root scanner: reference values in live
    frames are updated when the collector moves objects, the interpreter
    analogue of jitted code's GC-tracked locals. Safepoint polling happens
    at calls and backward branches, as in the SSCLI (Section 5.2). *)

exception Runtime_error of string
exception Managed_stack_overflow

type t

type intcall_impl = Il.value array -> Il.value option
(** Implementation of an internal call. The argument array is kept
    registered as GC roots while the call runs; implementations that may
    trigger a collection must re-read reference arguments after doing so. *)

val create : ?fuel:int -> Gc.t -> Il.program -> t
(** [fuel] bounds total instructions executed (default unlimited); the
    managed call stack is bounded at 1024 frames. *)

val gc : t -> Gc.t
val program : t -> Il.program

val register_intcall :
  t -> string -> Verifier.intcall_sig -> intcall_impl -> unit
(** Raises [Invalid_argument] on duplicate names. *)

val verify : t -> unit
(** Verify the whole program against the registered internal calls. *)

val run_entry : t -> Il.value list -> Il.value option
(** Run the entry method. Raises {!Runtime_error} on managed faults (null
    reference, index out of bounds, division by zero, fuel exhaustion). *)
