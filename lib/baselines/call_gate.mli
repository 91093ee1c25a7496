(** Managed-to-native call mechanisms: P/Invoke and JNI.

    Unlike Motor's FCall, these gateways marshal every argument, run
    security checks, and — crucially — the native code on the far side
    cannot yield to the garbage collector: a pending collection stays
    pending for the duration of the call (paper Sections 2.2, 5.1). *)

type mechanism = Pinvoke | Jni

val enter : mechanism -> Simtime.Env.t -> args:int -> unit
(** Charge the base cost plus per-argument marshalling; bump the
    corresponding counter. Performs no GC poll, by design. *)

