(* Layer-neutral span emission.

   The VM and serializer live below the MPI library, so they cannot call
   Mpi_core.Trace directly; instead every layer emits spans into its
   environment's sink, and Trace installs one there when tracing is
   enabled. With no sink, emission is one field read — safe on hot paths:
   the args are a thunk that only a sink forces, so a disabled span
   builds no strings. *)

type kind = Env.span_kind = Begin | End | Instant
type sink = Env.sink

let set_sink (env : Env.t) sink = env.sink <- Some sink
let clear_sink (env : Env.t) = env.sink <- None

let no_args () = []

let emit (env : Env.t) ~kind ?id ~rank ~cat ~name ?(args = no_args) () =
  match env.sink with
  | Some sink -> sink ~kind ~id ~rank ~cat ~name ~args
  | None -> ()

let span_begin env ?id ~rank ~cat ~name ?args () =
  emit env ~kind:Begin ?id ~rank ~cat ~name ?args ()

let span_end env ?id ~rank ~cat ~name ?args () =
  emit env ~kind:End ?id ~rank ~cat ~name ?args ()

let with_span env ~rank ~cat ~name ?args f =
  span_begin env ~rank ~cat ~name ?args ();
  Fun.protect ~finally:(fun () -> span_end env ~rank ~cat ~name ()) f
