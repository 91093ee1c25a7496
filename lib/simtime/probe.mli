(** Layer-neutral span emission.

    Subsystems below the MPI library (the GC, the serializer, the call
    gates) cannot depend on [Mpi_core.Trace]; they emit typed span events
    here instead, into the sink their environment holds ({!Env.t}'s
    [sink] field). [Trace.enable] installs one that forwards them into
    its ring buffer. Without a sink, emission is one field read and
    allocates nothing.

    Spans come in two flavours, mirroring the Chrome trace format they
    export to: {e sync} spans (no [id]) must nest properly per rank —
    begin/end brackets around a scope on one fiber; {e async} spans carry
    an [id] and may overlap freely (a rendezvous in flight, a collective
    schedule trickling forward). [Instant] events are the device events
    of [Mpi_core.Trace.record]: their category is empty and their args
    hold one pair whose value is the event's detail line. *)

type kind = Env.span_kind = Begin | End | Instant

type sink = Env.sink
(** A sink receives the event's key/value args as a thunk: it forces it
    at most once, or never if it does not record args. *)

val set_sink : Env.t -> sink -> unit
(** Install (or replace) the environment's sink. Like {!clear_sink},
    call it only while no domain is running the environment's ranks. *)

val clear_sink : Env.t -> unit
(** Leave the environment with no sink. *)

val span_begin :
  Env.t ->
  ?id:int ->
  rank:int ->
  cat:string ->
  name:string ->
  ?args:(unit -> (string * string) list) ->
  unit ->
  unit

val span_end :
  Env.t ->
  ?id:int ->
  rank:int ->
  cat:string ->
  name:string ->
  ?args:(unit -> (string * string) list) ->
  unit ->
  unit

val with_span :
  Env.t ->
  rank:int ->
  cat:string ->
  name:string ->
  ?args:(unit -> (string * string) list) ->
  (unit -> 'a) ->
  'a
(** Sync span around a scope; the end event is emitted even on raise. *)
