(** Layer-neutral span emission.

    Subsystems below the MPI library (the GC, the serializer, the call
    gates) cannot depend on [Mpi_core.Trace]; they emit typed span events
    here instead, and [Trace.enable] installs a sink per environment that
    forwards them into its ring buffer. Without a sink, emission is a
    cheap no-op.

    Spans come in two flavours, mirroring the Chrome trace format they
    export to: {e sync} spans (no [id]) must nest properly per rank —
    begin/end brackets around a scope on one fiber; {e async} spans carry
    an [id] and may overlap freely (a rendezvous in flight, a collective
    schedule trickling forward). *)

type kind = Begin | End | Instant

type sink =
  kind:kind ->
  id:int option ->
  rank:int ->
  cat:string ->
  name:string ->
  args:(unit -> (string * string) list) ->
  unit
(** A sink receives the span's key/value args as a thunk: it forces it
    at most once, or never if it does not record args. *)

val set_sink : Env.t -> sink -> unit
(** Install (or replace) the environment's sink. *)

val clear_sink : Env.t -> unit
val installed : unit -> int
(** Number of environments with a sink (leak tests). *)

val emit :
  Env.t ->
  kind:kind ->
  ?id:int ->
  rank:int ->
  cat:string ->
  name:string ->
  ?args:(unit -> (string * string) list) ->
  unit ->
  unit
(** Rank [-1] denotes the runtime itself (GC, serializer) rather than a
    communicating rank. [args] (default: none) is called only by an
    installed sink, so with no sink a call is one registry miss and
    formats nothing. *)

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

val instant :
  Env.t ->
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
