(* Layer-neutral span emission.

   The VM and serializer live below the MPI library, so they cannot call
   Mpi_core.Trace directly; instead every layer emits spans through this
   registry and Trace installs itself as the sink when tracing is enabled
   on an environment. With no sink installed, emission is a registry miss
   — safe on hot paths, exactly like Trace.record: the args are a thunk
   that only a sink forces, so a disabled span builds no strings. *)

type kind = Begin | End | Instant

type sink =
  kind:kind ->
  id:int option ->
  rank:int ->
  cat:string ->
  name:string ->
  args:(unit -> (string * string) list) ->
  unit

(* Environments are few and long-lived (same reasoning as the Trace
   registry): a small association list keyed by identity is enough. The
   list lives in an [Atomic] because under parallel execution every
   domain reads it on emission (and a main-domain enable/disable could
   race a spawned domain's read); each domain emits only into its own
   environment's sink, so the sinks themselves stay single-domain. *)
let sinks : (Env.t * sink) list Atomic.t = Atomic.make []

let rec update f =
  let cur = Atomic.get sinks in
  if not (Atomic.compare_and_set sinks cur (f cur)) then update f

let set_sink env sink =
  update (fun l -> (env, sink) :: List.filter (fun (e, _) -> not (e == env)) l)

let clear_sink env = update (List.filter (fun (e, _) -> not (e == env)))
let installed () = List.length (Atomic.get sinks)

let no_args () = []

let emit env ~kind ?id ~rank ~cat ~name ?(args = no_args) () =
  match
    List.find_map
      (fun (e, s) -> if e == env then Some s else None)
      (Atomic.get sinks)
  with
  | Some sink -> sink ~kind ~id ~rank ~cat ~name ~args
  | None -> ()

let span_begin env ?id ~rank ~cat ~name ?args () =
  emit env ~kind:Begin ?id ~rank ~cat ~name ?args ()

let span_end env ?id ~rank ~cat ~name ?args () =
  emit env ~kind:End ?id ~rank ~cat ~name ?args ()

let instant env ~rank ~cat ~name ?args () =
  emit env ~kind:Instant ~rank ~cat ~name ?args ()

let with_span env ~rank ~cat ~name ?args f =
  span_begin env ~rank ~cat ~name ?args ();
  Fun.protect ~finally:(fun () -> span_end env ~rank ~cat ~name ()) f
