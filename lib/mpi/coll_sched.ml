(* The collective schedule engine (MPICH's MPIR_Sched / TSP analogue).

   A collective algorithm no longer *runs*; it *compiles* into a per-rank
   schedule — a DAG of steps over the device layer — which the progress
   engine executes incrementally. The DAG shape is the restricted one
   MPICH uses: steps are grouped into rounds, and a round may start only
   when every step of all earlier rounds has completed (the
   "sched_barrier" dependency rule). That is exactly the dependency
   structure of the round-based algorithms in {!Collectives}
   (dissemination barrier, binomial trees, recursive doubling / halving,
   rings), so nothing is lost, and the builder API stays a straight-line
   transcription of the blocking loops it replaces.

   Execution is driven by {!Ch3.progress} through a progress hook: every
   progress pump advances every in-flight schedule on the device, which
   is what makes the collectives genuinely nonblocking — a rank can
   compute, or run other collectives on disjoint tag ranges, while its
   schedule trickles forward underneath. Completion of the generalized
   {!Request.t} (kind [Coll_req]) is "all steps done", which is all the
   GC's conditional-pin mechanism needs to poll collective buffers in the
   mark phase. *)

type action =
  | Isend of { dst : int; tag : int; view : Buffer_view.t }
  | Irecv of { src : int; tag : int; view : Buffer_view.t }
  | Reduce of { label : string; f : unit -> unit }
  | Copy of { src : Buffer_view.t; dst : Buffer_view.t }

type state = Pending | Started | Done

type step = {
  s_round : int;
  s_action : action;
  mutable s_state : state;
}

type t = {
  sc_dev : Ch3.t;
  sc_context : int;
  sc_name : string;
  sc_hist : Simtime.Stats.histogram;  (* per-schedule step histogram *)
  sc_steps : step array;
  sc_req : Request.t;
  mutable sc_cursor : int;  (* steps before this index are all Done *)
  mutable sc_hook : int option;
}

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type kind = { k_name : string; k_hist : Simtime.Stats.histogram }

let kind name =
  let step = Simtime.Stats.(histogram_name Key.h_sched_step) in
  { k_name = name; k_hist = Simtime.Stats.histogram (step ^ "/" ^ name) }

type builder = {
  b_dev : Ch3.t;
  b_context : int;
  b_kind : kind;
  mutable b_round : int;
  mutable b_open : bool;  (* the current round has steps *)
  mutable b_rev_steps : step list;
  mutable b_started : bool;
}

let make dev ~context kind =
  {
    b_dev = dev;
    b_context = context;
    b_kind = kind;
    b_round = 0;
    b_open = false;
    b_rev_steps = [];
    b_started = false;
  }

let add b action =
  b.b_rev_steps <-
    { s_round = b.b_round; s_action = action; s_state = Pending }
    :: b.b_rev_steps;
  b.b_open <- true

let isend b ~dst ~tag view = add b (Isend { dst; tag; view })
let irecv b ~src ~tag view = add b (Irecv { src; tag; view })
let reduce b ?(label = "op") f = add b (Reduce { label; f })
let copy b ~src ~dst = add b (Copy { src; dst })

(* The dependency rule: everything scheduled after a fence waits for
   everything scheduled before it. An empty round is collapsed, so a
   defensive fence at the head or tail of a phase costs nothing. *)
let fence b =
  if b.b_open then begin
    b.b_round <- b.b_round + 1;
    b.b_open <- false
  end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let describe_action = function
  | Isend { dst; tag; view } ->
      Printf.sprintf "isend dst=%d tag=%d %dB" dst tag
        (Buffer_view.length view)
  | Irecv { src; tag; view } ->
      Printf.sprintf "irecv src=%d tag=%d %dB" src tag
        (Buffer_view.length view)
  | Reduce { label; _ } -> Printf.sprintf "reduce %s" label
  | Copy { dst; _ } -> Printf.sprintf "copy %dB" (Buffer_view.length dst)

let trace_step sc op i (st : step) =
  Trace.record (Ch3.env sc.sc_dev) ~rank:(Ch3.rank sc.sc_dev) ~op
    ~detail:(fun () ->
      Printf.sprintf "%s[%d] r%d %s" sc.sc_name i st.s_round
        (describe_action st.s_action))

let finish sc =
  (match sc.sc_hook with
  | Some id ->
      Ch3.remove_progress_hook sc.sc_dev id;
      sc.sc_hook <- None
  | None -> ());
  Simtime.Probe.span_end (Ch3.env sc.sc_dev)
    ~id:(Request.id sc.sc_req)
    ~rank:(Ch3.rank sc.sc_dev) ~cat:"coll" ~name:sc.sc_name ();
  Trace.record (Ch3.env sc.sc_dev) ~rank:(Ch3.rank sc.sc_dev) ~op:"sched/done"
    ~detail:(fun () ->
      Printf.sprintf "%s %d step(s)%s" sc.sc_name (Array.length sc.sc_steps)
        (match Request.error sc.sc_req with
        | Some m -> " FAILED: " ^ m
        | None -> ""))

(* Mark [st] done when its device request retires; a failed transfer
   (truncation, rendezvous refused, a dead peer, a revoked context) fails
   the whole schedule — remaining steps are never started, and the waiter
   surfaces the error exactly as for point-to-point. Typed reasons
   (process failure, revocation) propagate unchanged so recovery code can
   branch on them. *)
let watch sc i st req =
  Request.on_complete req (fun () ->
      match Request.reason req with
      | Some (Request.Error msg) ->
          Request.fail sc.sc_req
            (Printf.sprintf "%s step %d (%s): %s" sc.sc_name i
               (describe_action st.s_action) msg)
      | Some ((Request.Proc_failed _ | Request.Comm_revoked _) as reason) ->
          Request.fail_reason sc.sc_req reason;
          (* A process failure inside a collective must surface at every
             member (ULFM): flood the abort to the peer devices, whose
             own steps may only involve live ranks and would otherwise
             wait forever on this one. Revocation already reaches every
             device through the revoked-context check. *)
          (match reason with
          | Request.Proc_failed peer ->
              Ch3.notify_coll_failed sc.sc_dev ~ctx:sc.sc_context ~peer
          | _ -> ())
      | None ->
          st.s_state <- Done;
          trace_step sc "sched/step-done" i st)

let start_step sc i st =
  st.s_state <- Started;
  (* Dispatching a step is not free: callback bookkeeping, completion
     counter, kickoff of the underlying operation (MPIR_Sched pays the
     same). The blocking engine charged the equivalent implicitly by
     rescheduling the calling fiber between rounds. *)
  let env = Ch3.env sc.sc_dev in
  Simtime.Env.with_timer env Simtime.Stats.Key.h_sched_step (fun () ->
      Simtime.Env.with_timer env sc.sc_hist (fun () ->
          Simtime.Env.charge env env.Simtime.Env.cost.sched_step_ns;
          trace_step sc "sched/step" i st;
          match st.s_action with
          | Isend { dst; tag; view } ->
              watch sc i st
                (Ch3.isend sc.sc_dev ~dst ~tag ~context:sc.sc_context view)
          | Irecv { src; tag; view } ->
              watch sc i st
                (Ch3.irecv sc.sc_dev ~src ~tag ~context:sc.sc_context view)
          | Reduce { f; _ } ->
              (* Operator application is not charged virtual time, matching
                 the blocking engine this replaces. *)
              f ();
              st.s_state <- Done;
              trace_step sc "sched/step-done" i st
          | Copy { src; dst } ->
              let len = Buffer_view.length dst in
              Buffer_view.write_all dst (Buffer_view.read_all src);
              Simtime.Env.charge_per_byte env
                env.Simtime.Env.cost.memcpy_ns_per_byte len;
              st.s_state <- Done;
              trace_step sc "sched/step-done" i st))

(* One advance pass: retire the Done prefix, then start every Pending
   step of the frontier round. Repeats while frontier steps complete
   synchronously (a Reduce/Copy, an eager send, a receive matched from
   the unexpected queue), so a locally-satisfiable chain of rounds costs
   one pump, not one per round. *)
let advance sc =
  let n = Array.length sc.sc_steps in
  let progressed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    if Request.is_complete sc.sc_req then begin
      (* Completed by a step failure: tear the hook down. *)
      if sc.sc_hook <> None then begin
        finish sc;
        progressed := true
      end
    end
    else begin
      while sc.sc_cursor < n && sc.sc_steps.(sc.sc_cursor).s_state = Done do
        sc.sc_cursor <- sc.sc_cursor + 1
      done;
      if sc.sc_cursor >= n then begin
        Request.complete sc.sc_req None;
        finish sc;
        progressed := true
      end
      else if sc.sc_steps.(sc.sc_cursor).s_state = Pending then begin
        (* Steps are appended round-by-round, so the array is sorted by
           round and a Done prefix reaching [cursor] certifies every
           earlier round complete: the frontier round may start. *)
        let round = sc.sc_steps.(sc.sc_cursor).s_round in
        let closed = ref true in
        let i = ref sc.sc_cursor in
        while !i < n && sc.sc_steps.(!i).s_round = round do
          let st = sc.sc_steps.(!i) in
          if st.s_state = Pending then begin
            start_step sc !i st;
            progressed := true
          end;
          if st.s_state <> Done then closed := false;
          incr i
        done;
        (* If the whole round retired synchronously, take another pass
           to open the next round (or complete). *)
        if !closed then continue_ := true
      end
    end
  done;
  !progressed

(* [advance] does nothing but retire the Done prefix while the first step
   past it waits on its device request: only an arrival or a failure
   completes that step, and the steps after it cannot start before it
   does. *)
let quiet sc =
  let n = Array.length sc.sc_steps in
  let i = ref sc.sc_cursor in
  while !i < n && sc.sc_steps.(!i).s_state = Done do
    incr i
  done;
  (not (Request.is_complete sc.sc_req))
  && !i < n
  && sc.sc_steps.(!i).s_state = Started

let info req =
  match Request.kind req with
  | Request.Coll_req { rounds; steps } -> Some (rounds, steps)
  | Request.Send_req | Request.Recv_req -> None

let start b =
  if b.b_started then invalid_arg "Coll_sched.start: schedule already started";
  b.b_started <- true;
  let steps = Array.of_list (List.rev b.b_rev_steps) in
  let rounds =
    if Array.length steps = 0 then 0
    else steps.(Array.length steps - 1).s_round + 1
  in
  let req =
    Request.create ~id:(Ch3.fresh_req_id b.b_dev)
      (Request.Coll_req { rounds; steps = Array.length steps })
  in
  let sc =
    {
      sc_dev = b.b_dev;
      sc_context = b.b_context;
      sc_name = b.b_kind.k_name;
      sc_hist = b.b_kind.k_hist;
      sc_steps = steps;
      sc_req = req;
      sc_cursor = 0;
      sc_hook = None;
    }
  in
  Ch3.track_request b.b_dev req;
  Simtime.Probe.span_begin (Ch3.env b.b_dev) ~id:(Request.id req)
    ~rank:(Ch3.rank b.b_dev) ~cat:"coll" ~name:sc.sc_name
    ~args:(fun () -> [ ("steps", string_of_int (Array.length steps)) ])
    ();
  Trace.record (Ch3.env b.b_dev) ~rank:(Ch3.rank b.b_dev) ~op:"sched/start"
    ~detail:(fun () ->
      Printf.sprintf "%s %d step(s) %d round(s)" sc.sc_name
        (Array.length steps) rounds);
  (* A collective started on an already-revoked communicator fails
     before any step runs (entry check ULFM prescribes for every op). *)
  if Ch3.ctx_revoked b.b_dev b.b_context then begin
    Request.fail_reason req (Request.Comm_revoked b.b_context);
    finish sc;
    req
  end
  else begin
    (* Post round 0 immediately (an empty schedule completes here); the
       device progress hook drives the rest. *)
    ignore (advance sc);
    if not (Request.is_complete req) then
      sc.sc_hook <-
        Some
          (Ch3.add_progress_hook ~ctx:b.b_context
             ~on_abort:(fun reason ->
               (* The context was revoked or the rank torn down: fail the
                  generalized request and close the span. The hook itself
                  was already dropped by the aborter. *)
               sc.sc_hook <- None;
               Request.fail_reason sc.sc_req reason;
               finish sc)
             ~quiet:(fun () -> quiet sc)
             b.b_dev
             (fun () -> advance sc));
    req
  end
