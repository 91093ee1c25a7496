module Key = Simtime.Stats.Key

exception Mpi_error of string

type send_mode = Standard | Synchronous

type pending_send = {
  ps_source : Buffer_view.t;
  ps_dst : int;
  ps_ctx : int;
  ps_req : Request.t;
}

type pending_recv = {
  pr_sink : Buffer_view.t;
  pr_env : Packet.envelope;
  pr_req : Request.t;
}

type t = {
  rank : int;
  env : Simtime.Env.t;
  chan : Channel.t;
  queues : Queues.t;
  pending_sends : (int, pending_send) Hashtbl.t;
  pending_recvs : (int, pending_recv) Hashtbl.t;
  mutable seq : int;
  mutable outstanding : int;
  fresh_id : unit -> int;
  (* Progress hooks: the schedule engine (Coll_sched) registers one
     closure per in-flight collective; [progress] invokes them after
     draining the channel so schedules advance on every pump, exactly as
     MPICH's progress engine drives MPIR_Sched. A hook returns true if
     it made progress (started or retired a step). Hooks may carry their
     schedule's context id and an abort callback so failure teardown and
     communicator revocation can cancel in-flight schedules cleanly. *)
  mutable hooks : hook list;
  mutable next_hook : int;
  (* Observer invoked at every match decision (posted receive meets
     message), with the matched envelope — the hook the schedule
     explorer's non-overtaking invariant builds on. *)
  mutable on_match : (Packet.envelope -> unit) option;
  (* The world's failure service, if it has one: [progress] runs its
     tick (heartbeat + sweep), operations consult its revocation
     registry and declared-dead set, and a collective failing with a
     process failure floods through it. *)
  ft : Ft.t option;
}

and hook = {
  h_id : int;
  h_fn : unit -> bool;
  h_quiet : unit -> bool;
  h_ctx : int option;
  h_abort : (Request.reason -> unit) option;
}

let create ?ft env chan ~rank ~fresh_id =
  {
    rank;
    env;
    chan;
    queues = Queues.create env;
    pending_sends = Hashtbl.create 8;
    pending_recvs = Hashtbl.create 8;
    seq = 0;
    outstanding = 0;
    fresh_id;
    hooks = [];
    next_hook = 0;
    on_match = None;
    ft;
  }

let rank t = t.rank
let env t = t.env
let queues t = t.queues
let fresh_req_id t = t.fresh_id ()
let outstanding t = t.outstanding

let pending_rendezvous t =
  Hashtbl.length t.pending_sends + Hashtbl.length t.pending_recvs

let charge_request t =
  Simtime.Env.charge t.env t.env.Simtime.Env.cost.request_ns

let track t req =
  t.outstanding <- t.outstanding + 1;
  Request.on_complete req (fun () -> t.outstanding <- t.outstanding - 1);
  req

let track_request t req = ignore (track t req)

let add_progress_hook ?ctx ?on_abort ~quiet t fn =
  let id = t.next_hook in
  t.next_hook <- id + 1;
  t.hooks <-
    { h_id = id; h_fn = fn; h_quiet = quiet; h_ctx = ctx; h_abort = on_abort }
    :: t.hooks;
  id

let remove_progress_hook t id =
  t.hooks <- List.filter (fun h -> h.h_id <> id) t.hooks

let notify_coll_failed t ~ctx ~peer =
  match t.ft with Some ft -> Ft.coll_failed ft ~ctx ~peer | None -> ()

let ctx_revoked t ctx =
  match t.ft with Some ft -> Ft.is_revoked ft ctx | None -> false

let peer_dead t peer =
  match t.ft with Some ft -> Ft.is_down ft peer | None -> false

let progress_hook_count t = List.length t.hooks
let set_match_observer t obs = t.on_match <- obs

let notify_match t envelope =
  match t.on_match with Some f -> f envelope | None -> ()

let fits_error (env : Packet.envelope) (sink : Buffer_view.t) =
  if env.Packet.e_bytes > sink.Buffer_view.len then
    Some
      (Printf.sprintf
         "message truncated: %d bytes arriving into a %d-byte buffer"
         env.Packet.e_bytes sink.Buffer_view.len)
  else None

let status_of (env : Packet.envelope) =
  {
    Status.source = env.Packet.e_src;
    tag = env.Packet.e_tag;
    bytes = env.Packet.e_bytes;
  }

let isend t ~dst ~tag ~context ?(mode = Standard) source =
  let t0 = Simtime.Env.now_ns t.env in
  charge_request t;
  let req = Request.create ~id:(t.fresh_id ()) Request.Send_req in
  if ctx_revoked t context then begin
    Request.fail_reason req (Request.Comm_revoked context);
    req
  end
  else if peer_dead t dst then begin
    (* ULFM semantics: an operation naming a failed peer completes with
       MPI_ERR_PROC_FAILED instead of hanging. *)
    Request.fail_reason req (Request.Proc_failed dst);
    req
  end
  else begin
  let len = Buffer_view.length source in
  t.seq <- t.seq + 1;
  let envelope =
    {
      Packet.e_src = t.rank;
      e_dst = dst;
      e_tag = tag;
      e_context = context;
      e_bytes = len;
      e_seq = t.seq;
    }
  in
  let eager =
    match mode with
    | Standard -> len <= t.env.Simtime.Env.cost.eager_threshold_bytes
    | Synchronous -> false
  in
  Trace.record t.env ~rank:t.rank
    ~op:(if eager then "isend" else "isend/rndv")
    ~detail:(fun () -> Printf.sprintf "dst=%d tag=%d %dB" dst tag len);
  if eager then begin
    Simtime.Probe.span_begin t.env ~rank:t.rank ~cat:"ch3" ~name:"eager"
      ~args:(fun () ->
        [ ("dst", string_of_int dst); ("bytes", string_of_int len) ])
      ();
    let data = Bytes.create len in
    source.Buffer_view.blit_to ~pos:0 ~dst:data ~dst_off:0 ~len;
    t.chan.Channel.send ~src:t.rank ~dst (Packet.Eager (envelope, data));
    Simtime.Env.count t.env Key.eager_sends;
    Request.complete req None;
    let dt = Simtime.Env.now_ns t.env -. t0 in
    Simtime.Env.observe t.env Key.h_ch3_send dt;
    Simtime.Env.observe t.env Key.h_ch3_eager dt;
    Simtime.Probe.span_end t.env ~rank:t.rank ~cat:"ch3" ~name:"eager" ();
    req
  end
  else begin
    let id = t.fresh_id () in
    Hashtbl.replace t.pending_sends id
      { ps_source = source; ps_dst = dst; ps_ctx = context; ps_req = req };
    Simtime.Probe.span_begin t.env ~id ~rank:t.rank ~cat:"ch3" ~name:"rndv"
      ~args:(fun () ->
        [ ("dst", string_of_int dst); ("bytes", string_of_int len) ])
      ();
    (* Sender-side cost of a rendezvous transfer: RTS to local
       completion (data handed to the wire after CTS, or failure). *)
    Request.on_complete req (fun () ->
        let dt = Simtime.Env.now_ns t.env -. t0 in
        Simtime.Env.observe t.env Key.h_ch3_send dt;
        Simtime.Env.observe t.env Key.h_ch3_rndv dt;
        Simtime.Probe.span_end t.env ~id ~rank:t.rank ~cat:"ch3" ~name:"rndv"
          ());
    t.chan.Channel.send ~src:t.rank ~dst (Packet.Rts (envelope, id));
    Simtime.Env.count t.env Key.rndv_sends;
    ignore (track t req);
    req
  end
  end

let accept_rts t (envelope : Packet.envelope) rndv_id (sink : Buffer_view.t)
    req =
  match fits_error envelope sink with
  | Some msg ->
      (* Refuse the transfer instead of leaking it: fail the local
         receive and NAK the sender so its pending_sends entry (and
         request) are released too. *)
      Request.fail req msg;
      t.chan.Channel.send ~src:t.rank ~dst:envelope.Packet.e_src
        (Packet.Nak (rndv_id, msg))
  | None ->
      Hashtbl.replace t.pending_recvs rndv_id
        { pr_sink = sink; pr_env = envelope; pr_req = req };
      t.chan.Channel.send ~src:t.rank ~dst:envelope.Packet.e_src
        (Packet.Cts rndv_id)

let deliver_eager t (envelope : Packet.envelope) data
    (sink : Buffer_view.t) req ~buffered =
  match fits_error envelope sink with
  | Some msg -> Request.fail req msg
  | None ->
      let len = Bytes.length data in
      sink.Buffer_view.blit_from ~pos:0 ~src:data ~src_off:0 ~len;
      (* A message that sat in the unexpected queue costs one extra copy; a
         matched receive lands directly in the user buffer. *)
      if buffered then
        Simtime.Env.charge_per_byte t.env
          t.env.Simtime.Env.cost.memcpy_ns_per_byte len;
      Request.complete req (Some (status_of envelope))

let irecv t ~src ~tag ~context sink =
  charge_request t;
  Trace.record t.env ~rank:t.rank ~op:"irecv"
    ~detail:(fun () ->
      Printf.sprintf "src=%d tag=%d %dB" src tag (Buffer_view.length sink));
  let req = Request.create ~id:(t.fresh_id ()) Request.Recv_req in
  if ctx_revoked t context then begin
    Request.fail_reason req (Request.Comm_revoked context);
    req
  end
  else if src <> Tag_match.any_source && peer_dead t src then begin
    Request.fail_reason req (Request.Proc_failed src);
    req
  end
  else begin
  let pattern =
    { Tag_match.m_src = src; m_tag = tag; m_context = context }
  in
  (match Queues.take_unexpected t.queues pattern with
  | Some (Queues.U_eager (envelope, data)) ->
      notify_match t envelope;
      deliver_eager t envelope data sink req ~buffered:true
  | Some (Queues.U_rts (envelope, rndv_id)) ->
      notify_match t envelope;
      accept_rts t envelope rndv_id sink req;
      ignore (track t req)
  | None ->
      Queues.post_recv t.queues
        { Queues.p_pattern = pattern; p_sink = sink; p_req = req };
      ignore (track t req));
  req
  end

(* A control packet that no longer matches live rendezvous state is a
   stale duplicate (a retransmission whose original already landed, or a
   NAK/CTS crossing on the wire). On a lossy transport these are normal;
   they are counted and dropped, never fatal. *)
let stale_drop t what detail =
  Simtime.Env.count t.env Key.dup_drops;
  Trace.record t.env ~rank:t.rank ~op:"drop" ~detail:(fun () ->
      Printf.sprintf "stale %s: %s" what (detail ()))

let handle_packet t packet =
  let describe () = Packet.describe packet in
  Trace.record t.env ~rank:t.rank
    ~op:
      (match packet with
      | Packet.Eager _ -> "eager"
      | Packet.Rts _ -> "rts"
      | Packet.Cts _ -> "cts"
      | Packet.Rndv_data _ -> "data"
      | Packet.Nak _ -> "nak"
      | Packet.Frame _ -> "frame"
      | Packet.Ack _ -> "ack")
    ~detail:describe;
  match packet with
  | Packet.Eager (envelope, _)
    when ctx_revoked t envelope.Packet.e_context ->
      stale_drop t "eager on revoked comm" describe
  | Packet.(Eager (envelope, _) | Rts (envelope, _))
    when peer_dead t envelope.Packet.e_src ->
      (* In-flight traffic from a rank declared dead while the packet was
         on the wire: the failure model discards it (endpoints silent). *)
      stale_drop t "message from dead rank" describe
  | Packet.Rts (envelope, rndv_id)
    when ctx_revoked t envelope.Packet.e_context ->
      (* Refuse the transfer so the sender releases its rendezvous state
         (its own request was already failed when it aborted the
         context; the NAK covers senders outside the revoking world). *)
      stale_drop t "rts on revoked comm" describe;
      t.chan.Channel.send ~src:t.rank ~dst:envelope.Packet.e_src
        (Packet.Nak (rndv_id, "communicator revoked"))
  | Packet.Eager (envelope, data) -> (
      match Queues.take_posted t.queues envelope with
      | Some p ->
          notify_match t envelope;
          deliver_eager t envelope data p.Queues.p_sink p.Queues.p_req
            ~buffered:false
      | None ->
          Queues.add_unexpected t.queues (Queues.U_eager (envelope, data)))
  | Packet.Rts (envelope, rndv_id) -> (
      match Queues.take_posted t.queues envelope with
      | Some p ->
          notify_match t envelope;
          accept_rts t envelope rndv_id p.Queues.p_sink p.Queues.p_req
      | None ->
          Queues.add_unexpected t.queues (Queues.U_rts (envelope, rndv_id)))
  | Packet.Cts rndv_id -> (
      match Hashtbl.find_opt t.pending_sends rndv_id with
      | None -> stale_drop t "cts" describe
      | Some ps ->
          Hashtbl.remove t.pending_sends rndv_id;
          let len = Buffer_view.length ps.ps_source in
          let data = Bytes.create len in
          ps.ps_source.Buffer_view.blit_to ~pos:0 ~dst:data ~dst_off:0 ~len;
          t.chan.Channel.send ~src:t.rank ~dst:ps.ps_dst
            (Packet.Rndv_data (rndv_id, data));
          Request.complete ps.ps_req None)
  | Packet.Rndv_data (rndv_id, data) -> (
      match Hashtbl.find_opt t.pending_recvs rndv_id with
      | None -> stale_drop t "data" describe
      | Some pr ->
          Hashtbl.remove t.pending_recvs rndv_id;
          let len = Bytes.length data in
          pr.pr_sink.Buffer_view.blit_from ~pos:0 ~src:data ~src_off:0 ~len;
          Request.complete pr.pr_req (Some (status_of pr.pr_env)))
  | Packet.Nak (rndv_id, msg) -> (
      match Hashtbl.find_opt t.pending_sends rndv_id with
      | None -> stale_drop t "nak" describe
      | Some ps ->
          Hashtbl.remove t.pending_sends rndv_id;
          Request.fail ps.ps_req ("rendezvous refused by receiver: " ^ msg))
  | Packet.Frame _ | Packet.Ack _ ->
      (* Transport-layer framing leaking past a missing Reliable layer:
         not addressed to the device; drop rather than crash. *)
      stale_drop t "transport frame" describe

let progress t =
  Simtime.Env.charge t.env t.env.Simtime.Env.cost.progress_poll_ns;
  (* Failure detector first: beat this rank, sweep the others. Pending
     declarations may fail requests, which the hooks below observe. *)
  (match t.ft with Some ft -> Ft.tick ft ~rank:t.rank | None -> ());
  let did = ref false in
  let rec drain () =
    match t.chan.Channel.poll ~rank:t.rank with
    | Some packet ->
        did := true;
        handle_packet t packet;
        drain ()
    | None -> ()
  in
  drain ();
  (* Snapshot before invoking: a hook that completes its schedule removes
     itself (and completion callbacks may start new collectives, adding
     hooks) while we iterate. *)
  let hooks = t.hooks in
  List.iter (fun h -> if h.h_fn () then did := true) hooks;
  !did

(* What [progress] does while nothing can happen: charge one poll, and
   let the detector's tick beat. The channel stack's horizon covers
   arrivals and its own timers; the detector's covers declarations and
   kills. A finite channel horizon means this poll keeps the scheduler
   busy, and the detector's deadlines count only while something does. A
   hook that may act leaves the horizon unknown. *)
let idle_poll t =
  {
    Fiber.clock = t.env.Simtime.Env.clock;
    charges = [| t.env.Simtime.Env.cost.progress_poll_ns |];
    count =
      (fun _ ~at ->
        match t.ft with Some ft -> Ft.beat ft ~rank:t.rank at | None -> ());
    horizon =
      (fun () ->
        if List.for_all (fun h -> h.h_quiet ()) t.hooks then
          match (t.chan.Channel.next_arrival ~rank:t.rank, t.ft) with
          | Some a, Some ft ->
              Some (Float.min a (Ft.horizon ft ~busy:(a < Float.infinity)))
          | h, _ -> h
        else None);
  }

(* ------------------------------------------------------------------ *)
(* Failure teardown and communicator revocation                        *)
(* ------------------------------------------------------------------ *)

let abort_hooks t ~keep ~reason =
  let gone, kept = List.partition (fun h -> not (keep h)) t.hooks in
  (* Drop before aborting: an abort callback typically finishes its
     schedule, which calls remove_progress_hook — already gone is fine. *)
  t.hooks <- kept;
  List.iter
    (fun h -> match h.h_abort with Some f -> f reason | None -> ())
    gone

let fail_pending t ~keep_send ~keep_recv ~reason =
  let failed_sends =
    Hashtbl.fold
      (fun id ps acc -> if keep_send ps then acc else (id, ps) :: acc)
      t.pending_sends []
  in
  List.iter
    (fun (id, ps) ->
      Hashtbl.remove t.pending_sends id;
      Request.fail_reason ps.ps_req reason)
    failed_sends;
  let failed_recvs =
    Hashtbl.fold
      (fun id pr acc -> if keep_recv pr then acc else (id, pr) :: acc)
      t.pending_recvs []
  in
  List.iter
    (fun (id, pr) ->
      Hashtbl.remove t.pending_recvs id;
      Request.fail_reason pr.pr_req reason)
    failed_recvs

(* A peer was declared dead: everything on this device that can only be
   satisfied by that peer completes with [Proc_failed]. Receives from
   any-source stay posted (a survivor can still match them); unexpected
   messages the dead rank got onto the wire before dying are discarded —
   the fail-stop model's "endpoints go silent". *)
let fail_peer t ~peer =
  let reason = Request.Proc_failed peer in
  fail_pending t
    ~keep_send:(fun ps -> ps.ps_dst <> peer)
    ~keep_recv:(fun pr -> pr.pr_env.Packet.e_src <> peer)
    ~reason;
  Queues.remove_posted t.queues ~pred:(fun p ->
      p.Queues.p_pattern.Tag_match.m_src = peer)
  |> List.iter (fun p -> Request.fail_reason p.Queues.p_req reason);
  Queues.remove_unexpected t.queues ~pred:(fun u ->
      (match u with
       | Queues.U_eager (e, _) | Queues.U_rts (e, _) ->
           e.Packet.e_src = peer))
  |> List.iter (fun _ ->
         stale_drop t "message from dead rank" (fun () -> "purged"))

(* Revocation: cancel every operation on the context, including in-flight
   collective schedules (their abort hook fails the generalized request),
   so no pin, hook or rendezvous state leaks. *)
let abort_context t ~ctx ~reason =
  fail_pending t
    ~keep_send:(fun ps -> ps.ps_ctx <> ctx)
    ~keep_recv:(fun pr -> pr.pr_env.Packet.e_context <> ctx)
    ~reason;
  Queues.remove_posted t.queues ~pred:(fun p ->
      p.Queues.p_pattern.Tag_match.m_context = ctx)
  |> List.iter (fun p -> Request.fail_reason p.Queues.p_req reason);
  Queues.remove_unexpected t.queues ~pred:(fun u ->
      (match u with
       | Queues.U_eager (e, _) | Queues.U_rts (e, _) ->
           e.Packet.e_context = ctx))
  |> List.iter (function
       | Queues.U_rts (e, rndv_id) ->
           (* Release the sender's rendezvous state. *)
           t.chan.Channel.send ~src:t.rank ~dst:e.Packet.e_src
             (Packet.Nak (rndv_id, "communicator revoked"))
       | Queues.U_eager _ -> ());
  abort_hooks t ~keep:(fun h -> h.h_ctx <> Some ctx) ~reason

(* Fail-stop teardown of this device's own rank: every local endpoint
   dies with the fiber. *)
let purge t ~reason =
  fail_pending t ~keep_send:(fun _ -> false) ~keep_recv:(fun _ -> false)
    ~reason;
  Queues.remove_posted t.queues ~pred:(fun _ -> true)
  |> List.iter (fun p -> Request.fail_reason p.Queues.p_req reason);
  ignore (Queues.remove_unexpected t.queues ~pred:(fun _ -> true));
  abort_hooks t ~keep:(fun _ -> false) ~reason

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let describe_pending t =
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let show_reason req =
    match Request.error req with Some m -> " FAILED: " ^ m | None -> ""
  in
  Queues.iter_posted t.queues (fun p ->
      let pat = p.Queues.p_pattern in
      add "rank %d: recv req#%d src=%d tag=%d ctx=%d (posted)%s" t.rank
        (Request.id p.Queues.p_req)
        pat.Tag_match.m_src pat.Tag_match.m_tag pat.Tag_match.m_context
        (show_reason p.Queues.p_req));
  Hashtbl.iter
    (fun id ps ->
      add "rank %d: rndv-send req#%d dst=%d ctx=%d (rndv %d awaiting CTS)%s"
        t.rank (Request.id ps.ps_req) ps.ps_dst ps.ps_ctx id
        (show_reason ps.ps_req))
    t.pending_sends;
  Hashtbl.iter
    (fun id pr ->
      add "rank %d: rndv-recv req#%d src=%d tag=%d ctx=%d (rndv %d awaiting \
           DATA)%s"
        t.rank (Request.id pr.pr_req) pr.pr_env.Packet.e_src
        pr.pr_env.Packet.e_tag pr.pr_env.Packet.e_context id
        (show_reason pr.pr_req))
    t.pending_recvs;
  let unexpected = Queues.unexpected_length t.queues in
  if unexpected > 0 then
    add "rank %d: %d unexpected message(s) never received" t.rank unexpected;
  List.iter
    (fun h ->
      add "rank %d: progress hook #%d%s (in-flight schedule)" t.rank h.h_id
        (match h.h_ctx with
        | Some c -> Printf.sprintf " ctx=%d" c
        | None -> ""))
    t.hooks;
  List.rev !lines
