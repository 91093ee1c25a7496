(* The process-failure service (ULFM's RTE analogue).

   One instance per world, shared by every rank — the moral equivalent of
   the runtime's out-of-band failure plumbing. It owns three pieces of
   state:

   - the {e life cycle} of each rank: Alive -> (Finished | Torn_down ->
     Dead). A kill event (Fault.kill) tears the rank's fiber down
     (Torn_down); the heartbeat detector later *declares* it Dead, which
     is when survivors' pending operations fail with [Proc_failed] —
     detection is asynchronous, exactly as in a real cluster;
   - the {e heartbeat detector}: every progress pump "beats" the pumping
     rank and sweeps the others' last-beat timestamps against a virtual
     -time timeout. No heartbeat packets travel on the wire — wire
     traffic would consume the fault injector's per-send PRNG counter and
     perturb seeded fault schedules — so the detector models an
     out-of-band watchdog. A rank that stops pumping (torn down, or stuck
     in a long compute phase, which is how a too-short timeout produces
     ULFM's classic false positive) is declared dead once the shared
     clock outruns its last beat by [hb_timeout_ns];
   - the {e revocation registry}: context ids revoked by [Comm.revoke],
     consulted by every device so late traffic on a revoked communicator
     is refused.

   The channel silencer ([wrap_channel]) sits on top of the whole channel
   stack (above reliable delivery): packets to or from a dead rank are
   discarded before they reach framing, which is the "NIC went dark"
   model — nothing a dead rank ever did keeps retransmitting. *)

module Key = Simtime.Stats.Key

exception Killed of int
exception Proc_failed of int
exception Revoked of int

type detector = { hb_period_ns : float; hb_timeout_ns : float }

(* The timeout must exceed both the reliable layer's backoff ceiling
   (2 ms) and any single compute charge a workload performs between
   progress pumps, or a slow-but-alive rank gets declared dead. *)
let default_detector = { hb_period_ns = 20_000.0; hb_timeout_ns = 5_000_000.0 }

type rank_state = Alive | Finished | Torn_down | Dead

type t = {
  env : Simtime.Env.t;
  det : detector;
  kills : Fault.kill list;
  mutable states : rank_state array;
  mutable last_beat : float array;
  mutable consumed : bool array;  (* the rank's kill event already fired *)
  mutable killed_at : float array;  (* actual teardown time, for latency *)
  mutable on_death : (int -> unit) list;
  mutable on_revive : (int -> unit) list;
  mutable on_coll_failed : (ctx:int -> peer:int -> unit) list;
  mutable revoked : int list;
  mutable detections : (int * float) list;  (* (rank, declared at) *)
}

let now t = Simtime.Env.now_ns t.env

let create ~env ?(detector = default_detector) ?(kills = []) ~n () =
  if detector.hb_timeout_ns <= 0.0 then
    invalid_arg "Ft.create: hb_timeout_ns must be > 0";
  let t0 = Simtime.Env.now_ns env in
  {
    env;
    det = detector;
    kills;
    states = Array.make n Alive;
    last_beat = Array.make n t0;
    consumed = Array.make n false;
    killed_at = Array.make n nan;
    on_death = [];
    on_revive = [];
    on_coll_failed = [];
    revoked = [];
    detections = [];
  }

let detector t = t.det

let ensure t rank =
  let n = Array.length t.states in
  if rank >= n then begin
    let grow make a = Array.init (rank + 1) (fun i -> if i < n then a.(i) else make) in
    t.states <- grow Alive t.states;
    t.last_beat <- grow (now t) t.last_beat;
    t.consumed <- grow false t.consumed;
    t.killed_at <- grow nan t.killed_at
  end

let state t rank =
  ensure t rank;
  t.states.(rank)

let is_down t rank = state t rank = Dead
let is_out t rank = match state t rank with Torn_down | Dead -> true | _ -> false
let dead_ranks t =
  let acc = ref [] in
  Array.iteri (fun r s -> if s = Dead then acc := r :: !acc) t.states;
  List.rev !acc

let out_ranks t =
  let acc = ref [] in
  Array.iteri
    (fun r s -> match s with Torn_down | Dead -> acc := r :: !acc | _ -> ())
    t.states;
  List.rev !acc

let detections t = List.rev t.detections

let kill_of t rank =
  List.find_opt (fun k -> k.Fault.k_rank = rank) t.kills

let self_doomed t ~rank =
  state t rank = Alive
  && (not t.consumed.(rank))
  && (match kill_of t rank with
     | Some k -> k.Fault.k_at_ns <= now t
     | None -> false)

let check_self t ~rank = if self_doomed t ~rank then raise (Killed rank)

let mark_killed t ~rank =
  ensure t rank;
  if t.states.(rank) = Alive then begin
    t.states.(rank) <- Torn_down;
    t.consumed.(rank) <- true;
    t.killed_at.(rank) <- now t;
    Simtime.Env.count t.env Key.proc_kills;
    Trace.record t.env ~rank ~op:"kill"
      ~detail:(fun () -> Printf.sprintf "fail-stop at t=%.0fns" (now t))
  end

let finish t ~rank =
  ensure t rank;
  if t.states.(rank) = Alive then t.states.(rank) <- Finished

let on_death t f = t.on_death <- f :: t.on_death
let on_revive t f = t.on_revive <- f :: t.on_revive
let on_coll_failed t f = t.on_coll_failed <- f :: t.on_coll_failed

(* Flood only failures of declared-dead peers: the victim's own teardown
   also completes its schedule with Proc_failed, but at that point nobody
   else can know — the error must not outrun the detector. *)
let coll_failed t ~ctx ~peer =
  if is_down t peer then
    List.iter (fun f -> f ~ctx ~peer) (List.rev t.on_coll_failed)

let declare_dead t rank =
  ensure t rank;
  match t.states.(rank) with
  | Dead -> ()
  | Finished -> ()
  | Alive | Torn_down ->
      t.states.(rank) <- Dead;
      let at = now t in
      t.detections <- (rank, at) :: t.detections;
      Simtime.Env.count t.env Key.proc_detections;
      if not (Float.is_nan t.killed_at.(rank)) then
        Simtime.Env.observe t.env Key.h_ft_detect (at -. t.killed_at.(rank));
      Trace.record t.env ~rank ~op:"detect"
        ~detail:(fun () ->
          Printf.sprintf "rank %d declared dead at t=%.0fns" rank at);
      List.iter (fun f -> f rank) (List.rev t.on_death)

let revive t ~rank =
  ensure t rank;
  (match t.states.(rank) with
  | Torn_down | Dead -> ()
  | _ -> invalid_arg "Ft.revive: rank is not down");
  t.states.(rank) <- Alive;
  t.last_beat.(rank) <- now t;
  Trace.record t.env ~rank ~op:"revive"
    ~detail:(fun () ->
      Printf.sprintf "rank %d restarted at t=%.0fns" rank (now t));
  List.iter (fun f -> f rank) (List.rev t.on_revive)

(* Kills not yet declared (or not yet fired) mean progress is a matter of
   virtual time — the detector will resolve them — so the scheduler must
   not call a blocked configuration a deadlock yet. *)
let pending_detection t =
  Array.exists (fun s -> s = Torn_down) t.states
  || List.exists
       (fun k ->
         let r = k.Fault.k_rank in
         r < Array.length t.states
         && (not t.consumed.(r))
         && t.states.(r) = Alive)
       t.kills

let sweep t ~observer =
  let horizon = now t in
  Array.iteri
    (fun r s ->
      match s with
      | (Alive | Torn_down) when r <> observer ->
          if horizon -. t.last_beat.(r) > t.det.hb_timeout_ns then
            declare_dead t r
      | _ -> ())
    t.states

let beat t ~rank at =
  ensure t rank;
  if t.states.(rank) = Alive then t.last_beat.(rank) <- at

let tick t ~rank =
  beat t ~rank (now t);
  if pending_detection t then Fiber.note_activity ();
  sweep t ~observer:rank

(* The least clock reading at which [sweep] declares a rank that last
   beat at [b]. The sweep's subtraction rounds, so step from the rounded
   sum an ulp at a time to the exact threshold. An infinite timeout
   declares nobody. *)
let declared_from t b =
  let timeout = t.det.hb_timeout_ns in
  let x = ref (b +. timeout) in
  if Float.is_finite !x then begin
    while !x -. b > timeout do
      x := Float.pred !x
    done;
    while !x -. b <= timeout do
      x := Float.succ !x
    done
  end;
  !x

(* The earliest virtual time at which [tick] does more than beat, as long
   as polling goes on until then: a sweep declaring the rank that beat
   least recently (conservative: a polling rank beats again), or a kill
   falling due. Polling goes on only while a detection is pending or
   something else keeps the scheduler [busy]; otherwise the next scan is
   the deadlock detector's, and the tick never acts. *)
let horizon t ~busy =
  if not (busy || pending_detection t) then Float.infinity
  else begin
    let oldest = ref Float.infinity in
    Array.iteri
      (fun r s ->
        match s with
        | Alive | Torn_down -> oldest := Float.min !oldest t.last_beat.(r)
        | Finished | Dead -> ())
      t.states;
    let h =
      ref
        (if !oldest < Float.infinity then declared_from t !oldest
         else Float.infinity)
    in
    List.iter
      (fun k ->
        let r = k.Fault.k_rank in
        if
          r >= Array.length t.states
          || (t.states.(r) = Alive && not t.consumed.(r))
        then h := Float.min !h k.Fault.k_at_ns)
      t.kills;
    !h
  end

(* ------------------------------------------------------------------ *)
(* Revocation registry                                                  *)
(* ------------------------------------------------------------------ *)

let revoke t ctx = if not (List.mem ctx t.revoked) then t.revoked <- ctx :: t.revoked
let is_revoked t ctx = List.mem ctx t.revoked

(* ------------------------------------------------------------------ *)
(* Channel silencer                                                     *)
(* ------------------------------------------------------------------ *)

let wrap_channel t chan =
  {
    Channel.name = chan.Channel.name ^ "+ft";
    send =
      (fun ~src ~dst p ->
        if is_out t src || is_out t dst then begin
          Simtime.Env.count t.env Key.ft_silenced;
          Trace.record t.env ~rank:src ~op:"drop"
            ~detail:(fun () ->
              Printf.sprintf "dead endpoint %d->%d %s" src dst
                (Packet.describe p))
        end
        else chan.Channel.send ~src ~dst p);
    poll =
      (fun ~rank -> if is_out t rank then None else chan.Channel.poll ~rank);
    next_arrival =
      (fun ~rank ->
        if is_out t rank then Some Float.infinity
        else chan.Channel.next_arrival ~rank);
    add_rank = chan.Channel.add_rank;
    n_ranks = chan.Channel.n_ranks;
  }
