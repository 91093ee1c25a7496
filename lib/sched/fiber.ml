open Effect
open Effect.Deep

(* What one poll of a blocked wait does while nothing can happen: the
   clock charges it makes, in order; its counters, bumped for [n] polls at
   once and told when the last of them ended; and its horizon, the
   earliest virtual time at which the poll's outcome can change ([None]:
   the wait cannot tell, so it is never skipped). DESIGN.md §17. *)
type idle = {
  clock : Simtime.Clock.t;
  charges : float array;
  count : int -> at:float -> unit;
  horizon : unit -> float option;
}

type _ Effect.t +=
  | Yield : unit Effect.t
  | Wait : ((unit -> bool) * string * idle option) -> unit Effect.t
  | Spawn : (string * (unit -> unit)) -> unit Effect.t

(* ------------------------------------------------------------------ *)
(* Decision traces                                                     *)
(* ------------------------------------------------------------------ *)

type trace = { mutable tr_buf : int array; mutable tr_len : int }

let new_trace () = { tr_buf = Array.make 64 0; tr_len = 0 }

let trace_of_list l =
  let a = Array.of_list l in
  { tr_buf = a; tr_len = Array.length a }

let trace_to_list t = Array.to_list (Array.sub t.tr_buf 0 t.tr_len)

let trace_push t d =
  if t.tr_len = Array.length t.tr_buf then begin
    let bigger = Array.make (max 64 (2 * t.tr_len)) 0 in
    Array.blit t.tr_buf 0 bigger 0 t.tr_len;
    t.tr_buf <- bigger
  end;
  t.tr_buf.(t.tr_len) <- d;
  t.tr_len <- t.tr_len + 1

(* ------------------------------------------------------------------ *)
(* Scheduling policies                                                 *)
(* ------------------------------------------------------------------ *)

type policy = Round_robin | Seeded_random of int | Replay of trace

let policy_name = function
  | Round_robin -> "round-robin"
  | Seeded_random seed -> Printf.sprintf "seeded-random(seed=%d)" seed
  | Replay t -> Printf.sprintf "replay(%d decisions)" t.tr_len

(* splitmix64, as in Fault.draw: a seed fully determines the decision
   stream, so a seeded run is exactly reproducible. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A driver owns the mutable policy state (RNG position, replay cursor,
   recording buffer). One driver may span several nested [run]s — the
   scoped form installed by [with_policy] — so a recorded trace replays
   across the same nesting structure decision for decision. *)
type driver = {
  d_policy : policy;
  mutable d_rng : int64;
  d_record : trace option;
  mutable d_cursor : int;
}

let make_driver ?record policy =
  {
    d_policy = policy;
    d_rng =
      (match policy with
      | Seeded_random seed -> mix64 (Int64.of_int (seed + 0x5eed))
      | _ -> 0L);
    d_record = record;
    d_cursor = 0;
  }

(* Pick the next fiber among [n] runnable ones (slot 0 is the head of
   the FIFO, i.e. what strict round-robin runs next). Every decision is
   recorded when recording is on — forced decisions (n = 1) included, so
   a trace replays with a plain cursor and no lookahead. *)
let decide d n =
  let choice =
    match d.d_policy with
    | Round_robin -> 0
    | Seeded_random _ ->
        if n <= 1 then 0
        else begin
          d.d_rng <- Int64.add d.d_rng 0x9e3779b97f4a7c15L;
          (Int64.to_int (mix64 d.d_rng) land max_int) mod n
        end
    | Replay t ->
        let c = if d.d_cursor < t.tr_len then t.tr_buf.(d.d_cursor) else 0 in
        d.d_cursor <- d.d_cursor + 1;
        (* A shrunk trace may carry indices wider than the live run
           queue (earlier edits change queue sizes downstream); clamp
           instead of failing so every mutated trace stays replayable. *)
        if c <= 0 || n <= 1 then 0 else c mod n
  in
  (match d.d_record with Some t -> trace_push t choice | None -> ());
  choice

(* Scoped default policy: [run]s that don't pass ~policy pick it up.
   Domain-local: each domain of a parallel run owns an independent
   scheduler, and the explorer's ambient driver must never leak into a
   spawned domain. *)
let ambient_key : driver option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let get_ambient () = Domain.DLS.get ambient_key
let set_ambient d = Domain.DLS.set ambient_key d

let with_policy ?record policy f =
  let saved = get_ambient () in
  set_ambient (Some (make_driver ?record policy));
  Fun.protect ~finally:(fun () -> set_ambient saved) f

exception
  Deadlock of {
    policy : string;
    waiting : string list;
    pending : string list;
  }

type blocked = {
  pred : unit -> bool;
  idle : idle option;
  wlabel : string;
  resume : unit -> unit;
}

(* The run queue is an indexable FIFO vector: round-robin takes slot 0
   (exactly the old Queue semantics), the random and replay policies take
   an arbitrary slot. Runnable counts are small (one per rank), so the
   O(n) shift on removal is noise. *)
type sched = {
  mutable runv : (unit -> unit) array;
  mutable runn : int;
  mutable blocked : blocked list;
  mutable activity : int;
  driver : driver;
}

let nop () = ()

let push sched thunk =
  if sched.runn = Array.length sched.runv then begin
    let bigger = Array.make (max 8 (2 * sched.runn)) nop in
    Array.blit sched.runv 0 bigger 0 sched.runn;
    sched.runv <- bigger
  end;
  sched.runv.(sched.runn) <- thunk;
  sched.runn <- sched.runn + 1

let take sched i =
  let t = sched.runv.(i) in
  Array.blit sched.runv (i + 1) sched.runv i (sched.runn - i - 1);
  sched.runn <- sched.runn - 1;
  sched.runv.(sched.runn) <- nop;
  t

(* Stack of active schedulers: runs may nest, and each domain of a
   parallel run carries its own stack. *)
let stack_key : sched list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let in_scheduler () = Domain.DLS.get stack_key <> []

(* ------------------------------------------------------------------ *)
(* Parallel execution mode                                             *)
(* ------------------------------------------------------------------ *)

type mode = Cooperative | Parallel of { domains : int; place : int -> int }

(* Per-domain parking state. [pd_wake] counts wakeups delivered to this
   domain (cross-domain sends targeting one of its fibers); it is the
   condition-variable predicate, so a wakeup sent before the domain
   parks is never lost. [pd_wait_mark] is the wake count the domain
   decided to sleep on — a deadlock declarer uses it to verify that a
   parked peer has no undelivered wakeup in flight. *)
type pdomain = {
  pd_mu : Mutex.t;
  pd_cv : Condition.t;
  mutable pd_wake : int; (* guarded by pd_mu *)
  mutable pd_wait_mark : int option; (* guarded by pd_mu *)
  mutable pd_done : bool; (* guarded by pd_mu *)
}

type prun = {
  pr_place : int -> int; (* fiber index -> domain slot *)
  pr_doms : pdomain array;
  pr_activity : int Atomic.t; (* global progress stamp *)
  pr_parked : int Atomic.t; (* domains currently parked *)
  pr_live : int Atomic.t; (* domains not yet finished *)
  pr_poison : exn option Atomic.t; (* first escaping exception *)
}

(* At most one parallel run at a time (they own real domains); the
   channel layer reads this to route wakeups to the receiving domain. *)
let current_prun : prun option Atomic.t = Atomic.make None

let parallel_active () = Option.is_some (Atomic.get current_prun)

let note_activity () =
  (match Atomic.get current_prun with
  | Some pr -> Atomic.incr pr.pr_activity
  | None -> ());
  match Domain.DLS.get stack_key with
  | s :: _ -> s.activity <- s.activity + 1
  | [] -> ()

let wake_domain pd =
  Mutex.lock pd.pd_mu;
  pd.pd_wake <- pd.pd_wake + 1;
  Condition.signal pd.pd_cv;
  Mutex.unlock pd.pd_mu

let notify_fiber i =
  match Atomic.get current_prun with
  | None -> ()
  | Some pr ->
      Atomic.incr pr.pr_activity;
      let d = pr.pr_place i in
      if d >= 0 && d < Array.length pr.pr_doms then wake_domain pr.pr_doms.(d)

let poison pr exn =
  ignore (Atomic.compare_and_set pr.pr_poison None (Some exn));
  Array.iter wake_domain pr.pr_doms

let poisoned pr = Option.is_some (Atomic.get pr.pr_poison)

let yield () = perform Yield
let wait_until ?(label = "wait") ?idle pred = perform (Wait (pred, label, idle))
let spawn label f = perform (Spawn (label, f))

let rec exec sched label body =
  match_with body ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, _) continuation) ->
                  push sched (fun () -> continue k ()))
          | Wait (pred, wlabel, idle) ->
              Some
                (fun (k : (a, _) continuation) ->
                  if pred () then continue k ()
                  else
                    let b =
                      {
                        pred;
                        idle;
                        wlabel = label ^ "/" ^ wlabel;
                        resume = (fun () -> continue k ());
                      }
                    in
                    sched.blocked <- b :: sched.blocked)
          | Spawn (l, f) ->
              Some
                (fun (k : (a, _) continuation) ->
                  push sched (fun () -> exec sched l f);
                  continue k ())
          | _ -> None);
    }

(* One pass over the blocked list, oldest first (exactly the cooperative
   loop's order): woken fibers move to the run queue. Returns whether
   anyone woke. *)
let scan_blocked sched =
  let woken, still =
    List.partition (fun b -> b.pred ()) (List.rev sched.blocked)
  in
  sched.blocked <- List.rev still;
  List.iter (fun b -> push sched b.resume) woken;
  woken <> []

(* ------------------------------------------------------------------ *)
(* Idle fast-forward                                                   *)
(* ------------------------------------------------------------------ *)

let idle_seq a b =
  if a.clock != b.clock then None
  else
    Some
      {
        clock = a.clock;
        charges = Array.append a.charges b.charges;
        count =
          (fun n ~at ->
            a.count n ~at;
            b.count n ~at);
        horizon =
          (fun () ->
            match a.horizon () with
            | None -> None
            | Some h -> Option.map (Float.min h) (b.horizon ()));
      }

(* The least horizon of a scan's waits, if every one declares a horizon
   on [clock]. *)
let rec least_horizon clock h = function
  | [] -> Some h
  | i :: rest -> (
      if i.clock != clock then None
      else
        match i.horizon () with
        | Some h' -> least_horizon clock (Float.min h h') rest
        | None -> None)

(* The clock after one scan from [x]: every wait's charges, in scan
   order. *)
let rec scan_end x = function
  | [] -> x
  | i :: rest ->
      let c = ref x in
      for j = 0 to Array.length i.charges - 1 do
        c := !c +. i.charges.(j)
      done;
      scan_end !c rest

(* The ulp [2^(e-53)] of a clock in the binade [2^(e-1), 2^e), read off
   its exponent bits; normal for clocks of at least 2^-969. *)
let ulp x =
  Int64.float_of_bits
    (Int64.sub
       (Int64.logand (Int64.bits_of_float x) 0x7ff0_0000_0000_0000L)
       0x0340_0000_0000_0000L)

(* Inside one binade every float is a multiple of its ulp [u], so adding
   a charge [c >= 0] to a clock there adds exactly [round(c/u)] ulps while
   the sum stays in the binade — unless [c/u] lies halfway between two
   integers, where round-to-even looks at the clock's last bit. So one
   scan adds the same number of ulps wherever it starts in the binade;
   [ulps_per_scan u d idles] adds them to [d]. -1 when some charge is
   negative, not finite, a tie, or alone leaves the binade. (Adding
   2^52 and taking it away rounds [q < 2^52] to the nearest integer.) *)
let rec ulps_per_scan u d = function
  | [] -> d
  | i :: rest ->
      let d = ref d in
      for j = 0 to Array.length i.charges - 1 do
        let q = i.charges.(j) /. u in
        let r = q +. 0x1p52 -. 0x1p52 in
        if !d >= 0 && q >= 0.0 && q < 0x1p52 && Float.abs (q -. r) <> 0.5
        then d := !d + Float.to_int r
        else d := -1
      done;
      if !d < 0 || !d >= 1 lsl 53 then -1 else ulps_per_scan u !d rest

(* Skip whole quiet scans over [idles] (in scan order): commit the most
   scans whose end stays strictly before the horizon [h], so no skipped
   poll could have seen an arrival, with the clock bits polling one by
   one gives. Each scan is added charge by charge; after one commits,
   the scans that end below both [h] and the end of the clock's binade
   are committed in one step, in exact integer ulps. The next scan then
   either crosses into the next binade, where the jump repeats, or ends
   the skip by reaching [h] or not moving the clock. Each wait's counters
   learn when its poll in the last skipped scan ended, by replaying that
   scan once more. DESIGN.md §17. *)
let skip_scans clock h idles =
  let now = ref (Simtime.Clock.now_ns clock) and k = ref 0 in
  let last = ref !now in
  let go = ref true in
  while !go do
    let c = scan_end !now idles in
    if c < h && c > !now then begin
      last := !now;
      now := c;
      incr k;
      if c >= 0x1p-969 then begin
        let u = ulp c in
        let d = ulps_per_scan u 0 idles in
        (* [c < h], so [h] lies past the binade or is a multiple of [u]. *)
        let lim =
          if h >= u *. 0x1p53 then 1 lsl 53 else Float.to_int (h /. u)
        in
        let m = Float.to_int (c /. u) in
        let n = if d > 0 then (lim - m - 1) / d else 0 in
        if n > 0 then begin
          last := Float.of_int (m + ((n - 1) * d)) *. u;
          now := Float.of_int (m + (n * d)) *. u;
          k := !k + n
        end
      end
    end
    else go := false
  done;
  if !k > 0 then begin
    Simtime.Clock.advance_to clock !now;
    let at = ref !last in
    List.iter
      (fun i ->
        Array.iter (fun c -> at := !at +. c) i.charges;
        i.count !k ~at:!at)
      idles
  end

(* After a scan that woke nobody, the next scans repeat it exactly until
   some horizon passes — provided every blocked wait is quiet. An
   infinite horizon skips nothing: with nothing in flight, only the
   deadlock detector may end the wait. *)
let fast_forward_blocked sched =
  (* [blocked] is newest first; consing its descriptors gives scan order. *)
  let rec quiet idles = function
    | [] -> Some idles
    | { idle = Some i; _ } :: rest -> quiet (i :: idles) rest
    | { idle = None; _ } :: _ -> None
  in
  match quiet [] sched.blocked with
  | Some ({ clock; _ } :: _ as idles) -> (
      match least_horizon clock Float.infinity idles with
      | Some h when h < Float.infinity -> skip_scans clock h idles
      | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Cooperative (deterministic) main loop                               *)
(* ------------------------------------------------------------------ *)

(* Drain the run queue (the policy picks which runnable fiber goes
   next); when empty, re-test blocked predicates. Deadlock is declared
   only when a full scan wakes nobody and no subsystem reported
   activity, so multi-step progress (e.g. one packet per poll) is never
   mistaken for a hang — under any policy. *)
let run_cooperative ?policy ?record ~pending fibers =
  let driver =
    match policy with
    | Some p -> make_driver ?record p
    | None -> (
        match get_ambient () with
        | Some d -> d
        | None -> make_driver ?record Round_robin)
  in
  let sched =
    { runv = Array.make 8 nop; runn = 0; blocked = []; activity = 0; driver }
  in
  List.iter
    (fun (label, f) -> push sched (fun () -> exec sched label f))
    fibers;
  let saved = Domain.DLS.get stack_key in
  Domain.DLS.set stack_key (sched :: saved);
  let finish () = Domain.DLS.set stack_key saved in
  let rec loop () =
    if sched.runn > 0 then begin
      let thunk = take sched (decide driver sched.runn) in
      thunk ();
      loop ()
    end
    else if sched.blocked <> [] then begin
      let activity_before = sched.activity in
      if scan_blocked sched then loop ()
      else if sched.activity = activity_before then
        raise
          (Deadlock
             {
               policy = policy_name driver.d_policy;
               waiting = List.map (fun b -> b.wlabel) sched.blocked;
               pending = pending ();
             })
      else begin
        fast_forward_blocked sched;
        loop ()
      end
    end
  in
  match loop () with
  | () -> finish ()
  | exception e ->
      finish ();
      raise e

(* ------------------------------------------------------------------ *)
(* Parallel main loop                                                  *)
(* ------------------------------------------------------------------ *)

(* Each domain runs a plain round-robin cooperative scheduler over its
   own fiber group; cross-domain interaction happens only through
   whatever shared structures the fibers use (the sharded channel), plus
   the wakeup protocol above. When a domain finds nothing runnable and a
   predicate scan makes no local progress, it parks on its condition
   variable — but first it snapshots its wake counter and re-scans, so a
   send that lands between the scan and the sleep is never lost.

   Deadlock is declared distributedly: the last domain to park checks
   that every other live domain is asleep with no undelivered wakeup
   ([pd_wait_mark] = [pd_wake]) and that the global activity stamp did
   not move across the whole check. Only then can no message be in
   flight anywhere, so the hang is real; the declarer poisons the run
   with a [Deadlock] carrying its own blocked labels and wakes everyone
   up to unwind. *)
let run_domain pr ~pending d fibers =
  let pd = pr.pr_doms.(d) in
  let driver = make_driver Round_robin in
  let sched =
    { runv = Array.make 8 nop; runn = 0; blocked = []; activity = 0; driver }
  in
  List.iter
    (fun (label, f) -> push sched (fun () -> exec sched label f))
    fibers;
  let saved = Domain.DLS.get stack_key in
  Domain.DLS.set stack_key (sched :: saved);
  let finish () =
    Domain.DLS.set stack_key saved;
    Mutex.lock pd.pd_mu;
    pd.pd_done <- true;
    Mutex.unlock pd.pd_mu;
    ignore (Atomic.fetch_and_add pr.pr_live (-1));
    (* A peer may be parked waiting for parked = live to re-evaluate. *)
    Array.iter wake_domain pr.pr_doms
  in
  let declare_deadlock g0 =
    (* Candidate: we are the last domain to park and nothing global has
       happened since stamp [g0]. Confirm that every other live domain
       is committed to sleep with no pending wakeup; then no fiber can
       run and no message is in flight, so the hang is real. *)
    let confirmed = ref (Atomic.get pr.pr_activity = g0) in
    Array.iteri
      (fun i pd' ->
        if !confirmed && i <> d then begin
          Mutex.lock pd'.pd_mu;
          (if not pd'.pd_done then
             match pd'.pd_wait_mark with
             | Some m when m = pd'.pd_wake -> ()
             | _ -> confirmed := false);
          Mutex.unlock pd'.pd_mu
        end)
      pr.pr_doms;
    if !confirmed && Atomic.get pr.pr_activity = g0 then begin
      poison pr
        (Deadlock
           {
             policy =
               Printf.sprintf "parallel(%d domains)" (Array.length pr.pr_doms);
             waiting = List.map (fun b -> b.wlabel) sched.blocked;
             pending = pending ();
           });
      true
    end
    else false
  in
  let park w0 g0 =
    (* Commit to sleeping on wake count [w0] (or bail if it moved). *)
    Mutex.lock pd.pd_mu;
    if pd.pd_wake <> w0 || poisoned pr then Mutex.unlock pd.pd_mu
    else begin
      pd.pd_wait_mark <- Some w0;
      Mutex.unlock pd.pd_mu;
      let parked = 1 + Atomic.fetch_and_add pr.pr_parked 1 in
      let declared =
        parked >= Atomic.get pr.pr_live && declare_deadlock g0
      in
      Mutex.lock pd.pd_mu;
      if not declared then
        while pd.pd_wake = w0 && not (poisoned pr) do
          Condition.wait pd.pd_cv pd.pd_mu
        done;
      pd.pd_wait_mark <- None;
      Mutex.unlock pd.pd_mu;
      ignore (Atomic.fetch_and_add pr.pr_parked (-1))
    end
  in
  let rec loop () =
    if poisoned pr then ()
    else if sched.runn > 0 then begin
      let thunk = take sched 0 in
      thunk ();
      loop ()
    end
    else if sched.blocked <> [] then begin
      let a0 = sched.activity in
      if scan_blocked sched then loop ()
      else if sched.activity <> a0 then loop ()
      else begin
        (* Nothing runnable, nobody woke, no local progress: snapshot
           the wake counter, close the send-before-park window with one
           more scan, then park. *)
        let w0 =
          Mutex.lock pd.pd_mu;
          let w = pd.pd_wake in
          Mutex.unlock pd.pd_mu;
          w
        in
        let g0 = Atomic.get pr.pr_activity in
        if scan_blocked sched then loop ()
        else begin
          park w0 g0;
          loop ()
        end
      end
    end
  in
  (match loop () with () -> () | exception e -> poison pr e);
  finish ()

let run_parallel ~domains ~place ~pending fibers =
  if domains < 1 then invalid_arg "Fiber.run: need at least one domain";
  (match get_ambient () with
  | None | Some { d_policy = Round_robin; d_record = None; _ } -> ()
  | Some d ->
      invalid_arg
        (Printf.sprintf
           "Fiber.run: parallel execution cannot honour the ambient %s \
            policy%s — schedule exploration and trace replay require the \
            deterministic cooperative scheduler"
           (policy_name d.d_policy)
           (match d.d_record with Some _ -> " (recording)" | None -> "")));
  let arr = Array.of_list fibers in
  let n = Array.length arr in
  let slot i = ((place i mod domains) + domains) mod domains in
  let groups = Array.make domains [] in
  for i = n - 1 downto 0 do
    groups.(slot i) <- arr.(i) :: groups.(slot i)
  done;
  let pr =
    {
      pr_place = slot;
      pr_doms =
        Array.init domains (fun _ ->
            {
              pd_mu = Mutex.create ();
              pd_cv = Condition.create ();
              pd_wake = 0;
              pd_wait_mark = None;
              pd_done = false;
            });
      pr_activity = Atomic.make 0;
      pr_parked = Atomic.make 0;
      pr_live = Atomic.make domains;
      pr_poison = Atomic.make None;
    }
  in
  if not (Atomic.compare_and_set current_prun None (Some pr)) then
    invalid_arg "Fiber.run: a parallel run is already active";
  (* Domain 0 runs on the calling domain (so nested setup — ambient
     stats, trace sinks — stays visible to it); the rest are real
     spawns. [run_domain] never raises: fiber exceptions poison the run
     and every domain unwinds, so joins are clean. *)
  let spawned =
    Array.init (domains - 1) (fun k ->
        Domain.spawn (fun () ->
            run_domain pr ~pending (k + 1) groups.(k + 1)))
  in
  run_domain pr ~pending 0 groups.(0);
  Array.iter Domain.join spawned;
  Atomic.set current_prun None;
  match Atomic.get pr.pr_poison with Some e -> raise e | None -> ()

let run ?(mode = Cooperative) ?policy ?record ?(pending = fun () -> [])
    fibers =
  match mode with
  | Cooperative -> run_cooperative ?policy ?record ~pending fibers
  | Parallel { domains; place } ->
      if Option.is_some policy then
        invalid_arg
          "Fiber.run: ~policy is incompatible with parallel execution — \
           deterministic scheduling requires the cooperative scheduler";
      if Option.is_some record then
        invalid_arg
          "Fiber.run: ~record is incompatible with parallel execution — \
           decision traces only exist under the cooperative scheduler";
      run_parallel ~domains ~place ~pending fibers
