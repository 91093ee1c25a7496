module Key = Simtime.Stats.Key

type partition = {
  pt_src : int;
  pt_dst : int;
  pt_from_ns : float;
  pt_until_ns : float;
}

type kill = {
  k_rank : int;
  k_at_ns : float;
  k_restart_ns : float option;
}

let kill ?restart_after_ns ~rank ~at_ns () =
  if rank < 0 then invalid_arg "Fault.kill: rank must be >= 0";
  if at_ns < 0.0 then invalid_arg "Fault.kill: at_ns must be >= 0";
  (match restart_after_ns with
  | Some d when d < 0.0 ->
      invalid_arg "Fault.kill: restart_after_ns must be >= 0"
  | _ -> ());
  { k_rank = rank; k_at_ns = at_ns; k_restart_ns = restart_after_ns }

type plan = {
  seed : int;
  drop : float;
  duplicate : float;
  corrupt : float;
  delay : float;
  delay_ns : float;
  partitions : partition list;
  kills : kill list;
}

let plan ?(seed = 1) ?(drop = 0.0) ?(duplicate = 0.0) ?(corrupt = 0.0)
    ?(delay = 0.0) ?(delay_ns = 100_000.0) ?(partitions = []) ?(kills = []) ()
    =
  let check name p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Fault.plan: %s must be in [0, 1]" name)
  in
  check "drop" drop;
  check "duplicate" duplicate;
  check "corrupt" corrupt;
  check "delay" delay;
  if delay_ns < 0.0 then invalid_arg "Fault.plan: delay_ns must be >= 0";
  (match
     List.find_opt
       (fun k -> List.length (List.filter (fun k' -> k'.k_rank = k.k_rank) kills) > 1)
       kills
   with
  | Some k ->
      invalid_arg
        (Printf.sprintf "Fault.plan: multiple kills for rank %d" k.k_rank)
  | None -> ());
  { seed; drop; duplicate; corrupt; delay; delay_ns; partitions; kills }

(* ------------------------------------------------------------------ *)
(* Deterministic randomness: a splitmix64-style hash of                 *)
(* (seed, packet index, draw index). Every draw is a pure function of   *)
(* the plan and the global send order, so identical seeds replay        *)
(* identical fault schedules regardless of how many draws other packets *)
(* consumed. No Random.self_init anywhere.                              *)
(* ------------------------------------------------------------------ *)

let golden = 0x9e3779b97f4a7c15L

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

let draw ~seed ~packet ~salt =
  let z =
    Int64.add
      (Int64.add (Int64.of_int seed)
         (Int64.mul (Int64.of_int (packet + 1)) golden))
      (Int64.mul (Int64.of_int (salt + 1)) 0xd1342543de82ef95L)
  in
  (* 53 random bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical (mix64 z) 11)
  *. (1.0 /. 9007199254740992.0)

(* ------------------------------------------------------------------ *)
(* The decorator                                                        *)
(* ------------------------------------------------------------------ *)

type delayed = {
  d_release : float;
  d_id : int;  (* injection order: stable tiebreak *)
  d_src : int;
  d_dst : int;
  d_packet : Packet.t;
}

type t = {
  fplan : plan;
  env : Simtime.Env.t;
  chan : Channel.t;
  mutable counter : int;  (* physical sends observed, drives the PRNG *)
  mutable held : delayed list;  (* unsorted; sorted at release time *)
}

let now t = Simtime.Clock.now_ns t.env.Simtime.Env.clock

let partitioned t ~src ~dst at =
  List.exists
    (fun p ->
      (p.pt_src = -1 || p.pt_src = src)
      && (p.pt_dst = -1 || p.pt_dst = dst)
      && at >= p.pt_from_ns && at < p.pt_until_ns)
    t.fplan.partitions

(* Flip one payload bit, or perturb a header field when there is no
   payload. Corruption of an unframed Ack cannot be detected by the
   receiver's checksum (acks carry none), so it is modelled as a loss --
   on real links the NIC's CRC discards such packets the same way. *)
let corrupt_packet ~bit p =
  let flip_payload b =
    let b = Bytes.copy b in
    let pos = bit mod (Bytes.length b * 8) in
    let byte = pos / 8 and shift = pos mod 8 in
    Bytes.set b byte
      (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl shift)));
    b
  in
  let rec go = function
    | Packet.Eager (e, b) when Bytes.length b > 0 ->
        Some (Packet.Eager (e, flip_payload b))
    | Packet.Eager (e, b) ->
        Some (Packet.Eager ({ e with Packet.e_tag = e.Packet.e_tag lxor 1 }, b))
    | Packet.Rndv_data (id, b) when Bytes.length b > 0 ->
        Some (Packet.Rndv_data (id, flip_payload b))
    | Packet.Rndv_data (id, b) -> Some (Packet.Rndv_data (id lxor 1, b))
    | Packet.Rts (e, id) ->
        Some
          (Packet.Rts ({ e with Packet.e_bytes = e.Packet.e_bytes lxor 1 }, id))
    | Packet.Cts id -> Some (Packet.Cts (id lxor 1))
    | Packet.Nak (id, msg) -> Some (Packet.Nak (id lxor 1, msg))
    | Packet.Frame (f, inner) -> (
        match go inner with
        | Some inner -> Some (Packet.Frame (f, inner))
        | None -> None)
    | Packet.Ack _ -> None
  in
  go p

(* Release the held packets whose time has come. A first pass finds
   whether any has, so a pump with none due allocates nothing. *)
let flush_due t =
  let horizon = now t in
  let is_due d = d.d_release <= horizon in
  if List.exists is_due t.held then begin
    let due, rest = List.partition is_due t.held in
    t.held <- rest;
    List.iter
      (fun d -> t.chan.Channel.send ~src:d.d_src ~dst:d.d_dst d.d_packet)
      (List.sort
         (fun a b -> compare (a.d_release, a.d_id) (b.d_release, b.d_id))
         due)
  end

(* The earliest release among held packets. *)
let next_release t =
  List.fold_left (fun acc d -> Float.min acc d.d_release) Float.infinity t.held

let send t ~src ~dst packet =
  flush_due t;
  let at = now t in
  if partitioned t ~src ~dst at then begin
    Simtime.Env.count t.env Key.fault_drops;
    Trace.record t.env ~rank:src ~op:"drop"
      ~detail:(fun () ->
        Printf.sprintf "partition %d->%d %s" src dst (Packet.describe packet))
  end
  else begin
    let id = t.counter in
    t.counter <- id + 1;
    let p = t.fplan in
    let roll salt = draw ~seed:p.seed ~packet:id ~salt in
    if roll 0 < p.drop then begin
      Simtime.Env.count t.env Key.fault_drops;
      Trace.record t.env ~rank:src ~op:"drop"
        ~detail:(fun () ->
          Printf.sprintf "loss %d->%d %s" src dst (Packet.describe packet))
    end
    else begin
      let packet, lost =
        if roll 1 < p.corrupt then begin
          Simtime.Env.count t.env Key.fault_corrupts;
          match corrupt_packet ~bit:(int_of_float (roll 2 *. 1_000_003.0))
                  packet
          with
          | Some corrupted -> (corrupted, false)
          | None -> (packet, true)
        end
        else (packet, false)
      in
      if lost then begin
        Simtime.Env.count t.env Key.fault_drops;
        Trace.record t.env ~rank:src ~op:"drop"
          ~detail:(fun () -> Printf.sprintf "corrupt-ack %d->%d" src dst)
      end
      else begin
        if roll 3 < p.delay then begin
          Simtime.Env.count t.env Key.fault_delays;
          let release = at +. (roll 4 *. p.delay_ns) in
          t.held <-
            { d_release = release; d_id = id; d_src = src; d_dst = dst;
              d_packet = packet }
            :: t.held
        end
        else t.chan.Channel.send ~src ~dst packet;
        if roll 5 < p.duplicate then begin
          Simtime.Env.count t.env Key.fault_dups;
          t.chan.Channel.send ~src ~dst packet
        end
      end
    end
  end

let poll t ~rank =
  flush_due t;
  (* Held packets are progress pending on the clock, not a deadlock. *)
  if t.held <> [] then Fiber.note_activity ();
  t.chan.Channel.poll ~rank

let wrap ~env fplan chan =
  let t = { fplan; env; chan; counter = 0; held = [] } in
  {
    Channel.name = chan.Channel.name ^ "+fault";
    send = (fun ~src ~dst p -> send t ~src ~dst p);
    poll = (fun ~rank -> poll t ~rank);
    next_arrival =
      (fun ~rank ->
        Option.map (Float.min (next_release t)) (chan.Channel.next_arrival ~rank));
    add_rank = chan.Channel.add_rank;
    n_ranks = chan.Channel.n_ranks;
  }
