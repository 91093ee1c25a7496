module Key = Simtime.Stats.Key

type config = {
  rto_base_ns : float;
  rto_max_ns : float;
  max_retries : int;
}

let default_config =
  { rto_base_ns = 100_000.0; rto_max_ns = 2_000_000.0; max_retries = 16 }

(* Sender-side state for one (src, dst) direction. *)
type tx = {
  mutable next_seq : int;
  unacked : (int * Packet.t) Queue.t;  (* (seq, framed), oldest first *)
  mutable rto_ns : float;
  mutable deadline : float;  (* meaningful only while unacked non-empty *)
  mutable retries : int;
  mutable gave_up : bool;
}

(* Receiver-side state for one (src, dst) direction. *)
type rx = { mutable expected : int }

type t = {
  env : Simtime.Env.t;
  cfg : config;
  chan : Channel.t;
  txs : (int * int, tx) Hashtbl.t;
  rxs : (int * int, rx) Hashtbl.t;
}

let now t = Simtime.Clock.now_ns t.env.Simtime.Env.clock

let tx_state t ~src ~dst =
  match Hashtbl.find_opt t.txs (src, dst) with
  | Some st -> st
  | None ->
      let st =
        { next_seq = 0; unacked = Queue.create ();
          rto_ns = t.cfg.rto_base_ns; deadline = infinity; retries = 0;
          gave_up = false }
      in
      Hashtbl.replace t.txs (src, dst) st;
      st

let rx_state t ~src ~dst =
  match Hashtbl.find_opt t.rxs (src, dst) with
  | Some st -> st
  | None ->
      let st = { expected = 0 } in
      Hashtbl.replace t.rxs (src, dst) st;
      st

let send t ~src ~dst packet =
  let st = tx_state t ~src ~dst in
  let seq = st.next_seq in
  st.next_seq <- seq + 1;
  let framed =
    Packet.Frame
      ( { Packet.f_src = src; f_seq = seq; f_check = Packet.checksum packet },
        packet )
  in
  if Queue.is_empty st.unacked then begin
    st.rto_ns <- t.cfg.rto_base_ns;
    st.deadline <- now t +. st.rto_ns;
    st.retries <- 0;
    st.gave_up <- false
  end;
  Queue.add (seq, framed) st.unacked;
  t.chan.Channel.send ~src ~dst framed

(* A window whose timer runs: frames in flight, not given up on. *)
let live st = not (Queue.is_empty st.unacked || st.gave_up)

(* The earliest retransmission timeout among live windows. *)
let next_deadline t =
  Hashtbl.fold
    (fun _ st acc -> if live st then Float.min acc st.deadline else acc)
    t.txs Float.infinity

(* Retransmission is pumped from every rank's poll: all devices of a
   world share the address space and the clock, so any progress pump can
   service every sender's timers. This keeps fire-and-forget senders
   honest — their frames are retransmitted even after their fiber has
   finished its program, as long as anyone still polls. Go-back-N: on
   timeout the whole unacked window is resent with doubled backoff.
   A first pass reports the live windows as activity and looks for a
   passed deadline; a pump with none due stops there. Nothing fires
   before a timeout, so one that is not due at the pump's start cannot
   fall due during it. *)
let pump_retransmits t =
  let due = ref false in
  Hashtbl.iter
    (fun _ st ->
      if live st then begin
        (* Pending frames mean progress is a matter of time, not deadlock. *)
        Fiber.note_activity ();
        if now t >= st.deadline then due := true
      end)
    t.txs;
  if !due then
    Hashtbl.fold (fun k st acc -> if live st then (k, st) :: acc else acc) t.txs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun ((src, dst), st) ->
           if now t >= st.deadline then
             if st.retries >= t.cfg.max_retries then begin
               st.gave_up <- true;
               Simtime.Env.count t.env Key.retx_giveups;
               Trace.record t.env ~rank:src ~op:"retx"
                 ~detail:(fun () ->
                   Printf.sprintf
                     "giving up on dst=%d after %d timeouts (%d frames \
                      stranded)"
                     dst st.retries (Queue.length st.unacked))
             end
             else begin
               (* The backoff that had to elapse before this timeout fired:
                  the per-retransmission latency toll paid by the workload. *)
               Simtime.Env.observe t.env Key.h_ch3_retransmit st.rto_ns;
               Queue.iter
                 (fun (_, framed) ->
                   Simtime.Env.count t.env Key.retransmits;
                   Trace.record t.env ~rank:src ~op:"retx"
                     ~detail:(fun () -> Packet.describe framed);
                   t.chan.Channel.send ~src ~dst framed)
                 st.unacked;
               st.retries <- st.retries + 1;
               st.rto_ns <- Float.min (st.rto_ns *. 2.0) t.cfg.rto_max_ns;
               st.deadline <- now t +. st.rto_ns
             end)

let send_ack t ~src ~dst ~cum =
  Simtime.Env.count t.env Key.acks;
  Trace.record t.env ~rank:src ~op:"ack"
    ~detail:(fun () -> Printf.sprintf "dst=%d cum=%d" dst cum);
  t.chan.Channel.send ~src ~dst (Packet.Ack (src, cum))

let rec poll t ~rank =
  pump_retransmits t;
  match t.chan.Channel.poll ~rank with
  | None -> None
  | Some (Packet.Frame (f, inner)) ->
      let src = f.Packet.f_src in
      let rx = rx_state t ~src ~dst:rank in
      if Packet.checksum inner <> f.Packet.f_check then begin
        (* Detected corruption behaves like loss: no ack, the sender's
           retransmission recovers the frame. Never a silent bad
           delivery. *)
        Simtime.Env.count t.env Key.corrupt_drops;
        Trace.record t.env ~rank ~op:"drop"
          ~detail:(fun () -> "checksum mismatch " ^ Packet.describe inner);
        poll t ~rank
      end
      else if f.Packet.f_seq = rx.expected then begin
        rx.expected <- rx.expected + 1;
        send_ack t ~src:rank ~dst:src ~cum:(rx.expected - 1);
        Some inner
      end
      else if f.Packet.f_seq < rx.expected then begin
        (* Duplicate (fault-injected or a retransmission that crossed the
           ack): suppress, but re-ack so the sender stops resending. *)
        Simtime.Env.count t.env Key.dup_drops;
        Trace.record t.env ~rank ~op:"drop"
          ~detail:(fun () ->
            Printf.sprintf "dup seq=%d (expected %d) %s" f.Packet.f_seq
              rx.expected (Packet.describe inner));
        send_ack t ~src:rank ~dst:src ~cum:(rx.expected - 1);
        poll t ~rank
      end
      else begin
        (* A gap: an earlier frame is missing. Go-back-N discards the
           future frame and re-acks the last in-order sequence. *)
        Simtime.Env.count t.env Key.ooo_drops;
        Trace.record t.env ~rank ~op:"drop"
          ~detail:(fun () ->
            Printf.sprintf "out-of-order seq=%d (expected %d)" f.Packet.f_seq
              rx.expected);
        send_ack t ~src:rank ~dst:src ~cum:(rx.expected - 1);
        poll t ~rank
      end
  | Some (Packet.Ack (peer, cum)) ->
      let st = tx_state t ~src:rank ~dst:peer in
      (* Cumulative ack: drop the window's acked prefix — O(acked), not
         O(window). *)
      let trimmed = ref false in
      while
        (not (Queue.is_empty st.unacked))
        && fst (Queue.peek st.unacked) <= cum
      do
        ignore (Queue.pop st.unacked);
        trimmed := true
      done;
      if !trimmed then begin
        (* Forward progress: reset the backoff. *)
        st.retries <- 0;
        st.rto_ns <- t.cfg.rto_base_ns;
        st.deadline <- now t +. st.rto_ns;
        st.gave_up <- false
      end;
      poll t ~rank
  | Some other ->
      (* Unframed traffic (a peer not using the reliable layer): pass
         through untouched. *)
      Some other

let stranded t =
  Hashtbl.fold (fun _ st acc -> acc + Queue.length st.unacked) t.txs 0

(* A dead peer's sequence spaces are meaningless: frames toward it will
   never be acked (abandoning them keeps [stranded] honest and stops the
   retransmission pump from servicing a dead NIC), and frames from it
   must not constrain a restarted incarnation, which starts again at
   sequence 0. Dropping the state entirely covers both directions; a
   fresh tx/rx pair is recreated on demand with matching zeros. *)
let reset_peer t ~peer =
  let dropped = ref 0 in
  let involved (src, dst) = src = peer || dst = peer in
  Hashtbl.iter
    (fun k st -> if involved k then dropped := !dropped + Queue.length st.unacked)
    t.txs;
  let purge tbl =
    let keys = Hashtbl.fold (fun k _ acc -> if involved k then k :: acc else acc) tbl [] in
    List.iter (Hashtbl.remove tbl) keys
  in
  purge t.txs;
  purge t.rxs;
  if !dropped > 0 then
    Trace.record t.env ~rank:peer ~op:"retx"
      ~detail:(fun () ->
        Printf.sprintf "abandoned %d frame(s) for dead rank %d" !dropped peer);
  !dropped

let wrap ?(config = default_config) ~env chan =
  let t =
    { env; cfg = config; chan; txs = Hashtbl.create 16;
      rxs = Hashtbl.create 16 }
  in
  ( {
      Channel.name = chan.Channel.name ^ "+reliable";
      send = (fun ~src ~dst p -> send t ~src ~dst p);
      poll = (fun ~rank -> poll t ~rank);
      next_arrival =
        (fun ~rank ->
          Option.map
            (Float.min (next_deadline t))
            (chan.Channel.next_arrival ~rank));
      add_rank = chan.Channel.add_rank;
      n_ranks = chan.Channel.n_ranks;
    },
    t )
