(** The channel layer: moves packets between address spaces.

    MPICH2's channel interface reduces a port to a handful of functions
    (Section 6 of the paper, citing Gropp & Lusk's channel-interface
    report); ours is the same idea: [send], [poll], [add_rank] and a name.
    Implementations differ only in their cost profile — {!Shm_channel} and
    {!Sock_channel} are both built on {!make}.

    Delivery model: a packet sent at virtual time [t] with wire size [w]
    becomes visible to the receiver's [poll] at
    [t + per_msg_ns + w * per_byte_ns]. Per-(src,dst) ordering is enforced
    (no overtaking, as on a TCP stream). The sender is charged a syscall
    cost per MTU-sized fragment. *)

type t = {
  name : string;
  send : src:int -> dst:int -> Packet.t -> unit;
  poll : rank:int -> Packet.t option;
      (** Next deliverable packet for [rank], if any has arrived. When
          packets are in flight but not yet arrived this calls
          {!Fiber.note_activity} so waiting on the clock is not mistaken
          for deadlock. *)
  next_arrival : rank:int -> float option;
      (** The earliest virtual time at which [poll ~rank] can do more
          than find nothing, unless someone sends first: for a modelled
          wire the head arrival of the inbox, [Some infinity] when it is
          empty. A layer with timers lowers its inner channel's answer to
          its own next deadline ({!Fault}'s next release, {!Reliable}'s
          next retransmission timeout); the {!Ft} silencer passes it
          through. A finite answer also promises that such a poll calls
          {!Fiber.note_activity}. [None] when the channel cannot tell
          (the real-time parallel shm rings). Idle fast-forward uses it
          as a wait's horizon. *)
  add_rank : unit -> int;  (** returns the new rank id *)
  n_ranks : unit -> int;
}

val make :
  name:string ->
  per_msg_ns:float ->
  per_byte_ns:float ->
  ?topo:Simtime.Topology.t ->
  ?intra:float * float ->
  syscall_fraction:float ->
  env:Simtime.Env.t ->
  n_ranks:int ->
  unit ->
  t
(** Generic latency/bandwidth-modelled channel. [syscall_fraction] is the
    share of [per_msg_ns] charged to the sender's CPU per fragment.

    With [?topo] and [?intra:(per_msg_ns, per_byte_ns)], messages whose
    endpoints share a node (per {!Simtime.Topology.same_node}) are priced
    at the intra-node figures; all other traffic pays the base figures.
    When [?topo] is present, per-tier traffic is also counted under
    [msgs_intra_node]/[msgs_inter_node] and the matching byte keys. *)
