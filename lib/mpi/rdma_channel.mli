(** RDMA-class channel: kernel-bypass transport with explicit memory
    registration, modelled after "Design and Implementation of MPICH2 over
    InfiniBand with RDMA Support" (Liu et al.).

    Three things distinguish it from {!Sock_channel}/{!Shm_channel}:

    - a far lower per-descriptor cost ([Cost.rdma_per_msg_ns]) but an
      expensive pin-down {e registration} step for any user memory the
      HCA touches ([rdma_reg_base_ns] + per-byte page pinning);
    - a per-rank LRU {e registration cache} that amortizes the pin-down
      cost across transfers reusing the same buffers (the paper's
      "pin-down cache"), with capacity-based eviction and hit/miss/
      eviction counters;
    - two rendezvous variants — RDMA-write (extra control hop, streams at
      [rdma_write_ns_per_byte]) and RDMA-read (one hop fewer, but pays the
      responder's DMA turnaround at [rdma_read_ns_per_byte]) — chosen per
      transfer by modelled cost. Transfers under
      [rdma_eager_threshold_bytes] instead stage through pre-registered
      bounce buffers (two memcpys, no registration).

    Packet delivery itself rides the generic {!Channel.make} machinery
    (ordering, MTU fragmentation, topology tiers), priced at the RDMA
    figures; the registration and variant-selection costs are charged on
    top by the {!Rma} layer through the helpers below. *)

(** The registration cache, exposed standalone so unit and property tests
    can drive it against a model without a channel. Entries are
    [(addr, len)] ranges; a request is a {e hit} when some cached entry
    covers it entirely. Window registrations are {e pinned} and never
    evicted; deregistration is lazy — an unpinned entry stays cached (and
    LRU-evictable) so re-registration of a hot buffer is a hit. *)
module Cache : sig
  type t

  type outcome =
    | Hit
    | Miss of { evicted : (int * int) list }
        (** Fresh registration; [evicted] lists the [(addr, len)] ranges
            deregistered (LRU-first) to fit under the capacity. *)

  val create : capacity_bytes:int -> t

  val access : t -> addr:int -> len:int -> outcome
  (** Look up (and on miss, insert) a registration for [addr, addr+len).
      A single region larger than the whole capacity is still registered
      (pinned I/O cannot be split); it becomes the next eviction victim. *)

  val pin : t -> addr:int -> len:int -> outcome
  (** Like {!access}, but the covering entry's pin count is raised: the
      entry cannot be evicted until {!unpin}. Used for window memory whose
      registration must outlive any individual transfer. *)

  val unpin : t -> addr:int -> len:int -> unit
  (** Drop one pin from the entry covering the range. The entry remains
      cached (lazy deregistration). @raise Invalid_argument if no pinned
      entry covers the range. *)

  val mem : t -> addr:int -> len:int -> bool
  (** Is the range covered by a cached registration (without touching
      LRU order or counters)? *)

  val entries : t -> int
  val registered_bytes : t -> int
  val pinned_bytes : t -> int
  val hits : t -> int
  val misses : t -> int
  val evictions : t -> int
end

type t

val create : ?topo:Simtime.Topology.t -> Simtime.Env.t -> n_ranks:int -> t
(** Each per-rank registration cache holds
    [Cost.rdma_cache_capacity_bytes]. With [?topo], same-node endpoints
    are priced at the shared-memory tier (the fabric only carries
    inter-node traffic). *)

val channel : t -> Channel.t
val eager_threshold : t -> int

val cache : t -> rank:int -> Cache.t
(** The per-rank registration cache (created on first use, so dynamically
    spawned ranks get one too). *)

val addr_of : t -> Bytes.t -> int
(** Stable synthetic base address for a buffer, keyed by physical
    identity: the same [Bytes.t] always maps to the same page-aligned
    address, distinct buffers never overlap. This stands in for the
    virtual address an HCA would be given. *)

val register : t -> rank:int -> addr:int -> len:int -> bool
(** Consult [rank]'s cache for a transfer touching [addr, addr+len):
    counts a hit ([Stats.Key.rdma_reg_hits]) or charges the pin-down cost
    and counts the miss and any evictions. Returns [true] on a hit. *)

val pin_region : t -> rank:int -> addr:int -> len:int -> unit
(** Register-and-pin window memory (charged like a miss when not cached);
    paired with {!unpin_region} at [win_free]. *)

val unpin_region : t -> rank:int -> addr:int -> len:int -> unit

val charge_rndv : t -> len:int -> [ `Write | `Read ]
(** Charge the chosen rendezvous variant's cost {e beyond} what the
    packet layer already prices (which streams at the RDMA-write rate):
    RDMA-write pays one extra control descriptor, RDMA-read pays the
    read/write per-byte delta. The crossover sits at
    [rdma_per_msg_ns / (read - write per-byte)] = 12 KiB on the default
    model: below it RDMA-read's saved hop wins, above it RDMA-write's
    bandwidth does. Counts the pick under the matching stats key. *)

val charge_eager : t -> len:int -> unit
(** Charge the bounce-buffer staging copies (origin copy-in + target
    copy-out) for a small transfer and count it. *)
