(** Cost model for the virtual-time simulation.

    Every mechanism the paper blames for performance differences has an
    explicit cost knob here: call mechanisms (FCall vs P/Invoke vs JNI),
    pinning, GC phases, transport, MPI bookkeeping and serialization. A
    "system under test" (Motor, native C++, Indiana bindings on SSCLI or
    .NET, mpiJava) is a preset of this record; all presets share the same
    transport costs because the paper re-hosted every binding over the same
    MPICH2 1.0.2 (Section 8).

    Units are nanoseconds of virtual time unless noted. Values are calibrated
    to the magnitudes readable off the paper's log-scale Figures 9 and 10 on
    a Pentium M 1.7 GHz; shapes, not absolute values, are the reproduction
    target (DESIGN.md §4). *)

type t = {
  name : string;
  (* Call mechanisms (per managed -> library crossing). *)
  fcall_ns : float;  (** runtime-internal call: trusted, no marshalling *)
  pinvoke_ns : float;  (** P/Invoke base cost incl. security checks *)
  jni_ns : float;  (** JNI base cost incl. security checks *)
  marshal_per_arg_ns : float;  (** per-argument marshalling (P/Invoke, JNI) *)
  managed_wrapper_ns : float;  (** managed-side dispatch per MPI call *)
  binding_ns_per_byte : float;
      (** per-byte overhead of crossing the managed/native boundary with a
          pinned buffer (zero for Motor and native) *)
  (* Pinning. *)
  pin_ns : float;
  unpin_ns : float;
  pin_boundary_check_ns : float;
      (** Motor's young-generation address-range test *)
  (* Memory. *)
  memcpy_ns_per_byte : float;
  alloc_obj_ns : float;
  alloc_ns_per_byte : float;
  managed_instr_ns : float;
      (** virtual cost of executing one managed (MIL) instruction *)
  (* Garbage collection. *)
  gc_safepoint_poll_ns : float;
  gc_young_base_ns : float;
  gc_full_base_ns : float;
  gc_copy_ns_per_byte : float;
  gc_mark_ns_per_obj : float;
  gc_sweep_ns_per_obj : float;
  gc_pin_status_check_ns : float;
      (** mark-phase check of a conditional pin request *)
  (* Transport (shared by all systems). *)
  sock_per_msg_ns : float;
  sock_ns_per_byte : float;
  shm_per_msg_ns : float;
  shm_ns_per_byte : float;
  rndv_handshake_ns : float;
  mtu_bytes : int;
  eager_threshold_bytes : int;
  (* RDMA-class channel ([Mpi_core.Rdma_channel]): kernel-bypass
     transport with explicit memory registration, as in "MPICH2 over
     InfiniBand with RDMA Support". *)
  rdma_per_msg_ns : float;  (** per-descriptor cost (kernel bypass) *)
  rdma_write_ns_per_byte : float;  (** RDMA-write streaming *)
  rdma_read_ns_per_byte : float;
      (** RDMA-read streaming (slower: responder DMA turnaround) *)
  rdma_reg_base_ns : float;  (** pin-down registration base cost *)
  rdma_reg_ns_per_byte : float;  (** page-pinning cost per byte *)
  rdma_eager_threshold_bytes : int;
      (** below: copy through pre-registered bounce buffers; above:
          rendezvous into registered memory *)
  rdma_cache_capacity_bytes : int;
      (** default registration-cache capacity (LRU eviction past it) *)
  (* MPI bookkeeping. *)
  queue_probe_ns : float;  (** per queue element inspected during matching *)
  request_ns : float;  (** request allocation / completion *)
  progress_poll_ns : float;
  sched_step_ns : float;
      (** dispatching one step of a collective schedule ([Coll_sched]):
          callback bookkeeping plus kickoff of the underlying operation.
          The blocking collectives paid an equivalent per-round fiber
          rescheduling toll, so the [coll_*] crossovers measured against
          them remain valid for the schedule engine. *)
  (* Collective algorithm selection (see [Mpi_core.Collectives]): the
     thresholds are part of the cost model so algorithm choice is a
     measurable, tunable policy rather than hard-wired. *)
  coll_binomial_min_ranks : int;
      (** scatter/gather switch from a flat root-fan to a binomial tree at
          this communicator size (equal-block mode only) *)
  coll_binomial_max_block : int;
      (** ... but only up to this block size: the tree's internal nodes
          forward their whole subtree, so past this the extra store-and-
          forward bandwidth costs more than the saved root latency *)
  coll_rabenseifner_min_bytes : int;
      (** allreduce switches from recursive doubling to Rabenseifner
          (reduce-scatter + allgather) at this payload size *)
  coll_bcast_scatter_min_bytes : int;
      (** bcast switches from the binomial tree to the pipelined
          scatter + ring-allgather algorithm at this payload size on an
          8-member communicator; the switch point scales as n^2/64 times
          this value, because the ring phase costs Theta(n) messages per
          member *)
  coll_allgather_rd_max_bytes : int;
      (** allgather uses recursive doubling up to this total (size x block)
          payload on power-of-two communicators, the ring beyond *)
  (* Serialization. *)
  ser_per_obj_ns : float;
  ser_per_field_ns : float;
  ser_ns_per_byte : float;
  deser_per_obj_ns : float;
  deser_ns_per_byte : float;
  visited_probe_ns : float;
      (** one comparison in the serializer's visited structure *)
  reflect_field_ns : float;
      (** metadata-based reflection per field (standard serializers) *)
}

val native_cpp : t
(** The paper's "native C++ application using MPICH2": no VM, no pinning,
    no managed boundary. *)

val motor : t
(** Motor: FCall entry, pinning policy, FieldDesc-bit serializer. *)

val indiana_sscli : t
(** Indiana C# bindings hosted on the SSCLI (Free build): P/Invoke and a pin
    per operation; standard CLI binary serializer (SSCLI speed). *)

val indiana_sscli_fastchecked : t
(** Same, on a fastchecked SSCLI build (footnote 4): expensive pinning. *)

val indiana_dotnet : t
(** Indiana C# bindings hosted on commercial .NET v1.1: faster runtime and
    serializer than the SSCLI, same wrapper architecture. *)

val mpijava : t
(** mpiJava 1.2.5 on Sun JDK 1.5: JNI with automatic pin/unpin and the
    standard Java serialization mechanism. *)
