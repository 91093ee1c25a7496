type t = {
  name : string;
  fcall_ns : float;
  pinvoke_ns : float;
  jni_ns : float;
  marshal_per_arg_ns : float;
  managed_wrapper_ns : float;
  binding_ns_per_byte : float;
  pin_ns : float;
  unpin_ns : float;
  pin_boundary_check_ns : float;
  memcpy_ns_per_byte : float;
  alloc_obj_ns : float;
  alloc_ns_per_byte : float;
  managed_instr_ns : float;
  gc_safepoint_poll_ns : float;
  gc_young_base_ns : float;
  gc_full_base_ns : float;
  gc_copy_ns_per_byte : float;
  gc_mark_ns_per_obj : float;
  gc_sweep_ns_per_obj : float;
  gc_pin_status_check_ns : float;
  sock_per_msg_ns : float;
  sock_ns_per_byte : float;
  shm_per_msg_ns : float;
  shm_ns_per_byte : float;
  rndv_handshake_ns : float;
  mtu_bytes : int;
  eager_threshold_bytes : int;
  rdma_per_msg_ns : float;
  rdma_write_ns_per_byte : float;
  rdma_read_ns_per_byte : float;
  rdma_reg_base_ns : float;
  rdma_reg_ns_per_byte : float;
  rdma_eager_threshold_bytes : int;
  rdma_cache_capacity_bytes : int;
  queue_probe_ns : float;
  request_ns : float;
  progress_poll_ns : float;
  sched_step_ns : float;
  coll_binomial_min_ranks : int;
  coll_binomial_max_block : int;
  coll_rabenseifner_min_bytes : int;
  coll_bcast_scatter_min_bytes : int;
  coll_allgather_rd_max_bytes : int;
  ser_per_obj_ns : float;
  ser_per_field_ns : float;
  ser_ns_per_byte : float;
  deser_per_obj_ns : float;
  deser_ns_per_byte : float;
  visited_probe_ns : float;
  reflect_field_ns : float;
}

(* Transport and raw-memory numbers model the paper's testbed (Pentium M
   1.7 GHz, Windows XP, both ranks on one node, MPICH2 sock channel over
   loopback): ~11 us one-way small-message latency, ~300 MB/s loopback
   streaming, ~1.1 GB/s memcpy. These are shared by every preset. *)
let native_cpp =
  {
    name = "C++ (native MPICH2)";
    fcall_ns = 0.0;
    pinvoke_ns = 0.0;
    jni_ns = 0.0;
    marshal_per_arg_ns = 0.0;
    managed_wrapper_ns = 0.0;
    binding_ns_per_byte = 0.0;
    pin_ns = 0.0;
    unpin_ns = 0.0;
    pin_boundary_check_ns = 0.0;
    managed_instr_ns = 0.0;
    memcpy_ns_per_byte = 0.9;
    alloc_obj_ns = 90.0;
    alloc_ns_per_byte = 0.12;
    gc_safepoint_poll_ns = 0.0;
    gc_young_base_ns = 0.0;
    gc_full_base_ns = 0.0;
    gc_copy_ns_per_byte = 0.0;
    gc_mark_ns_per_obj = 0.0;
    gc_sweep_ns_per_obj = 0.0;
    gc_pin_status_check_ns = 0.0;
    sock_per_msg_ns = 11_000.0;
    sock_ns_per_byte = 3.2;
    shm_per_msg_ns = 1_400.0;
    shm_ns_per_byte = 1.1;
    rndv_handshake_ns = 9_000.0;
    mtu_bytes = 16_384;
    eager_threshold_bytes = 65_536;
    (* RDMA-class fabric (InfiniBand figures in the spirit of "MPICH2
       over InfiniBand with RDMA Support"): kernel-bypass per-message
       cost far below the sock channel, RDMA-write streaming faster than
       RDMA-read (the read path pays the responder's DMA turnaround),
       and an expensive pin-down registration whose base cost is what
       the registration cache exists to amortize. The write/read
       per-byte split puts the rendezvous-variant crossover at
       per_msg / (read - write) = 12 KiB: a rendezvous below it saves
       the extra control hop with RDMA-read, above it RDMA-write's
       bandwidth wins. *)
    rdma_per_msg_ns = 3_000.0;
    rdma_write_ns_per_byte = 0.55;
    rdma_read_ns_per_byte = 0.8;
    rdma_reg_base_ns = 20_000.0;
    rdma_reg_ns_per_byte = 0.3;
    rdma_eager_threshold_bytes = 4_096;
    rdma_cache_capacity_bytes = 1_048_576;
    queue_probe_ns = 80.0;
    request_ns = 300.0;
    progress_poll_ns = 150.0;
    (* Dispatching one step of a collective schedule (MPIR_Sched-style):
       callback bookkeeping, completion-counter update, kickoff of the
       underlying operation. The blocking collectives paid an equivalent
       toll in fiber rescheduling between rounds; charging it here keeps
       the measured coll_* crossovers below valid for the schedule
       engine that replaced them. *)
    sched_step_ns = 900.0;
    (* Collective algorithm selection (shared by every preset, like the
       transport): below/above these the collectives layer switches
       algorithms. The values are placed at the measured crossovers of
       the coll_sweep experiment on this transport (~11us/msg, ~300 MB/s
       sock channel); see DESIGN.md and results/coll_sweep.csv. *)
    coll_binomial_min_ranks = 8;
    coll_binomial_max_block = 4_096;
    coll_rabenseifner_min_bytes = 131_072;
    coll_bcast_scatter_min_bytes = 262_144;
    coll_allgather_rd_max_bytes = 1_048_576;
    ser_per_obj_ns = 0.0;
    ser_per_field_ns = 0.0;
    ser_ns_per_byte = 0.9;
    deser_per_obj_ns = 0.0;
    deser_ns_per_byte = 0.9;
    visited_probe_ns = 0.0;
    reflect_field_ns = 0.0;
  }

(* A managed runtime hosted on the SSCLI Free build. GC costs are shared by
   all managed presets; what distinguishes the systems is the call mechanism,
   the pinning discipline and the serializer. *)
let sscli_runtime =
  {
    native_cpp with
    pin_ns = 350.0;
    unpin_ns = 250.0;
    pin_boundary_check_ns = 40.0;
    (* interpreted managed code; the SSCLI JIT would be ~5x faster *)
    managed_instr_ns = 12.0;
    gc_safepoint_poll_ns = 18.0;
    gc_young_base_ns = 25_000.0;
    gc_full_base_ns = 120_000.0;
    gc_copy_ns_per_byte = 1.4;
    gc_mark_ns_per_obj = 55.0;
    gc_sweep_ns_per_obj = 40.0;
    gc_pin_status_check_ns = 60.0;
    alloc_obj_ns = 60.0;
    (* bump allocation is cheap *)
    alloc_ns_per_byte = 0.05;
  }

let motor =
  {
    sscli_runtime with
    name = "Motor";
    fcall_ns = 250.0;
    managed_wrapper_ns = 300.0;
    (* Custom serializer driven by the Transportable bit on FieldDesc:
       no metadata reflection; a linear visited list (paper Section 8). *)
    ser_per_obj_ns = 600.0;
    ser_per_field_ns = 120.0;
    deser_per_obj_ns = 700.0;
    visited_probe_ns = 3.0;
    reflect_field_ns = 0.0;
  }

let indiana_sscli =
  {
    sscli_runtime with
    name = "Indiana SSCLI";
    pinvoke_ns = 1_750.0;
    marshal_per_arg_ns = 130.0;
    managed_wrapper_ns = 300.0;
    binding_ns_per_byte = 0.12;
    (* Standard CLI binary serializer, SSCLI implementation: reflection
       driven and markedly slower than commercial .NET (Figure 10 caption). *)
    ser_per_obj_ns = 8_200.0;
    ser_per_field_ns = 350.0;
    deser_per_obj_ns = 2_600.0;
    visited_probe_ns = 0.0;
    (* hash-based handle table *)
    reflect_field_ns = 900.0;
  }

let indiana_dotnet =
  {
    indiana_sscli with
    name = "Indiana .NET";
    (* Commercial .NET v1.1: faster P/Invoke path and a much faster binary
       serializer than the shared-source build. *)
    pinvoke_ns = 1_500.0;
    marshal_per_arg_ns = 110.0;
    managed_wrapper_ns = 220.0;
    binding_ns_per_byte = 0.09;
    pin_ns = 260.0;
    unpin_ns = 190.0;
    ser_per_obj_ns = 2_400.0;
    ser_per_field_ns = 160.0;
    deser_per_obj_ns = 900.0;
    reflect_field_ns = 300.0;
  }

let mpijava =
  {
    sscli_runtime with
    name = "Java (mpiJava)";
    jni_ns = 2_200.0;
    marshal_per_arg_ns = 170.0;
    managed_wrapper_ns = 550.0;
    (* JNI array access on the Sun JVM pays a per-byte toll on the critical
       path (copy-or-pin GetArrayElements discipline). *)
    binding_ns_per_byte = 1.1;
    pin_ns = 420.0;
    unpin_ns = 300.0;
    (* Standard Java serialization: handle table plus block-data buffering;
       the per-object figures here are the small-count (block-data) regime,
       Java_serializer switches to a slower regime for large counts. *)
    ser_per_obj_ns = 3_000.0;
    ser_per_field_ns = 260.0;
    deser_per_obj_ns = 1_400.0;
    visited_probe_ns = 0.0;
    reflect_field_ns = 450.0;
  }

(* The paper's footnote 4: a fastchecked SSCLI build makes pinning
   considerably more expensive than the Free build. *)
let indiana_sscli_fastchecked =
  {
    indiana_sscli with
    name = indiana_sscli.name ^ " (fastchecked)";
    pin_ns = 2_800.0;
    unpin_ns = 2_000.0;
  }
