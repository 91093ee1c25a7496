(** The workload catalogue: every MPI workload the explorer, the sweeps
    and the tests run, each written once (DESIGN.md §12). An entry does
    not own its world: it carries the {!spec} it was written for, and
    callers change fields of it ([{ e.spec with fault }]) to run the
    same workload elsewhere. *)

type spec = {
  n : int;
  channel : [ `Shm | `Sock | `Rdma ];
  topology : Simtime.Topology.t option;
  fault : Mpi_core.Fault.plan option;
  reliable : Mpi_core.Reliable.config option;
  detector : Mpi_core.Ft.detector option;
  parallel : int option;
}
(** {!Mpi_core.Mpi.create_world}'s arguments, as a record. *)

type entry = {
  name : string;
  spec : spec;  (** the world the entry was written for *)
  start :
    Mpi_core.Mpi.world ->
    (Mpi_core.Mpi.proc -> unit) * (unit -> string * Invariant.violation list);
      (** [start w] is the body every rank runs and the [finish] to call
          after they all return: the digest and the entry's own oracle
          violations. *)
}

val spec : n:int -> spec
(** [n] ranks on [`Sock], every other field [None]. *)

val world : spec -> Mpi_core.Mpi.world
(** Build the world a spec describes. *)

val launch :
  entry -> Mpi_core.Mpi.world -> unit -> string * Invariant.violation list
(** [launch e w] runs the entry on every rank of the world
    ({!Mpi_core.Mpi.launch}) and returns its [finish], so a wall-clock
    measurement can leave the oracles out; [launch e w ()] also calls
    it. *)

val run :
  entry -> spec -> string * Invariant.violation list * Mpi_core.Mpi.world
(** {!world} then {!launch}; also returns the world (its env carries the
    clock and counters). *)

(** {1 Entries}

    [ring], [allreduce_chain] and [allreduce_bytes] raise
    [Invalid_argument] on fewer than two ranks or an empty (for
    [allreduce_bytes], misaligned) payload. *)

val ring : n:int -> rounds:int -> size:int -> ssend_tail:bool -> entry
(** ["ring"]: [rounds] [sendrecv] shifts of a [size]-byte payload that
    every rank remixes with what it received. [ssend_tail] adds one
    synchronous-mode exchange in parity order (the rendezvous path) and
    a last remix. The oracle replays the remix with a plain loop. *)

val allreduce_chain : n:int -> rounds:int -> entry
(** ["allreduce_chain"]: [rounds] summing allreduces, each fed by the
    previous result, then a non-commutative [reduce] (2x2 matrices over
    Z/256) that must fold in rank order. The oracle is the running sum
    per round and the rank-order product, computed with plain loops. *)

val allreduce_bytes : n:int -> rounds:int -> size:int -> entry
(** ["allreduce_bytes"]: a recursive-doubling i64-lane vector allreduce
    of [size] bytes (a multiple of 8), remixed locally every round. The
    oracle sums the lanes with a plain loop. *)

val hier_allreduce : rounds:int -> entry
(** ["hier_allreduce"]: on a 2x2-node topology, chained [`Auto]
    allreduces (two-level), a [`Hier]-vs-[`Linear] cross-check on the
    non-commutative operator, a barrier and a bcast from a non-leader
    root. *)

val icoll_overlap : n:int -> entry
(** ["icoll_overlap"]: ibarrier + ibcast + iallreduce + a point-to-point
    shift all in flight, completed by one [wait_all]. *)

val rma_fence : n:int -> big:int -> entry
(** ["rma_fence"]: on [`Rdma], three fence epochs: an eager put ring
    with a pre-fence visibility probe and accumulates into rank 0
    (commutative sum, rank-ordered matmul), a [big]-byte (rendezvous)
    put ring and a get ring. *)

val rma_lock : n:int -> entry
(** ["rma_lock"]: passive-target lock/unlock: an exclusive-lock
    read-modify-write counter plus per-rank slots, audited under a
    shared lock. *)

val rma_epoch : eager_apply:bool -> n:int -> entry
(** ["rma_epoch"]: one fence epoch of 4 KiB puts, probed between the
    put and the fence. With [eager_apply] the windows apply updates on
    arrival, so a perturbed schedule can see a put before the fence (a
    ["rma-epoch"] violation); without it the epoch is clean under every
    schedule. *)

(** {2 Rank death}

    Four ranks run their work inside the ULFM recovery loop (attempt,
    [comm_agree], on failure revoke + shrink + retry) with
    {!sweep_detector}, checked with {!Invariant.survivor_convergence}
    plus a membership-implies-value oracle; the digest is the constant
    ["converged"]. The kill comes from the spec's fault plan. *)

val sweep_detector : Mpi_core.Ft.detector
(** A heartbeat detector fast enough that a detection costs microseconds
    of virtual time. *)

val kill_allreduce : unit -> entry
(** ["kill_allreduce"]: a summing allreduce. *)

val kill_p2p : unit -> entry
(** ["kill_p2p"]: a token-passing ring allreduce over [sendrecv]. *)

val kill_hier_leader : unit -> entry
(** ["kill_hier_leader"]: the summing allreduce on a 2x2-node
    topology. *)
