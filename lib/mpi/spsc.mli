(** Bounded single-producer/single-consumer ring (DESIGN.md §15).

    The building block of the sharded shm channel: one ring per
    (src, dst) rank pair, so each ring is written by exactly one domain
    and read by exactly one domain. Publication is by the [Atomic]
    head/tail counters alone — slots are plain fields, made safe by the
    release/acquire ordering of the counter updates. *)

type 'a t

val create : capacity:int -> 'a t
(** Capacity is rounded up to the next power of two (min 2). *)

val try_push : 'a t -> 'a -> bool
(** Producer side. False when the ring is full. *)

val push : 'a t -> 'a -> unit
(** Producer side; spins ([Domain.cpu_relax]) until space is available.
    The consumer drains opportunistically on every poll, so a full ring
    is backpressure, not a deadlock. *)

val pop : 'a t -> 'a option
(** Consumer side. *)
