(** Wire packets exchanged by the CH3-style device through a channel.

    Two protocols, as in MPICH2:
    - {e eager}: payload travels with the envelope; used up to the eager
      threshold. An unmatched eager message is buffered in the receiver's
      unexpected queue and copied again when the receive is finally posted.
    - {e rendezvous}: RTS announces the message; the receiver replies CTS
      once a matching receive provides a buffer; DATA then moves the payload
      in one pass, zero-copy into the user buffer. Synchronous-mode sends
      (MPI_Ssend) always take this path regardless of size. A receiver that
      cannot accept the transfer (truncation) answers NAK so the sender can
      release its rendezvous state instead of leaking it.

    On lossy channels the {!Reliable} layer wraps every device packet in a
    {!Frame} carrying a per-(src,dst) sequence number and a {!checksum} of
    the inner packet, and acknowledges delivery with {!Ack} packets. *)

type envelope = {
  e_src : int;  (** world rank of sender *)
  e_dst : int;
  e_tag : int;
  e_context : int;  (** communicator context id *)
  e_bytes : int;  (** payload size *)
  e_seq : int;  (** per-sender sequence number (debugging / ordering) *)
}

type frame = {
  f_src : int;  (** sending world rank (selects the sequence space) *)
  f_seq : int;  (** per-(src,dst) reliable-delivery sequence number *)
  f_check : int;  (** {!checksum} of the inner packet at send time *)
}

type t =
  | Eager of envelope * Bytes.t
  | Rts of envelope * int  (** rendezvous id *)
  | Cts of int  (** rendezvous id, sent back to the RTS sender *)
  | Rndv_data of int * Bytes.t
  | Nak of int * string
      (** rendezvous id refused by the receiver, with the reason; the
          sender fails the request and drops its rendezvous state *)
  | Frame of frame * t  (** reliable-delivery framing around any packet *)
  | Ack of int * int  (** cumulative ack: (acking rank, highest seq) *)

val header_bytes : int
(** Fixed per-packet header size used for wire-cost accounting. *)

val wire_bytes : t -> int

val checksum : t -> int
(** Deterministic integrity checksum (FNV-1a over a canonical encoding,
    truncated to 30 bits). Any single bit flip in a payload or header
    field changes the value. The hash runs as plain loops over an unboxed
    accumulator, so its allocation does not grow with the payload. *)

val describe : t -> string
