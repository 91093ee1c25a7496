(* Bounded single-producer/single-consumer ring.

   The sharded shm channel allocates one ring per (src, dst) pair, so
   each ring has exactly one producing domain (src's) and one consuming
   domain (dst's) — the cheapest possible memory-model contract:

   - [tail] is written only by the producer, [head] only by the
     consumer; both are [Atomic] so the counter updates are release
     stores and the cross-domain reads acquire loads (OCaml atomics are
     SC, which is stronger than we need).
   - The slot array itself holds plain (non-atomic) fields. The
     producer writes slot [tail land mask] and THEN publishes with
     [Atomic.set tail (tail+1)]; the consumer reads [tail] first, so
     the slot write happens-before the slot read. Symmetrically the
     consumer clears the slot before releasing it via [head], so the
     producer never overwrites a slot still being read. No torn reads,
     no lost updates, TSan-clean.

   Capacity is rounded up to a power of two; indices grow monotonically
   and are masked on access, so full/empty distinguish by subtraction
   (never ambiguous with ints wrapping at 2^62). *)

type 'a t = {
  buf : 'a option array;
  mask : int;
  head : int Atomic.t; (* next slot to read; written by the consumer *)
  tail : int Atomic.t; (* next slot to write; written by the producer *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Spsc.create: capacity must be positive";
  let cap = ref 2 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  {
    buf = Array.make !cap None;
    mask = !cap - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

let try_push t v =
  let tail = Atomic.get t.tail in
  let head = Atomic.get t.head in
  if tail - head > t.mask then false
  else begin
    t.buf.(tail land t.mask) <- Some v;
    Atomic.set t.tail (tail + 1);
    true
  end

(* Blocking push: spin with [cpu_relax] until the consumer frees a slot.
   The consumer drains its rings every poll, so a full ring means it is
   merely behind, not parked — backpressure, not deadlock. *)
let push t v =
  while not (try_push t v) do
    Domain.cpu_relax ()
  done

let pop t =
  let head = Atomic.get t.head in
  let tail = Atomic.get t.tail in
  if tail = head then None
  else begin
    let i = head land t.mask in
    let v = t.buf.(i) in
    t.buf.(i) <- None;
    Atomic.set t.head (head + 1);
    v
  end
