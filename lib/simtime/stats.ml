(* Counters plus named histograms over virtual time.

   Histograms use half-octave log2 buckets: bucket [i] holds values in
   (2^((i-1)/2), 2^(i/2)]. Quantiles are read off the bucket boundaries,
   so p50/p99 are upper bounds accurate to ~41% — plenty for "mechanism X
   cost about T" assertions, and entirely deterministic. *)

let n_buckets = 128

(* Values <= 1 ns land in bucket 0. *)
let bucket_of v =
  if v <= 1.0 then 0
  else
    let i = int_of_float (Float.ceil (2.0 *. Float.log2 v)) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

let bucket_upper i = Float.pow 2.0 (float_of_int i /. 2.0)

(* Sum and extrema live in an all-float record, which OCaml stores flat:
   updating them boxes nothing, so [observe] allocates nothing. *)
type moments = {
  mutable m_sum : float;
  mutable m_min : float;
  mutable m_max : float;
}

type hist = {
  mutable h_n : int;
  h_m : moments;
  h_buckets : int array;
}

let fresh_hist () =
  {
    h_n = 0;
    h_m = { m_sum = 0.0; m_min = infinity; m_max = neg_infinity };
    h_buckets = Array.make n_buckets 0;
  }

(* ------------------------------------------------------------------ *)
(* Declared keys                                                       *)
(* ------------------------------------------------------------------ *)

(* A key is its slot in every accumulator's array for its kind. *)
type counter = int
type histogram = int

module Registry = struct
  type kind = Counter | Histogram

  (* Slot -> name, per kind. A declaration replaces the whole table
     under [lock]; accumulators read it through the atomic without the
     lock, so any domain sees the names of every slot it can hold. *)
  type names = { counters : string array; hists : string array }

  let names = Atomic.make { counters = [||]; hists = [||] }
  let lock = Mutex.create ()
  let by_name : (string, kind * int) Hashtbl.t = Hashtbl.create 128

  let declare kind name =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt by_name name with
        | Some (k, slot) when k = kind -> slot
        | Some _ ->
            invalid_arg
              (Printf.sprintf "Stats: %S is already declared as the other kind"
                 name)
        | None ->
            let n = Atomic.get names in
            let slot, n =
              match kind with
              | Counter ->
                  ( Array.length n.counters,
                    { n with counters = Array.append n.counters [| name |] } )
              | Histogram ->
                  ( Array.length n.hists,
                    { n with hists = Array.append n.hists [| name |] } )
            in
            Hashtbl.add by_name name (kind, slot);
            Atomic.set names n;
            slot)
end

let counter name : counter = Registry.declare Registry.Counter name
let histogram name : histogram = Registry.declare Registry.Histogram name
let counter_name (k : counter) = (Atomic.get Registry.names).counters.(k)
let histogram_name (k : histogram) = (Atomic.get Registry.names).hists.(k)
let declared_counters () = Array.to_list (Atomic.get Registry.names).counters
let declared_histograms () = Array.to_list (Atomic.get Registry.names).hists

(* ------------------------------------------------------------------ *)
(* Accumulators                                                        *)
(* ------------------------------------------------------------------ *)

(* Arrays indexed by slot, sized to the keys declared so far and grown
   when a later declaration is first recorded. A counter reads -1 until
   it is first touched (even by [add _ _ 0]); a histogram is [absent]
   until its first sample. *)
type t = {
  mutable counts : int array;
  mutable hists : hist array;
}

(* Shared placeholder for a histogram never observed; never written. *)
let absent = fresh_hist ()

let create () : t =
  let n = Atomic.get Registry.names in
  {
    counts = Array.make (Array.length n.counters) (-1);
    hists = Array.make (Array.length n.hists) absent;
  }

let grown a slot fill =
  let b = Array.make (max (slot + 1) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Slots are non-negative by construction, so after the length check the
   accesses below are in bounds. *)
let add t (k : counter) n =
  if n < 0 then invalid_arg "Stats.add: negative amount";
  if k >= Array.length t.counts then t.counts <- grown t.counts k (-1);
  let c = Array.unsafe_get t.counts k in
  Array.unsafe_set t.counts k (if c < 0 then n else c + n)

let incr t k = add t k 1

let get t (k : counter) =
  if k < Array.length t.counts then max 0 t.counts.(k) else 0

let hist_cell t (k : histogram) =
  if k >= Array.length t.hists then t.hists <- grown t.hists k absent;
  let h = Array.unsafe_get t.hists k in
  if h != absent then h
  else begin
    let h = fresh_hist () in
    Array.unsafe_set t.hists k h;
    h
  end

let observe t k v =
  if not (Float.is_finite v) then
    invalid_arg "Stats.observe: non-finite value";
  if v < 0.0 then invalid_arg "Stats.observe: negative value";
  let h = hist_cell t k in
  h.h_n <- h.h_n + 1;
  let m = h.h_m in
  m.m_sum <- m.m_sum +. v;
  if v < m.m_min then m.m_min <- v;
  if v > m.m_max then m.m_max <- v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let with_timer t key ~now f =
  let t0 = now () in
  Fun.protect
    ~finally:(fun () -> observe t key (Float.max 0.0 (now () -. t0)))
    f

(* Fold [from] into [t]: counters add; histogram counts, sums and buckets
   add, extrema combine. The parallel execution mode gives each domain
   its own accumulator and merges after the run, so hot-path increments
   never cross domains (DESIGN.md §15). Call only when [from]'s owning
   domain is quiescent (after the run joins). *)
let absorb t ~from =
  Array.iteri (fun k c -> if c >= 0 then add t k c) from.counts;
  Array.iteri
    (fun k h ->
      if h != absent then begin
        let dst = hist_cell t k in
        dst.h_n <- dst.h_n + h.h_n;
        dst.h_m.m_sum <- dst.h_m.m_sum +. h.h_m.m_sum;
        if h.h_n > 0 then begin
          if h.h_m.m_min < dst.h_m.m_min then dst.h_m.m_min <- h.h_m.m_min;
          if h.h_m.m_max > dst.h_m.m_max then dst.h_m.m_max <- h.h_m.m_max
        end;
        Array.iteri
          (fun i v -> dst.h_buckets.(i) <- dst.h_buckets.(i) + v)
          h.h_buckets
      end)
    from.hists

let merged ts =
  let acc = create () in
  List.iter (fun t -> absorb acc ~from:t) ts;
  acc

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

type summary = {
  n : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p99 : float;
}

let quantile h q =
  if h.h_n = 0 then 0.0
  else begin
    let target = Float.max 1.0 (Float.ceil (q *. float_of_int h.h_n)) in
    let cum = ref 0 in
    let idx = ref (n_buckets - 1) in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + h.h_buckets.(i);
         if float_of_int !cum >= target then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    Float.min h.h_m.m_max (Float.max h.h_m.m_min (bucket_upper !idx))
  end

let summarize h =
  {
    n = h.h_n;
    sum = h.h_m.m_sum;
    min = (if h.h_n = 0 then 0.0 else h.h_m.m_min);
    max = (if h.h_n = 0 then 0.0 else h.h_m.m_max);
    p50 = quantile h 0.5;
    p99 = quantile h 0.99;
  }

let hist t (k : histogram) =
  if k < Array.length t.hists && t.hists.(k) != absent then
    Some (summarize t.hists.(k))
  else None

(* [(name, f v)] for every present slot, sorted by name. *)
let listed names present f a =
  let l = ref [] in
  Array.iteri (fun k v -> if present v then l := (names.(k), f v) :: !l) a;
  List.sort (fun (x, _) (y, _) -> String.compare x y) !l

let to_alist t =
  listed (Atomic.get Registry.names).counters (fun c -> c >= 0) Fun.id
    t.counts

let hists_alist t =
  listed (Atomic.get Registry.names).hists (fun h -> h != absent) summarize
    t.hists

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%-28s %d@," k v)
    (to_alist t);
  List.iter
    (fun (k, s) ->
      Format.fprintf ppf "%-28s n=%d sum=%.0f min=%.0f max=%.0f p50=%.0f \
                          p99=%.0f@,"
        k s.n s.sum s.min s.max s.p50 s.p99)
    (hists_alist t);
  Format.pp_close_box ppf ()

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Field order and float formatting are fixed so the output is stable
   across runs: tests golden-compare it and parse it back. *)
let to_json t =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n  \"counters\": {";
  List.iteri
    (fun i (k, v) ->
      out "%s\n    \"%s\": %d" (if i = 0 then "" else ",") (json_escape k) v)
    (to_alist t);
  out "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (k, s) ->
      out
        "%s\n    \"%s\": {\"count\": %d, \"sum\": %.3f, \"min\": %.3f, \
         \"max\": %.3f, \"p50\": %.3f, \"p99\": %.3f}"
        (if i = 0 then "" else ",")
        (json_escape k) s.n s.sum s.min s.max s.p50 s.p99)
    (hists_alist t);
  out "\n  }\n}\n";
  Buffer.contents buf

module Key = struct
  let pins = counter "pins"
  let unpins = counter "unpins"
  let pins_avoided = counter "pins_avoided"
  let pins_deferred = counter "pins_deferred"
  let conditional_pins = counter "conditional_pins"
  let conditional_pins_dropped = counter "conditional_pins_dropped"
  let gc_young = counter "gc_young"
  let gc_full = counter "gc_full"
  let gc_bytes_copied = counter "gc_bytes_copied"
  let gc_objects_marked = counter "gc_objects_marked"
  let young_blocks_promoted = counter "young_blocks_promoted"
  let fcalls = counter "fcalls"
  let pinvokes = counter "pinvokes"
  let jni_calls = counter "jni_calls"
  let safepoint_polls = counter "safepoint_polls"
  let msgs_sent = counter "msgs_sent"
  let bytes_sent = counter "bytes_sent"
  let msgs_intra_node = counter "msgs_intra_node"
  let msgs_inter_node = counter "msgs_inter_node"
  let bytes_intra_node = counter "bytes_intra_node"
  let bytes_inter_node = counter "bytes_inter_node"
  let eager_sends = counter "eager_sends"
  let rndv_sends = counter "rndv_sends"
  let rma_puts = counter "rma_puts"
  let rma_gets = counter "rma_gets"
  let rma_accumulates = counter "rma_accumulates"
  let rma_fences = counter "rma_fences"
  let rma_locks = counter "rma_locks"
  let rdma_reg_hits = counter "rdma_reg_hits"
  let rdma_reg_misses = counter "rdma_reg_misses"
  let rdma_reg_evictions = counter "rdma_reg_evictions"
  let rdma_write_rndv = counter "rdma_write_rndv"
  let rdma_read_rndv = counter "rdma_read_rndv"
  let rdma_eager_copies = counter "rdma_eager_copies"
  let unexpected_msgs = counter "unexpected_msgs"
  let retransmits = counter "retransmits"
  let retx_giveups = counter "retx_giveups"
  let acks = counter "acks"
  let dup_drops = counter "dup_drops"
  let ooo_drops = counter "ooo_drops"
  let corrupt_drops = counter "corrupt_drops"
  let fault_drops = counter "fault_drops"
  let fault_dups = counter "fault_dups"
  let fault_delays = counter "fault_delays"
  let fault_corrupts = counter "fault_corrupts"
  let proc_kills = counter "proc_kills"
  let proc_detections = counter "proc_detections"
  let ft_silenced = counter "ft_silenced"
  let checkpoints = counter "checkpoints"
  let restores = counter "restores"
  let ser_objects = counter "ser_objects"
  let deser_objects = counter "deser_objects"
  let visited_probes = counter "visited_probes"
  let buffers_created = counter "buffers_created"
  let buffers_reused = counter "buffers_reused"
  let buffers_reaped = counter "buffers_reaped"

  (* Histogram keys (virtual nanoseconds unless noted). *)
  let h_ch3_send = histogram "ch3/send_ns"
  let h_ch3_eager = histogram "ch3/eager_send_ns"
  let h_ch3_rndv = histogram "ch3/rndv_send_ns"
  let h_ch3_retransmit = histogram "ch3/retransmit_backoff_ns"
  let h_ft_detect = histogram "ft/detect_latency_ns"
  let h_sched_step = histogram "sched/step_ns"
  let h_gc_young_pause = histogram "gc/young_pause_ns"
  let h_gc_full_pause = histogram "gc/full_pause_ns"
  let h_gc_pin_poll = histogram "gc/pin_poll_ns"
  let h_ser_encode = histogram "ser/encode_ns"
  let h_ser_decode = histogram "ser/decode_ns"
  let h_fcall_gate = histogram "gate/fcall_ns"
  let h_pinvoke_gate = histogram "gate/pinvoke_ns"
  let h_jni_gate = histogram "gate/jni_ns"
end
