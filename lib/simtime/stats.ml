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

type hist = {
  mutable h_n : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

let fresh_hist () =
  {
    h_n = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
    h_buckets = Array.make n_buckets 0;
  }

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () : t =
  { counters = Hashtbl.create 64; hists = Hashtbl.create 16 }

let cell t key =
  match Hashtbl.find_opt t.counters key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters key r;
      r

let add t key n =
  if n < 0 then invalid_arg "Stats.add: negative amount";
  let r = cell t key in
  r := !r + n

let incr t key = add t key 1

let get t key =
  match Hashtbl.find_opt t.counters key with Some r -> !r | None -> 0

let hist_cell t key =
  match Hashtbl.find_opt t.hists key with
  | Some h -> h
  | None ->
      let h = fresh_hist () in
      Hashtbl.add t.hists key h;
      h

let observe t key v =
  if v < 0.0 then invalid_arg "Stats.observe: negative value";
  let h = hist_cell t key in
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let with_timer t key ~now f =
  let t0 = now () in
  Fun.protect
    ~finally:(fun () -> observe t key (Float.max 0.0 (now () -. t0)))
    f

let reset t =
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  Hashtbl.reset t.hists

(* Fold [from] into [t]: counters add; histogram counts, sums and buckets
   add, extrema combine. The parallel execution mode gives each domain
   its own accumulator and merges on snapshot, so hot-path increments
   never cross domains (DESIGN.md §15). Call only when [from]'s owning
   domain is quiescent (after the run joins). *)
let absorb t ~from =
  Hashtbl.iter (fun k r -> add t k !r) from.counters;
  Hashtbl.iter
    (fun k h ->
      let dst = hist_cell t k in
      dst.h_n <- dst.h_n + h.h_n;
      dst.h_sum <- dst.h_sum +. h.h_sum;
      if h.h_n > 0 then begin
        if h.h_min < dst.h_min then dst.h_min <- h.h_min;
        if h.h_max > dst.h_max then dst.h_max <- h.h_max
      end;
      Array.iteri
        (fun i v -> dst.h_buckets.(i) <- dst.h_buckets.(i) + v)
        h.h_buckets)
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
    Float.min h.h_max (Float.max h.h_min (bucket_upper !idx))
  end

let summarize h =
  {
    n = h.h_n;
    sum = h.h_sum;
    min = (if h.h_n = 0 then 0.0 else h.h_min);
    max = (if h.h_n = 0 then 0.0 else h.h_max);
    p50 = quantile h 0.5;
    p99 = quantile h 0.99;
  }

let hist t key = Option.map summarize (Hashtbl.find_opt t.hists key)

let to_alist t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hists_alist t =
  Hashtbl.fold (fun k h acc -> (k, summarize h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

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
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_counters : (string * int) list;  (* sorted by key *)
  snap_hists : (string * hist) list;  (* sorted by key; private copies *)
}

let copy_hist h = { h with h_buckets = Array.copy h.h_buckets }

let snapshot t =
  {
    snap_counters = to_alist t;
    snap_hists =
      Hashtbl.fold (fun k h acc -> (k, copy_hist h) :: acc) t.hists []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

(* Merge two sorted assoc lists over the union of their keys. *)
let rec merge_assoc f xs ys =
  match (xs, ys) with
  | [], [] -> []
  | (k, x) :: xs', [] -> (k, f (Some x) None) :: merge_assoc f xs' []
  | [], (k, y) :: ys' -> (k, f None (Some y)) :: merge_assoc f [] ys'
  | (kx, x) :: xs', (ky, y) :: ys' ->
      let c = String.compare kx ky in
      if c = 0 then (kx, f (Some x) (Some y)) :: merge_assoc f xs' ys'
      else if c < 0 then (kx, f (Some x) None) :: merge_assoc f xs' ys
      else (ky, f None (Some y)) :: merge_assoc f xs ys'

(* [diff later earlier]: counter and histogram deltas. A histogram delta
   keeps the later snapshot's min/max (the deltas of extrema are not
   recoverable from summaries); count, sum and the buckets — hence
   p50/p99 — are true deltas. *)
let diff later earlier =
  let counters =
    merge_assoc
      (fun l e ->
        Option.value ~default:0 l - Option.value ~default:0 e)
      later.snap_counters earlier.snap_counters
  in
  let hists =
    merge_assoc
      (fun l e ->
        match (l, e) with
        | Some l, None -> copy_hist l
        | None, Some _ -> fresh_hist ()
        | None, None -> fresh_hist ()
        | Some l, Some e ->
            let h = copy_hist l in
            h.h_n <- l.h_n - e.h_n;
            h.h_sum <- l.h_sum -. e.h_sum;
            Array.iteri
              (fun i v -> h.h_buckets.(i) <- v - e.h_buckets.(i))
              l.h_buckets;
            h)
      later.snap_hists earlier.snap_hists
  in
  { snap_counters = counters; snap_hists = hists }

let snapshot_hists s = List.map (fun (k, h) -> (k, summarize h)) s.snap_hists

let counter_value s key =
  match List.assoc_opt key s.snap_counters with Some v -> v | None -> 0

let hist_summary s key = Option.map summarize (List.assoc_opt key s.snap_hists)

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
let to_json s =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n  \"counters\": {";
  List.iteri
    (fun i (k, v) ->
      out "%s\n    \"%s\": %d" (if i = 0 then "" else ",") (json_escape k) v)
    s.snap_counters;
  out "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (k, h) ->
      let sm = summarize h in
      out
        "%s\n    \"%s\": {\"count\": %d, \"sum\": %.3f, \"min\": %.3f, \
         \"max\": %.3f, \"p50\": %.3f, \"p99\": %.3f}"
        (if i = 0 then "" else ",")
        (json_escape k) sm.n sm.sum sm.min sm.max sm.p50 sm.p99)
    s.snap_hists;
  out "\n  }\n}\n";
  Buffer.contents buf

module Key = struct
  let pins = "pins"
  let unpins = "unpins"
  let pins_avoided = "pins_avoided"
  let pins_deferred = "pins_deferred"
  let conditional_pins = "conditional_pins"
  let conditional_pins_dropped = "conditional_pins_dropped"
  let gc_young = "gc_young"
  let gc_full = "gc_full"
  let gc_bytes_copied = "gc_bytes_copied"
  let gc_objects_marked = "gc_objects_marked"
  let young_blocks_promoted = "young_blocks_promoted"
  let fcalls = "fcalls"
  let pinvokes = "pinvokes"
  let jni_calls = "jni_calls"
  let safepoint_polls = "safepoint_polls"
  let msgs_sent = "msgs_sent"
  let bytes_sent = "bytes_sent"
  let msgs_intra_node = "msgs_intra_node"
  let msgs_inter_node = "msgs_inter_node"
  let bytes_intra_node = "bytes_intra_node"
  let bytes_inter_node = "bytes_inter_node"
  let eager_sends = "eager_sends"
  let rndv_sends = "rndv_sends"
  let rma_puts = "rma_puts"
  let rma_gets = "rma_gets"
  let rma_accumulates = "rma_accumulates"
  let rma_fences = "rma_fences"
  let rma_locks = "rma_locks"
  let rdma_reg_hits = "rdma_reg_hits"
  let rdma_reg_misses = "rdma_reg_misses"
  let rdma_reg_evictions = "rdma_reg_evictions"
  let rdma_write_rndv = "rdma_write_rndv"
  let rdma_read_rndv = "rdma_read_rndv"
  let rdma_eager_copies = "rdma_eager_copies"
  let unexpected_msgs = "unexpected_msgs"
  let retransmits = "retransmits"
  let retx_giveups = "retx_giveups"
  let acks = "acks"
  let dup_drops = "dup_drops"
  let ooo_drops = "ooo_drops"
  let corrupt_drops = "corrupt_drops"
  let fault_drops = "fault_drops"
  let fault_dups = "fault_dups"
  let fault_delays = "fault_delays"
  let fault_corrupts = "fault_corrupts"
  let proc_kills = "proc_kills"
  let proc_detections = "proc_detections"
  let ft_silenced = "ft_silenced"
  let checkpoints = "checkpoints"
  let restores = "restores"
  let ser_objects = "ser_objects"
  let deser_objects = "deser_objects"
  let visited_probes = "visited_probes"
  let buffers_created = "buffers_created"
  let buffers_reused = "buffers_reused"
  let buffers_reaped = "buffers_reaped"

  (* Histogram keys (virtual nanoseconds unless noted). *)
  let h_ch3_send = "ch3/send_ns"
  let h_ch3_eager = "ch3/eager_send_ns"
  let h_ch3_rndv = "ch3/rndv_send_ns"
  let h_ch3_retransmit = "ch3/retransmit_backoff_ns"
  let h_ft_detect = "ft/detect_latency_ns"
  let h_sched_step = "sched/step_ns"
  let h_gc_young_pause = "gc/young_pause_ns"
  let h_gc_full_pause = "gc/full_pause_ns"
  let h_gc_pin_poll = "gc/pin_poll_ns"
  let h_ser_encode = "ser/encode_ns"
  let h_ser_decode = "ser/decode_ns"
  let h_fcall_gate = "gate/fcall_ns"
  let h_pinvoke_gate = "gate/pinvoke_ns"
  let h_jni_gate = "gate/jni_ns"
end
