module Key = Simtime.Stats.Key

exception Null_reference

type conditional_pin = {
  cp_handle : int;
  cp_still_active : unit -> bool;
}

type pending = No_gc | Minor_gc | Full_gc

type t = {
  heap : Heap.t;
  registry : Classes.t;
  env : Simtime.Env.t;
  (* Handle table: slots.(i) holds an address; free slots form a list. *)
  mutable slots : int array;
  mutable free_handles : int list;
  mutable next_handle : int;
  (* Roots. *)
  scanners : (int, (Heap.addr -> Heap.addr) -> unit) Hashtbl.t;
  remembered : (Heap.addr, unit) Hashtbl.t;  (* elder slots -> young *)
  (* Pins. *)
  sticky_pins : (int, int) Hashtbl.t;  (* handle index -> pin count *)
  mutable conditional_pins : conditional_pin list;
  (* State. *)
  mutable pending : pending;
  mutable minor_count : int;
  mutable full_count : int;
  mutable in_gc : bool;
  mutable post_gc_hooks : (unit -> unit) list;
}

module Handle = struct
  type gc = t
  type t = int

  let alloc (gc : gc) addr =
    match gc.free_handles with
    | i :: rest ->
        gc.free_handles <- rest;
        gc.slots.(i) <- addr;
        i
    | [] ->
        let i = gc.next_handle in
        if i >= Array.length gc.slots then begin
          let bigger = Array.make (2 * Array.length gc.slots) 0 in
          Array.blit gc.slots 0 bigger 0 (Array.length gc.slots);
          gc.slots <- bigger
        end;
        gc.next_handle <- i + 1;
        gc.slots.(i) <- addr;
        i

  (* Freed slots hold this sentinel so double frees and use-after-free
     fail fast instead of silently aliasing another object. *)
  let freed_sentinel = -1

  let free (gc : gc) i =
    if gc.slots.(i) = freed_sentinel then
      invalid_arg "Gc.Handle.free: handle already freed";
    gc.slots.(i) <- freed_sentinel;
    Hashtbl.remove gc.sticky_pins i;
    gc.free_handles <- i :: gc.free_handles

  let get (gc : gc) i =
    let a = gc.slots.(i) in
    if a = freed_sentinel then
      invalid_arg "Gc.Handle.get: use after free";
    a

  let is_null (gc : gc) i = get gc i = Heap.null
end

let create heap registry =
  {
    heap;
    registry;
    env = Heap.env heap;
    slots = Array.make 256 0;
    free_handles = [];
    next_handle = 0;
    scanners = Hashtbl.create 8;
    remembered = Hashtbl.create 64;
    sticky_pins = Hashtbl.create 16;
    conditional_pins = [];
    pending = No_gc;
    minor_count = 0;
    full_count = 0;
    in_gc = false;
    post_gc_hooks = [];
  }

let heap t = t.heap
let registry t = t.registry

let add_scanner t scan =
  Hashtbl.replace t.scanners (Hashtbl.length t.scanners) scan

let record_write t ~container ~value ~slot =
  if
    value <> Heap.null
    && Heap.in_young t.heap value
    && not (Heap.in_young t.heap container)
  then Hashtbl.replace t.remembered slot ()

let pin t h =
  let n = try Hashtbl.find t.sticky_pins h with Not_found -> 0 in
  Hashtbl.replace t.sticky_pins h (n + 1);
  let a = t.slots.(h) in
  if a > Heap.null then Heap.set_pinned_flag t.heap a true;
  Simtime.Env.count t.env Key.pins;
  Simtime.Env.charge t.env t.env.cost.pin_ns

let unpin t h =
  match Hashtbl.find_opt t.sticky_pins h with
  | None -> invalid_arg "Gc.unpin: object is not pinned"
  | Some 1 ->
      Hashtbl.remove t.sticky_pins h;
      let a = t.slots.(h) in
      if a > Heap.null then Heap.set_pinned_flag t.heap a false;
      Simtime.Env.count t.env Key.unpins;
      Simtime.Env.charge t.env t.env.cost.unpin_ns
  | Some n ->
      Hashtbl.replace t.sticky_pins h (n - 1);
      Simtime.Env.count t.env Key.unpins;
      Simtime.Env.charge t.env t.env.cost.unpin_ns

let add_conditional_pin t h ~still_active =
  t.conditional_pins <-
    { cp_handle = h; cp_still_active = still_active } :: t.conditional_pins;
  Simtime.Env.count t.env Key.conditional_pins

let conditional_pin_count t = List.length t.conditional_pins
let pinned_count t = Hashtbl.length t.sticky_pins
let minor_count t = t.minor_count
let full_count t = t.full_count

let method_table_of t addr =
  if addr = Heap.null then raise Null_reference;
  Classes.find t.registry (Heap.mt_id t.heap addr)

(* Reference-slot layout (must agree with Object_model):
   - class instance: slots at [data + ref_offset]
   - 1-D ref array:  length int32 at data, slots from data+4
   - MD ref array:   rank int32s of dims from data, slots after dims *)
let iter_ref_slots t addr f =
  let h = t.heap in
  let mt = method_table_of t addr in
  let data = Heap.data_of addr in
  match mt.Classes.c_kind with
  | Classes.K_class ->
      Array.iter (fun off -> f (data + off)) mt.Classes.c_ref_offsets
  | Classes.K_array elem ->
      if Types.elem_is_ref elem then begin
        let len = Heap.get_i32 h data in
        for i = 0 to len - 1 do
          f (data + 4 + (Types.ref_size * i))
        done
      end
  | Classes.K_md_array (elem, rank) ->
      if Types.elem_is_ref elem then begin
        let n = ref 1 in
        for d = 0 to rank - 1 do
          n := !n * Heap.get_i32 h (data + (4 * d))
        done;
        let base = data + (4 * rank) in
        for i = 0 to !n - 1 do
          f (base + (Types.ref_size * i))
        done
      end

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

(* Resolve conditional pin requests: the paper's mark-phase policy. Requests
   whose operation is still in flight pin their object for this cycle;
   completed ones are dropped for good. Returns the set of addresses pinned
   for this cycle (sticky pins included). *)
let resolve_pins t =
  let cycle = Hashtbl.create 16 in
  Hashtbl.iter
    (fun h _count ->
      let a = t.slots.(h) in
      if a > Heap.null then Hashtbl.replace cycle a ())
    t.sticky_pins;
  let still =
    List.filter
      (fun cp ->
        Simtime.Env.charge t.env t.env.cost.gc_pin_status_check_ns;
        if cp.cp_still_active () then begin
          let a = t.slots.(cp.cp_handle) in
          if a > Heap.null then Hashtbl.replace cycle a ();
          true
        end
        else begin
          Simtime.Env.count t.env Key.conditional_pins_dropped;
          false
        end)
      t.conditional_pins
  in
  t.conditional_pins <- still;
  cycle

let rec collect t ~full =
  if t.in_gc then invalid_arg "Gc.collect: re-entrant collection";
  t.in_gc <- true;
  Simtime.Env.with_timer t.env
    (if full then Key.h_gc_full_pause else Key.h_gc_young_pause)
    (fun () ->
      Simtime.Probe.with_span t.env ~rank:(-1) ~cat:"gc"
        ~name:(if full then "gc/full" else "gc/young")
        (fun () -> collect_timed t ~full));
  t.in_gc <- false;
  List.iter (fun hook -> hook ()) t.post_gc_hooks

(* The collection proper: everything inside the pause histogram and the
   "gc" span. Post-GC hooks run outside (they may start new work whose
   cost is not part of the pause). *)
and collect_timed t ~full =
  let h = t.heap in
  let cost = t.env.Simtime.Env.cost in
  Simtime.Env.charge t.env
    (if full then cost.gc_full_base_ns else cost.gc_young_base_ns);
  (* Mark phase (full collections): trace everything reachable, recording
     elder slots that point into the young generation so the evacuation can
     update them. The conditional pin requests are resolved here, "during
     the mark phase", exactly as Section 7.4 describes. *)
  let cycle_pins =
    Simtime.Env.with_timer t.env Key.h_gc_pin_poll (fun () -> resolve_pins t)
  in
  let in_young a = a <> Heap.null && Heap.in_young h a in
  let young_refs = ref [] in
  let marked = ref 0 in
  if full then begin
    let stack = Stack.create () in
    let mark_root a = if a <> Heap.null && not (Heap.is_marked h a) then begin
        Heap.set_marked h a true;
        Stack.push a stack
      end
    in
    Hashtbl.iter (fun a () -> mark_root a) cycle_pins;
    Array.iteri
      (fun i a -> if i < t.next_handle && a > Heap.null then mark_root a)
      t.slots;
    Hashtbl.iter
      (fun _ scan ->
        scan (fun a ->
            mark_root a;
            a))
      t.scanners;
    while not (Stack.is_empty stack) do
      let a = Stack.pop stack in
      incr marked;
      Simtime.Env.charge t.env cost.gc_mark_ns_per_obj;
      iter_ref_slots t a (fun slot ->
          let v = Heap.get_ref h slot in
          if v <> Heap.null then begin
            if in_young v && not (in_young a) then
              young_refs := slot :: !young_refs;
            if not (Heap.is_marked h v) then begin
              Heap.set_marked h v true;
              Stack.push v stack
            end
          end)
    done;
    Simtime.Env.count_n t.env Key.gc_objects_marked !marked
  end;
  (* Evacuation of the young generation. *)
  let promoted_in_place = Hashtbl.create 16 in
  let has_young_pins =
    Hashtbl.fold (fun a () acc -> acc || in_young a) cycle_pins false
  in
  (* Capture the old young extent, then (if pinned) promote the block. *)
  let young_lo = ref 0 in
  let young_hi = ref 0 in
  Heap.iter_young h (fun a ->
      if !young_lo = 0 then young_lo := a;
      young_hi := a + Heap.size_of h a);
  let in_old_young a = a >= !young_lo && a < !young_hi && !young_lo <> 0 in
  if has_young_pins then begin
    Heap.promote_young_block h;
    Simtime.Env.count t.env Key.young_blocks_promoted
  end;
  let scan_queue = Queue.create () in
  let visit a =
    if a = Heap.null then Heap.null
    else if not (in_old_young a) then a
    else if Heap.is_forwarded h a then Heap.forward_of h a
    else if Hashtbl.mem cycle_pins a then begin
      (* Pinned: promoted in place by the block reassignment above. *)
      if not (Hashtbl.mem promoted_in_place a) then begin
        Hashtbl.replace promoted_in_place a ();
        Queue.push a scan_queue
      end;
      a
    end
    else begin
      (* Copy to the elder generation (promotion on first survival). *)
      let size = Heap.size_of h a in
      let data_bytes = size - Heap.header_bytes in
      match Heap.try_alloc_elder h ~mt:(Heap.mt_id h a) ~data_bytes with
      | None -> raise Heap.Out_of_memory
      | Some dst ->
          Heap.blit_within h
            ~src:(Heap.data_of a)
            ~dst:(Heap.data_of dst)
            ~len:data_bytes;
          Heap.set_marked h dst (Heap.is_marked h a);
          Heap.set_forward h a dst;
          Simtime.Env.count_n t.env Key.gc_bytes_copied size;
          Simtime.Env.charge t.env
            (cost.gc_copy_ns_per_byte *. float_of_int size);
          Queue.push dst scan_queue;
          dst
    end
  in
  (* Roots: handles, scanners, remembered set (minor) or the young-pointing
     slots discovered during marking (full), and the cycle pins. *)
  for i = 0 to t.next_handle - 1 do
    (* Skip null and the freed-handle sentinel. *)
    if t.slots.(i) > Heap.null then t.slots.(i) <- visit t.slots.(i)
  done;
  Hashtbl.iter (fun _ scan -> scan visit) t.scanners;
  let update_slot slot =
    let v = Heap.get_ref h slot in
    if in_old_young v then Heap.set_ref_raw h slot (visit v)
  in
  if full then List.iter update_slot !young_refs
  else Hashtbl.iter (fun slot () -> update_slot slot) t.remembered;
  Hashtbl.iter (fun a () -> ignore (visit a)) cycle_pins;
  (* Transitive scan: update young references inside every evacuated or
     promoted-in-place object. *)
  while not (Queue.is_empty scan_queue) do
    let a = Queue.pop scan_queue in
    iter_ref_slots t a (fun slot ->
        let v = Heap.get_ref h slot in
        if in_old_young v then Heap.set_ref_raw h slot (visit v))
  done;
  (* Retire the old young block. *)
  if has_young_pins then begin
    (* Scrub the promoted block: forwarded corpses and dead objects become
       free chunks; pinned survivors stay in place. *)
    let p = ref !young_lo in
    while !young_lo <> 0 && !p < !young_hi do
      let a = !p in
      let size = Heap.size_of h a in
      p := a + size;
      if
        (not (Heap.is_free_chunk h a))
        && (Heap.is_forwarded h a || not (Hashtbl.mem promoted_in_place a))
      then Heap.free_object h a
    done
  end
  else Heap.reset_young h;
  Hashtbl.reset t.remembered;
  (* Sweep the elder generation (full collections only; never compacts). *)
  if full then begin
    let swept = ref 0 in
    ignore
      (Heap.sweep_elder h ~keep:(fun a ->
           incr swept;
           Simtime.Env.charge t.env cost.gc_sweep_ns_per_obj;
           Heap.is_marked h a));
    Heap.iter_elder h (fun a -> Heap.set_marked h a false)
  end;
  if full then begin
    t.full_count <- t.full_count + 1;
    Simtime.Env.count t.env Key.gc_full
  end
  else begin
    t.minor_count <- t.minor_count + 1;
    Simtime.Env.count t.env Key.gc_young
  end

let request_gc ?(full = false) t =
  t.pending <-
    (match (t.pending, full) with
    | Full_gc, _ | _, true -> Full_gc
    | _, false -> Minor_gc)

let gc_pending t = t.pending <> No_gc

let poll t =
  Simtime.Env.charge t.env t.env.Simtime.Env.cost.gc_safepoint_poll_ns;
  Simtime.Env.count t.env Key.safepoint_polls;
  match t.pending with
  | No_gc -> ()
  | Minor_gc ->
      t.pending <- No_gc;
      collect t ~full:false
  | Full_gc ->
      t.pending <- No_gc;
      collect t ~full:true

(* What [poll] does with no collection pending: charge one safepoint poll
   and count it. A pending collection makes the next poll act. *)
let idle_poll t =
  {
    Fiber.clock = t.env.Simtime.Env.clock;
    charges = [| t.env.Simtime.Env.cost.gc_safepoint_poll_ns |];
    count = (fun n ~at:_ -> Simtime.Env.count_n t.env Key.safepoint_polls n);
    horizon = (fun () -> if gc_pending t then None else Some Float.infinity);
  }

let alloc t ~mt ~data_bytes =
  let h = t.heap in
  let cost = t.env.Simtime.Env.cost in
  Simtime.Env.charge t.env
    (cost.alloc_obj_ns +. (cost.alloc_ns_per_byte *. float_of_int data_bytes));
  let total = Heap.total_size_for ~data_bytes in
  let mt_id = mt.Classes.c_id in
  if total > Heap.block_bytes h / 2 then begin
    match Heap.try_alloc_elder h ~mt:mt_id ~data_bytes with
    | Some a -> a
    | None -> (
        collect t ~full:true;
        match Heap.try_alloc_elder h ~mt:mt_id ~data_bytes with
        | Some a -> a
        | None -> raise Heap.Out_of_memory)
  end
  else begin
    match Heap.try_alloc_young h ~mt:mt_id ~data_bytes with
    | Some a -> a
    | None -> (
        collect t ~full:false;
        match Heap.try_alloc_young h ~mt:mt_id ~data_bytes with
        | Some a -> a
        | None -> (
            collect t ~full:true;
            match Heap.try_alloc_young h ~mt:mt_id ~data_bytes with
            | Some a -> a
            | None -> raise Heap.Out_of_memory))
  end

let add_post_gc_hook t hook = t.post_gc_hooks <- hook :: t.post_gc_hooks
let collection_epoch t = t.minor_count + t.full_count

let live_objects t =
  let n = ref 0 in
  Heap.iter_young t.heap (fun _ -> incr n);
  Heap.iter_elder t.heap (fun _ -> incr n);
  !n
