module Env = Simtime.Env
module Key = Simtime.Stats.Key

(* One context per window carries every one-sided message. Requests to
   the target (put/acc/get/lock/unlock/free) all travel under [tag_ops]
   and are demultiplexed by a kind byte, so the target needs exactly one
   posted service receive; replies (get data, lock grant, unlock ack)
   use their own tags toward the origin. Fence count exchanges use one
   fresh tag per fence round so a member one round ahead can never
   satisfy a slower member's previous-round receive. *)
let tag_ops = 0x5201
let tag_grant = 0x5202
let tag_ack = 0x5203
let tag_size = 0x5204
let tag_fence_base = 0x10000
let tag_reply_base = 0x20000

let k_put = 1
let k_acc = 2
let k_get = 3
let k_lock = 4
let k_unlock = 5
let k_free = 6

exception Protocol_error of string

let protocol_error fmt =
  Printf.ksprintf (fun m -> raise (Protocol_error ("Rma: " ^ m))) fmt

type accum_op = Sum | Prod | Min | Max | Bxor | Replace | Matmul

let op_code = function
  | Sum -> 0
  | Prod -> 1
  | Min -> 2
  | Max -> 3
  | Bxor -> 4
  | Replace -> 5
  | Matmul -> 6

let op_of_code = function
  | 0 -> Sum
  | 1 -> Prod
  | 2 -> Min
  | 3 -> Max
  | 4 -> Bxor
  | 5 -> Replace
  | 6 -> Matmul
  | c -> invalid_arg (Printf.sprintf "Rma: bad accumulate op code %d" c)

(* Target-side lock state (passive target). *)
type lock_state = Unlocked | Shared of int list | Excl of int

(* A deferred update: queued at receipt, applied at the closing sync.
   [q_epoch] is the origin's fence round, or -1 for a passive (lock)
   epoch. *)
type queued = {
  q_kind : [ `Put | `Acc of accum_op ];
  q_epoch : int;
  q_off : int;
  q_data : Bytes.t;
}

(* A get request that arrived before this target entered the origin's
   fence round: serving it now would leak pre-fence window contents, so
   it waits until the closing sync has applied that round's updates. *)
type pending_get = {
  g_origin : int;
  g_off : int;
  g_len : int;
  g_tag : int;
  g_epoch : int;
}

type win = {
  w_proc : Mpi.proc;
  w_comm : Comm.t;
  w_ctx : int;
  w_buf : Bytes.t; (* backing storage; the window is [w_base, w_base+w_len) *)
  w_base : int;
  w_len : int;
  w_me : int; (* comm rank *)
  w_n : int;
  w_sizes : int array;
  w_rdma : Rdma_channel.t option;
  w_eager_apply : bool;
  mutable w_freed : bool;
  mutable w_hook : int;
  mutable w_service : Request.t option;
  w_service_buf : Bytes.t;
  (* Origin side. *)
  w_out : int array; (* ops issued per target, current fence epoch *)
  mutable w_seq : int; (* per-window op/reply-tag counter *)
  w_held : (int, int ref) Hashtbl.t; (* target -> ops under my lock *)
  (* Target side. *)
  w_queued : queued list ref array; (* per origin, in arrival order *)
  mutable w_gets : pending_get list; (* reads waiting on a future round *)
  w_got : (int, int array) Hashtbl.t; (* epoch -> per-origin arrivals *)
  mutable w_fence_no : int;
  mutable w_lock : lock_state;
  w_waiters : (int * bool) Queue.t; (* (origin, exclusive), FIFO *)
}

let exposed win = not win.w_freed

let size_of win ~rank =
  if rank < 0 || rank >= win.w_n then invalid_arg "Rma.size_of: bad rank";
  win.w_sizes.(rank)

let dev win = Mpi.device win.w_proc
let wenv win = Ch3.env (dev win)
let world_rank win r = Comm.world_rank_of win.w_comm r

let check_open win =
  if win.w_freed then invalid_arg "Rma: operation on a freed window"

let check_target win ~target ~target_off ~len =
  check_open win;
  if target < 0 || target >= win.w_n then invalid_arg "Rma: bad target rank";
  if target_off < 0 || len < 0 || target_off + len > win.w_sizes.(target) then
    invalid_arg
      (Printf.sprintf
         "Rma: remote range [%d,+%d) outside target %d's %d-byte window"
         target_off len target win.w_sizes.(target))

(* ------------------------------------------------------------------ *)
(* Wire format                                                         *)
(* ------------------------------------------------------------------ *)

let hdr_len = 40

(* [0] kind; [1] op code (acc) / exclusive flag (lock); [4..] origin comm
   rank; [8..] per-origin sequence (for a get, the reply tag is
   [tag_reply_base + seq]); [16..] target offset; [24..] length;
   [32..] aux: the origin's epoch (put/acc/get), the op count (unlock).
   Payload follows for put/acc. *)
let encode ~kind ~code ~origin ~seq ~off ~len ~aux payload =
  let b = Bytes.create (hdr_len + Bytes.length payload) in
  Bytes.fill b 0 hdr_len '\000';
  Bytes.set_uint8 b 0 kind;
  Bytes.set_uint8 b 1 code;
  Bytes.set_int32_le b 4 (Int32.of_int origin);
  Bytes.set_int64_le b 8 (Int64.of_int seq);
  Bytes.set_int64_le b 16 (Int64.of_int off);
  Bytes.set_int64_le b 24 (Int64.of_int len);
  Bytes.set_int64_le b 32 (Int64.of_int aux);
  Bytes.blit payload 0 b hdr_len (Bytes.length payload);
  b

let i64 b = let x = Bytes.create 8 in Bytes.set_int64_le x 0 (Int64.of_int b); x
let of_i64 b = Int64.to_int (Bytes.get_int64_le b 0)

(* ------------------------------------------------------------------ *)
(* Applying updates                                                    *)
(* ------------------------------------------------------------------ *)

(* 2x2 matrix multiply over Z/256 on 4-byte blocks: [dst := dst * src].
   Mirrors Check.Explore's reduce operator so rank-order folding is
   observable end to end. *)
let matmul_block dst doff src soff =
  let g b i = Char.code (Bytes.get b i) in
  let a0 = g dst doff and a1 = g dst (doff + 1) in
  let a2 = g dst (doff + 2) and a3 = g dst (doff + 3) in
  let b0 = g src soff and b1 = g src (soff + 1) in
  let b2 = g src (soff + 2) and b3 = g src (soff + 3) in
  Bytes.set dst doff (Char.chr (((a0 * b0) + (a1 * b2)) land 0xff));
  Bytes.set dst (doff + 1) (Char.chr (((a0 * b1) + (a1 * b3)) land 0xff));
  Bytes.set dst (doff + 2) (Char.chr (((a2 * b0) + (a3 * b2)) land 0xff));
  Bytes.set dst (doff + 3) (Char.chr (((a2 * b1) + (a3 * b3)) land 0xff))

let accum_into dst ~off src op =
  let len = Bytes.length src in
  match op with
  | Replace -> Bytes.blit src 0 dst off len
  | Matmul ->
      let blocks = len / 4 in
      for i = 0 to blocks - 1 do
        matmul_block dst (off + (4 * i)) src (4 * i)
      done
  | Sum -> Lanes.combine Lanes.Add_i64 ~dst ~dst_off:off ~src ~len
  | Prod -> Lanes.combine Lanes.Mul_i64 ~dst ~dst_off:off ~src ~len
  | Min -> Lanes.combine Lanes.Min_i64 ~dst ~dst_off:off ~src ~len
  | Max -> Lanes.combine Lanes.Max_i64 ~dst ~dst_off:off ~src ~len
  | Bxor -> Lanes.combine Lanes.Xor_i64 ~dst ~dst_off:off ~src ~len

let apply_op win q =
  match q.q_kind with
  | `Put ->
      Bytes.blit q.q_data 0 win.w_buf (win.w_base + q.q_off)
        (Bytes.length q.q_data)
  | `Acc op -> accum_into win.w_buf ~off:(win.w_base + q.q_off) q.q_data op

(* ------------------------------------------------------------------ *)
(* Target-side service                                                 *)
(* ------------------------------------------------------------------ *)

let got_row win epoch =
  match Hashtbl.find_opt win.w_got epoch with
  | Some a -> a
  | None ->
      let a = Array.make win.w_n 0 in
      Hashtbl.add win.w_got epoch a;
      a

let post_service win =
  let req =
    Ch3.irecv (dev win) ~src:Tag_match.any_source ~tag:tag_ops
      ~context:win.w_ctx
      (Buffer_view.of_bytes win.w_service_buf)
  in
  win.w_service <- Some req

let reply win ~origin ~tag payload =
  ignore
    (Ch3.isend (dev win)
       ~dst:(world_rank win origin)
       ~tag ~context:win.w_ctx
       (Buffer_view.of_bytes payload))

let can_grant win exclusive =
  match win.w_lock with
  | Unlocked -> true
  | Shared _ -> not exclusive
  | Excl _ -> false

let grant win ~origin ~exclusive =
  (win.w_lock <-
     (match (win.w_lock, exclusive) with
     | Unlocked, true -> Excl origin
     | Unlocked, false -> Shared [ origin ]
     | Shared l, false -> Shared (origin :: l)
     | _ -> assert false));
  reply win ~origin ~tag:tag_grant (i64 0)

let release_lock win ~origin =
  (match win.w_lock with
  | Excl o when o = origin -> win.w_lock <- Unlocked
  | Shared l ->
      let l = List.filter (fun o -> o <> origin) l in
      win.w_lock <- (if l = [] then Unlocked else Shared l)
  | _ ->
      protocol_error "unlock from origin %d which holds no lock" origin);
  (* Serve waiters FIFO; consecutive shared requests coalesce. *)
  let rec serve () =
    match Queue.peek_opt win.w_waiters with
    | Some (o, excl) when can_grant win excl ->
        ignore (Queue.pop win.w_waiters);
        grant win ~origin:o ~exclusive:excl;
        serve ()
    | _ -> ()
  in
  serve ()

let handle_update win ~origin ~kind ~code ~off ~len ~epoch =
  let data = Bytes.sub win.w_service_buf hdr_len len in
  let q_kind = if kind = k_put then `Put else `Acc (op_of_code code) in
  let q = { q_kind; q_epoch = epoch; q_off = off; q_data = data } in
  if epoch >= 0 then begin
    let row = got_row win epoch in
    row.(origin) <- row.(origin) + 1
  end;
  if win.w_eager_apply then
    (* The planted epoch bug: visible before the closing sync. *)
    apply_op win q
  else begin
    let cell = win.w_queued.(origin) in
    cell := q :: !cell
  end

let handle_unlock win ~origin ~count =
  (if not win.w_eager_apply then begin
     (* Channel FIFO per (src,dst) guarantees the epoch's updates were
        matched before this unlock, so they are all queued by now. *)
     let mine, rest =
       List.partition (fun q -> q.q_epoch = -1) (List.rev !(win.w_queued.(origin)))
     in
     if List.length mine <> count then
       protocol_error "unlock from %d announces %d ops but %d are queued"
         origin count (List.length mine);
     List.iter (apply_op win) mine;
     win.w_queued.(origin) := List.rev rest
   end);
  reply win ~origin ~tag:tag_ack (i64 count);
  release_lock win ~origin

(* The service loop: runs from a CH3 progress hook on the window's
   context. Handles every already-completed service message (an irecv
   re-armed against a non-empty unexpected queue completes immediately,
   so one progress call drains the backlog in arrival order), re-posting
   after each; a FREE message retires the service instead. *)
let rec handle win =
  match win.w_service with
  | None -> false
  | Some req when not (Request.is_complete req) -> false
  | Some req ->
      (match Request.reason req with
      | Some _ ->
          (* Aborted (context abort / purge): stop servicing. *)
          win.w_service <- None
      | None -> dispatch win);
      ignore (handle win);
      true

and dispatch win =
  let b = win.w_service_buf in
  let kind = Bytes.get_uint8 b 0 in
  let code = Bytes.get_uint8 b 1 in
  let origin = Int32.to_int (Bytes.get_int32_le b 4) in
  let seq = Int64.to_int (Bytes.get_int64_le b 8) in
  let off = Int64.to_int (Bytes.get_int64_le b 16) in
  let len = Int64.to_int (Bytes.get_int64_le b 24) in
  let aux = Int64.to_int (Bytes.get_int64_le b 32) in
  if kind = k_free then begin
    win.w_service <- None;
    if win.w_hook >= 0 then Ch3.remove_progress_hook (dev win) win.w_hook
  end
  else begin
    (match kind with
    | k when k = k_put || k = k_acc ->
        handle_update win ~origin ~kind ~code ~off ~len ~epoch:aux
    | k when k = k_get ->
        (* Reads see the committed window: deferred updates invisible.
           A read stamped with a round we have not closed into yet
           ([aux] beyond our fence count) must wait for that round's
           updates to be applied; passive reads (epoch -1, origin holds
           our lock) are ordered by the lock itself. *)
        let rtag = tag_reply_base + seq in
        if aux < 0 || aux <= win.w_fence_no then
          reply win ~origin ~tag:rtag (Bytes.sub win.w_buf (win.w_base + off) len)
        else
          win.w_gets <-
            { g_origin = origin; g_off = off; g_len = len; g_tag = rtag;
              g_epoch = aux }
            :: win.w_gets
    | k when k = k_lock ->
        let exclusive = code <> 0 in
        if can_grant win exclusive && Queue.is_empty win.w_waiters then
          grant win ~origin ~exclusive
        else Queue.push (origin, exclusive) win.w_waiters
    | k when k = k_unlock -> handle_unlock win ~origin ~count:aux
    | k -> protocol_error "bad message kind %d" k);
    post_service win
  end

(* Waits on RMA progress declare the device's idle poll: while the
   service receive is posted and unmatched the window's hook is quiet,
   so a wait on the wire fast-forwards like any other MPI wait. *)
let pump_until p ~label pred =
  Mpi.poll_until p ~label ~idle:(Ch3.idle_poll (Mpi.device p)) pred

(* One 8-byte value with every other member of a window's group, in a
   round of its own [tag]: member [s] gets [value s], and the result holds
   what each member sent us ([value me] at [me]). Per peer the receive is
   built before the send, and one [wait_all] completes both, so no member
   returns before every other member has entered the round. *)
let exchange p ~ctx ~tag ~world_rank ~me ~n value =
  let d = Mpi.device p in
  let slots = Array.init n (fun _ -> Bytes.create 8) in
  let reqs = ref [] in
  for s = 0 to n - 1 do
    if s <> me then
      reqs :=
        Ch3.irecv d ~src:(world_rank s) ~tag ~context:ctx
          (Buffer_view.of_bytes slots.(s))
        :: Ch3.isend d ~dst:(world_rank s) ~tag ~context:ctx
             (Buffer_view.of_bytes (i64 (value s)))
        :: !reqs
  done;
  Mpi.wait_all p !reqs;
  Array.init n (fun s -> if s = me then value me else of_i64 slots.(s))

(* ------------------------------------------------------------------ *)
(* RDMA cost modelling (only on worlds built with the [`Rdma] channel)  *)
(* ------------------------------------------------------------------ *)

let rdma_transfer win buf ~off ~len =
  match win.w_rdma with
  | None -> ()
  | Some h ->
      if len < Rdma_channel.eager_threshold h then
        Rdma_channel.charge_eager h ~len
      else begin
        let addr = Rdma_channel.addr_of h buf + off in
        ignore
          (Rdma_channel.register h ~rank:(Mpi.rank win.w_proc) ~addr ~len);
        ignore (Rdma_channel.charge_rndv h ~len)
      end

(* ------------------------------------------------------------------ *)
(* Window lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let win_create ?(eager_apply = false) ?sub p ~comm buf =
  let base, len =
    match sub with
    | None -> (0, Bytes.length buf)
    | Some (off, len) ->
        if off < 0 || len < 0 || off + len > Bytes.length buf then
          invalid_arg "Rma.win_create: sub-range outside the buffer";
        (off, len)
  in
  let w = Mpi.world_of p in
  let me = Mpi.comm_rank p comm in
  let n = Comm.size comm in
  let e = Mpi.next_epoch p comm in
  let ctx =
    Mpi.alloc_context w ~key:(Printf.sprintf "rma/%d/%d" comm.Comm.ctx e)
  in
  (* Exchange window sizes so remote ranges are origin-checked; this also
     means no member returns before every other member has entered the
     call. *)
  let sizes =
    exchange p ~ctx ~tag:tag_size ~world_rank:(Comm.world_rank_of comm) ~me
      ~n (fun _ -> len)
  in
  let rdma = Mpi.rdma_handle w in
  (match rdma with
  | Some h when len > 0 ->
      (* Window memory stays registered (and pinned in the cache) for the
         window's whole lifetime: every incoming RDMA lands in it. *)
      Rdma_channel.pin_region h ~rank:(Mpi.rank p)
        ~addr:(Rdma_channel.addr_of h buf + base)
        ~len
  | _ -> ());
  let win =
    {
      w_proc = p;
      w_comm = comm;
      w_ctx = ctx;
      w_buf = buf;
      w_base = base;
      w_len = len;
      w_me = me;
      w_n = n;
      w_sizes = sizes;
      w_rdma = rdma;
      w_eager_apply = eager_apply;
      w_freed = false;
      w_hook = -1;
      w_service = None;
      w_service_buf = Bytes.create (hdr_len + Stdlib.max 64 len);
      w_out = Array.make n 0;
      w_seq = 0;
      w_held = Hashtbl.create 4;
      w_queued = Array.init n (fun _ -> ref []);
      w_gets = [];
      w_got = Hashtbl.create 4;
      w_fence_no = 0;
      w_lock = Unlocked;
      w_waiters = Queue.create ();
    }
  in
  post_service win;
  (* [handle] acts only on a matched service receive, and a match needs
     an arrival, which the channel's horizon already covers. *)
  let quiet () =
    match win.w_service with
    | Some req -> not (Request.is_complete req)
    | None -> true
  in
  win.w_hook <-
    Ch3.add_progress_hook ~ctx ~quiet (Mpi.device p) (fun () -> handle win);
  win

(* ------------------------------------------------------------------ *)
(* One-sided operations                                                *)
(* ------------------------------------------------------------------ *)

let next_seq win =
  let s = win.w_seq in
  win.w_seq <- s + 1;
  s

(* The origin's epoch stamp for an update toward [target]: the current
   fence round, or -1 (passive) when the origin holds that target's
   lock. *)
let epoch_for win ~target =
  match Hashtbl.find_opt win.w_held target with
  | Some ops ->
      incr ops;
      -1
  | None ->
      win.w_out.(target) <- win.w_out.(target) + 1;
      win.w_fence_no

(* The one way to ask [target]'s service: take the next sequence number,
   post the reply receive ([reply seq] names its tag and landing buffer)
   before the request can be served, send the request under [tag_ops],
   and wait for the send and then for the reply. *)
let call win ~target ~kind ?(code = 0) ?(off = 0) ?(len = 0) ?(aux = 0)
    ?reply payload =
  let seq = next_seq win in
  let dst = world_rank win target in
  let rreq =
    Option.map
      (fun reply ->
        let tag, view = reply seq in
        Ch3.irecv (dev win) ~src:dst ~tag ~context:win.w_ctx view)
      reply
  in
  let msg = encode ~kind ~code ~origin:win.w_me ~seq ~off ~len ~aux payload in
  ignore
    (Mpi.wait win.w_proc
       (Ch3.isend (dev win) ~dst ~tag:tag_ops ~context:win.w_ctx
          (Buffer_view.of_bytes msg)));
  Option.iter (fun r -> ignore (Mpi.wait win.w_proc r)) rreq

(* A lock grant or unlock ack: 8 bytes under a fixed tag. *)
let ack_reply tag _ = (tag, Buffer_view.of_bytes (Bytes.create 8))

let send_update win ~kind ~code ~target ~target_off buf ~off ~len =
  let aux = epoch_for win ~target in
  let payload = Bytes.sub buf off len in
  rdma_transfer win buf ~off ~len;
  call win ~target ~kind ~code ~off:target_off ~len ~aux payload

let put win ~target ~target_off buf ~off ~len =
  check_target win ~target ~target_off ~len;
  if off < 0 || off + len > Bytes.length buf then
    invalid_arg "Rma.put: local range outside the buffer";
  Env.count (wenv win) Key.rma_puts;
  send_update win ~kind:k_put ~code:0 ~target ~target_off buf ~off ~len

let accumulate win ~target ~target_off ~op buf ~off ~len =
  check_target win ~target ~target_off ~len;
  if off < 0 || off + len > Bytes.length buf then
    invalid_arg "Rma.accumulate: local range outside the buffer";
  (match op with
  | Matmul ->
      if len mod 4 <> 0 then
        invalid_arg "Rma.accumulate: Matmul needs a multiple of 4 bytes"
  | Replace -> ()
  | _ ->
      if len mod 8 <> 0 then
        invalid_arg "Rma.accumulate: arithmetic ops combine 8-byte lanes");
  Env.count (wenv win) Key.rma_accumulates;
  send_update win ~kind:k_acc ~code:(op_code op) ~target ~target_off buf ~off
    ~len

let get win ~target ~target_off buf ~off ~len =
  check_target win ~target ~target_off ~len;
  if off < 0 || off + len > Bytes.length buf then
    invalid_arg "Rma.get: local range outside the buffer";
  Env.count (wenv win) Key.rma_gets;
  rdma_transfer win buf ~off ~len;
  let aux = if Hashtbl.mem win.w_held target then -1 else win.w_fence_no in
  call win ~target ~kind:k_get ~off:target_off ~len ~aux
    ~reply:(fun seq ->
      (tag_reply_base + seq, Buffer_view.of_bytes_sub buf ~off ~len))
    Bytes.empty

(* ------------------------------------------------------------------ *)
(* Synchronization                                                     *)
(* ------------------------------------------------------------------ *)

(* Exchange per-peer counts for round [w_fence_no] and wait until every
   update addressed to us in that round has arrived. Shared by
   [win_fence] and the pre-free barrier. *)
let fence_exchange win =
  let round = win.w_fence_no in
  let announced =
    exchange win.w_proc ~ctx:win.w_ctx ~tag:(tag_fence_base + round)
      ~world_rank:(world_rank win) ~me:win.w_me ~n:win.w_n (fun s ->
        win.w_out.(s))
  in
  let drained () =
    let row = got_row win round in
    let ok = ref true in
    for o = 0 to win.w_n - 1 do
      if row.(o) < announced.(o) then ok := false
    done;
    !ok
  in
  pump_until win.w_proc ~label:"rma-fence" drained

(* Serve reads that were waiting for the window to close into their
   round (now that its updates are committed). *)
let serve_gets win =
  let ready, rest =
    List.partition (fun g -> g.g_epoch <= win.w_fence_no) (List.rev win.w_gets)
  in
  win.w_gets <- List.rev rest;
  List.iter
    (fun g ->
      reply win ~origin:g.g_origin ~tag:g.g_tag
        (Bytes.sub win.w_buf (win.w_base + g.g_off) g.g_len))
    ready

let win_fence win =
  check_open win;
  Env.count (wenv win) Key.rma_fences;
  fence_exchange win;
  let round = win.w_fence_no in
  (* Deferred application, origin-rank order then issue order: the
     moment updates become visible, and the order a non-commutative
     accumulate folds in. *)
  for o = 0 to win.w_n - 1 do
    let cell = win.w_queued.(o) in
    let mine, rest =
      List.partition (fun q -> q.q_epoch = round) (List.rev !cell)
    in
    List.iter (apply_op win) mine;
    cell := List.rev rest
  done;
  Hashtbl.remove win.w_got round;
  Array.fill win.w_out 0 win.w_n 0;
  win.w_fence_no <- win.w_fence_no + 1;
  serve_gets win

let win_lock ?(exclusive = true) win ~target =
  check_open win;
  if target < 0 || target >= win.w_n then invalid_arg "Rma.win_lock: bad rank";
  if Hashtbl.mem win.w_held target then
    invalid_arg "Rma.win_lock: already holding this window's lock";
  Env.count (wenv win) Key.rma_locks;
  call win ~target ~kind:k_lock
    ~code:(if exclusive then 1 else 0)
    ~reply:(ack_reply tag_grant) Bytes.empty;
  Hashtbl.replace win.w_held target (ref 0)

let win_unlock win ~target =
  check_open win;
  let ops =
    match Hashtbl.find_opt win.w_held target with
    | Some c -> !c
    | None -> invalid_arg "Rma.win_unlock: lock not held"
  in
  call win ~target ~kind:k_unlock ~aux:ops ~reply:(ack_reply tag_ack)
    Bytes.empty;
  Hashtbl.remove win.w_held target

let win_free win =
  check_open win;
  (* A dangling registration is exactly what this check prevents: no
     open epoch of any flavour may survive the window. *)
  if Hashtbl.length win.w_held > 0 then
    invalid_arg "Rma.win_free: a lock is still held by this process";
  if Array.exists (fun c -> c > 0) win.w_out then
    invalid_arg "Rma.win_free: unfenced one-sided operations outstanding";
  (* Synchronize all members (a zero-count fence round) so nothing can
     still be in flight toward this window: a peer's lock epoch on it has
     closed by the time that peer joins the round. Only then can this
     window's own lock and queues be judged. Retire the service with a
     self-addressed FREE — completing the posted receive and removing the
     progress hook, so quiescence checks stay clean. *)
  fence_exchange win;
  if win.w_lock <> Unlocked || not (Queue.is_empty win.w_waiters) then
    invalid_arg "Rma.win_free: this window's lock is held or contended";
  if Array.exists (fun c -> !c <> []) win.w_queued then
    invalid_arg "Rma.win_free: queued updates never applied by a sync";
  win.w_fence_no <- win.w_fence_no + 1;
  serve_gets win;
  call win ~target:win.w_me ~kind:k_free Bytes.empty;
  pump_until win.w_proc ~label:"rma-free" (fun () -> win.w_service = None);
  (match win.w_rdma with
  | Some h when win.w_len > 0 ->
      Rdma_channel.unpin_region h
        ~rank:(Mpi.rank win.w_proc)
        ~addr:(Rdma_channel.addr_of h win.w_buf + win.w_base)
        ~len:win.w_len
  | _ -> ());
  win.w_freed <- true
