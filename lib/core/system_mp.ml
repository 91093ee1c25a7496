module Comm = Mpi_core.Comm
module Ot = Object_transport
module Gc = Vm.Gc
module Om = Vm.Object_model
module Mpi = Mpi_core.Mpi
module Bv = Mpi_core.Buffer_view
module Coll = Mpi_core.Collectives

let comm_world ctx = World.comm_world ctx.World.world
let rank ctx = World.rank ctx
let size _ctx comm = Comm.size comm
let gc_of ctx = World.gc ctx

let wait_gc ctx req =
  let gc = gc_of ctx in
  Fcall.polling_wait gc ctx.World.proc ~on_enter_wait:(fun () -> ()) req

let size_header size =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int size);
  b

let read_size_header b = Int64.to_int (Bytes.get_int64_le b 0)

(* ------------------------------------------------------------------ *)
(* OSend / ORecv                                                       *)
(* ------------------------------------------------------------------ *)

let send_serialized ctx ~comm ~dst ~tag data =
  let s1 =
    Mpi.isend ctx.World.proc ~comm ~dst ~tag
      (Bv.of_bytes (size_header (Bytes.length data)))
  in
  let s2 = Mpi.isend ctx.World.proc ~comm ~dst ~tag (Bv.of_bytes data) in
  ignore (wait_gc ctx s1);
  ignore (wait_gc ctx s2)

let osend ctx ~comm ~dst ~tag obj =
  let gc = gc_of ctx in
  Fcall.call gc (fun () ->
      let data = Serializer.serialize gc ~visited:ctx.World.visited obj in
      send_serialized ctx ~comm ~dst ~tag data)

let osend_range ctx ~comm ~dst ~tag obj ~offset ~count =
  let gc = gc_of ctx in
  Fcall.call gc (fun () ->
      let data =
        Serializer.serialize_array_slice gc ~visited:ctx.World.visited obj
          ~offset ~count
      in
      send_serialized ctx ~comm ~dst ~tag data)

let orecv ctx ~comm ~src ~tag =
  let gc = gc_of ctx in
  Fcall.call gc (fun () ->
      let hdr = Bytes.create 8 in
      let st =
        match
          wait_gc ctx (Mpi.irecv ctx.World.proc ~comm ~src ~tag (Bv.of_bytes hdr))
        with
        | Some st -> st
        | None -> Mpi_core.Status.empty
      in
      let nbytes = read_size_header hdr in
      (* The data always follows from the same sender (non-overtaking), so
         pin the source down even when the header matched a wildcard. *)
      let data_src =
        match Comm.comm_rank_of comm st.Mpi_core.Status.source with
        | Some r -> r
        | None -> src
      in
      let buf = Buffer_pool.acquire ctx.World.pool nbytes in
      ignore
        (wait_gc ctx
           (Mpi.irecv ctx.World.proc ~comm ~src:data_src ~tag
              (Bv.of_bytes_sub buf ~off:0 ~len:nbytes)));
      let obj = Serializer.deserialize gc buf in
      Buffer_pool.release ctx.World.pool buf;
      let st =
        {
          st with
          Mpi_core.Status.source = data_src;
          Mpi_core.Status.bytes = nbytes;
        }
      in
      (obj, st))

(* ------------------------------------------------------------------ *)
(* OO collectives over the split representation                        *)
(* ------------------------------------------------------------------ *)

let obcast ctx ~comm ~root obj =
  let gc = gc_of ctx in
  Fcall.call gc (fun () ->
      let me = Mpi.comm_rank ctx.World.proc comm in
      if me = root then begin
        let obj =
          match obj with
          | Some o -> o
          | None -> invalid_arg "System_mp.obcast: root must supply an object"
        in
        let data = Serializer.serialize gc ~visited:ctx.World.visited obj in
        Coll.bcast ctx.World.proc comm ~root
          (Bv.of_bytes (size_header (Bytes.length data)));
        Coll.bcast ctx.World.proc comm ~root (Bv.of_bytes data);
        obj
      end
      else begin
        let hdr = Bytes.create 8 in
        Coll.bcast ctx.World.proc comm ~root (Bv.of_bytes hdr);
        let nbytes = read_size_header hdr in
        let buf = Buffer_pool.acquire ctx.World.pool nbytes in
        Coll.bcast ctx.World.proc comm ~root
          (Bv.of_bytes_sub buf ~off:0 ~len:nbytes);
        let obj = Serializer.deserialize gc buf in
        Buffer_pool.release ctx.World.pool buf;
        obj
      end)

let oscatter ctx ~comm ~root obj =
  let gc = gc_of ctx in
  Fcall.call gc (fun () ->
      let me = Mpi.comm_rank ctx.World.proc comm in
      let n = Comm.size comm in
      let hdr = Bytes.create 8 in
      if me = root then begin
        let obj =
          match obj with
          | Some o -> o
          | None -> invalid_arg "System_mp.oscatter: root must supply an array"
        in
        (* The custom serializer produces the split representation
           directly: one independently deserializable segment per member,
           with no intermediate sub-arrays (Section 7.5). *)
        let segments =
          Serializer.split gc ~visited:ctx.World.visited obj ~parts:n
        in
        let size_parts =
          Array.map (fun s -> Bv.of_bytes (size_header (Bytes.length s))) segments
        in
        Coll.scatter ctx.World.proc comm ~root ~parts:(Some size_parts)
          ~recv:(Bv.of_bytes hdr);
        let data_parts = Array.map Bv.of_bytes segments in
        let nbytes = read_size_header hdr in
        let buf = Buffer_pool.acquire ctx.World.pool nbytes in
        Coll.scatter ctx.World.proc comm ~root ~parts:(Some data_parts)
          ~recv:(Bv.of_bytes_sub buf ~off:0 ~len:nbytes);
        let mine = Serializer.deserialize gc buf in
        Buffer_pool.release ctx.World.pool buf;
        mine
      end
      else begin
        Coll.scatter ctx.World.proc comm ~root ~parts:None
          ~recv:(Bv.of_bytes hdr);
        let nbytes = read_size_header hdr in
        let buf = Buffer_pool.acquire ctx.World.pool nbytes in
        Coll.scatter ctx.World.proc comm ~root ~parts:None
          ~recv:(Bv.of_bytes_sub buf ~off:0 ~len:nbytes);
        let mine = Serializer.deserialize gc buf in
        Buffer_pool.release ctx.World.pool buf;
        mine
      end)

let ogather ctx ~comm ~root obj =
  let gc = gc_of ctx in
  Fcall.call gc (fun () ->
      let me = Mpi.comm_rank ctx.World.proc comm in
      let n = Comm.size comm in
      let data = Serializer.serialize gc ~visited:ctx.World.visited obj in
      let my_hdr = size_header (Bytes.length data) in
      if me = root then begin
        let hdrs = Array.init n (fun _ -> Bytes.create 8) in
        Coll.gather ctx.World.proc comm ~root ~send:(Bv.of_bytes my_hdr)
          ~parts:(Some (Array.map Bv.of_bytes hdrs));
        let bufs =
          Array.map
            (fun h -> Buffer_pool.acquire ctx.World.pool (read_size_header h))
            hdrs
        in
        let sinks =
          Array.mapi
            (fun i b ->
              Bv.of_bytes_sub b ~off:0 ~len:(read_size_header hdrs.(i)))
            bufs
        in
        Coll.gather ctx.World.proc comm ~root ~send:(Bv.of_bytes data)
          ~parts:(Some sinks);
        (* Deserialize every member's segment and rebuild one array. *)
        let roots =
          Array.to_list (Array.map (fun b -> Serializer.deserialize gc b) bufs)
        in
        let combined = Serializer.concat_arrays gc roots in
        List.iter (fun o -> Om.free gc o) roots;
        Array.iter (fun b -> Buffer_pool.release ctx.World.pool b) bufs;
        Some combined
      end
      else begin
        Coll.gather ctx.World.proc comm ~root ~send:(Bv.of_bytes my_hdr)
          ~parts:None;
        Coll.gather ctx.World.proc comm ~root ~send:(Bv.of_bytes data)
          ~parts:None;
        None
      end)

(* ------------------------------------------------------------------ *)
(* Regular (zero-copy) collectives                                     *)
(* ------------------------------------------------------------------ *)

let whole_view ctx obj =
  Ot.view_of_region ctx (Om.payload_region (gc_of ctx) obj)

let bcast ctx ~comm ~root obj =
  let gc = gc_of ctx in
  Fcall.call gc (fun () ->
      Ot.validate gc obj;
      Coll.bcast ctx.World.proc comm ~root (whole_view ctx obj))

let scatter_array ctx ~comm ~root ~send ~recv =
  let gc = gc_of ctx in
  Fcall.call gc (fun () ->
      Ot.validate gc recv;
      let n = Comm.size comm in
      let per_rank = Om.array_length gc recv in
      let parts =
        match send with
        | None -> None
        | Some src ->
            Ot.validate gc src;
            let len = Om.array_length gc src in
            if len <> n * per_rank then
              raise
                (Ot.Transport_error
                   (Printf.sprintf
                      "scatter_array: root array has %d elements, expected \
                       %d x %d"
                      len n per_rank));
            Some
              (Array.init n (fun r ->
                   Ot.view_of_region ctx
                     (Om.elem_region gc src ~offset:(r * per_rank)
                        ~count:per_rank)))
      in
      Coll.scatter ctx.World.proc comm ~root ~parts
        ~recv:(whole_view ctx recv))

let gather_array ctx ~comm ~root ~send ~recv =
  let gc = gc_of ctx in
  Fcall.call gc (fun () ->
      Ot.validate gc send;
      let n = Comm.size comm in
      let per_rank = Om.array_length gc send in
      let parts =
        match recv with
        | None -> None
        | Some dst ->
            Ot.validate gc dst;
            let len = Om.array_length gc dst in
            if len <> n * per_rank then
              raise
                (Ot.Transport_error
                   (Printf.sprintf
                      "gather_array: root array has %d elements, expected \
                       %d x %d"
                      len n per_rank));
            Some
              (Array.init n (fun r ->
                   Ot.view_of_region ctx
                     (Om.elem_region gc dst ~offset:(r * per_rank)
                        ~count:per_rank)))
      in
      Coll.gather ctx.World.proc comm ~root ~send:(whole_view ctx send)
        ~parts)

let allreduce_sum_f64 ctx ~comm obj =
  let gc = gc_of ctx in
  Fcall.call gc (fun () ->
      Ot.validate gc obj;
      (match Om.array_elem_type gc obj with
      | Vm.Types.Eprim Vm.Types.R8 -> ()
      | _ ->
          raise (Ot.Transport_error "allreduce_sum_f64: need a float64 array"));
      let local = Om.read_array_bytes gc obj in
      let result = Coll.allreduce ctx.World.proc comm ~op:Coll.sum_f64 local in
      Om.fill_array_bytes gc obj result)

let barrier ctx comm =
  let gc = gc_of ctx in
  Fcall.call gc (fun () -> Coll.barrier ctx.World.proc comm)

(* ------------------------------------------------------------------ *)
(* Fault tolerance (ULFM surface for managed code)                     *)
(* ------------------------------------------------------------------ *)

(* Same gate crossing as every other System.MP operation: the managed
   caller pays the fcall cost and the safepoint polls run, so a recovery
   sequence (revoke / agree / shrink) interleaves with collections like
   any other message-passing call. *)

let comm_revoke ctx comm =
  let gc = gc_of ctx in
  Fcall.call gc (fun () -> Mpi.comm_revoke ctx.World.proc comm)

let comm_agree ctx ~comm ~value =
  let gc = gc_of ctx in
  Fcall.call gc (fun () -> Mpi.comm_agree ctx.World.proc comm ~value)

let comm_shrink ctx comm =
  let gc = gc_of ctx in
  Fcall.call gc (fun () -> Mpi.comm_shrink ctx.World.proc comm)

let failed_ranks ctx = Mpi.dead_ranks (World.mpi ctx.World.world)

(* ------------------------------------------------------------------ *)
(* Nonblocking collectives (MPI-3 style)                               *)
(* ------------------------------------------------------------------ *)

(* Same conditional-pin path as the nonblocking point-to-point
   operations: the schedule's generalized request (kind [Coll_req]) is
   what the GC mark phase polls to decide whether the buffer must stay
   put, so an in-flight collective survives a collection without an
   unconditional pin. Complete with {!Ot.wait} / {!Ot.test} /
   {!Ot.wait_all}. *)

let ibarrier ctx comm =
  let gc = gc_of ctx in
  Fcall.enter gc;
  let req = Coll.ibarrier ctx.World.proc comm in
  Fcall.exit_poll gc;
  req

let ibcast ctx ~comm ~root obj =
  let gc = gc_of ctx in
  Fcall.enter gc;
  Ot.validate gc obj;
  let req = Coll.ibcast ctx.World.proc comm ~root (whole_view ctx obj) in
  Pinning.for_nonblocking ctx.World.policy gc obj ~req;
  Fcall.exit_poll gc;
  req

let iallreduce_sum_f64 ctx ~comm obj =
  let gc = gc_of ctx in
  Fcall.enter gc;
  Ot.validate gc obj;
  (match Om.array_elem_type gc obj with
  | Vm.Types.Eprim Vm.Types.R8 -> ()
  | _ ->
      raise (Ot.Transport_error "iallreduce_sum_f64: need a float64 array"));
  let local = Om.read_array_bytes gc obj in
  let view = whole_view ctx obj in
  let req, result =
    Coll.iallreduce ctx.World.proc comm ~op:Coll.sum_f64 local
  in
  (* The write-back goes through the view captured here, so the object
     must not move while the schedule is in flight — exactly what the
     conditional pin guarantees. The completion callback runs inside the
     progress pump, before any further GC poll, so the address is still
     the pinned one when the result lands. *)
  Pinning.for_nonblocking ctx.World.policy gc obj ~req;
  Mpi_core.Request.on_complete req (fun () -> Bv.write_all view result);
  Fcall.exit_poll gc;
  req

(* ------------------------------------------------------------------ *)
(* Managed one-sided windows                                           *)
(* ------------------------------------------------------------------ *)

module Rma = Mpi_core.Rma

type owin = {
  ow_win : Rma.win;
  ow_gc : Gc.t;
  ow_obj : Om.obj;
  mutable ow_pinned : bool; (* sticky pin owed an unpin at free *)
}

let owin_create ?eager_apply ctx ~comm obj =
  let gc = gc_of ctx in
  Fcall.call gc (fun () ->
      Ot.validate gc obj;
      let addr, len = Om.payload_region gc obj in
      let win =
        Rma.win_create ?eager_apply ~sub:(addr, len) ctx.World.proc ~comm
          (Vm.Heap.mem (Gc.heap gc))
      in
      let pinned =
        Pinning.for_window ctx.World.policy gc obj ~exposed:(fun () ->
            Rma.exposed win)
      in
      { ow_win = win; ow_gc = gc; ow_obj = obj; ow_pinned = pinned })

let owin_win ow = ow.ow_win

let owin_free ow =
  Fcall.call ow.ow_gc (fun () ->
      Rma.win_free ow.ow_win;
      if ow.ow_pinned then begin
        Gc.unpin ow.ow_gc ow.ow_obj;
        ow.ow_pinned <- false
      end)
