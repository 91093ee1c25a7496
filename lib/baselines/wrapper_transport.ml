module Comm = Mpi_core.Comm
module Env = Simtime.Env
module Mpi = Mpi_core.Mpi
module Bv = Mpi_core.Buffer_view
module Gc = Vm.Gc
module Om = Vm.Object_model
module World = Motor.World

let env_of ctx = World.env ctx.World.world

(* Native MPI blocks without yielding: the wait pumps progress (so the
   simulation advances) but never GC-polls, so a pending collection waits
   for the call to return — the wrapper pathology of Section 5.1. *)
let native_wait ctx req =
  Mpi.wait ctx.World.proc req

let with_pinned ctx obj f =
  let gc = World.gc ctx in
  Gc.pin gc obj;
  let result = f () in
  Gc.unpin gc obj;
  result

let charge_boundary ctx len =
  let env = env_of ctx in
  Env.charge_per_byte env env.Env.cost.binding_ns_per_byte len

let send ~mech ctx ~comm ~dst ~tag obj =
  let gc = World.gc ctx in
  Call_gate.enter mech (env_of ctx) ~args:6;
  Motor.Object_transport.validate gc obj;
  with_pinned ctx obj (fun () ->
      let view =
        Motor.Object_transport.view_of_region ctx
          (Om.payload_region gc obj)
      in
      charge_boundary ctx view.Bv.len;
      ignore (native_wait ctx (Mpi.isend ctx.World.proc ~comm ~dst ~tag view)))

let recv ~mech ctx ~comm ~src ~tag obj =
  let gc = World.gc ctx in
  Call_gate.enter mech (env_of ctx) ~args:6;
  Motor.Object_transport.validate gc obj;
  with_pinned ctx obj (fun () ->
      let view =
        Motor.Object_transport.view_of_region ctx
          (Om.payload_region gc obj)
      in
      charge_boundary ctx view.Bv.len;
      match
        native_wait ctx (Mpi.irecv ctx.World.proc ~comm ~src ~tag view)
      with
      | Some st -> st
      | None -> Mpi_core.Status.empty)

let size_header n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  b

let send_serialized ~mech ctx ~comm ~dst ~tag data =
  let env = env_of ctx in
  Call_gate.enter mech env ~args:6;
  charge_boundary ctx (Bytes.length data);
  ignore
    (native_wait ctx
       (Mpi.isend ctx.World.proc ~comm ~dst ~tag
          (Bv.of_bytes (size_header (Bytes.length data)))));
  Call_gate.enter mech env ~args:6;
  ignore
    (native_wait ctx (Mpi.isend ctx.World.proc ~comm ~dst ~tag (Bv.of_bytes data)))

let recv_serialized ~mech ctx ~comm ~src ~tag =
  let env = env_of ctx in
  Call_gate.enter mech env ~args:6;
  let hdr = Bytes.create 8 in
  ignore
    (native_wait ctx (Mpi.irecv ctx.World.proc ~comm ~src ~tag (Bv.of_bytes hdr)));
  let nbytes = Int64.to_int (Bytes.get_int64_le hdr 0) in
  let data = Bytes.create nbytes in
  charge_boundary ctx nbytes;
  Call_gate.enter mech env ~args:6;
  ignore
    (native_wait ctx (Mpi.irecv ctx.World.proc ~comm ~src ~tag (Bv.of_bytes data)));
  data
