module Comm = Mpi_core.Comm
module Mpi = Mpi_core.Mpi
module Gc = Vm.Gc
module Om = Vm.Object_model
module World = Motor.World

let elem_type gc arr =
  match Om.array_elem_type gc arr with
  | Vm.Types.Eref _ as e -> e
  | Vm.Types.Eprim _ ->
      invalid_arg "Wrapper_scatter: need a reference array"

(* Materialize a managed sub-array holding elements [off, off+len) — the
   intermediate allocation the paper's Section 2.4 blames. *)
let sub_array gc arr ~off ~len =
  let sub = Om.alloc_array gc (elem_type gc arr) len in
  for i = 0 to len - 1 do
    let e = Om.get_elem_ref gc arr (off + i) in
    Om.set_elem_ref gc sub i e;
    match e with Some h -> Om.free gc h | None -> ()
  done;
  sub

let scatter_objects ~mech ~profile ctx ~comm ~root input =
  let gc = World.gc ctx in
  let me = Mpi.comm_rank ctx.World.proc comm in
  let n = Comm.size comm in
  if me = root then begin
    let arr =
      match input with
      | Some a -> a
      | None -> invalid_arg "Wrapper_scatter.scatter_objects: root needs data"
    in
    let len = Om.array_length gc arr in
    let base = len / n and extra = len mod n in
    let off = ref 0 in
    let mine = ref (Om.null gc) in
    for r = 0 to n - 1 do
      let count = base + (if r < extra then 1 else 0) in
      (* One fresh sub-array and one atomic serialization per member. *)
      let sub = sub_array gc arr ~off:!off ~len:count in
      off := !off + count;
      let data = Std_serializer.serialize profile gc sub in
      if r = me then begin
        Om.free gc sub;
        mine := Std_serializer.deserialize profile gc data
      end
      else begin
        Om.free gc sub;
        Wrapper_transport.send_serialized ~mech ctx ~comm ~dst:r ~tag:0x5347
          data
      end
    done;
    !mine
  end
  else begin
    let data =
      Wrapper_transport.recv_serialized ~mech ctx ~comm ~src:root ~tag:0x5347
    in
    Std_serializer.deserialize profile gc data
  end
