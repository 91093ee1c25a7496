module Env = Simtime.Env
module Key = Simtime.Stats.Key

let env gc = Vm.Heap.env (Vm.Gc.heap gc)

let enter gc =
  let e = env gc in
  let crossing = e.Env.cost.fcall_ns +. e.Env.cost.managed_wrapper_ns in
  Env.charge e crossing;
  (* The gate crossing itself, excluding any GC the safepoint poll runs
     (that lands in the gc pause histograms). *)
  Env.observe e Key.h_fcall_gate crossing;
  Env.count e Key.fcalls;
  Vm.Gc.poll gc

let exit_poll gc = Vm.Gc.poll gc

let call gc f =
  enter gc;
  let result = f () in
  exit_poll gc;
  result

let polling_wait gc proc ~on_enter_wait req =
  ignore (Mpi_core.Ch3.progress (Mpi_core.Mpi.device proc));
  if not (Mpi_core.Request.is_complete req) then begin
    on_enter_wait ();
    ignore
      (Mpi_core.Mpi.wait_poll ~idle:(Vm.Gc.idle_poll gc) proc
         ~poll:(fun () -> Vm.Gc.poll gc)
         req)
  end;
  Mpi_core.Request.status req

let polling_wait_all gc proc ~on_enter_wait reqs =
  ignore (Mpi_core.Ch3.progress (Mpi_core.Mpi.device proc));
  if not (List.for_all Mpi_core.Request.is_complete reqs) then begin
    on_enter_wait ();
    let idle = Vm.Gc.idle_poll gc in
    List.iter
      (fun req ->
        ignore
          (Mpi_core.Mpi.wait_poll ~idle proc
             ~poll:(fun () -> Vm.Gc.poll gc)
             req))
      reqs
  end
