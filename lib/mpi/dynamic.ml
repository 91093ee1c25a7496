type intercomm = {
  ic_local : Comm.t;
  ic_remote : Comm.t;
  ic_merge_ctx : int;
  ic_is_parent : bool;
}

let remote_size ic = Comm.size ic.ic_remote

let spawn p ~comm ~n body =
  if n < 1 then invalid_arg "Dynamic.spawn: need at least one child";
  if not (Fiber.in_scheduler ()) then
    invalid_arg "Dynamic.spawn: requires a running fiber scheduler";
  let w = Mpi.world_of p in
  let me = Mpi.comm_rank p comm in
  let e = Mpi.next_epoch p comm in
  let key = Printf.sprintf "spawn/%d/%d" comm.Comm.ctx e in
  let inter_ctx = Mpi.alloc_context w ~key:(key ^ "/inter") in
  let child_ctx = Mpi.alloc_context w ~key:(key ^ "/children") in
  let merge_ctx = Mpi.alloc_context w ~key:(key ^ "/merge") in
  let parent_members = Comm.members comm in
  let table = Mpi.spawn_table w in
  if me = 0 then begin
    let children = Array.init n (fun _ -> Mpi.add_rank w) in
    let child_members = Array.map Mpi.rank children in
    let child_ic =
      {
        ic_local = Comm.make ~ctx:child_ctx ~members:child_members;
        ic_remote = Comm.make ~ctx:inter_ctx ~members:parent_members;
        ic_merge_ctx = merge_ctx;
        ic_is_parent = false;
      }
    in
    Array.iter
      (fun cp ->
        let rank = Mpi.rank cp in
        Fiber.spawn (Printf.sprintf "spawned%d" rank) (fun () ->
            Mpi.rank_guard w rank (fun () -> body cp child_ic)))
      children;
    Hashtbl.replace table key child_members
  end
  else
    Fiber.wait_until ~label:"spawn-rendezvous" (fun () ->
        Hashtbl.mem table key);
  let child_members = Hashtbl.find table key in
  {
    ic_local = comm;
    ic_remote = Comm.make ~ctx:inter_ctx ~members:child_members;
    ic_merge_ctx = merge_ctx;
    ic_is_parent = true;
  }

let merge _p ic =
  let parents, children =
    if ic.ic_is_parent then (Comm.members ic.ic_local, Comm.members ic.ic_remote)
    else (Comm.members ic.ic_remote, Comm.members ic.ic_local)
  in
  Comm.make ~ctx:ic.ic_merge_ctx ~members:(Array.append parents children)

(* Intercommunicator traffic uses the shared context with the REMOTE
   group's ranks; both sides constructed their remote comm with the same
   context id, so envelopes match. *)
let send p ic ~dst ~tag buf =
  ignore
    (Mpi.wait p
       (Ch3.isend (Mpi.device p)
          ~dst:(Comm.world_rank_of ic.ic_remote dst)
          ~tag
          ~context:ic.ic_remote.Comm.ctx buf))

let recv p ic ~src ~tag buf =
  let src =
    if src = Tag_match.any_source then src
    else Comm.world_rank_of ic.ic_remote src
  in
  match
    Mpi.wait p
      (Ch3.irecv (Mpi.device p) ~src ~tag ~context:ic.ic_remote.Comm.ctx buf)
  with
  | Some st -> (
      match Comm.comm_rank_of ic.ic_remote st.Status.source with
      | Some r -> { st with Status.source = r }
      | None -> st)
  | None -> Status.empty
