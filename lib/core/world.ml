module Comm = Mpi_core.Comm
module Mpi = Mpi_core.Mpi

type config = {
  policy : Pinning.policy;
  visited : Serializer.visited_strategy;
  arena_bytes : int;
  block_bytes : int;
}

let default_config =
  {
    policy = Pinning.default;
    visited = Serializer.Linear;
    arena_bytes = 32 * 1024 * 1024;
    block_bytes = 256 * 1024;
  }

type t = {
  env : Simtime.Env.t;
  mpi_world : Mpi.world;
  config : config;
  mutable ctxs : rank_ctx array;
}

and rank_ctx = {
  world : t;
  proc : Mpi.proc;
  rt : Vm.Runtime.t;
  pool : Buffer_pool.t;
  mutable policy : Pinning.policy;
  mutable visited : Serializer.visited_strategy;
}

let make_ctx t i =
  let rt =
    Vm.Runtime.create ~arena_bytes:t.config.arena_bytes
      ~block_bytes:t.config.block_bytes ~env:t.env ()
  in
  {
    world = t;
    proc = Mpi.proc t.mpi_world i;
    rt;
    pool = Buffer_pool.create rt.Vm.Runtime.gc;
    policy = t.config.policy;
    visited = t.config.visited;
  }

let create ?channel ?(cost = Simtime.Cost.motor) ?(config = default_config)
    ?fault ?detector ~n () =
  let env = Simtime.Env.create ~cost () in
  let mpi_world = Mpi.create_world ?channel ~env ?fault ?detector ~n () in
  let t = { env; mpi_world; config; ctxs = [||] } in
  t.ctxs <- Array.init n (fun i -> make_ctx t i);
  t

let env t = t.env
let mpi t = t.mpi_world
let size t = Array.length t.ctxs

let rank_ctx t i =
  (* Indexed by world rank: spawned children land at the end, so search. *)
  match
    Array.find_opt (fun ctx -> Mpi.rank ctx.proc = i) t.ctxs
  with
  | Some ctx -> ctx
  | None -> invalid_arg "World.rank_ctx: bad rank"

let comm_world t = Mpi.comm_world t.mpi_world

let run t body =
  let fibers =
    List.init (size t) (fun i ->
        ( Printf.sprintf "motor-rank%d" i,
          fun () ->
            (* Fail-stop guard: a scheduled kill tears this rank's VM
               down instead of aborting the whole world. *)
            Mpi.rank_guard t.mpi_world i (fun () -> body (rank_ctx t i)) ))
  in
  Fiber.run ~pending:(Mpi.describe_pending t.mpi_world) fibers

(* A restarted incarnation gets a fresh VM instance — its old heap died
   with the process; the state it resumes from comes out of a checkpoint
   image, not the corpse. *)
let respawn_ctx t i =
  let ctx = make_ctx t i in
  t.ctxs <-
    Array.map (fun c -> if Mpi.rank c.proc = i then ctx else c) t.ctxs;
  ctx

let rank ctx = Mpi.rank ctx.proc
let gc ctx = ctx.rt.Vm.Runtime.gc
let registry ctx = ctx.rt.Vm.Runtime.registry

(* Build a rank_ctx around an already-created proc (dynamic spawn). *)
let ctx_of_proc t proc =
  let rt =
    Vm.Runtime.create ~arena_bytes:t.config.arena_bytes
      ~block_bytes:t.config.block_bytes ~env:t.env ()
  in
  let ctx =
    {
      world = t;
      proc;
      rt;
      pool = Buffer_pool.create rt.Vm.Runtime.gc;
      policy = t.config.policy;
      visited = t.config.visited;
    }
  in
  t.ctxs <- Array.append t.ctxs [| ctx |];
  ctx

let spawn ctx ~n body =
  let t = ctx.world in
  let comm = comm_world t in
  Mpi_core.Dynamic.spawn ctx.proc ~comm ~n (fun child_proc ic ->
      let child_ctx = ctx_of_proc t child_proc in
      body child_ctx ic)
