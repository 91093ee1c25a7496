module Om = Vm.Object_model
module Mpi = Mpi_core.Mpi
module Ch3 = Mpi_core.Ch3
module Key = Simtime.Stats.Key

type image = {
  i_rank : int;
  i_step : int;
  i_at_ns : float;
  i_data : Bytes.t;
  i_digest : string;
  i_pending : string;
}

type store = {
  s_interval : int;
  latest : (int, image) Hashtbl.t;
}

let create_store ?(interval = 1) () =
  if interval < 1 then invalid_arg "Checkpoint.create_store: interval < 1";
  { s_interval = interval; latest = Hashtbl.create 8 }

let due s ~step = step mod s.s_interval = 0
let digest data = Digest.to_hex (Digest.bytes data)

(* The device-side half of a consistent checkpoint: a digest of the
   rank's message state at save time. A checkpoint taken at a step
   boundary of a bulk-synchronous program has nothing in flight, and the
   restore path asserts exactly that — replaying from an image with
   channel state baked in would need message logging, which this store
   deliberately does not implement. *)
let pending_digest ctx =
  let dev = Mpi.device ctx.World.proc in
  Printf.sprintf "out=%d rndv=%d hooks=%d" (Ch3.outstanding dev)
    (Ch3.pending_rendezvous dev)
    (Ch3.progress_hook_count dev)

let quiescent_pending = "out=0 rndv=0 hooks=0"

let save store ctx ~step root =
  let gc = World.gc ctx in
  let env = World.env ctx.World.world in
  let data = Serializer.serialize gc ~visited:ctx.World.visited root in
  let image =
    {
      i_rank = World.rank ctx;
      i_step = step;
      i_at_ns = Simtime.Clock.now_ns env.Simtime.Env.clock;
      i_data = data;
      i_digest = digest data;
      i_pending = pending_digest ctx;
    }
  in
  Hashtbl.replace store.latest image.i_rank image;
  Simtime.Env.count env Key.checkpoints;
  Mpi_core.Trace.record env ~rank:image.i_rank ~op:"checkpoint"
    ~detail:(fun () ->
      Printf.sprintf "step=%d %dB %s [%s]" step (Bytes.length data)
        image.i_digest image.i_pending);
  image

let restore store ctx =
  let rank = World.rank ctx in
  match Hashtbl.find_opt store.latest rank with
  | None ->
      invalid_arg
        (Printf.sprintf "Checkpoint.restore: no image for rank %d" rank)
  | Some image ->
      if image.i_pending <> quiescent_pending then
        invalid_arg
          (Printf.sprintf
             "Checkpoint.restore: rank %d image taken with messages in \
              flight (%s) — not restorable without message logging"
             rank image.i_pending);
      let gc = World.gc ctx in
      let env = World.env ctx.World.world in
      let root = Serializer.deserialize gc image.i_data in
      Simtime.Env.count env Key.restores;
      Mpi_core.Trace.record env ~rank ~op:"restore"
        ~detail:(fun () ->
          Printf.sprintf "step=%d %dB %s" image.i_step
            (Bytes.length image.i_data) image.i_digest);
      (root, image.i_step)
