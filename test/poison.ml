(* Poisoned heaps. A runtime or world built here fills every unallocated
   arena byte with 0xAA when it is created and again after every
   collection, so code that reads memory no allocation wrote sees poison
   and fails loudly. A large arena arrives as fresh zero pages, which
   would hide such a read. A suite opts in by shadowing [Runtime] or
   [World] with the modules below. *)

let poison_gc gc =
  let heap = Vm.Gc.heap gc in
  Vm.Heap.poison_free heap;
  Vm.Gc.add_post_gc_hook gc (fun () -> Vm.Heap.poison_free heap)

module Runtime = struct
  include Vm.Runtime

  let create ?arena_bytes ?block_bytes ?cost ?env () =
    let rt = create ?arena_bytes ?block_bytes ?cost ?env () in
    poison_gc rt.gc;
    rt
end

module World = struct
  include Motor.World

  let create ?channel ?cost ?config ?fault ?detector ~n () =
    let w = create ?channel ?cost ?config ?fault ?detector ~n () in
    for i = 0 to n - 1 do
      poison_gc (gc (rank_ctx w i))
    done;
    w

  let respawn_ctx w i =
    let ctx = respawn_ctx w i in
    poison_gc (gc ctx);
    ctx
end
