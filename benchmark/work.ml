(* The five closed-loop workloads of the benchmark.

   Each rank runs a fixed bundle of operations per step and starts the
   next step only when its own bundle has completed. Step counts are fixed
   per workload, never derived from elapsed time, so every rep of a
   workload does the same work and its virtual-clock results repeat
   exactly. Every input comes from the seed, and every output is checked
   against an oracle that does not go through the code under test. *)

module World = Motor.World
module Ot = Motor.Object_transport
module Smp = Motor.System_mp
module Om = Vm.Object_model
module Types = Vm.Types
module Classes = Vm.Classes
module Mpi = Mpi_core.Mpi
module Coll = Mpi_core.Collectives
module Bv = Mpi_core.Buffer_view
module Env = Simtime.Env

(* --- Seeded inputs --- *)

(* splitmix64-style finaliser over OCaml's 63-bit ints. *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

let hash seed a b = mix (mix (mix seed + a) + b) land max_int

let seeded_bytes seed salt len =
  Bytes.init len (fun i -> Char.chr (hash seed salt i land 0xff))

(* Buffers of int64 lanes below 2^32, so sums over 16 ranks and thousands
   of steps never overflow. *)
let seeded_lanes seed salt lanes =
  let b = Bytes.create (8 * lanes) in
  for i = 0 to lanes - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.of_int (hash seed salt i land 0xffff_ffff))
  done;
  b

let add_lane b k d =
  Bytes.set_int64_le b (8 * k) (Int64.add (Bytes.get_int64_le b (8 * k)) (Int64.of_int d))

(* FNV-style digest over 8-byte lanes. Each lane feeds a bijection of the
   running state, so a single changed lane always changes the digest. *)
let digest64 b =
  let h = ref 0x4bf29ce484222325 in
  for i = 0 to (Bytes.length b / 8) - 1 do
    h := (!h lxor Int64.to_int (Bytes.get_int64_le b (8 * i))) * 0x100000001b3
  done;
  !h

let permutation seed salt n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = hash seed salt i mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- One rep --- *)

type rep = {
  attempted : int;
  failed : int;
  loop_s : float;  (** rank 0: first step start to last step end *)
  step_ms : float array;  (** host time per step, rank 0's view *)
  step_virt_us : float array;  (** virtual time per step; empty on parallel worlds *)
  stats : Simtime.Stats.t;
}

type book = {
  steps : int;
  bad : Bytes.t;  (** one flag per step; set by any rank's oracle *)
  host : int array;  (** rank 0's clocks at each step boundary *)
  virt : float array;
  mutable stamped : int;
}

let book steps =
  {
    steps;
    bad = Bytes.make steps '\000';
    host = Array.make (steps + 1) 0;
    virt = Array.make (steps + 1) 0.0;
    stamped = 0;
  }

let mark b s = Bytes.set b.bad s '\001'

(* Rank 0 stamps both clocks at every step boundary. *)
let each_step b ~rank ~virt f =
  let stamp s =
    b.host.(s) <- Spans.now ();
    b.virt.(s) <- virt ();
    b.stamped <- s + 1
  in
  for s = 0 to b.steps - 1 do
    if rank = 0 then stamp s;
    f s
  done;
  if rank = 0 then stamp b.steps

(* An exception fails every step rank 0 had not completed. *)
let close b ~parallel ~stats ~error =
  Option.iter
    (fun e -> Printf.eprintf "motor_bench: rep failed: %s\n%!" (Printexc.to_string e))
    error;
  let completed = max 0 (b.stamped - 1) in
  let failed = ref (b.steps - completed) in
  for s = 0 to completed - 1 do
    if Bytes.get b.bad s <> '\000' then incr failed
  done;
  let per a scale = Array.init completed (fun s -> (a (s + 1) -. a s) *. scale) in
  let host s = float_of_int b.host.(s) in
  {
    attempted = b.steps;
    failed = !failed;
    loop_s = (if completed = 0 then 0.0 else (host completed -. host 0) /. 1e9);
    step_ms = per host 1e-6;
    step_virt_us = (if parallel then [||] else per (fun s -> b.virt.(s)) 1e-3);
    stats;
  }

(* A Motor world of [ranks] VMs on the sock channel. [body] gets the
   world's virtual clock. The driver lane's [World] span covers creation,
   fiber start-up and teardown. *)
let motor_rep ~ranks b body =
  let error = ref None in
  let w =
    Spans.span ~lane:ranks ~step:(-1) Spans.World (fun () ->
        let w = World.create ~channel:`Sock ~n:ranks () in
        let env = World.env w in
        if Spans.recording () then Simtime.Probe.set_sink env Spans.sink;
        let virt () = Env.now_ns env in
        (try
           World.run w (fun ctx ->
               body ctx ~virt;
               Spans.finish ~lane:(World.rank ctx))
         with e -> error := Some e);
        Simtime.Probe.clear_sink env;
        w)
  in
  Spans.span ~lane:ranks ~step:(-1) Spans.Verify (fun () ->
      if Mpi.quiescence_report (World.mpi w) <> [] then mark b (b.steps - 1));
  close b ~parallel:false ~stats:(World.env w).Env.stats ~error:!error

(* An MPI-core world. Cooperative worlds run on an environment created
   here, so the Probe sink can be installed before the run; parallel ones
   build one environment per domain inside [Mpi.run]. *)
let mpi_rep ~ranks ?topology ?fault ?detector ?parallel b body =
  let env = if parallel = None then Some (Env.create ()) else None in
  let virt = match env with Some env -> fun () -> Env.now_ns env | None -> fun () -> 0.0 in
  if Spans.recording () then Option.iter (fun env -> Simtime.Probe.set_sink env Spans.sink) env;
  let result =
    Spans.span ~lane:ranks ~step:(-1) Spans.World (fun () ->
        try
          Ok
            (Mpi.run ?env ?topology ?fault ?detector ?parallel ~n:ranks (fun p ->
                 body p ~virt;
                 Spans.finish ~lane:(Mpi.rank p)))
        with e -> Error e)
  in
  Option.iter Simtime.Probe.clear_sink env;
  match result with
  | Ok w ->
      Spans.span ~lane:ranks ~step:(-1) Spans.Verify (fun () ->
          if Mpi.quiescence_report w <> [] || Mpi.dead_ranks w <> [] then
            mark b (b.steps - 1));
      close b ~parallel:(parallel <> None) ~stats:(Mpi.merged_stats w) ~error:None
  | Error e ->
      let stats = match env with Some env -> env.Env.stats | None -> Simtime.Stats.create () in
      close b ~parallel:(parallel <> None) ~stats ~error:(Some e)

(* --- Workloads --- *)

type instance = {
  rep : unit -> rep;
  setup : unit -> unit;  (** build and run the workload's world with an empty body *)
}

type t = {
  name : string;
  ranks : int;
  steps : int;  (** per rep in a full run *)
  rep_s : float;  (** nominal seconds per rep on the 2-core x86 host of benchmark/README.md *)
  quick_steps : int;
  make : seed:int -> steps:int -> instance;
  parallel_twin : (seed:int -> steps:int -> instance) option;
      (** the same steps on 2 domains, for the parallel-mode speed-up *)
}

(* pingpong: 13 round trips per step over the same managed buffers,
   8 x 64 B and 4 x 4 KiB eager plus 1 x 128 KiB rendezvous (the eager
   limit is 64 KiB inclusive), in a seeded order. A young collection right
   after allocation promotes the buffers, as in a long-running program, so
   the pinning policy's elder-generation skip applies. Rank 1 rewrites one
   seeded 8-byte lane before echoing; rank 0 replays each rewrite on a
   plain [Bytes] model, checks the lane after every round trip and
   compares the whole buffers at the end. *)
let pp_sizes = [| 64; 64; 64; 64; 64; 64; 64; 64; 4096; 4096; 4096; 4096; 131072 |]

let pingpong ~seed ~steps =
  let n = Array.length pp_sizes in
  let init = Array.mapi (fun j size -> seeded_bytes seed j size) pp_sizes in
  let orders = Array.init 16 (fun k -> permutation seed (1000 + k) n) in
  let pos s j = hash seed s j mod (pp_sizes.(j) / 8) in
  let next v s j = Int64.add (Int64.mul v 0x5851f42d4c957f2dL) (Int64.of_int (hash seed j s)) in
  let alloc gc j = Om.alloc_array gc (Types.Eprim Types.I8) (pp_sizes.(j) / 8) in
  let promote gc bufs =
    Vm.Gc.collect gc ~full:false;
    bufs
  in
  let rep () =
    let b = book steps in
    motor_rep ~ranks:2 b (fun ctx ~virt ->
        let gc = World.gc ctx and rank = World.rank ctx in
        let comm = Smp.comm_world ctx in
        let sp s name f = Spans.span ~lane:rank ~step:s name f in
        if rank = 0 then begin
          let bufs =
            sp (-1) Spans.Build (fun () ->
                promote gc
                  (Array.mapi
                     (fun j bytes ->
                       let a = alloc gc j in
                       Om.fill_array_bytes gc a bytes;
                       a)
                     init))
          in
          let model = Array.map Bytes.copy init in
          each_step b ~rank ~virt (fun s ->
              Array.iter
                (fun j ->
                  sp s Spans.Ot_send (fun () -> Ot.send ctx ~comm ~dst:1 ~tag:j bufs.(j));
                  ignore (sp s Spans.Ot_recv (fun () -> Ot.recv ctx ~comm ~src:1 ~tag:j bufs.(j)));
                  sp s Spans.Verify (fun () ->
                      let p = pos s j in
                      let v = next (Bytes.get_int64_le model.(j) (8 * p)) s j in
                      Bytes.set_int64_le model.(j) (8 * p) v;
                      if Om.get_elem_int64 gc bufs.(j) p <> v then mark b s))
                orders.(s land 15));
          sp (-1) Spans.Verify (fun () ->
              if not (Array.for_all2 (fun a m -> Bytes.equal (Om.read_array_bytes gc a) m) bufs model)
              then mark b (steps - 1))
        end
        else begin
          let bufs = sp (-1) Spans.Build (fun () -> promote gc (Array.init n (alloc gc))) in
          each_step b ~rank ~virt (fun s ->
              Array.iter
                (fun j ->
                  ignore (sp s Spans.Ot_recv (fun () -> Ot.recv ctx ~comm ~src:0 ~tag:j bufs.(j)));
                  sp s Spans.Build (fun () ->
                      let p = pos s j in
                      Om.set_elem_int64 gc bufs.(j) p (next (Om.get_elem_int64 gc bufs.(j) p) s j));
                  sp s Spans.Ot_send (fun () -> Ot.send ctx ~comm ~dst:0 ~tag:j bufs.(j)))
                orders.(s land 15))
        end)
  in
  let setup () =
    let w = World.create ~channel:`Sock ~n:2 () in
    World.run w (fun _ -> ())
  in
  { rep; setup }

(* objects: a linked list whose nodes each hold a byte array, echoed with
   OSend/ORecv. Per step: four 64-object lists and one 1024-object list,
   4 KiB of payload each. Both ranks check every received graph's element
   count and payload byte sum. *)
let obj_elems = [| 32; 32; 32; 32; 512 |]
let obj_payload = 4096

let node_class registry =
  match Classes.find_by_name registry "BenchNode" with
  | Some mt -> mt
  | None ->
      let id = Classes.declare registry ~name:"BenchNode" in
      let arr = Classes.array_class registry (Types.Eprim Types.I1) in
      Classes.complete registry id ~transportable:true
        ~fields:[ ("data", Types.Ref arr.Classes.c_id, true); ("next", Types.Ref id, true) ]
        ()

let build_list gc mt payload ~elems =
  let fdata = Classes.field mt "data" and fnext = Classes.field mt "next" in
  let per = Bytes.length payload / elems in
  let head = ref None in
  for i = elems - 1 downto 0 do
    let node = Om.alloc_instance gc mt in
    let arr = Om.alloc_array gc (Types.Eprim Types.I1) per in
    Om.fill_array_bytes gc arr (Bytes.sub payload (i * per) per);
    Om.set_ref gc node fdata (Some arr);
    Om.free gc arr;
    Option.iter
      (fun next ->
        Om.set_ref gc node fnext (Some next);
        Om.free gc next)
      !head;
    head := Some node
  done;
  Option.get !head

let byte_sum b =
  let s = ref 0 in
  Bytes.iter (fun c -> s := !s + Char.code c) b;
  !s

(* (element count, payload byte sum) of a list; [root] stays owned by the
   caller, every handle taken on the way is released. *)
let walk gc mt root =
  let fdata = Classes.field mt "data" and fnext = Classes.field mt "next" in
  let rec go node ~owned count sum =
    let sum =
      match Om.get_ref gc node fdata with
      | None -> sum
      | Some arr ->
          let b = Om.read_array_bytes gc arr in
          Om.free gc arr;
          sum + byte_sum b
    in
    let next = Om.get_ref gc node fnext in
    if owned then Om.free gc node;
    match next with None -> (count + 1, sum) | Some n -> go n ~owned:true (count + 1) sum
  in
  go root ~owned:false 0 0

let objects ~seed ~steps =
  let payloads = Array.mapi (fun k _ -> seeded_bytes seed (2000 + k) obj_payload) obj_elems in
  let expected = Array.mapi (fun k elems -> (elems, byte_sum payloads.(k))) obj_elems in
  let rep () =
    let b = book steps in
    motor_rep ~ranks:2 b (fun ctx ~virt ->
        let gc = World.gc ctx and rank = World.rank ctx in
        let comm = Smp.comm_world ctx in
        let sp s name f = Spans.span ~lane:rank ~step:s name f in
        let mt = sp (-1) Spans.Build (fun () -> node_class (World.registry ctx)) in
        if rank = 0 then begin
          let lists =
            sp (-1) Spans.Build (fun () ->
                Array.mapi (fun k elems -> build_list gc mt payloads.(k) ~elems) obj_elems)
          in
          each_step b ~rank ~virt (fun s ->
              Array.iteri
                (fun k l ->
                  sp s Spans.Osend (fun () -> Smp.osend ctx ~comm ~dst:1 ~tag:k l);
                  let got, _ = sp s Spans.Orecv (fun () -> Smp.orecv ctx ~comm ~src:1 ~tag:k) in
                  sp s Spans.Verify (fun () ->
                      if walk gc mt got <> expected.(k) then mark b s;
                      Om.free gc got))
                lists)
        end
        else
          each_step b ~rank ~virt (fun s ->
              for k = 0 to Array.length obj_elems - 1 do
                let got, _ = sp s Spans.Orecv (fun () -> Smp.orecv ctx ~comm ~src:0 ~tag:k) in
                sp s Spans.Verify (fun () -> if walk gc mt got <> expected.(k) then mark b s);
                sp s Spans.Osend (fun () -> Smp.osend ctx ~comm ~dst:0 ~tag:k got);
                Om.free gc got
              done))
  in
  let setup () =
    let w = World.create ~channel:`Sock ~n:2 () in
    World.run w (fun _ -> ())
  in
  { rep; setup }

(* collectives: 16 ranks on 4 nodes x 4 cores, so `Auto picks the
   two-level algorithms. Per step: two 8-byte allreduces, one 64 KiB
   allreduce and one 64 KiB bcast from rank 0, all sum_i64 over int64
   lanes. Before each 64 KiB operation the contributor bumps one seeded
   lane; the expected 8-byte sums and the expected 64 KiB digests of every
   step are computed up front from the seed. With [~parallel:2] the same
   steps run on two domains (one per pair of nodes). *)
let coll_ranks = 16
let vec_lanes = 8192

let collectives ?parallel ~seed ~steps () =
  let topology = Simtime.Topology.make ~nodes:4 ~cores:4 in
  let small r s i = hash seed ((2 * r) + i) s land 0xff_ffff_ffff in
  let xs = Array.init coll_ranks (fun r -> seeded_lanes seed (3000 + r) vec_lanes) in
  let y0 = seeded_lanes seed 4000 vec_lanes in
  let lane_x s = hash seed 5000 s mod vec_lanes and delta_x r s = hash seed (5001 + r) s land 0xffff in
  let lane_y s = hash seed 6000 s mod vec_lanes and delta_y s = hash seed 6001 s land 0xffff in
  let sums =
    Array.init (2 * steps) (fun k ->
        let acc = ref 0 in
        for r = 0 to coll_ranks - 1 do
          acc := !acc + small r (k / 2) (k mod 2)
        done;
        Int64.of_int !acc)
  in
  let sum_digest, bcast_digest =
    let e = Bytes.copy xs.(0) and y = Bytes.copy y0 in
    for r = 1 to coll_ranks - 1 do
      for k = 0 to vec_lanes - 1 do
        add_lane e k (Int64.to_int (Bytes.get_int64_le xs.(r) (8 * k)))
      done
    done;
    let sd = Array.make steps 0 and bd = Array.make steps 0 in
    for s = 0 to steps - 1 do
      for r = 0 to coll_ranks - 1 do
        add_lane e (lane_x s) (delta_x r s)
      done;
      add_lane y (lane_y s) (delta_y s);
      sd.(s) <- digest64 e;
      bd.(s) <- digest64 y
    done;
    (sd, bd)
  in
  let rep () =
    let b = book steps in
    mpi_rep ~ranks:coll_ranks ~topology ?parallel b (fun p ~virt ->
        let rank = Mpi.rank p in
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let sp s name f = Spans.span ~lane:rank ~step:s name f in
        let x, y, small_in =
          sp (-1) Spans.Build (fun () ->
              ( Bytes.copy xs.(rank),
                (if rank = 0 then Bytes.copy y0 else Bytes.create (8 * vec_lanes)),
                Bytes.create 8 ))
        in
        each_step b ~rank ~virt (fun s ->
            for i = 0 to 1 do
              Bytes.set_int64_le small_in 0 (Int64.of_int (small rank s i));
              let out =
                sp s Spans.Allreduce_8B (fun () -> Coll.allreduce p comm ~op:Coll.sum_i64 small_in)
              in
              sp s Spans.Verify (fun () ->
                  if Bytes.get_int64_le out 0 <> sums.((2 * s) + i) then mark b s)
            done;
            sp s Spans.Build (fun () -> add_lane x (lane_x s) (delta_x rank s));
            let out = sp s Spans.Allreduce_64KiB (fun () -> Coll.allreduce p comm ~op:Coll.sum_i64 x) in
            sp s Spans.Verify (fun () -> if digest64 out <> sum_digest.(s) then mark b s);
            if rank = 0 then sp s Spans.Build (fun () -> add_lane y (lane_y s) (delta_y s));
            sp s Spans.Bcast_64KiB (fun () -> Coll.bcast p comm ~root:0 (Bv.of_bytes y));
            sp s Spans.Verify (fun () -> if digest64 y <> bcast_digest.(s) then mark b s)))
  in
  let setup () = ignore (Mpi.run ~topology ?parallel ~n:coll_ranks (fun _ -> ())) in
  { rep; setup }

(* lossy: 4 ranks on a wire that drops 3 %, duplicates 1 % and delays 2 %
   of packets (seeded), under go-back-N reliable delivery and the default
   heartbeat detector. Per step: a 1 KiB ring sendrecv whose payload
   evolves from what was received, plus an 8-byte allreduce. The final
   ring buffers must equal a plain model of the same ring without MPI. *)
let lossy_ranks = 4
let ring_lanes = 128

let ring_update buf inb s =
  for i = 0 to ring_lanes - 1 do
    Bytes.set_int64_le buf (8 * i)
      Int64.(add (mul (Bytes.get_int64_le buf (8 * i)) 31L) (add (Bytes.get_int64_le inb (8 * i)) (of_int s)))
  done

let lossy ~seed ~steps =
  let n = lossy_ranks in
  let fault = Mpi_core.Fault.plan ~seed ~drop:0.03 ~duplicate:0.01 ~delay:0.02 () in
  let detector = Mpi_core.Ft.default_detector in
  let init = Array.init n (fun r -> seeded_bytes seed (7000 + r) (8 * ring_lanes)) in
  let small r s = hash seed (8000 + r) s land 0xff_ffff_ffff in
  let sums =
    Array.init steps (fun s ->
        let acc = ref 0 in
        for r = 0 to n - 1 do
          acc := !acc + small r s
        done;
        Int64.of_int !acc)
  in
  let final =
    let cur = Array.map Bytes.copy init in
    for s = 0 to steps - 1 do
      let prev = Array.map Bytes.copy cur in
      Array.iteri (fun r buf -> ring_update buf prev.((r + n - 1) mod n) s) cur
    done;
    cur
  in
  let rep () =
    let b = book steps in
    mpi_rep ~ranks:n ~fault ~detector b (fun p ~virt ->
        let rank = Mpi.rank p in
        let comm = Mpi.comm_world (Mpi.world_of p) in
        let sp s name f = Spans.span ~lane:rank ~step:s name f in
        let buf, inb, small_in =
          sp (-1) Spans.Build (fun () ->
              (Bytes.copy init.(rank), Bytes.create (8 * ring_lanes), Bytes.create 8))
        in
        each_step b ~rank ~virt (fun s ->
            ignore
              (sp s Spans.Sendrecv (fun () ->
                   Mpi.sendrecv p ~comm ~dst:((rank + 1) mod n) ~send_tag:s ~send:(Bv.of_bytes buf)
                     ~src:((rank + n - 1) mod n) ~recv_tag:s ~recv:(Bv.of_bytes inb)));
            sp s Spans.Build (fun () ->
                ring_update buf inb s;
                Bytes.set_int64_le small_in 0 (Int64.of_int (small rank s)));
            let out =
              sp s Spans.Allreduce_8B (fun () -> Coll.allreduce p comm ~op:Coll.sum_i64 small_in)
            in
            sp s Spans.Verify (fun () -> if Bytes.get_int64_le out 0 <> sums.(s) then mark b s));
        sp (-1) Spans.Verify (fun () -> if not (Bytes.equal buf final.(rank)) then mark b (steps - 1)))
  in
  let setup () = ignore (Mpi.run ~fault ~detector ~n (fun _ -> ())) in
  { rep; setup }

let all =
  [
    {
      name = "pingpong";
      ranks = 2;
      steps = 1200;
      rep_s = 0.7;
      quick_steps = 40;
      make = pingpong;
      parallel_twin = None;
    };
    { name = "objects"; ranks = 2; steps = 140; rep_s = 1.0; quick_steps = 4; make = objects; parallel_twin = None };
    {
      name = "collectives";
      ranks = coll_ranks;
      steps = 64;
      rep_s = 0.27;
      quick_steps = 6;
      make = (fun ~seed ~steps -> collectives ~seed ~steps ());
      parallel_twin = Some (fun ~seed ~steps -> collectives ~parallel:2 ~seed ~steps ());
    };
    {
      name = "lossy";
      ranks = lossy_ranks;
      steps = 4000;
      rep_s = 0.85;
      quick_steps = 60;
      make = lossy;
      parallel_twin = None;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
