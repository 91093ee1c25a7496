module Env = Simtime.Env
module Cost = Simtime.Cost
module World = Motor.World
module Ot = Motor.Object_transport
module Om = Vm.Object_model
module Types = Vm.Types
module Gc = Vm.Gc
module Key = Simtime.Stats.Key

type point = { x : int; result : Workloads.object_result }
type series = { system : string; points : point list }

let pow2_range lo hi =
  let rec go v acc = if v > hi then List.rev acc else go (2 * v) (v :: acc) in
  go lo []

let fig9_sizes = pow2_range 4 262_144
let fig10_objects = pow2_range 2 8192

(* ------------------------------------------------------------------ *)
(* Figure 9                                                            *)
(* ------------------------------------------------------------------ *)

let fig9 ?(protocol = Workloads.paper_protocol) () =
  List.map
    (fun system ->
      {
        system = Systems.name system;
        points =
          List.map
            (fun size ->
              {
                x = size;
                result =
                  Workloads.Time_us
                    (Workloads.pingpong_bytes ~protocol system ~size);
              })
            fig9_sizes;
      })
    Systems.fig9_systems

(* ------------------------------------------------------------------ *)
(* Figure 10                                                           *)
(* ------------------------------------------------------------------ *)

let total_data_bytes = 4096 (* the paper's fixed payload *)

let fig10 ?(quick = false) () =
  let xs =
    if quick then List.filter (fun n -> n <= 512) fig10_objects
    else fig10_objects
  in
  List.map
    (fun system ->
      {
        system = Systems.name system;
        points =
          List.map
            (fun n ->
              {
                x = n;
                result =
                  Workloads.pingpong_objects system ~total_objects:n
                    ~total_data_bytes;
              })
            xs;
      })
    Systems.fig10_systems

(* ------------------------------------------------------------------ *)
(* Table A: the in-text Motor vs Indiana-SSCLI percentages             *)
(* ------------------------------------------------------------------ *)

type taba_row = { metric : string; paper_pct : float; measured_pct : float }

let find_series name series =
  match List.find_opt (fun s -> s.system = name) series with
  | Some s -> s
  | None -> invalid_arg ("taba: missing series " ^ name)

let time_at s x =
  match List.find_opt (fun p -> p.x = x) s.points with
  | Some { result = Workloads.Time_us t; _ } -> t
  | Some { result = Workloads.Crashed _; _ } | None ->
      invalid_arg "taba: missing point"

let taba series =
  let motor = find_series "Motor" series in
  let indiana = find_series "Indiana SSCLI" series in
  let pct x =
    let m = time_at motor x and i = time_at indiana x in
    100.0 *. (i -. m) /. i
  in
  let sizes = List.map (fun p -> p.x) motor.points in
  let pcts = List.map pct sizes in
  let avg xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  let large = List.filter (fun x -> x > 65_536) sizes in
  [
    {
      metric = "peak improvement";
      paper_pct = 16.0;
      measured_pct = List.fold_left Float.max neg_infinity pcts;
    };
    { metric = "average improvement"; paper_pct = 8.0; measured_pct = avg pcts };
    {
      metric = "average above 64 KiB";
      paper_pct = 3.0;
      measured_pct = avg (List.map pct large);
    };
  ]

(* ------------------------------------------------------------------ *)
(* Table B: footnote 4 — pinning on Free vs fastchecked builds          *)
(* ------------------------------------------------------------------ *)

let tabb ?(protocol = { Workloads.iters = 60; timed = 30; trials = 1 }) () =
  List.map
    (fun system ->
      ( Systems.name system,
        Workloads.pingpong_bytes ~protocol system ~size:64 ))
    [ Systems.Indiana_sscli; Systems.Indiana_sscli_fastchecked ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let default_abl_protocol = { Workloads.iters = 60; timed = 30; trials = 1 }

let motor_policy_run ~protocol ~policy ~size =
  let config = { World.default_config with policy } in
  let w = World.create ~cost:Cost.motor ~config ~n:2 () in
  let comm = World.comm_world w in
  let env = World.env w in
  let result = ref [] in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let rank = World.rank ctx in
      let other = 1 - rank in
      let buf = Om.alloc_array gc (Types.Eprim Types.I1) size in
      Workloads.pingpong_skeleton ~env ~protocol ~rank
        ~send:(fun () -> Ot.send ctx ~comm ~dst:other ~tag:0 buf)
        ~recv:(fun () -> ignore (Ot.recv ctx ~comm ~src:other ~tag:0 buf))
        result);
  (Workloads.average !result, Simtime.Stats.get env.Env.stats Key.pins)

let abl_pinning_policy ?(protocol = default_abl_protocol) ~size () =
  List.map
    (fun policy ->
      let us, pins = motor_policy_run ~protocol ~policy ~size in
      (Motor.Pinning.policy_name policy, us, pins))
    [ Motor.Pinning.Always_pin; Motor.Pinning.Boundary_check;
      Motor.Pinning.Deferred ]

let abl_call_mechanism ?(protocol = default_abl_protocol) ~size () =
  (* Same Motor stack; only the priced cost of the entry gate changes. *)
  let gates =
    [
      ("FCall", Cost.motor.Cost.fcall_ns);
      ( "P/Invoke",
        Cost.indiana_sscli.Cost.pinvoke_ns
        +. (6.0 *. Cost.indiana_sscli.Cost.marshal_per_arg_ns) );
      ( "JNI",
        Cost.mpijava.Cost.jni_ns
        +. (6.0 *. Cost.mpijava.Cost.marshal_per_arg_ns) );
    ]
  in
  List.map
    (fun (name, gate_ns) ->
      let cost = { Cost.motor with Cost.fcall_ns = gate_ns } in
      let w = World.create ~cost ~n:2 () in
      let comm = World.comm_world w in
      let env = World.env w in
      let result = ref [] in
      World.run w (fun ctx ->
          let gc = World.gc ctx in
          let rank = World.rank ctx in
          let other = 1 - rank in
          let buf = Om.alloc_array gc (Types.Eprim Types.I1) size in
          Workloads.pingpong_skeleton ~env ~protocol ~rank
            ~send:(fun () -> Ot.send ctx ~comm ~dst:other ~tag:0 buf)
            ~recv:(fun () -> ignore (Ot.recv ctx ~comm ~src:other ~tag:0 buf))
            result);
      (name, Workloads.average !result))
    gates

let abl_visited ?(quick = false) () =
  let xs =
    if quick then List.filter (fun n -> n <= 512) fig10_objects
    else fig10_objects
  in
  List.map
    (fun visited ->
      {
        system =
          (match visited with
          | Motor.Serializer.Linear -> "Motor (linear visited list)"
          | Motor.Serializer.Hashed -> "Motor (hashed visited set)");
        points =
          List.map
            (fun n ->
              {
                x = n;
                result =
                  Workloads.pingpong_objects ~visited Systems.Motor_sys
                    ~total_objects:n ~total_data_bytes;
              })
            xs;
      })
    [ Motor.Serializer.Linear; Motor.Serializer.Hashed ]

let abl_eager_threshold ?(protocol = default_abl_protocol) () =
  let thresholds = [ 0; 4096; 65_536; 1_048_576 ] in
  let sizes = [ 1024; 16_384; 131_072 ] in
  List.map
    (fun threshold ->
      let cost =
        { Cost.native_cpp with Cost.eager_threshold_bytes = threshold }
      in
      let points =
        List.map
          (fun size ->
            let env = Env.create ~cost () in
            let w = Mpi_core.Mpi.create_world ~env ~n:2 () in
            let comm = Mpi_core.Mpi.comm_world w in
            let result = ref [] in
            let body rank () =
              let p = Mpi_core.Mpi.proc w rank in
              let buf = Bytes.create size in
              let other = 1 - rank in
              Workloads.pingpong_skeleton ~env ~protocol ~rank
                ~send:(fun () ->
                  Baselines.Native.send p ~comm ~dst:other ~tag:0 buf)
                ~recv:(fun () ->
                  ignore
                    (Baselines.Native.recv p ~comm ~src:other ~tag:0 buf))
                result
            in
            Fiber.run [ ("e0", body 0); ("e1", body 1) ];
            (size, Workloads.average !result))
          sizes
      in
      (threshold, points))
    thresholds

let abl_channel ?(protocol = default_abl_protocol) () =
  let sizes = [ 64; 4096; 131_072 ] in
  List.map
    (fun (name, channel) ->
      let points =
        List.map
          (fun size ->
            let w = World.create ~channel ~cost:Cost.motor ~n:2 () in
            let comm = World.comm_world w in
            let env = World.env w in
            let result = ref [] in
            World.run w (fun ctx ->
                let gc = World.gc ctx in
                let rank = World.rank ctx in
                let other = 1 - rank in
                let buf = Om.alloc_array gc (Types.Eprim Types.I1) size in
                Workloads.pingpong_skeleton ~env ~protocol ~rank
                  ~send:(fun () -> Ot.send ctx ~comm ~dst:other ~tag:0 buf)
                  ~recv:(fun () ->
                    ignore (Ot.recv ctx ~comm ~src:other ~tag:0 buf))
                  result);
            (size, Workloads.average !result))
          sizes
      in
      (name, points))
    [ ("sock channel", `Sock); ("shm channel", `Shm) ]

(* Object-array scatter: Motor's split representation vs the wrapper
   emulation the paper describes in Section 2.4. *)
let item_class registry =
  match Vm.Classes.find_by_name registry "WorkItem" with
  | Some mt -> mt
  | None ->
      let id = Vm.Classes.declare registry ~name:"WorkItem" in
      let arr =
        Vm.Classes.array_class registry (Types.Eprim Types.I1)
      in
      Vm.Classes.complete registry id ~transportable:true
        ~fields:[ ("data", Types.Ref arr.Vm.Classes.c_id, true) ]
        ()

let build_items gc registry ~elements =
  let mt = item_class registry in
  let fd = Vm.Classes.field mt "data" in
  let arr = Om.alloc_array gc (Types.Eref mt.Vm.Classes.c_id) elements in
  for i = 0 to elements - 1 do
    let item = Om.alloc_instance gc mt in
    let data = Om.alloc_array gc (Types.Eprim Types.I1) 32 in
    Om.set_elem_int gc data 0 (i land 0x7f);
    Om.set_ref gc item fd (Some data);
    Om.set_elem_ref gc arr i (Some item);
    Om.free gc item;
    Om.free gc data
  done;
  arr

let abl_split_scatter ?(elements = 64) () =
  let scatter_time ~n ~use_motor =
    let cost =
      if use_motor then Cost.motor else Cost.indiana_dotnet
    in
    let w = World.create ~cost ~n () in
    let comm = World.comm_world w in
    let env = World.env w in
    let t = ref 0.0 in
    World.run w (fun ctx ->
        let gc = World.gc ctx in
        let registry = World.registry ctx in
        ignore (item_class registry);
        let input =
          if World.rank ctx = 0 then
            Some (build_items gc registry ~elements)
          else None
        in
        Mpi_core.Collectives.barrier ctx.World.proc comm;
        let t0 = Env.now_us env in
        let mine =
          if use_motor then
            Motor.System_mp.oscatter ctx ~comm ~root:0 input
          else
            Baselines.Wrapper_scatter.scatter_objects
              ~mech:Baselines.Call_gate.Pinvoke
              ~profile:Baselines.Std_serializer.clr_dotnet ctx ~comm ~root:0
              input
        in
        ignore mine;
        Mpi_core.Collectives.barrier ctx.World.proc comm;
        if World.rank ctx = 0 then t := Env.now_us env -. t0);
    !t
  in
  List.map
    (fun n ->
      ( n,
        scatter_time ~n ~use_motor:true,
        scatter_time ~n ~use_motor:false ))
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Loss sweep: the ring workload under increasing fault rates           *)
(* ------------------------------------------------------------------ *)

type loss_point = {
  loss : float;
  time_us : float;
  goodput_mb_s : float;
  retransmits : int;
  acks : int;
  fault_drops : int;
  fault_dups : int;
  fault_corrupts : int;
  dup_drops : int;
  corrupt_drops : int;
  digest : string;
}

let default_losses = [ 0.0; 0.02; 0.05; 0.1; 0.2; 0.3 ]

let loss_sweep ?(n = 4) ?(rounds = 30) ?(size = 2048)
    ?(losses = default_losses) () =
  List.map
    (fun loss ->
      let fault =
        if loss = 0.0 then None
        else
          Some
            (Mpi_core.Fault.plan ~seed:1234 ~drop:loss
               ~duplicate:(loss /. 2.0) ~corrupt:(loss /. 4.0) ~delay:loss
               ~delay_ns:100_000.0 ())
      in
      (* The reliable layer is always on, so the zero-loss point pays the
         same framing/ack overhead and the sweep isolates the cost of the
         faults themselves. *)
      let ring = Check.Catalogue.ring ~n ~rounds ~size ~ssend_tail:false in
      let digest, bad, w =
        Check.Catalogue.run ring
          {
            ring.spec with
            fault;
            reliable = Some Mpi_core.Reliable.default_config;
          }
      in
      if bad <> [] then
        failwith
          (Printf.sprintf "loss sweep at %g: %s" loss
             (String.concat "; "
                (List.map (Format.asprintf "%a" Check.Invariant.pp) bad)));
      let env = Mpi_core.Mpi.env w in
      let stats = env.Env.stats in
      let time_us = Env.now_us env in
      let payload = float_of_int (n * rounds * size) in
      {
        loss;
        time_us;
        goodput_mb_s = payload /. time_us (* bytes/us = MB/s *);
        retransmits = Simtime.Stats.get stats Key.retransmits;
        acks = Simtime.Stats.get stats Key.acks;
        fault_drops = Simtime.Stats.get stats Key.fault_drops;
        fault_dups = Simtime.Stats.get stats Key.fault_dups;
        fault_corrupts = Simtime.Stats.get stats Key.fault_corrupts;
        dup_drops = Simtime.Stats.get stats Key.dup_drops;
        corrupt_drops = Simtime.Stats.get stats Key.corrupt_drops;
        digest;
      })
    losses

(* Non-blocking receive stress: post a batch of irecvs on young buffers,
   churn allocations to force collections while they are outstanding, and
   account for how each policy protected the buffers. *)
let abl_nonblocking_unpin () =
  let policies =
    [ Motor.Pinning.Always_pin; Motor.Pinning.Boundary_check;
      Motor.Pinning.Deferred ]
  in
  List.map
    (fun policy ->
      let config = { World.default_config with policy } in
      let w = World.create ~cost:Cost.motor ~config ~n:2 () in
      let comm = World.comm_world w in
      let env = World.env w in
      let batch = 16 in
      let t0 = ref 0.0 and t1 = ref 0.0 in
      World.run w (fun ctx ->
          let gc = World.gc ctx in
          if World.rank ctx = 0 then begin
            (* Stagger the sends so receives stay outstanding a while. *)
            for i = 0 to batch - 1 do
              for _ = 1 to 3 do
                Fiber.yield ()
              done;
              let a = Om.alloc_array gc (Types.Eprim Types.I4) 64 in
              Om.set_elem_int gc a 0 i;
              Ot.send ctx ~comm ~dst:1 ~tag:i a;
              Om.free gc a
            done
          end
          else begin
            t0 := Env.now_us env;
            let bufs =
              Array.init batch (fun _ ->
                  Om.alloc_array gc (Types.Eprim Types.I4) 64)
            in
            let reqs =
              Array.mapi
                (fun i buf -> Ot.irecv ctx ~comm ~src:0 ~tag:i buf)
                bufs
            in
            (* Allocation churn: forces minor collections while the
               receives are in flight. *)
            for _ = 1 to 400 do
              Om.free gc (Om.alloc_array gc (Types.Eprim Types.I8) 256)
            done;
            Array.iter (fun r -> ignore (Ot.wait ctx r)) reqs;
            Array.iteri
              (fun i buf ->
                if Om.get_elem_int gc buf 0 <> i then
                  failwith "nonblocking stress: payload corrupted")
              bufs;
            (* One more collection: its mark phase finds every request
               complete and drops the conditional pin entries. *)
            Gc.collect gc ~full:false;
            t1 := Env.now_us env
          end);
      ( Motor.Pinning.policy_name policy,
        !t1 -. !t0,
        Simtime.Stats.get env.Env.stats Key.pins,
        Simtime.Stats.get env.Env.stats Key.conditional_pins_dropped ))
    policies

(* ------------------------------------------------------------------ *)
(* Collective algorithm sweep                                          *)
(* ------------------------------------------------------------------ *)

type coll_point = {
  c_coll : string;
  c_algo : string;
  c_ranks : int;
  c_bytes : int;
  c_time_us : float;
  c_msgs : int;
}

let default_coll_ranks = [ 2; 4; 8; 16; 32 ]
let default_coll_sizes = [ 64; 1024; 16_384; 262_144 ]

let floor_pow2 n =
  let rec go v = if 2 * v <= n then go (2 * v) else v in
  go 1

(* One measured collective: a fresh world, a barrier fence on each side,
   virtual time and message count deltas read on rank 0. *)
let coll_run ~n body =
  let env = Env.create ~cost:Cost.native_cpp () in
  let t0 = ref 0.0 and t1 = ref 0.0 in
  let m0 = ref 0 and m1 = ref 0 in
  ignore
    (Mpi_core.Mpi.run ~env ~n (fun p ->
         let comm = Mpi_core.Mpi.comm_world (Mpi_core.Mpi.world_of p) in
         Mpi_core.Collectives.barrier p comm;
         if Mpi_core.Mpi.rank p = 0 then begin
           t0 := Env.now_us env;
           m0 := Simtime.Stats.get env.Env.stats Key.msgs_sent
         end;
         body p comm;
         Mpi_core.Collectives.barrier p comm;
         if Mpi_core.Mpi.rank p = 0 then begin
           t1 := Env.now_us env;
           m1 := Simtime.Stats.get env.Env.stats Key.msgs_sent
         end));
  (!t1 -. !t0, !m1 - !m0)

(* ------------------------------------------------------------------ *)
(* Communication/computation overlap                                   *)
(* ------------------------------------------------------------------ *)

type overlap_point = {
  v_ranks : int;
  v_bytes : int;
  v_compute_us : float;
  v_comm_us : float;
  v_block_us : float;
  v_overlap_us : float;
  v_efficiency : float;
}

let overlap_chunks = 32

(* One overlap measurement. The compute load is sized so its aggregate
   (over all members, since virtual time is one serial clock) equals the
   collective's own latency — the regime where perfect overlap would
   hide the whole collective. Blocking: allreduce, then charge the
   compute. Overlapped: iallreduce, then charge the compute in chunks
   with an [Mpi.test] poll between chunks (the MPI-3 overlap idiom), and
   wait for the tail. Efficiency is the fraction of the hideable time
   ([min comm aggregate-compute]) actually hidden. *)
let overlap_point ~n ~bytes =
  let module C = Mpi_core.Collectives in
  let payload () = Bytes.create bytes in
  let comm_us, _ =
    coll_run ~n (fun p comm ->
        ignore (C.allreduce p comm ~op:C.sum_i64 (payload ())))
  in
  let compute_us = comm_us /. float_of_int n in
  let compute_ns = compute_us *. 1000.0 in
  let block_us, _ =
    coll_run ~n (fun p comm ->
        let env = Mpi_core.Mpi.env (Mpi_core.Mpi.world_of p) in
        ignore (C.allreduce p comm ~op:C.sum_i64 (payload ()));
        Env.charge env compute_ns)
  in
  let overlap_us, _ =
    coll_run ~n (fun p comm ->
        let env = Mpi_core.Mpi.env (Mpi_core.Mpi.world_of p) in
        let req, _result = C.iallreduce p comm ~op:C.sum_i64 (payload ()) in
        let chunk = compute_ns /. float_of_int overlap_chunks in
        for _ = 1 to overlap_chunks do
          Env.charge env chunk;
          ignore (Mpi_core.Mpi.test p req);
          (* Each member computes on its own processor: yield so the
             chunks interleave across members (and with the schedule's
             message rounds) instead of serializing per member. *)
          Fiber.yield ()
        done;
        ignore (Mpi_core.Mpi.wait p req))
  in
  let hideable = Float.min comm_us (compute_us *. float_of_int n) in
  {
    v_ranks = n;
    v_bytes = bytes;
    v_compute_us = compute_us;
    v_comm_us = comm_us;
    v_block_us = block_us;
    v_overlap_us = overlap_us;
    v_efficiency = (block_us -. overlap_us) /. hideable;
  }

(* Overlap is a small-communicator effect in this model: the hideable
   part of a collective is its wire-idle time, and with one serial
   virtual clock the send-side work of n members serializes, so idle
   shrinks as n grows (by 8 members the extra test pumps cost more than
   the idle they recover). The paper's testbed is the small end — two
   ranks on one node. *)
let default_overlap_ranks = [ 2; 4 ]
let default_overlap_sizes = [ 16_384; 65_536; 262_144 ]

let overlap_sweep ?(ranks = default_overlap_ranks)
    ?(sizes = default_overlap_sizes) () =
  List.concat_map
    (fun n -> List.map (fun bytes -> overlap_point ~n ~bytes) sizes)
    ranks

let coll_sweep ?(ranks = default_coll_ranks) ?(sizes = default_coll_sizes) ()
    =
  let module C = Mpi_core.Collectives in
  let measure c_coll c_algo c_ranks c_bytes body =
    let c_time_us, c_msgs = coll_run ~n:c_ranks body in
    { c_coll; c_algo; c_ranks; c_bytes; c_time_us; c_msgs }
  in
  List.concat_map
    (fun n ->
      List.concat_map
        (fun size ->
          let allreduce algo name =
            measure "allreduce" name n size (fun p comm ->
                ignore
                  (C.allreduce ~algo p comm ~op:C.sum_i64
                     (Bytes.create size)))
          in
          let bcast algo name =
            measure "bcast" name n size (fun p comm ->
                C.bcast ~algo p comm ~root:0
                  (Mpi_core.Buffer_view.of_bytes (Bytes.create size)))
          in
          let allgather algo name =
            measure "allgather" name n size (fun p comm ->
                ignore (C.allgather ~algo p comm ~send:(Bytes.create size)))
          in
          let scatter algo name =
            measure "scatter" name n size (fun p comm ->
                let me = Mpi_core.Mpi.rank p in
                let parts =
                  if me = 0 then
                    Some
                      (Array.init n (fun _ ->
                           Mpi_core.Buffer_view.of_bytes (Bytes.create size)))
                  else None
                in
                C.scatter ~algo ~block:size p comm ~root:0 ~parts
                  ~recv:(Mpi_core.Buffer_view.of_bytes (Bytes.create size)))
          in
          let gather algo name =
            measure "gather" name n size (fun p comm ->
                let me = Mpi_core.Mpi.rank p in
                let parts =
                  if me = 0 then
                    Some
                      (Array.init n (fun _ ->
                           Mpi_core.Buffer_view.of_bytes (Bytes.create size)))
                  else None
                in
                C.gather ~algo ~block:size p comm ~root:0
                  ~send:(Mpi_core.Buffer_view.of_bytes (Bytes.create size))
                  ~parts)
          in
          let rab_ok = size mod 8 = 0 && size / 8 >= floor_pow2 n in
          let pow2 = n land (n - 1) = 0 in
          [ allreduce `Linear "linear"; allreduce `Rd "rd" ]
          @ (if rab_ok then [ allreduce `Rabenseifner "rabenseifner" ]
             else [])
          @ [
              bcast `Binomial "binomial";
              bcast `Scatter_allgather "scatter_allgather";
              allgather `Ring "ring";
            ]
          @ (if pow2 then [ allgather `Rd "rd" ] else [])
          @ [
              scatter `Linear "linear"; scatter `Binomial "binomial";
              gather `Linear "linear"; gather `Binomial "binomial";
            ])
        sizes)
    ranks

(* ------------------------------------------------------------------ *)
(* Scale sweep: two-level collectives at 1k-64k simulated ranks        *)
(* ------------------------------------------------------------------ *)

type scale_point = {
  sc_ranks : int;
  sc_nodes : int;
  sc_cores : int;
  sc_bytes : int;
  sc_algo : string;
  sc_time_us : float;
  sc_msgs_intra : int;
  sc_msgs_inter : int;
  sc_rounds : int;
  sc_model_msgs : int;
  sc_model_rounds : int;
}

let scale_ok p =
  p.sc_msgs_intra + p.sc_msgs_inter = p.sc_model_msgs
  && p.sc_rounds = p.sc_model_rounds

let default_scale_ranks = [ 1024; 4096; 16384; 65536 ]
let quick_scale_ranks = [ 256; 1024 ]
let scale_cores = 64

let log2i n =
  let r = ref 0 and v = ref n in
  while !v > 1 do
    incr r;
    v := !v lsr 1
  done;
  !r

(* One fresh world per point whose body is exactly one allreduce, so the
   whole-run counters are the algorithm's traffic and the final virtual
   clock is its makespan. The 8-byte payload keeps every transfer eager
   (no RTS/CTS in the counts) and the comparison latency-bound — the
   regime where the two-level win is the (log s + log L) round
   structure. *)
let scale_run ~nodes ~cores ~bytes ~algo =
  let n = nodes * cores in
  let env = Env.create ~cost:Cost.native_cpp () in
  let topology = Simtime.Topology.make ~nodes ~cores in
  let rounds = ref 0 in
  ignore
    (Mpi_core.Mpi.run ~env ~topology ~n (fun p ->
         let comm = Mpi_core.Mpi.comm_world (Mpi_core.Mpi.world_of p) in
         let mine = Bytes.create bytes in
         Bytes.set_int64_le mine 0 (Int64.of_int (Mpi_core.Mpi.rank p + 1));
         let req, acc =
           Mpi_core.Collectives.iallreduce ~algo p comm
             ~op:Mpi_core.Collectives.sum_i64 mine
         in
         ignore (Mpi_core.Mpi.wait p req);
         if Mpi_core.Mpi.rank p = 0 then begin
           Option.iter
             (fun (r, _) -> rounds := r)
             (Mpi_core.Coll_sched.info req);
           let expect = Int64.of_int (n * (n + 1) / 2) in
           if Bytes.get_int64_le acc 0 <> expect then
             failwith "scale_run: allreduce converged to the wrong sum"
         end));
  let get k = Simtime.Stats.get env.Env.stats k in
  ( Env.now_us env,
    get Key.msgs_intra_node,
    get Key.msgs_inter_node,
    !rounds )

let scale_sweep ?(quick = false) ?ranks () =
  let ranks =
    match ranks with
    | Some r -> r
    | None -> if quick then quick_scale_ranks else default_scale_ranks
  in
  let bytes = 8 in
  List.concat_map
    (fun n ->
      if n mod scale_cores <> 0 || n land (n - 1) <> 0 then
        invalid_arg "Experiments.scale_sweep: ranks must be pow2 x 64";
      let nodes = n / scale_cores and cores = scale_cores in
      let point algo sc_algo sc_model_msgs sc_model_rounds =
        let sc_time_us, sc_msgs_intra, sc_msgs_inter, sc_rounds =
          scale_run ~nodes ~cores ~bytes ~algo
        in
        {
          sc_ranks = n; sc_nodes = nodes; sc_cores = cores;
          sc_bytes = bytes; sc_algo; sc_time_us; sc_msgs_intra;
          sc_msgs_inter; sc_rounds; sc_model_msgs; sc_model_rounds;
        }
      in
      (* Two-level: a binomial reduce and bcast per shard plus recursive
         doubling across the leaders; rank 0 (a leader) runs recv+fold
         rounds up the shard, exchange+fold rounds across leaders, and
         one bcast fan-out round. *)
      let hier =
        point `Hier "hier"
          ((2 * nodes * (cores - 1)) + (nodes * log2i nodes))
          ((2 * log2i cores) + (2 * log2i nodes) + 1)
      in
      (* The flat oracle stops at 4k ranks: recursive doubling's
         n log2 n messages would dominate the sweep's runtime without
         adding information past the crossover. *)
      if n <= 4096 then
        [ hier; point `Rd "rd" (n * log2i n) (2 * log2i n) ]
      else [ hier ])
    ranks

(* ------------------------------------------------------------------ *)
(* One-sided RMA sweep: put size x registration-cache capacity         *)
(* ------------------------------------------------------------------ *)

type rma_point = {
  m_bytes : int;
  m_cache_bytes : int;
  m_puts : int;
  m_time_us : float;
  m_hits : int;
  m_misses : int;
  m_evictions : int;
  m_eager : int;
  m_write_rndv : int;
  m_read_rndv : int;
}

(* Per-row accounting the transfer paths must satisfy: every put went
   down exactly one path; every rendezvous put consulted the cache once,
   on top of the two window pins; eviction never outruns insertion. *)
let rma_ok p =
  p.m_puts > 0
  && p.m_time_us > 0.0
  && p.m_eager + p.m_write_rndv + p.m_read_rndv = p.m_puts
  && p.m_hits + p.m_misses = 2 + p.m_write_rndv + p.m_read_rndv
  && p.m_evictions <= p.m_misses

let default_rma_sizes = [ 1_024; 8_192; 65_536; 262_144 ]
let default_rma_caches = [ 65_536; 262_144; 1_048_576 ]
let rma_buffers = 4
let rma_rounds = 6

(* Two ranks exchange puts from [rma_buffers] distinct origin buffers
   over [rma_rounds] fence epochs. The origin working set
   ([rma_buffers] x size per rank) against the cache capacity decides
   whether round 2+ re-registrations hit (amortized pin-down) or keep
   evicting (LRU thrash); window pins stay resident throughout. *)
let rma_point ~bytes ~cache =
  let cost = { Cost.native_cpp with rdma_cache_capacity_bytes = cache } in
  let env = Env.create ~cost () in
  let stat k = Simtime.Stats.get env.Env.stats k in
  let n = 2 in
  let t0 = ref 0.0 and t1 = ref 0.0 in
  ignore
    (Mpi_core.Mpi.run ~env ~channel:`Rdma ~n (fun p ->
         let comm = Mpi_core.Mpi.comm_world (Mpi_core.Mpi.world_of p) in
         let r = Mpi_core.Mpi.rank p in
         let bufs =
           Array.init rma_buffers (fun b ->
               Bytes.init bytes (fun i -> Char.chr (((r * 67) + b + i) land 0xff)))
         in
         let mine = Bytes.make bytes '\000' in
         let win = Mpi_core.Rma.win_create p ~comm mine in
         if r = 0 then t0 := Env.now_us env;
         for _ = 1 to rma_rounds do
           Array.iter
             (fun buf ->
               Mpi_core.Rma.put win ~target:(1 - r) ~target_off:0 buf ~off:0
                 ~len:bytes)
             bufs;
           Mpi_core.Rma.win_fence win
         done;
         if r = 0 then t1 := Env.now_us env;
         Mpi_core.Rma.win_free win));
  {
    m_bytes = bytes;
    m_cache_bytes = cache;
    m_puts = stat Key.rma_puts;
    m_time_us = !t1 -. !t0;
    m_hits = stat Key.rdma_reg_hits;
    m_misses = stat Key.rdma_reg_misses;
    m_evictions = stat Key.rdma_reg_evictions;
    m_eager = stat Key.rdma_eager_copies;
    m_write_rndv = stat Key.rdma_write_rndv;
    m_read_rndv = stat Key.rdma_read_rndv;
  }

let rma_sweep ?(sizes = default_rma_sizes) ?(caches = default_rma_caches) ()
    =
  List.concat_map
    (fun bytes -> List.map (fun cache -> rma_point ~bytes ~cache) caches)
    sizes
