module Env = Simtime.Env
module Cost = Simtime.Cost
module World = Motor.World
module Ot = Motor.Object_transport
module Smp = Motor.System_mp
module Om = Vm.Object_model
module Gc = Vm.Gc
module Classes = Vm.Classes
module Types = Vm.Types
module Mpi = Mpi_core.Mpi
module Std = Baselines.Std_serializer
module Wt = Baselines.Wrapper_transport

type protocol = { iters : int; timed : int; trials : int }

let paper_protocol = { iters = 200; timed = 100; trials = 3 }

(* Scaled-down protocol for Figure 10: the virtual clock is
   deterministic, so extra repetitions only cost host time, and every
   round trip builds, serializes and rebuilds the whole graph, so the
   iteration count shrinks as graphs grow. The counts stay fixed so that
   results/fig10.csv regenerates byte-identical. *)
let fig10_protocol ~total_objects =
  if total_objects <= 256 then { iters = 20; timed = 10; trials = 1 }
  else if total_objects <= 2048 then { iters = 8; timed = 4; trials = 1 }
  else { iters = 4; timed = 2; trials = 1 }

(* Shared ping-pong skeleton: rank 0 initiates and is timed; rank 1
   echoes. The round-trip count includes warmup, only the tail is
   measured. *)
let pingpong_skeleton ~env ~protocol ~rank ~send ~recv result =
  let warmup = protocol.iters - protocol.timed in
  if rank = 0 then begin
    for _ = 1 to warmup do
      send ();
      recv ()
    done;
    let t0 = Env.now_us env in
    for _ = 1 to protocol.timed do
      send ();
      recv ()
    done;
    result := ((Env.now_us env -. t0) /. float_of_int protocol.timed) :: !result
  end
  else
    for _ = 1 to protocol.iters do
      recv ();
      send ()
    done

let average = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Figure 9: regular buffer-to-buffer ping-pong                        *)
(* ------------------------------------------------------------------ *)

let bytes_trial_native ~protocol ~size =
  let env = Env.create ~cost:Cost.native_cpp () in
  let w = Mpi.create_world ~env ~n:2 () in
  let comm = Mpi.comm_world w in
  let result = ref [] in
  let body rank () =
    let p = Mpi.proc w rank in
    let buf = Bytes.create size in
    let other = 1 - rank in
    pingpong_skeleton ~env ~protocol ~rank
      ~send:(fun () -> Baselines.Native.send p ~comm ~dst:other ~tag:0 buf)
      ~recv:(fun () ->
        ignore (Baselines.Native.recv p ~comm ~src:other ~tag:0 buf))
      result
  in
  Fiber.run [ ("pp0", body 0); ("pp1", body 1) ];
  average !result

let bytes_trial_motor ~protocol ~size =
  let w = World.create ~cost:Cost.motor ~n:2 () in
  let comm = World.comm_world w in
  let env = World.env w in
  let result = ref [] in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let rank = World.rank ctx in
      let other = 1 - rank in
      let buf = Om.alloc_array gc (Types.Eprim Types.I1) size in
      pingpong_skeleton ~env ~protocol ~rank
        ~send:(fun () -> Ot.send ctx ~comm ~dst:other ~tag:0 buf)
        ~recv:(fun () -> ignore (Ot.recv ctx ~comm ~src:other ~tag:0 buf))
        result);
  average !result

let bytes_trial_wrapper ~protocol ~size ~cost ~mech =
  let w = World.create ~cost ~n:2 () in
  let comm = World.comm_world w in
  let env = World.env w in
  let result = ref [] in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let rank = World.rank ctx in
      let other = 1 - rank in
      let buf = Om.alloc_array gc (Types.Eprim Types.I1) size in
      pingpong_skeleton ~env ~protocol ~rank
        ~send:(fun () -> Wt.send ~mech ctx ~comm ~dst:other ~tag:0 buf)
        ~recv:(fun () ->
          ignore (Wt.recv ~mech ctx ~comm ~src:other ~tag:0 buf))
        result);
  average !result

let pingpong_bytes ?(protocol = paper_protocol) system ~size =
  let trial () =
    match system with
    | Systems.Native_cpp -> bytes_trial_native ~protocol ~size
    | Systems.Motor_sys -> bytes_trial_motor ~protocol ~size
    | Systems.Indiana_sscli | Systems.Indiana_sscli_fastchecked
    | Systems.Indiana_dotnet | Systems.Mpijava ->
        let mech = Option.get (Systems.gate system) in
        bytes_trial_wrapper ~protocol ~size ~cost:(Systems.cost system) ~mech
  in
  average (List.init protocol.trials (fun _ -> trial ()))

(* ------------------------------------------------------------------ *)
(* Figure 10: linked-list (structured data) ping-pong                  *)
(* ------------------------------------------------------------------ *)

(* The benchmark structure of Section 8: a linked list whose elements each
   hold a data buffer; the total payload is spread evenly; total objects =
   2 x elements (each element's array is itself an object). *)
let linked_array_class registry =
  match Classes.find_by_name registry "LinkedArray" with
  | Some mt -> mt
  | None ->
      let id = Classes.declare registry ~name:"LinkedArray" in
      let arr = Classes.array_class registry (Types.Eprim Types.I1) in
      Classes.complete registry id ~transportable:true
        ~fields:
          [
            ("array", Types.Ref arr.Classes.c_id, true);
            ("next", Types.Ref id, true);
          ]
        ()

let make_linked_list gc registry ~elems ~total_data_bytes =
  if elems < 1 then invalid_arg "make_linked_list: need at least 1 element";
  let mt = linked_array_class registry in
  let farray = Classes.field mt "array" in
  let fnext = Classes.field mt "next" in
  let base = total_data_bytes / elems in
  let extra = total_data_bytes mod elems in
  let head = ref (Om.null gc) in
  for i = elems - 1 downto 0 do
    let node = Om.alloc_instance gc mt in
    let bytes = base + (if i < extra then 1 else 0) in
    let arr = Om.alloc_array gc (Types.Eprim Types.I1) bytes in
    for j = 0 to min (bytes - 1) 7 do
      Om.set_elem_int gc arr j ((i + j) land 0x7f)
    done;
    Om.set_ref gc node farray (Some arr);
    Om.free gc arr;
    if not (Om.is_null gc !head) then begin
      Om.set_ref gc node fnext (Some !head);
      Om.free gc !head
    end;
    head := node
  done;
  !head

type object_result = Time_us of float | Crashed of string

exception Crashed_exn of string

let objects_trial_motor ~protocol ~visited ~elems ~total_data_bytes =
  let config = { World.default_config with visited } in
  let w = World.create ~cost:Cost.motor ~config ~n:2 () in
  let comm = World.comm_world w in
  let env = World.env w in
  let result = ref [] in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let rank = World.rank ctx in
      let other = 1 - rank in
      let registry = World.registry ctx in
      if rank = 0 then begin
        let head = make_linked_list gc registry ~elems ~total_data_bytes in
        pingpong_skeleton ~env ~protocol ~rank
          ~send:(fun () -> Smp.osend ctx ~comm ~dst:other ~tag:0 head)
          ~recv:(fun () ->
            let obj, _ = Smp.orecv ctx ~comm ~src:other ~tag:0 in
            Om.free gc obj)
          result
      end
      else begin
        (* The echo side receives the structure and sends back what it
           received, so each round trip pays 2 serializations and 2
           deserializations in total. *)
        let held = ref (Om.null gc) in
        ignore (linked_array_class registry);
        pingpong_skeleton ~env ~protocol ~rank
          ~send:(fun () ->
            Smp.osend ctx ~comm ~dst:other ~tag:0 !held;
            Om.free gc !held;
            held := Om.null gc)
          ~recv:(fun () ->
            let obj, _ = Smp.orecv ctx ~comm ~src:other ~tag:0 in
            held := obj)
          result
      end);
  average !result

let objects_trial_wrapper ~protocol ~cost ~mech ~profile ~elems
    ~total_data_bytes =
  let w = World.create ~cost ~n:2 () in
  let comm = World.comm_world w in
  let env = World.env w in
  let result = ref [] in
  (try
     World.run w (fun ctx ->
         let gc = World.gc ctx in
         let rank = World.rank ctx in
         let other = 1 - rank in
         let registry = World.registry ctx in
         if rank = 0 then begin
           let head = make_linked_list gc registry ~elems ~total_data_bytes in
           pingpong_skeleton ~env ~protocol ~rank
             ~send:(fun () ->
               let data = Std.serialize profile gc head in
               Wt.send_serialized ~mech ctx ~comm ~dst:other ~tag:0 data)
             ~recv:(fun () ->
               let data =
                 Wt.recv_serialized ~mech ctx ~comm ~src:other ~tag:0
               in
               Om.free gc (Std.deserialize profile gc data))
             result
         end
         else begin
           ignore (linked_array_class registry);
           let held = ref (Om.null gc) in
           pingpong_skeleton ~env ~protocol ~rank
             ~send:(fun () ->
               let data = Std.serialize profile gc !held in
               Om.free gc !held;
               held := Om.null gc;
               Wt.send_serialized ~mech ctx ~comm ~dst:other ~tag:0 data)
             ~recv:(fun () ->
               let data =
                 Wt.recv_serialized ~mech ctx ~comm ~src:other ~tag:0
               in
               held := Std.deserialize profile gc data)
             result
         end)
   with Std.Stack_overflow_sim ->
     raise
       (Crashed_exn
          "stack overflow in the recursive serialization mechanism"));
  average !result

let pingpong_objects ?protocol ?(visited = Motor.Serializer.Linear) system
    ~total_objects ~total_data_bytes =
  if total_objects < 2 || total_objects mod 2 <> 0 then
    invalid_arg "pingpong_objects: total_objects must be even and >= 2";
  let elems = total_objects / 2 in
  let protocol =
    match protocol with
    | Some p -> p
    | None -> fig10_protocol ~total_objects
  in
  let trial () =
    match system with
    | Systems.Motor_sys ->
        objects_trial_motor ~protocol ~visited ~elems ~total_data_bytes
    | Systems.Native_cpp ->
        invalid_arg "pingpong_objects: native C++ has no object transport"
    | Systems.Indiana_sscli | Systems.Indiana_sscli_fastchecked
    | Systems.Indiana_dotnet | Systems.Mpijava ->
        let mech = Option.get (Systems.gate system) in
        let profile = Option.get (Systems.serializer_profile system) in
        objects_trial_wrapper ~protocol ~cost:(Systems.cost system) ~mech
          ~profile ~elems ~total_data_bytes
  in
  match List.init protocol.trials (fun _ -> trial ()) with
  | times -> Time_us (average times)
  | exception Crashed_exn msg -> Crashed msg
