module Mpi = Mpi_core.Mpi
module Fault = Mpi_core.Fault
module Ft = Mpi_core.Ft
module Bv = Mpi_core.Buffer_view
module C = Catalogue
module World = Motor.World
module Ot = Motor.Object_transport
module Smp = Motor.System_mp
module Om = Vm.Object_model
module Classes = Vm.Classes
module Types = Vm.Types

type workload = {
  w_name : string;
  w_faultable : bool;
  w_default : bool;
  w_run :
    fault:Fault.plan option -> quick:bool -> string * Invariant.violation list;
}

let name w = w.w_name
let faultable w = w.w_faultable

(* ------------------------------------------------------------------ *)
(* Catalogue entries under the monitor                                 *)
(* ------------------------------------------------------------------ *)

let check_entry e spec =
  let w = C.world spec in
  let mon = Invariant.attach w in
  let digest, oracle = C.launch e w () in
  let bad = Invariant.order_violations mon @ Invariant.quiescence w @ oracle in
  Invariant.detach mon;
  (digest, bad)

(* [plan spec fault] is the fault plan the entry's world gets (the kill
   workloads extend it with a kill). *)
let of_entry ?name ?(faultable = true) ?(default = true)
    ?(plan = fun _ fault -> fault) entry =
  let w_run ~fault ~quick =
    let e = entry ~quick in
    check_entry e { e.C.spec with fault = plan e.C.spec fault }
  in
  {
    w_name = Option.value name ~default:(entry ~quick:false).C.name;
    w_faultable = faultable;
    w_default = default;
    w_run;
  }

let ranks ~quick = if quick then 3 else 4

(* ------------------------------------------------------------------ *)
(* Workload: object transport with collections forced mid-flight       *)
(* ------------------------------------------------------------------ *)

let node_class registry =
  match Classes.find_by_name registry "CheckNode" with
  | Some mt -> mt
  | None ->
      let id = Classes.declare registry ~name:"CheckNode" in
      let arr = Classes.array_class registry (Types.Eprim Types.I1) in
      Classes.complete registry id ~transportable:true
        ~fields:
          [
            ("data", Types.Ref arr.Classes.c_id, true);
            ("next", Types.Ref id, true);
          ]
        ()

let osend_gc_run ~fault:_ ~quick:_ =
  let w = World.create ~n:2 () in
  let mon = Invariant.attach (World.mpi w) in
  let comm = World.comm_world w in
  let per_rank = Array.make 2 "" in
  let pins = ref [] in
  World.run w (fun ctx ->
      let gc = World.gc ctx in
      let registry = World.registry ctx in
      let mt = node_class registry in
      let fdata = Classes.field mt "data" in
      let fnext = Classes.field mt "next" in
      if World.rank ctx = 0 then begin
        (* Zero-copy send with a collection while the request is in
           flight: the conditional pin must keep the payload in place. *)
        let arr = Om.alloc_array gc (Types.Eprim Types.I1) 64 in
        for i = 0 to 63 do
          Om.set_elem_int gc arr i (((i * 7) + 1) land 0xff)
        done;
        let req = Ot.isend ctx ~comm ~dst:1 ~tag:1 arr in
        Vm.Gc.collect gc ~full:false;
        ignore (Ot.wait ctx req);
        Om.free gc arr;
        (* A three-node linked graph through the serializer. *)
        let head = ref (Om.null gc) in
        for i = 2 downto 0 do
          let node = Om.alloc_instance gc mt in
          let data = Om.alloc_array gc (Types.Eprim Types.I1) 8 in
          for j = 0 to 7 do
            Om.set_elem_int gc data j (((i * 13) + j) land 0xff)
          done;
          Om.set_ref gc node fdata (Some data);
          Om.free gc data;
          if not (Om.is_null gc !head) then begin
            Om.set_ref gc node fnext (Some !head);
            Om.free gc !head
          end;
          head := node
        done;
        Smp.osend ctx ~comm ~dst:1 ~tag:2 !head;
        Om.free gc !head;
        let back = Om.alloc_array gc (Types.Eprim Types.I1) 64 in
        ignore (Ot.recv ctx ~comm ~src:1 ~tag:3 back);
        let sum = ref 0 in
        for i = 0 to 63 do
          sum := !sum + Om.get_elem_int gc back i
        done;
        Om.free gc back;
        per_rank.(0) <- Printf.sprintf "echo=%d" !sum;
        pins := Invariant.pin_table ~rank:0 gc @ !pins
      end
      else begin
        let arr = Om.alloc_array gc (Types.Eprim Types.I1) 64 in
        let req = Ot.irecv ctx ~comm ~src:0 ~tag:1 arr in
        Vm.Gc.collect gc ~full:false;
        ignore (Ot.wait ctx req);
        let graph, _ = Smp.orecv ctx ~comm ~src:0 ~tag:2 in
        let gsum = ref 0 and len = ref 0 in
        let node = ref graph in
        while not (Om.is_null gc !node) do
          incr len;
          (match Om.get_ref gc !node fdata with
          | Some data ->
              for j = 0 to 7 do
                gsum := !gsum + Om.get_elem_int gc data j
              done;
              Om.free gc data
          | None -> ());
          let next = Om.get_ref gc !node fnext in
          Om.free gc !node;
          node := (match next with Some nx -> nx | None -> Om.null gc)
        done;
        let echo = Om.alloc_array gc (Types.Eprim Types.I1) 64 in
        for i = 0 to 63 do
          Om.set_elem_int gc echo i
            ((Om.get_elem_int gc arr i + !gsum + !len) land 0xff)
        done;
        Om.free gc arr;
        Ot.send ctx ~comm ~dst:0 ~tag:3 echo;
        Om.free gc echo;
        per_rank.(1) <- Printf.sprintf "graph=%d/%d" !gsum !len;
        pins := Invariant.pin_table ~rank:1 gc @ !pins
      end);
  let digest =
    Digest.to_hex (Digest.string (String.concat "#" (Array.to_list per_rank)))
  in
  let bad =
    Invariant.order_violations mon
    @ Invariant.quiescence (World.mpi w)
    @ !pins
  in
  Invariant.detach mon;
  (digest, bad)

(* ------------------------------------------------------------------ *)
(* Workloads: rank death under the ULFM recovery loop                  *)
(* ------------------------------------------------------------------ *)

(* Victim and kill time come from the fault seed, so a seed sweep
   exercises deaths in every phase of the workload: before the victim's
   first operation, mid-collective (mixed outcomes — some ranks complete
   the round, others see [Proc_failed]; reconciling that asymmetry is
   what [comm_agree] is for), or after the work finished (no failure
   observed at all, the rank simply exits). Without a fault seed the
   victim is the last rank, killed at its first operation. When
   [victims] restricts the candidate set (e.g. to shard leaders), the
   seed draws an index into that list instead of a raw rank. *)
let kill_of_fault ?victims ~seed ~n () =
  let candidates =
    match victims with None -> List.init n Fun.id | Some vs -> vs
  in
  let k = List.length candidates in
  match seed with
  | None -> Fault.kill ~rank:(List.nth candidates (k - 1)) ~at_ns:1_000.0 ()
  | Some s ->
      let idx =
        min (k - 1)
          (int_of_float
             (Fault.draw ~seed:s ~packet:0 ~salt:901 *. float_of_int k))
      in
      let at_ns =
        500.0 +. (Fault.draw ~seed:s ~packet:0 ~salt:902 *. 80_000.0)
      in
      Fault.kill ~rank:(List.nth candidates idx) ~at_ns ()

(* The shard leaders of kill_hier_leader's 2x2-node topology: killing
   one tears the two-level schedule at its fan-in point; after the
   shrink the survivors form either an uneven contiguous communicator
   (victim 0 -> {1,2,3}, still hierarchical with a short first shard) or
   a non-contiguous one (victim 2 -> {0,1,3}, which falls back to the
   flat algorithms) — the recovery retry must converge on both shapes. *)
let hier_leader_victims = [ 0; 2 ]

(* The spec's fault plan, extended with the kill the fault seed implies. *)
let kill_plan ?victims (spec : C.spec) fault =
  let kill =
    kill_of_fault ?victims
      ~seed:(Option.map (fun p -> p.Fault.seed) fault)
      ~n:spec.n ()
  in
  Some
    (match fault with
    | Some p -> { p with Fault.kills = [ kill ] }
    | None -> Fault.plan ~kills:[ kill ] ())

(* ------------------------------------------------------------------ *)
(* Workload: the planted detector bug (harness self-test)              *)
(* ------------------------------------------------------------------ *)

(* A heartbeat timeout shorter than the workload's longest silence: rank
   1 computes 500us of virtual time between arriving and replying — it
   beats on nothing while busy, so under the buggy 200us timeout the
   waiter's own progress pumps sweep the merely-busy rank into the
   declared-dead set and the wait completes with [Proc_failed]. (Under
   some schedules the busy rank finishes first and its reply declares
   the idle waiter instead — either way a live rank is declared.) The
   fixed variant uses the default detector, whose timeout dwarfs any
   compute phase here. *)
let planted_detector_run ~buggy ~fault:_ ~quick:_ =
  let detector =
    if buggy then C.sweep_detector else Ft.default_detector
  in
  let declared = ref None in
  let got = ref 0L in
  let compute p total =
    let env = Mpi.env (Mpi.world_of p) in
    for _ = 1 to 50 do
      Simtime.Env.charge env (total /. 50.0);
      Fiber.yield ()
    done
  in
  (* Poll nonblockingly so the two fibers interleave: a blocked wait is
     only re-tested once the run queue drains, by which time the compute
     phase would be over. *)
  let poll_recv p ~comm b =
    let req = Mpi.irecv p ~comm ~src:1 ~tag:0 b in
    while not (Mpi.test p req) do
      Fiber.yield ()
    done;
    ignore (Mpi.wait p req)
  in
  ignore
    (Mpi.run ~detector ~n:2 (fun p ->
         let comm = Mpi.comm_world (Mpi.world_of p) in
         if Mpi.rank p = 0 then begin
           let b = Bytes.create 8 in
           try
             poll_recv p ~comm (Bv.of_bytes b);
             got := Bytes.get_int64_le b 0
           with Ft.Proc_failed r -> declared := Some r
         end
         else begin
           compute p 500_000.0;
           let b = Bytes.create 8 in
           Bytes.set_int64_le b 0 3L;
           try Mpi.send p ~comm ~dst:0 ~tag:0 (Bv.of_bytes b)
           with Ft.Proc_failed r -> declared := Some r
         end));
  let bad =
    match !declared with
    | Some r ->
        [
          Invariant.v "planted-detector"
            "live rank %d declared dead: heartbeat timeout is shorter \
             than the compute phase"
            r;
        ]
    | None when !got <> 3L ->
        [ Invariant.v "planted-detector" "reply lost: got %Ld" !got ]
    | None -> []
  in
  ((if bad = [] then "ok" else "false-positive"), bad)

(* ------------------------------------------------------------------ *)
(* Workload: the planted lost-update race (harness self-test)          *)
(* ------------------------------------------------------------------ *)

(* Two fibers increment a shared counter through read/yield-window/write
   sections whose windows are phase-shifted: under strict round-robin
   "fast" has written (round 3) before "slow" reads (round 4), so the
   schedule is correct by accident — exactly the kind of latent race the
   explorer exists to surface. Random schedules overlap the windows and
   lose an update. The fixed variant writes without yielding inside the
   window. *)
let planted_bug_run ~buggy ~fault:_ ~quick:_ =
  let counter = ref 0 in
  let fast () =
    if buggy then begin
      let v = !counter in
      Fiber.yield ();
      Fiber.yield ();
      counter := v + 1
    end
    else begin
      Fiber.yield ();
      Fiber.yield ();
      counter := !counter + 1
    end
  in
  let slow () =
    Fiber.yield ();
    Fiber.yield ();
    Fiber.yield ();
    if buggy then begin
      let v = !counter in
      Fiber.yield ();
      counter := v + 1
    end
    else begin
      Fiber.yield ();
      counter := !counter + 1
    end
  in
  let noise () =
    for _ = 1 to 6 do
      Fiber.yield ()
    done
  in
  Fiber.run [ ("fast", fast); ("slow", slow); ("noise", noise) ];
  let bad =
    if !counter <> 2 then
      [
        Invariant.v "planted-race" "lost update: counter = %d, expected 2"
          !counter;
      ]
    else []
  in
  (string_of_int !counter, bad)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let planted_bug ~buggy =
  {
    w_name = (if buggy then "planted_bug" else "planted_bug_fixed");
    w_faultable = false;
    w_default = false;
    w_run = planted_bug_run ~buggy;
  }

let rma_epoch_bug ~buggy =
  of_entry
    ~name:(if buggy then "rma_fence_bug" else "rma_fence_bug_fixed")
    ~faultable:false ~default:false
    (fun ~quick -> C.rma_epoch ~eager_apply:buggy ~n:(ranks ~quick))

let planted_detector_bug ~buggy =
  {
    w_name =
      (if buggy then "planted_detector_bug" else "planted_detector_bug_fixed");
    w_faultable = false;
    w_default = false;
    w_run = planted_detector_run ~buggy;
  }

(* Not in the default set: the kill sweep (figures killsweep, CI) drives
   these across hundreds of fault seeds; the schedule-exploration default
   set stays kill-free so its digests keep comparing against the
   historical baselines. *)
let kill_workload_entries =
  List.map
    (fun (victims, entry) ->
      of_entry ~default:false ~plan:(kill_plan ?victims) (fun ~quick:_ ->
          entry ()))
    [
      (None, C.kill_allreduce);
      (None, C.kill_p2p);
      (Some hier_leader_victims, C.kill_hier_leader);
    ]

let kill_workloads () = kill_workload_entries

let registry =
  [
    of_entry (fun ~quick ->
        C.ring ~n:(ranks ~quick)
          ~rounds:(if quick then 3 else 5)
          ~size:48 ~ssend_tail:true);
    of_entry (fun ~quick ->
        C.allreduce_chain ~n:(ranks ~quick) ~rounds:(if quick then 2 else 4));
    of_entry (fun ~quick -> C.hier_allreduce ~rounds:(if quick then 2 else 4));
    of_entry (fun ~quick -> C.icoll_overlap ~n:(ranks ~quick));
    {
      w_name = "osend_gc";
      w_faultable = false;
      w_default = true;
      w_run = osend_gc_run;
    };
    of_entry (fun ~quick ->
        C.rma_fence ~n:(ranks ~quick) ~big:(if quick then 66_000 else 80_000));
    of_entry (fun ~quick -> C.rma_lock ~n:(ranks ~quick));
    planted_bug ~buggy:true;
    planted_bug ~buggy:false;
    rma_epoch_bug ~buggy:true;
    rma_epoch_bug ~buggy:false;
    planted_detector_bug ~buggy:true;
    planted_detector_bug ~buggy:false;
  ]
  @ kill_workload_entries

let all_workloads () = registry
let default_workloads () = List.filter (fun w -> w.w_default) registry
let find n = List.find_opt (fun w -> w.w_name = n) registry

(* ------------------------------------------------------------------ *)
(* The explorer                                                        *)
(* ------------------------------------------------------------------ *)

type outcome = {
  o_workload : string;
  o_policy : Policy.t;
  o_fault_seed : int option;
  o_digest : string;
  o_violations : Invariant.violation list;
  o_trace : int list;
}

let failed o = o.o_violations <> []

let fault_plan seed =
  Fault.plan ~seed ~drop:0.02 ~duplicate:0.01 ~corrupt:0.01 ~delay:0.05 ()

let run_one ?fault_seed ?(quick = false) w pol =
  Policy.assert_deterministic
    (Printf.sprintf "Explore.run_one (%s under %s)" w.w_name (Policy.name pol));
  let record = Fiber.new_trace () in
  let fault = Option.map fault_plan fault_seed in
  let digest, violations =
    try Fiber.with_policy ~record (Policy.to_fiber pol) (fun () ->
            w.w_run ~fault ~quick)
    with
    | Fiber.Deadlock { policy; waiting; pending } ->
        ( "<deadlock>",
          [
            Invariant.v "crash" "deadlock under %s (blocked: %s)%s" policy
              (String.concat ", " waiting)
              (match pending with
              | [] -> ""
              | lines -> " pending: " ^ String.concat " | " lines);
          ] )
    | exn -> ("<crash>", [ Invariant.v "crash" "%s" (Printexc.to_string exn) ])
  in
  {
    o_workload = w.w_name;
    o_policy = pol;
    o_fault_seed = fault_seed;
    o_digest = digest;
    o_violations = violations;
    o_trace = Fiber.trace_to_list record;
  }

let minimize_failure ?fault_seed ?(quick = false) ?baseline w trace =
  let fails ds =
    let o = run_one ?fault_seed ~quick w (Policy.Replay ds) in
    o.o_violations <> []
    || match baseline with Some b -> o.o_digest <> b | None -> false
  in
  Shrink.minimize ~fails trace

type report = {
  r_runs : int;
  r_baselines : (string * string) list;
  r_failures : outcome list;
  r_shrunk : (string * Corpus.entry) list;
}

let explore ?(quick = false) ?(faults = false) ?progress ~workloads ~seeds ()
    =
  let emit o = match progress with Some f -> f o | None -> () in
  let runs = ref 0 in
  let baselines = ref [] in
  let failures = ref [] in
  let shrunk = ref [] in
  List.iter
    (fun w ->
      let base = run_one ~quick w Policy.Round_robin in
      incr runs;
      emit base;
      baselines := (w.w_name, base.o_digest) :: !baselines;
      let first_failure = ref (if failed base then Some base else None) in
      if failed base then failures := { base with o_trace = [] } :: !failures;
      let check seed fault_seed =
        let o = run_one ?fault_seed ~quick w (Policy.Seeded_random seed) in
        incr runs;
        let o =
          if o.o_violations = [] && o.o_digest <> base.o_digest then
            {
              o with
              o_violations =
                [
                  Invariant.v "digest"
                    "digest %s diverged from round-robin baseline %s"
                    o.o_digest base.o_digest;
                ];
            }
          else o
        in
        emit o;
        if failed o then begin
          failures := { o with o_trace = [] } :: !failures;
          if !first_failure = None then first_failure := Some o
        end
      in
      for seed = 1 to seeds do
        check seed None;
        if faults && w.w_faultable then
          check seed (Some (Policy.fault_seed ~schedule_seed:seed))
      done;
      match !first_failure with
      | Some o when o.o_trace <> [] ->
          let mini =
            minimize_failure ?fault_seed:o.o_fault_seed ~quick
              ~baseline:base.o_digest w o.o_trace
          in
          shrunk :=
            ( w.w_name,
              {
                Corpus.c_workload = w.w_name;
                c_expect = Corpus.Must_fail;
                c_note = "shrunk from " ^ Policy.name o.o_policy;
                c_fault = o.o_fault_seed;
                c_quick = quick;
                c_decisions = mini;
              } )
            :: !shrunk
      | _ -> ())
    workloads;
  {
    r_runs = !runs;
    r_baselines = List.rev !baselines;
    r_failures = List.rev !failures;
    r_shrunk = List.rev !shrunk;
  }

let replay_entry (e : Corpus.entry) =
  match find e.c_workload with
  | None -> Error (Printf.sprintf "unknown workload %S" e.c_workload)
  | Some w ->
      let o =
        run_one ?fault_seed:e.c_fault ~quick:e.c_quick w
          (Policy.Replay e.c_decisions)
      in
      let describe () =
        String.concat "; "
          (List.map
             (fun viol -> Format.asprintf "%a" Invariant.pp viol)
             o.o_violations)
      in
      (match (e.c_expect, failed o) with
      | Corpus.Must_fail, true | Corpus.Must_pass, false -> Ok o
      | Corpus.Must_fail, false ->
          Error
            (Printf.sprintf
               "%s: expected the replay to fail, but no invariant was \
                violated (digest %s)"
               e.c_workload o.o_digest)
      | Corpus.Must_pass, true ->
          Error
            (Printf.sprintf "%s: expected a clean replay, got: %s"
               e.c_workload (describe ())))
