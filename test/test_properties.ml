(* Cross-cutting property tests: typed storage roundtrips over every
   primitive type (including boundary values), serializer idempotence,
   agreement between the two visited structures on arbitrary graphs,
   corpus trace-file round-trips, checkpoint save/restore, and the
   reduction and checksum kernels against the closure folds they
   replaced. *)

module Om = Vm.Object_model
module Gc = Vm.Gc
module Classes = Vm.Classes
module Types = Vm.Types
module Runtime = Poison.Runtime
module Ser = Motor.Serializer
module Corpus = Check.Corpus
module Ckpt = Motor.Checkpoint

(* Representative and boundary values per primitive type. *)
let int_values_for = function
  | Types.I1 -> [ -128; -1; 0; 1; 127 ]
  | Types.I2 -> [ -32768; -1; 0; 255; 32767 ]
  | Types.I4 -> [ Int32.to_int Int32.min_int; -1; 0; 65536; Int32.to_int Int32.max_int ]
  | Types.I8 -> [ min_int / 2; -1; 0; 1; max_int / 2 ]
  | Types.Bool -> [ 0; 1; 255 ]
  | Types.Char -> [ 0; 65; 0xffff ]
  | Types.R4 | Types.R8 -> []

(* What the store-then-load of [v] must produce, given each type's width
   and signedness conventions. *)
let canonical prim v =
  match prim with
  | Types.I1 ->
      let b = v land 0xff in
      if b > 127 then b - 256 else b
  | Types.I2 ->
      let b = v land 0xffff in
      if b > 32767 then b - 65536 else b
  | Types.I4 -> Int32.to_int (Int32.of_int v)
  | Types.I8 -> v
  | Types.Bool -> v land 0xff
  | Types.Char -> v land 0xffff
  | Types.R4 | Types.R8 -> v

let all_int_prims = [ Types.I1; Types.I2; Types.I4; Types.I8; Types.Bool; Types.Char ]

let prop_field_roundtrip_all_prims =
  QCheck.Test.make ~name:"every integral field type roundtrips its range"
    ~count:50
    QCheck.(int_range 0 1000)
    (fun salt ->
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      let mt =
        Classes.define rt.Runtime.registry ~name:"AllPrims"
          ~fields:
            (List.mapi
               (fun i p -> (Printf.sprintf "f%d" i, Types.Prim p, false))
               all_int_prims)
          ()
      in
      let o = Om.alloc_instance gc mt in
      List.for_all
        (fun (i, p) ->
          let fd = Classes.field_by_index mt i in
          List.for_all
            (fun v ->
              let v = v + (salt * 0) in
              Om.set_int gc o fd v;
              Om.get_int gc o fd = canonical p v)
            (int_values_for p))
        (List.mapi (fun i p -> (i, p)) all_int_prims))

let prop_elem_roundtrip_all_prims =
  QCheck.Test.make ~name:"every integral element type roundtrips its range"
    ~count:30
    QCheck.(int_range 1 16)
    (fun len ->
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      List.for_all
        (fun p ->
          let a = Om.alloc_array gc (Types.Eprim p) len in
          List.for_all
            (fun v ->
              let i = abs v mod len in
              Om.set_elem_int gc a i v;
              Om.get_elem_int gc a i = canonical p v)
            (int_values_for p))
        all_int_prims)

let prop_float_fields_roundtrip =
  QCheck.Test.make ~name:"float fields roundtrip (r8 exact, r4 narrowed)"
    ~count:100
    QCheck.(float_range (-1e30) 1e30)
    (fun v ->
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      let mt =
        Classes.define rt.Runtime.registry ~name:"Floats"
          ~fields:
            [ ("s", Types.Prim Types.R4, false); ("d", Types.Prim Types.R8, false) ]
          ()
      in
      let o = Om.alloc_instance gc mt in
      let fs = Classes.field mt "s" and fd = Classes.field mt "d" in
      Om.set_float gc o fd v;
      Om.set_float gc o fs v;
      Om.get_float gc o fd = v
      && Om.get_float gc o fs = Int32.float_of_bits (Int32.bits_of_float v))

(* Random-graph machinery (structure shared with test_robustness, but
   typed differently enough to keep local). *)
let graph_class registry =
  match Classes.find_by_name registry "PNode" with
  | Some mt -> mt
  | None ->
      let id = Classes.declare registry ~name:"PNode" in
      Classes.complete registry id ~transportable:true
        ~fields:
          [
            ("a", Types.Ref id, true);
            ("b", Types.Ref id, true);
            ("v", Types.Prim Types.I4, false);
          ]
        ()

let build gc registry ~n ~seed =
  let mt = graph_class registry in
  let fa = Classes.field mt "a" and fb = Classes.field mt "b" in
  let fv = Classes.field mt "v" in
  let nodes =
    Array.init n (fun i ->
        let o = Om.alloc_instance gc mt in
        Om.set_int gc o fv ((seed * 17) + i);
        o)
  in
  Array.iteri
    (fun i o ->
      if (i + seed) mod 5 <> 0 then
        Om.set_ref gc o fa (Some nodes.(((i * 3) + seed) mod n));
      if (i + seed) mod 7 <> 0 then
        Om.set_ref gc o fb (Some nodes.(((i * 11) + (2 * seed)) mod n)))
    nodes;
  nodes.(0)

let prop_serializer_idempotent =
  QCheck.Test.make
    ~name:"serialize . deserialize . serialize is byte-identical" ~count:50
    QCheck.(pair (int_range 1 25) (int_range 0 40))
    (fun (n, seed) ->
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      let root = build gc rt.Runtime.registry ~n ~seed in
      let once = Ser.serialize gc ~visited:Ser.Hashed root in
      let copy = Ser.deserialize gc once in
      let twice = Ser.serialize gc ~visited:Ser.Hashed copy in
      Bytes.equal once twice)

let prop_visited_strategies_agree_on_graphs =
  QCheck.Test.make
    ~name:"linear and hashed visited structures serialize identically"
    ~count:50
    QCheck.(pair (int_range 1 25) (int_range 0 40))
    (fun (n, seed) ->
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      let root = build gc rt.Runtime.registry ~n ~seed in
      Bytes.equal
        (Ser.serialize gc ~visited:Ser.Linear root)
        (Ser.serialize gc ~visited:Ser.Hashed root))

(* Exact visited-structure accounting. The model is the paper's visited
   list itself: newest first, walked from the head on every lookup, in
   the serializer's breadth-first order (fields in declaration order).
   It returns the probes each lookup walks, in lookup order: the 1-based
   position on a hit, the whole list (at least one probe) on a miss. No
   allocation happens during the walk (handles aside), so addresses are
   stable identities. *)
let paper_list_probes gc root =
  let mt = graph_class (Gc.registry gc) in
  let refs =
    List.filter
      (fun (fd : Classes.field_desc) ->
        match fd.Classes.f_type with
        | Types.Ref _ -> fd.Classes.f_transportable
        | Types.Prim _ -> false)
      (Array.to_list mt.Classes.c_fields)
  in
  let list = ref [] and walked = ref [] and queue = Queue.create () in
  let lookup o =
    let a = Om.addr_of gc o in
    let rec walk k = function
      | [] -> None
      | x :: rest -> if x = a then Some k else walk (k + 1) rest
    in
    match walk 1 !list with
    | Some k -> walked := k :: !walked
    | None ->
        walked := max 1 (List.length !list) :: !walked;
        list := a :: !list;
        Queue.push o queue
  in
  lookup root;
  while not (Queue.is_empty queue) do
    let o = Queue.pop queue in
    List.iter
      (fun fd -> Option.iter lookup (Om.get_ref gc o fd))
      refs
  done;
  List.rev !walked

let prop_visited_probes_match_paper_list =
  QCheck.Test.make
    ~name:
      "linear charges the paper's list walk probe for probe, hashed one per \
       lookup"
    ~count:100
    QCheck.(pair (int_range 1 40) (int_range 0 9999))
    (fun (n, seed) ->
      (* Only probes cost virtual time, at a rate whose sums depend on
         their order, so the clock checks both amount and order. *)
      let cost =
        {
          Simtime.Cost.motor with
          ser_per_obj_ns = 0.0;
          ser_per_field_ns = 0.0;
          ser_ns_per_byte = 0.0;
          reflect_field_ns = 0.0;
          visited_probe_ns = 0.7;
        }
      in
      let rt = Runtime.create ~cost () in
      let gc = rt.Runtime.gc and env = rt.Runtime.env in
      let root = build gc rt.Runtime.registry ~n ~seed in
      let model = paper_list_probes gc root in
      let charged visited =
        let stats = env.Simtime.Env.stats in
        let p0 = Simtime.Stats.get stats Simtime.Stats.Key.visited_probes in
        let t0 = Simtime.Env.now_ns env in
        ignore (Ser.serialize gc ~visited root);
        ( Simtime.Stats.get stats Simtime.Stats.Key.visited_probes - p0,
          t0,
          Simtime.Env.now_ns env )
      in
      let matches (probes, t0, t1) walks =
        probes = List.fold_left ( + ) 0 walks
        && Float.equal t1
             (List.fold_left
                (fun t k -> t +. (cost.visited_probe_ns *. float_of_int k))
                t0 walks)
      in
      matches (charged Ser.Linear) model
      && matches (charged Ser.Hashed) (List.map (fun _ -> 1) model))

(* Mixed-transportability round-trip: graphs with cycles, shared
   substructure, per-node data arrays and a non-transportable reference
   field must decode to a graph {e isomorphic} to the original with the
   non-transportable edges cut (Section 4.2.2) — same shape, same
   sharing (a shared array stays one array, a cycle stays a cycle), same
   payloads. QCheck prints the failing (n, seed) pair, which rebuilds
   the graph deterministically. *)
let mixed_class registry =
  match Classes.find_by_name registry "MixNode" with
  | Some mt -> mt
  | None ->
      let id = Classes.declare registry ~name:"MixNode" in
      let arr = Classes.array_class registry (Types.Eprim Types.I1) in
      Classes.complete registry id ~transportable:true
        ~fields:
          [
            ("t", Types.Ref id, true);
            ("u", Types.Ref id, false);
            (* never travels: must decode as null *)
            ("d", Types.Ref arr.Classes.c_id, true);
            ("v", Types.Prim Types.I4, false);
          ]
        ()

let build_mixed gc registry ~n ~seed =
  let mt = mixed_class registry in
  let ft = Classes.field mt "t" and fu = Classes.field mt "u" in
  let fd = Classes.field mt "d" and fv = Classes.field mt "v" in
  let state = ref (seed + 1) in
  let next m =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state mod m
  in
  let shared = Om.alloc_array gc (Types.Eprim Types.I1) 6 in
  for i = 0 to 5 do
    Om.set_elem_int gc shared i ((seed + (i * 9)) land 0xff)
  done;
  let nodes =
    Array.init n (fun i ->
        let o = Om.alloc_instance gc mt in
        Om.set_int gc o fv ((seed * 31) + i);
        o)
  in
  Array.iter
    (fun o ->
      (* Random t/u edges produce self-loops, cycles and sharing. *)
      if next 4 > 0 then Om.set_ref gc o ft (Some nodes.(next n));
      if next 3 > 0 then Om.set_ref gc o fu (Some nodes.(next n));
      match next 3 with
      | 0 -> Om.set_ref gc o fd (Some shared)
      | 1 ->
          let len = 1 + next 8 in
          let a = Om.alloc_array gc (Types.Eprim Types.I1) len in
          for j = 0 to len - 1 do
            Om.set_elem_int gc a j (next 256)
          done;
          Om.set_ref gc o fd (Some a);
          Om.free gc a
      | _ -> ())
    nodes;
  Om.free gc shared;
  Array.iteri (fun i o -> if i > 0 then Om.free gc o) nodes;
  (mt, nodes.(0))

(* Parallel walk with a bijective correspondence table: original object
   X must always map to the same copy X' and vice versa, so shape and
   sharing are both checked. No allocation happens during the walk
   (handles aside), so payload addresses are stable identities. *)
let isomorphic gc mt root copy =
  let ft = Classes.field mt "t" and fu = Classes.field mt "u" in
  let fd = Classes.field mt "d" and fv = Classes.field mt "v" in
  let fwd = Hashtbl.create 64 and bwd = Hashtbl.create 64 in
  let addr o = fst (Om.payload_region gc o) in
  let pair ao ac =
    match (Hashtbl.find_opt fwd ao, Hashtbl.find_opt bwd ac) with
    | Some x, Some y -> if x = ac && y = ao then `Seen else `Mismatch
    | None, None ->
        Hashtbl.replace fwd ao ac;
        Hashtbl.replace bwd ac ao;
        `Fresh
    | _ -> `Mismatch
  in
  let data_equal a b =
    let la = Om.array_length gc a in
    la = Om.array_length gc b
    &&
    let ok = ref true in
    for j = 0 to la - 1 do
      if Om.get_elem_int gc a j <> Om.get_elem_int gc b j then ok := false
    done;
    !ok
  in
  let both f o c k =
    match (Om.get_ref gc o f, Om.get_ref gc c f) with
    | None, None -> true
    | Some a, Some b ->
        let r = k a b in
        Om.free gc a;
        Om.free gc b;
        r
    | Some a, None ->
        Om.free gc a;
        false
    | None, Some b ->
        Om.free gc b;
        false
  in
  let rec go o c =
    match pair (addr o) (addr c) with
    | `Mismatch -> false
    | `Seen -> true
    | `Fresh ->
        Om.get_int gc o fv = Om.get_int gc c fv
        && (match Om.get_ref gc c fu with
           | None -> true
           | Some x ->
               Om.free gc x;
               false)
        && both fd o c (fun a b ->
               match pair (addr a) (addr b) with
               | `Mismatch -> false
               | `Seen -> true
               | `Fresh -> data_equal a b)
        && both ft o c go
  in
  go root copy

let prop_mixed_transport_roundtrip_isomorphic =
  QCheck.Test.make
    ~name:
      "mixed-transportability graphs decode isomorphic (untransportable \
       edges cut)"
    ~count:100
    QCheck.(pair (int_range 1 24) (int_range 0 9999))
    (fun (n, seed) ->
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      let mt, root = build_mixed gc rt.Runtime.registry ~n ~seed in
      let data = Ser.serialize gc ~visited:Ser.Hashed root in
      let copy = Ser.deserialize gc data in
      isomorphic gc mt root copy)

let prop_mixed_transport_strategies_agree =
  QCheck.Test.make
    ~name:"visited strategies agree on mixed-transportability graphs"
    ~count:50
    QCheck.(pair (int_range 1 24) (int_range 0 9999))
    (fun (n, seed) ->
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      let _, root = build_mixed gc rt.Runtime.registry ~n ~seed in
      Bytes.equal
        (Ser.serialize gc ~visited:Ser.Linear root)
        (Ser.serialize gc ~visited:Ser.Hashed root))

let prop_split_parts_cover_disjointly =
  QCheck.Test.make ~name:"split parts partition the element index space"
    ~count:50
    QCheck.(pair (int_range 1 64) (int_range 1 9))
    (fun (len, parts) ->
      let parts = min parts len in
      let rt = Runtime.create () in
      let gc = rt.Runtime.gc in
      let mt = graph_class rt.Runtime.registry in
      let fv = Classes.field mt "v" in
      let arr = Om.alloc_array gc (Types.Eref mt.Classes.c_id) len in
      for i = 0 to len - 1 do
        let o = Om.alloc_instance gc mt in
        Om.set_int gc o fv i;
        Om.set_elem_ref gc arr i (Some o);
        Om.free gc o
      done;
      let segs = Ser.split gc ~visited:Ser.Hashed arr ~parts in
      (* Collect the v values across all deserialized segments. *)
      let seen = Hashtbl.create 64 in
      Array.iter
        (fun s ->
          let part = Ser.deserialize gc s in
          for i = 0 to Om.array_length gc part - 1 do
            let o = Option.get (Om.get_elem_ref gc part i) in
            let v = Om.get_int gc o fv in
            if Hashtbl.mem seen v then failwith "duplicate element"
            else Hashtbl.replace seen v ()
          done)
        segs;
      Hashtbl.length seen = len)

(* --- Communicator and group algebra ------------------------------- *)

(* The sparse (descriptor) communicator representation must be
   observationally equal to the dense model: a materialized member array
   with linear-scan lookups. *)
module Mcomm = Mpi_core.Comm
module Mgroup = Mpi_core.Group

let model_rank_of arr w =
  let n = Array.length arr in
  let rec go i = if i >= n then None else if arr.(i) = w then Some i else go (i + 1) in
  go 0

let comm_matches_model c arr =
  let n = Array.length arr in
  Mcomm.size c = n
  && Mcomm.members c = arr
  && (let ok = ref true in
      for i = 0 to n - 1 do
        if Mcomm.world_rank_of c i <> arr.(i) then ok := false
      done;
      !ok)
  && (let lo = arr.(0) - 2 and hi = arr.(n - 1) + 2 in
      let ok = ref true in
      for w = max 0 lo to hi do
        if Mcomm.comm_rank_of c w <> model_rank_of arr w then ok := false
      done;
      !ok)

let prop_sparse_comm_equals_dense_model =
  QCheck.Test.make
    ~name:"range descriptor comms answer exactly like the dense array"
    ~count:200
    QCheck.(triple (int_range 0 50) (int_range 1 7) (int_range 1 40))
    (fun (start, step, count) ->
      let arr = Array.init count (fun i -> start + (i * step)) in
      comm_matches_model (Mcomm.range ~ctx:0 ~step ~start ~count ()) arr
      && comm_matches_model (Mcomm.make ~ctx:0 ~members:arr) arr)

(* Distinct positive ranks in arbitrary order (so most draws do not form
   an arithmetic progression and stay enumerated). *)
let gen_rankset =
  let open QCheck.Gen in
  map
    (fun (h, t) ->
      let seen = Hashtbl.create 16 in
      List.filter
        (fun r ->
          if Hashtbl.mem seen r then false
          else begin
            Hashtbl.add seen r ();
            true
          end)
        (h :: t))
    (pair (int_range 0 60) (list_size (int_range 0 24) (int_range 0 60)))

let arb_rankset =
  QCheck.make gen_rankset
    ~print:(fun l -> String.concat ";" (List.map string_of_int l))

let prop_enum_comm_equals_dense_model =
  QCheck.Test.make
    ~name:"enumerated comms answer exactly like the dense array" ~count:200
    arb_rankset
    (fun ranks ->
      let arr = Array.of_list ranks in
      comm_matches_model (Mcomm.make ~ctx:0 ~members:arr) arr)

(* Group set algebra against the obvious list-set model (MPI order
   conventions: left operand's order first). *)
let prop_group_algebra_matches_model =
  QCheck.Test.make ~name:"group algebra matches the list-set model"
    ~count:300
    QCheck.(pair arb_rankset arb_rankset)
    (fun (la, lb) ->
      let ga = Mgroup.of_ranks la and gb = Mgroup.of_ranks lb in
      let l g = Array.to_list (Mgroup.members g) in
      let model_union = la @ List.filter (fun r -> not (List.mem r la)) lb in
      let model_inter = List.filter (fun r -> List.mem r lb) la in
      let model_diff = List.filter (fun r -> not (List.mem r lb)) la in
      l (Mgroup.union ga gb) = model_union
      && l (Mgroup.intersection ga gb) = model_inter
      && l (Mgroup.difference ga gb) = model_diff
      (* Derived identities the model implies. *)
      && Mgroup.similar (Mgroup.union ga gb) (Mgroup.union gb ga)
      && Mgroup.equal (Mgroup.intersection ga ga) ga
      && Mgroup.size (Mgroup.difference ga ga) = 0
      && List.for_all
           (fun r ->
             Mgroup.rank_of (Mgroup.union ga gb) r <> None
             = (List.mem r la || List.mem r lb))
           (la @ lb))

let prop_group_incl_excl_matches_model =
  QCheck.Test.make ~name:"incl/excl match the positional model" ~count:300
    QCheck.(pair arb_rankset (list_of_size Gen.(int_range 0 8) (int_range 0 100)))
    (fun (la, picks) ->
      let ga = Mgroup.of_ranks la in
      let n = List.length la in
      let picks =
        let seen = Hashtbl.create 8 in
        List.filter
          (fun i ->
            i < n
            &&
            if Hashtbl.mem seen i then false
            else begin
              Hashtbl.add seen i ();
              true
            end)
          picks
      in
      let arr = Array.of_list la in
      let l g = Array.to_list (Mgroup.members g) in
      l (Mgroup.incl ga picks) = List.map (fun i -> arr.(i)) picks
      && l (Mgroup.excl ga picks)
         = List.filteri (fun i _ -> not (List.mem i picks)) la)

let prop_group_of_range_comm_stays_sparse =
  QCheck.Test.make
    ~name:"group of a descriptor comm keeps the O(1) representation"
    ~count:100
    QCheck.(triple (int_range 0 1_000_000) (int_range 1 64) (int_range 1 65536))
    (fun (start, step, count) ->
      let c = Mcomm.range ~ctx:0 ~step ~start ~count () in
      let g = Mgroup.of_comm c in
      Mgroup.is_range g
      && Mgroup.size g = count
      && Mgroup.world_rank g (count - 1) = start + ((count - 1) * step)
      && Mgroup.rank_of g (start + (step * (count / 2))) = Some (count / 2))

(* --- Corpus trace files ------------------------------------------- *)

(* The parser trims every line and drops blank ones, so only trim-stable,
   newline-free fields round-trip — which is all the explorer ever
   writes. The generators stay inside that contract. *)
let gen_entry =
  let open QCheck.Gen in
  let ident =
    string_size
      ~gen:(oneofl [ 'a'; 'g'; 'k'; 'r'; 'z'; '0'; '7'; '_'; '-' ])
      (int_range 1 12)
  in
  let note =
    map String.trim
      (string_size
         ~gen:(oneofl [ 's'; 'e'; 'd'; '7'; ' '; '('; ')'; '='; ',' ])
         (int_range 0 24))
  in
  map
    (fun (w, (ef, (n, (f, ds)))) ->
      {
        Corpus.c_workload = w;
        c_expect = (if ef then Corpus.Must_fail else Corpus.Must_pass);
        c_note = n;
        c_fault = f;
        c_decisions = ds;
      })
    (pair ident
       (pair bool
          (pair note
             (pair
                (opt (int_range 0 10_000))
                (list_size (int_range 0 40) (int_range 0 64))))))

let arb_entry = QCheck.make gen_entry ~print:Corpus.to_string

let prop_corpus_round_trip =
  QCheck.Test.make ~name:"corpus entries survive to_string/of_string"
    ~count:200 arb_entry
    (fun e -> Corpus.of_string (Corpus.to_string e) = e)

(* Six ways to damage a well-formed trace; each must be rejected with a
   "corpus:" diagnostic, never accepted or crashed on. *)
let mutate k text =
  let lines = String.split_on_char '\n' text in
  let without pfx =
    List.filter (fun l -> not (String.starts_with ~prefix:pfx l)) lines
  in
  match k with
  | 0 -> String.concat "\n" (List.tl lines) (* magic header gone *)
  | 1 ->
      String.concat "\n"
        (List.map
           (fun l ->
             if String.starts_with ~prefix:"expect " l then "expect maybe"
             else l)
           lines)
  | 2 -> text ^ "fault zz\n"
  | 3 -> text ^ "decisions 1 x 2\n" (* later line wins, and is malformed *)
  | 4 -> String.concat "\n" (without "decisions")
  | _ -> String.concat "\n" (without "workload")

let prop_corpus_rejects_mutants =
  QCheck.Test.make
    ~name:"damaged corpus files fail with a corpus: diagnostic" ~count:200
    QCheck.(pair arb_entry (int_range 0 5))
    (fun (e, k) ->
      match Corpus.of_string (mutate k (Corpus.to_string e)) with
      | exception Failure msg -> String.starts_with ~prefix:"corpus:" msg
      | _ -> false)

(* --- Checkpoint round-trip ---------------------------------------- *)

(* Save, restore into the same heap, save again: the rebuilt graph must
   re-serialize to the byte-identical image (digest-equal), and restore
   must hand back the step the image was taken at. Runs over the same
   random graphs as the serializer properties, inside a 1-rank world so
   the device state is quiescent (the only kind of image the store
   accepts). *)
let prop_checkpoint_round_trip =
  QCheck.Test.make
    ~name:"checkpoint restore rebuilds a digest-identical heap" ~count:30
    QCheck.(pair (int_range 1 25) (int_range 0 40))
    (fun (n, seed) ->
      let w = Poison.World.create ~n:1 () in
      let ok = ref false in
      Motor.World.run w (fun ctx ->
          let gc = Motor.World.gc ctx in
          let root = build gc (Motor.World.registry ctx) ~n ~seed in
          let store = Ckpt.create_store () in
          let img = Ckpt.save store ctx ~step:3 root in
          let copy, step = Ckpt.restore store ctx in
          let again = Ckpt.save store ctx ~step:4 copy in
          ok :=
            step = 3
            && String.equal img.Ckpt.i_digest (Ckpt.digest img.Ckpt.i_data)
            && String.equal img.Ckpt.i_digest again.Ckpt.i_digest;
          Om.free gc copy;
          Om.free gc root);
      !ok)

(* --- Uninitialised arena ------------------------------------------- *)

(* The arena is never zero-filled, so every byte an object exposes must
   come from its allocation. A random run of young and elder allocations,
   handle releases, pins and collections on a small poisoned heap (free
   space refilled with 0xAA after every collection) must keep three
   facts: a fresh array's body past its length word reads all zeroes,
   every live array reads back its model, and the heap parses. *)
type heap_op =
  | Alloc of int  (* I4 elements *)
  | Release of int  (* index into the live list, modulo its length *)
  | Pin of int
  | Unpin of int
  | Collect of bool  (* full? *)

let print_heap_op = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Release i -> Printf.sprintf "release %d" i
  | Pin i -> Printf.sprintf "pin %d" i
  | Unpin i -> Printf.sprintf "unpin %d" i
  | Collect full -> if full then "full gc" else "young gc"

(* 4 KiB blocks: arrays of more than 2 KiB go straight to the elder
   generation, and the young block fills every few allocations. 512
   blocks (2 MiB) outlast 80 operations even if each takes three blocks
   (a promoted young block, a fresh elder region, an evacuation). *)
let poison_block = 4096
let poison_arena = 512 * poison_block

let gen_heap_op =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun n -> Alloc n) (int_range 0 200));
        (2, map (fun n -> Alloc n) (int_range 520 700));
        (2, map (fun i -> Release i) nat);
        (1, map (fun i -> Pin i) nat);
        (1, map (fun i -> Unpin i) nat);
        (2, map (fun full -> Collect full) bool);
      ])

type live = { h : Om.obj; model : Bytes.t; mutable pins : int }

let prop_poisoned_heap_reads_only_written_bytes =
  QCheck.Test.make
    ~name:"poisoned heap: fresh objects read zero, live ones their model"
    ~count:200
    QCheck.(
      make ~shrink:Shrink.list
        ~print:(fun ops -> String.concat "; " (List.map print_heap_op ops))
        Gen.(list_size (int_range 1 80) gen_heap_op))
    (fun ops ->
      let rt =
        Runtime.create ~arena_bytes:poison_arena ~block_bytes:poison_block ()
      in
      let gc = rt.Runtime.gc and heap = rt.Runtime.heap in
      let mem = Vm.Heap.mem heap in
      let i4 = Types.Eprim Types.I4 in
      let live = ref [] in
      let nth i = List.nth !live (i mod List.length !live) in
      let alloc step n =
        let h = Om.alloc_array gc i4 n in
        let a = Om.addr_of gc h in
        let data, len = Om.payload_region gc h in
        for p = data to a + Vm.Heap.size_of heap a - 1 do
          if Bytes.get mem p <> '\000' then
            QCheck.Test.fail_reportf "op %d: fresh %d-element array: byte %d \
                                      is %C"
              step n (p - data) (Bytes.get mem p)
        done;
        let model =
          Bytes.init len (fun k -> Char.chr (((step * 31) + k) land 0xff))
        in
        Vm.Heap.blit_in heap ~src:model ~src_off:0 ~dst:data ~len;
        live := { h; model; pins = 0 } :: !live
      in
      List.iteri
        (fun step op ->
          (match op with
          | Alloc n -> alloc step n
          | Release i when !live <> [] ->
              let l = nth i in
              Om.free gc l.h;
              live := List.filter (fun l' -> l' != l) !live
          | Pin i when !live <> [] ->
              let l = nth i in
              Gc.pin gc l.h;
              l.pins <- l.pins + 1
          | Unpin i when !live <> [] ->
              let l = nth i in
              if l.pins > 0 then begin
                Gc.unpin gc l.h;
                l.pins <- l.pins - 1
              end
          | Release _ | Pin _ | Unpin _ -> ()
          | Collect full -> Gc.collect gc ~full);
          List.iter
            (fun l ->
              let data, len = Om.payload_region gc l.h in
              if not (Bytes.equal (Bytes.sub mem data len) l.model) then
                QCheck.Test.fail_reportf "op %d: a %d-byte array changed" step
                  len)
            !live;
          Vm.Heap.check_consistency heap)
        ops;
      true)

(* --- One-sided RMA ------------------------------------------------- *)

(* The three RMA properties run real multi-rank worlds, so their counts
   stay modest; every run is rebuilt deterministically from the printed
   (n, seed) pair. *)
module Rma = Mpi_core.Rma
module Mpi = Mpi_core.Mpi

(* One LCG per (seed, rank): the property and the in-world body derive
   the same random layout from it independently. *)
let lcg seed =
  let state = ref ((seed * 2) + 1) in
  fun m ->
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state mod m

let rma_wlen = 96
let rma_init ~rank = Bytes.init rma_wlen (fun i -> Char.chr (((rank * 13) + i + 3) land 0xff))

(* The random layout rank [r] issues: puts first, then gets, each with
   arbitrary (target, offset, length) — including self-targeted and
   overlapping segments. *)
let rma_layout ~n ~seed ~rank =
  let next = lcg ((seed * 31) + rank) in
  let seg () =
    let len = 1 + next 24 in
    (next n, next (rma_wlen - len + 1), len)
  in
  let puts =
    List.init
      (1 + next 3)
      (fun _ ->
        let t, off, len = seg () in
        (t, off, Bytes.init len (fun _ -> Char.chr (next 256))))
  in
  let gets = List.init (1 + next 3) (fun _ -> seg ()) in
  (puts, gets)

(* Put/get round-trip isomorphism: after the closing fence, every get of
   any segment of any window must read exactly what the model — plain
   byte arrays mutated in origin-rank order, then issue order, the order
   [win_fence] commits — says that window holds. *)
let prop_rma_put_get_matches_model =
  QCheck.Test.make ~name:"put/get round-trips match the flat-array model"
    ~count:25
    QCheck.(pair (int_range 2 4) (int_range 0 9999))
    (fun (n, seed) ->
      let model = Array.init n (fun r -> rma_init ~rank:r) in
      for r = 0 to n - 1 do
        let puts, _ = rma_layout ~n ~seed ~rank:r in
        List.iter
          (fun (t, off, data) ->
            Bytes.blit data 0 model.(t) off (Bytes.length data))
          puts
      done;
      let ok = Array.make n false in
      ignore
        (Mpi.run ~n (fun p ->
             let r = Mpi.rank p in
             let comm = Mpi.comm_world (Mpi.world_of p) in
             let mine = rma_init ~rank:r in
             let win = Rma.win_create p ~comm mine in
             let puts, gets = rma_layout ~n ~seed ~rank:r in
             List.iter
               (fun (t, off, data) ->
                 Rma.put win ~target:t ~target_off:off data ~off:0
                   ~len:(Bytes.length data))
               puts;
             Rma.win_fence win;
             let fine = ref (Bytes.equal mine model.(r)) in
             List.iter
               (fun (t, off, len) ->
                 let buf = Bytes.create len in
                 Rma.get win ~target:t ~target_off:off buf ~off:0 ~len;
                 if not (Bytes.equal buf (Bytes.sub model.(t) off len)) then
                   fine := false)
               gets;
             Rma.win_fence win;
             Rma.win_free win;
             ok.(r) <- !fine));
      Array.for_all Fun.id ok)

(* Accumulate order-insensitivity: for a commutative-associative
   operator the fence's origin-rank fold must agree with the same
   contributions folded in an arbitrary (seed-derived) permutation. *)
let arb_commutative_op =
  QCheck.make
    QCheck.Gen.(oneofl [ Rma.Sum; Rma.Prod; Rma.Min; Rma.Max; Rma.Bxor ])
    ~print:(function
      | Rma.Sum -> "Sum"
      | Rma.Prod -> "Prod"
      | Rma.Min -> "Min"
      | Rma.Max -> "Max"
      | Rma.Bxor -> "Bxor"
      | Rma.Replace -> "Replace"
      | Rma.Matmul -> "Matmul")

let rma_lanes = 4

let rma_contribs ~n ~seed =
  List.concat
    (List.init n (fun r ->
         let next = lcg ((seed * 17) + r) in
         List.init
           (1 + next 3)
           (fun _ ->
             let lane = next rma_lanes in
             let v = Int64.of_int (next 1_000_000 - 500_000) in
             (r, lane, v))))

let prop_rma_accumulate_order_insensitive =
  QCheck.Test.make
    ~name:"commutative accumulate is insensitive to contribution order"
    ~count:25
    QCheck.(triple (int_range 2 4) (int_range 0 9999) arb_commutative_op)
    (fun (n, seed, op) ->
      let f =
        match op with
        | Rma.Sum -> Int64.add
        | Rma.Prod -> Int64.mul
        | Rma.Min -> Int64.min
        | Rma.Max -> Int64.max
        | Rma.Bxor -> Int64.logxor
        | _ -> assert false
      in
      let base = Array.init rma_lanes (fun i -> Int64.of_int ((seed * 7) + i)) in
      (* Fold the model in a seed-shuffled order, not rank order. *)
      let contribs = rma_contribs ~n ~seed in
      let shuffled =
        let next = lcg (seed + 99) in
        List.map snd
          (List.sort compare (List.map (fun c -> (next 1_000_000, c)) contribs))
      in
      let model = Array.copy base in
      List.iter (fun (_, lane, v) -> model.(lane) <- f model.(lane) v) shuffled;
      let ok = ref false in
      ignore
        (Mpi.run ~n (fun p ->
             let r = Mpi.rank p in
             let comm = Mpi.comm_world (Mpi.world_of p) in
             let mine = Bytes.create (8 * rma_lanes) in
             Array.iteri (fun i v -> Bytes.set_int64_le mine (8 * i) v) base;
             let win = Rma.win_create p ~comm mine in
             List.iter
               (fun (o, lane, v) ->
                 if o = r then begin
                   let c = Bytes.create 8 in
                   Bytes.set_int64_le c 0 v;
                   Rma.accumulate win ~target:0 ~target_off:(8 * lane) ~op c
                     ~off:0 ~len:8
                 end)
               contribs;
             Rma.win_fence win;
             if r = 0 then
               ok :=
                 Array.for_all Fun.id
                   (Array.init rma_lanes (fun i ->
                        Bytes.get_int64_le mine (8 * i) = model.(i)));
             Rma.win_free win));
      !ok)

(* --- Registration cache vs naive model ----------------------------- *)

module RCache = Mpi_core.Rdma_channel.Cache

(* The reference model: a bare association list scanned linearly, stamps
   recomputed from an explicit clock — no shared structure with the
   implementation beyond the specification. *)
module Cache_model = struct
  type entry = {
    m_addr : int;
    m_len : int;
    mutable m_pins : int;
    mutable m_stamp : int;
  }

  type t = {
    m_capacity : int;
    mutable m_entries : entry list;  (* newest insertion first *)
    mutable m_clock : int;
    mutable m_hits : int;
    mutable m_misses : int;
    mutable m_evictions : int;
  }

  let create capacity =
    { m_capacity = capacity; m_entries = []; m_clock = 0; m_hits = 0;
      m_misses = 0; m_evictions = 0 }

  let covering t ~addr ~len =
    List.find_opt
      (fun e -> e.m_addr <= addr && addr + len <= e.m_addr + e.m_len)
      t.m_entries

  let bytes t = List.fold_left (fun a e -> a + e.m_len) 0 t.m_entries

  let touch t e =
    t.m_clock <- t.m_clock + 1;
    e.m_stamp <- t.m_clock

  let rec evict t need acc =
    if bytes t + need <= t.m_capacity then List.rev acc
    else
      match
        List.sort
          (fun a b -> compare a.m_stamp b.m_stamp)
          (List.filter (fun e -> e.m_pins = 0) t.m_entries)
      with
      | [] -> List.rev acc
      | victim :: _ ->
          t.m_entries <- List.filter (fun e -> e != victim) t.m_entries;
          t.m_evictions <- t.m_evictions + 1;
          evict t need ((victim.m_addr, victim.m_len) :: acc)

  let insert t ~addr ~len ~pins =
    let evicted = evict t len [] in
    let e = { m_addr = addr; m_len = len; m_pins = pins; m_stamp = 0 } in
    touch t e;
    t.m_entries <- e :: t.m_entries;
    evicted

  let access t ~addr ~len =
    match covering t ~addr ~len with
    | Some e ->
        t.m_hits <- t.m_hits + 1;
        touch t e;
        `Hit
    | None ->
        t.m_misses <- t.m_misses + 1;
        `Miss (insert t ~addr ~len ~pins:0)

  let pin t ~addr ~len =
    match covering t ~addr ~len with
    | Some e ->
        t.m_hits <- t.m_hits + 1;
        touch t e;
        e.m_pins <- e.m_pins + 1;
        `Hit
    | None ->
        t.m_misses <- t.m_misses + 1;
        `Miss (insert t ~addr ~len ~pins:1)

  let unpin t ~addr ~len =
    match
      List.find_opt
        (fun e ->
          e.m_pins > 0 && e.m_addr <= addr && addr + len <= e.m_addr + e.m_len)
        t.m_entries
    with
    | Some e ->
        e.m_pins <- e.m_pins - 1;
        true
    | None -> false

  let pinned_bytes t =
    List.fold_left
      (fun a e -> if e.m_pins > 0 then a + e.m_len else a)
      0 t.m_entries
end

type cache_op = Access of int * int | Pin of int * int | Unpin of int * int

let gen_cache_ops =
  let open QCheck.Gen in
  let region = pair (int_range 0 400) (int_range 1 128) in
  list_size (int_range 1 60)
    (frequency
       [
         (5, map (fun (a, l) -> Access (a, l)) region);
         (2, map (fun (a, l) -> Pin (a, l)) region);
         (2, map (fun (a, l) -> Unpin (a, l)) region);
       ])

let arb_cache_ops =
  QCheck.make
    QCheck.Gen.(pair (int_range 64 512) gen_cache_ops)
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity=%d [%s]" cap
        (String.concat "; "
           (List.map
              (function
                | Access (a, l) -> Printf.sprintf "access(%d,%d)" a l
                | Pin (a, l) -> Printf.sprintf "pin(%d,%d)" a l
                | Unpin (a, l) -> Printf.sprintf "unpin(%d,%d)" a l)
              ops)))

let prop_cache_equals_naive_model =
  QCheck.Test.make
    ~name:"registration cache agrees with the naive list model" ~count:300
    arb_cache_ops
    (fun (capacity, ops) ->
      let c = RCache.create ~capacity_bytes:capacity () in
      let m = Cache_model.create capacity in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | Access (addr, len) -> (
                match (RCache.access c ~addr ~len, Cache_model.access m ~addr ~len) with
                | RCache.Hit, `Hit -> true
                | RCache.Miss { evicted }, `Miss ev -> evicted = ev
                | _ -> false)
            | Pin (addr, len) -> (
                match (RCache.pin c ~addr ~len, Cache_model.pin m ~addr ~len) with
                | RCache.Hit, `Hit -> true
                | RCache.Miss { evicted }, `Miss ev -> evicted = ev
                | _ -> false)
            | Unpin (addr, len) -> (
                let model_ok = Cache_model.unpin m ~addr ~len in
                match RCache.unpin c ~addr ~len with
                | () -> model_ok
                | exception Invalid_argument _ -> not model_ok)
          in
          step_ok
          && RCache.entries c = List.length m.Cache_model.m_entries
          && RCache.registered_bytes c = Cache_model.bytes m
          && RCache.pinned_bytes c = Cache_model.pinned_bytes m
          && RCache.hits c = m.Cache_model.m_hits
          && RCache.misses c = m.Cache_model.m_misses
          && RCache.evictions c = m.Cache_model.m_evictions
          && List.for_all
               (fun probe ->
                 RCache.mem c ~addr:probe ~len:16
                 = Option.is_some (Cache_model.covering m ~addr:probe ~len:16))
               [ 0; 50; 100; 200; 300; 400 ])
        ops)

(* ------------------------------------------------------------------ *)
(* Idle fast-forward is exact                                          *)
(* ------------------------------------------------------------------ *)

module Ch3 = Mpi_core.Ch3
module Request = Mpi_core.Request
module Bv = Mpi_core.Buffer_view
module World = Poison.World
module Fcall = Motor.Fcall
module Coll = Mpi_core.Collectives
module Fault = Mpi_core.Fault
module Ft = Mpi_core.Ft

(* What sits under the devices: the bare channel, a seeded lossy wire
   (with reliable delivery on top), reliable delivery alone, or a
   heartbeat detector with the given timeout. Each brings its own
   progress source: arrivals, held packets, retransmission deadlines,
   heartbeats. *)
type ff_stack = Bare | Lossy of int | Reliable | Detector of float

(* A random point-to-point program: every rank charges some compute,
   optionally starts a nonblocking allreduce (a live schedule hook),
   posts its sends and receives (message i has tag i) without blocking,
   then completes them all in one of three styles. Sizes straddle the
   64 KiB eager limit; self-sends are allowed. A plain MPI world may also
   kill one rank (fail-stop at a virtual time), or spawn one child that
   rank 0 then sends a message to. *)
type ff_prog = {
  ff_ranks : int;
  ff_channel : [ `Sock | `Shm ];
  ff_motor : bool;  (* a Motor world: waits poll the collector *)
  ff_stack : ff_stack;
  ff_coll : bool;
  ff_msgs : (int * int * int) list;  (* src, dst, bytes *)
  ff_gaps : int array;  (* per-rank compute before posting, ns *)
  ff_style : int;  (* 0: wait each; 1: wait_any / wait_all; 2: wait_some *)
  ff_gc : bool;  (* Motor: a collection is pending when the waits start *)
  ff_kill : (int * int) option;  (* rank, at ns *)
  ff_spawn : int option;  (* bytes rank 0 sends its spawned child *)
  ff_seed : int;  (* Seeded_random scheduling *)
}

let print_ff_prog p =
  Printf.sprintf
    "%d ranks, %s, %s, %s, coll %b, style %d, gc %b, kill %s, spawn %s, \
     seed %d, gaps [%s], msgs [%s]"
    p.ff_ranks
    (match p.ff_channel with `Sock -> "sock" | `Shm -> "shm")
    (if p.ff_motor then "motor" else "mpi")
    (match p.ff_stack with
    | Bare -> "bare"
    | Lossy seed -> Printf.sprintf "lossy(seed=%d)" seed
    | Reliable -> "reliable"
    | Detector timeout -> Printf.sprintf "detector(timeout=%.0f)" timeout)
    p.ff_coll p.ff_style p.ff_gc
    (match p.ff_kill with
    | Some (r, at) -> Printf.sprintf "%d@%d" r at
    | None -> "none")
    (match p.ff_spawn with Some b -> string_of_int b | None -> "none")
    p.ff_seed
    (String.concat ";" (Array.to_list (Array.map string_of_int p.ff_gaps)))
    (String.concat ";"
       (List.map (fun (s, d, b) -> Printf.sprintf "%d->%d:%d" s d b) p.ff_msgs))

let gen_ff_prog =
  QCheck.Gen.(
    let* ranks = int_range 2 4 in
    let* channel = oneofl [ `Sock; `Shm ] in
    let* motor = bool in
    (* A Motor world has no reliable-only option, and keeps the default
       timeout: a shorter one declares live ranks dead, which only a plain
       MPI body tolerates. *)
    let* stack =
      oneof
        ([
           return Bare;
           map (fun s -> Lossy s) (int_bound 1000);
           return (Detector Ft.default_detector.hb_timeout_ns);
         ]
        @
        if motor then []
        else
          [
            return Reliable;
            map (fun t -> Detector t) (oneofl [ 5_000.0; 200_000.0 ]);
          ])
    in
    let* coll = bool in
    let size =
      oneof
        [
          int_range 1 1024;
          oneofl [ 65535; 65536; 65537 ];
          int_range 65537 200_000;
        ]
    in
    let msg = triple (int_bound (ranks - 1)) (int_bound (ranks - 1)) size in
    let* msgs = list_size (int_range 1 8) msg in
    let* gaps = array_repeat ranks (int_bound 50_000) in
    let* style = int_bound 2 in
    let* gc = bool in
    let* kill =
      if motor || stack = Reliable then return None
      else
        frequency
          [
            (3, return None);
            (1, map2 (fun r at -> Some (r, at)) (int_bound (ranks - 1))
                  (int_bound 60_000));
          ]
    in
    let* spawn =
      if motor || kill <> None then return None
      else
        frequency
          [ (3, return None); (1, map Option.some (oneofl [ 64; 100_000 ])) ]
    in
    let* seed = int_bound 1_000_000 in
    return
      {
        ff_ranks = ranks;
        ff_channel = channel;
        ff_motor = motor;
        ff_stack = stack;
        ff_coll = coll;
        ff_msgs = msgs;
        ff_gaps = gaps;
        ff_style = style;
        ff_gc = gc;
        ff_kill = kill;
        ff_spawn = spawn;
        ff_seed = seed;
      })

(* How a rank completes its requests. [gc] is the rank's collector in a
   Motor world. *)
type completer = ?gc:Gc.t -> Mpi.proc -> int -> Request.t list -> unit

let rec drain pick p pending =
  if pending <> [] then
    let got = pick p pending in
    drain pick p (List.filter (fun r -> not (List.memq r got)) pending)

(* The public waits: the fast path. A request failed by a detection
   completes the wait like any other. *)
let fast_complete : completer =
 fun ?gc p style reqs ->
  match (gc, style) with
  | Some gc, 0 ->
      List.iter
        (fun r -> ignore (Fcall.polling_wait gc p ~on_enter_wait:ignore r))
        reqs
  | Some gc, _ -> Fcall.polling_wait_all gc p ~on_enter_wait:ignore reqs
  | None, 0 ->
      List.iter
        (fun r -> try ignore (Mpi.wait p r) with Ft.Proc_failed _ -> ())
        reqs
  | None, 1 -> drain (fun p rs -> [ Mpi.wait_any p rs ]) p reqs
  | None, _ -> drain Mpi.wait_some p reqs

(* The same waits built only from [Fiber.wait_until] and [Ch3.progress],
   with no idle declaration: every poll runs. A doomed rank wakes and dies
   where the public waits check. *)
let ref_complete : completer =
 fun ?gc p style reqs ->
  let dev = Mpi.device p in
  let pump () = ignore (Ch3.progress dev) in
  let ft = Mpi.ft_handle (Mpi.world_of p) in
  let doomed () =
    match ft with
    | Some ft -> Ft.self_doomed ft ~rank:(Mpi.rank p)
    | None -> false
  in
  let check () = Option.iter (fun ft -> Ft.check_self ft ~rank:(Mpi.rank p)) ft in
  let until ready =
    Fiber.wait_until (fun () ->
        Option.iter Gc.poll gc;
        pump ();
        ready () || doomed ())
  in
  match (gc, style) with
  | Some _, 0 ->
      List.iter
        (fun r ->
          pump ();
          if not (Request.is_complete r) then
            until (fun () -> Request.is_complete r))
        reqs
  | Some _, _ ->
      pump ();
      if not (List.for_all Request.is_complete reqs) then
        List.iter (fun r -> until (fun () -> Request.is_complete r)) reqs
  | None, 0 ->
      List.iter
        (fun r ->
          check ();
          until (fun () -> Request.is_complete r);
          check ())
        reqs
  | None, 1 ->
      drain
        (fun _ rs ->
          check ();
          until (fun () -> List.exists Request.is_complete rs);
          check ();
          [ List.find Request.is_complete rs ])
        p reqs
  | None, _ ->
      drain
        (fun _ rs ->
          check ();
          pump ();
          if not (List.exists Request.is_complete rs || doomed ()) then
            until (fun () -> List.exists Request.is_complete rs);
          check ();
          List.filter Request.is_complete rs)
        p reqs

let ff_fault prog =
  let kills =
    match prog.ff_kill with
    | Some (rank, at) -> [ Fault.kill ~rank ~at_ns:(float_of_int at) () ]
    | None -> []
  in
  match (prog.ff_stack, kills) with
  | Lossy seed, _ ->
      Some (Fault.plan ~seed ~drop:0.1 ~duplicate:0.05 ~delay:0.1 ~kills ())
  | _, [] -> None
  | _, kills -> Some (Fault.plan ~kills ())

let ff_reliable prog =
  match prog.ff_stack with
  | Reliable -> Some Mpi_core.Reliable.default_config
  | Bare | Lossy _ | Detector _ -> None

let ff_detector prog =
  match prog.ff_stack with
  | Detector timeout ->
      Some { Ft.default_detector with hb_timeout_ns = timeout }
  | Bare | Lossy _ | Reliable -> None

(* Every rank joins the spawn; rank 0 sends [bytes] to the child and
   waits for an 8-byte reply. The child completes its requests with the
   same waits as its parents, and beats and sweeps like them. *)
let ff_spawn_child prog (complete : completer) p bytes =
  let comm = Mpi.comm_world (Mpi.world_of p) in
  let post p (ic : Mpi_core.Dynamic.intercomm) op =
    op (Mpi.device p)
      ~peer:(Mpi_core.Comm.world_rank_of ic.ic_remote 0)
      ~context:ic.ic_remote.Mpi_core.Comm.ctx
  in
  let send bytes dev ~peer ~context =
    Ch3.isend dev ~dst:peer ~tag:0 ~context (Bv.of_bytes (Bytes.make bytes 's'))
  in
  let recv bytes dev ~peer ~context =
    Ch3.irecv dev ~src:peer ~tag:0 ~context (Bv.of_bytes (Bytes.create bytes))
  in
  let ic =
    Mpi_core.Dynamic.spawn p ~comm ~n:1 (fun cp ic ->
        complete cp prog.ff_style [ post cp ic (recv bytes) ];
        complete cp prog.ff_style [ post cp ic (send 8) ])
  in
  if Mpi.rank p = 0 then
    complete p prog.ff_style [ post p ic (send bytes); post p ic (recv 8) ]

(* Returns the receive buffers, for digests. *)
let ff_body prog (complete : completer) ?gc env p =
  let rank = Mpi.rank p in
  let comm = Mpi.comm_world (Mpi.world_of p) in
  Simtime.Env.charge env (float_of_int prog.ff_gaps.(rank));
  let coll =
    if prog.ff_coll then
      let req, out =
        Coll.iallreduce p comm ~op:Coll.sum_i64
          (Bytes.make 8 (Char.chr (rank + 1)))
      in
      [ (req, Some out) ]
    else []
  in
  let posted =
    coll
    @ List.concat
      (List.mapi
         (fun tag (src, dst, bytes) ->
           (if src = rank then
              [
                ( Mpi.isend p ~comm ~dst ~tag
                    (Bv.of_bytes (Bytes.make bytes (Char.chr (tag + 65)))),
                  None );
              ]
            else [])
           @
           if dst = rank then
             let buf = Bytes.create bytes in
             [ (Mpi.irecv p ~comm ~src ~tag (Bv.of_bytes buf), Some buf) ]
           else [])
         prog.ff_msgs)
  in
  if prog.ff_gc then Option.iter Gc.request_gc gc;
  complete ?gc p prog.ff_style (List.map fst posted);
  Option.iter (ff_spawn_child prog complete p) prog.ff_spawn;
  List.filter_map snd posted

(* Final clock bits, every counter and histogram, the decision trace,
   and whether the run deadlocked: a short detector timeout can declare a
   live rank dead and strand its peers, at a clock both waits must agree
   on. *)
let run_ff prog complete =
  let trace = Fiber.new_trace () in
  let deadlocked = ref false in
  let env =
    Fiber.with_policy ~record:trace (Fiber.Seeded_random prog.ff_seed)
      (fun () ->
        if prog.ff_motor then begin
          let w =
            World.create
              ~channel:(prog.ff_channel :> [ `Sock | `Shm | `Rdma ])
              ~config:{ World.default_config with arena_bytes = 1 lsl 21 }
              ?fault:(ff_fault prog) ?detector:(ff_detector prog)
              ~n:prog.ff_ranks ()
          in
          World.run w (fun ctx ->
              ignore
                (ff_body prog complete ~gc:(World.gc ctx) (World.env w)
                   ctx.World.proc));
          World.env w
        end
        else begin
          let env = Simtime.Env.create () in
          (try
             ignore
               (Mpi.run ~env
                  ~channel:(prog.ff_channel :> [ `Sock | `Shm | `Rdma ])
                  ?fault:(ff_fault prog) ?reliable:(ff_reliable prog)
                  ?detector:(ff_detector prog) ~n:prog.ff_ranks
                  (fun p -> ignore (ff_body prog complete env p)))
           with Fiber.Deadlock _ -> deadlocked := true);
          env
        end)
  in
  ( Int64.bits_of_float (Simtime.Env.now_ns env),
    Simtime.Stats.(to_json (snapshot env.Simtime.Env.stats)),
    Fiber.trace_to_list trace,
    !deadlocked )

let prop_fast_forward_exact =
  QCheck.Test.make
    ~name:"fast-forwarded waits match polling one by one, bit for bit"
    ~count:200
    (QCheck.make ~print:print_ff_prog gen_ff_prog)
    (fun prog ->
      let clock, stats, trace, deadlocked = run_ff prog fast_complete in
      let ref_clock, ref_stats, ref_trace, ref_deadlocked =
        run_ff prog ref_complete
      in
      if deadlocked <> ref_deadlocked then
        QCheck.Test.fail_reportf "deadlocked %b <> %b" deadlocked
          ref_deadlocked;
      if clock <> ref_clock then
        QCheck.Test.fail_reportf "clock %h <> %h" (Int64.float_of_bits clock)
          (Int64.float_of_bits ref_clock);
      if stats <> ref_stats then
        QCheck.Test.fail_reportf "stats differ:\n%s\nvs\n%s" stats ref_stats;
      trace = ref_trace)

(* A compute phase that yields to the scheduler between quanta but never
   touches MPI: each poll charges [quantum] until the clock reaches
   [until_ns]. Its idle declares exactly that, so quiet scans over it may
   be skipped like any wait's. *)
let compute_without_polling env ~quantum ~until_ns =
  let idle =
    {
      Fiber.clock = env.Simtime.Env.clock;
      charges = [| quantum |];
      count = (fun _ ~at:_ -> ());
      horizon = (fun () -> Some until_ns);
    }
  in
  Fiber.wait_until ~label:"compute" ~idle (fun () ->
      Simtime.Env.charge env quantum;
      Fiber.note_activity ();
      Simtime.Env.now_ns env >= until_ns)

(* A spawned child sends its parent 64 bytes, then computes without
   polling, so it stops beating. The message takes longer than the
   detector timeout to arrive; while the parent waits for it, its sweeps
   declare the child dead. The parent's skip must stop at that
   declaration, and end on the clock and counters of polling one by
   one. *)
let test_spawned_rank_detected_in_place () =
  let run (complete : completer) =
    let env = Simtime.Env.create () in
    let w =
      Mpi.run ~env
        ~detector:{ Ft.default_detector with hb_timeout_ns = 5_000.0 }
        ~n:1
        (fun p ->
          let comm = Mpi.comm_world (Mpi.world_of p) in
          let ic =
            Mpi_core.Dynamic.spawn p ~comm ~n:1 (fun cp ic ->
                Mpi_core.Dynamic.send cp ic ~dst:0 ~tag:0
                  (Bv.of_bytes (Bytes.make 64 's'));
                compute_without_polling env ~quantum:1_000.0
                  ~until_ns:(Simtime.Env.now_ns env +. 20_000.0))
          in
          complete p 0
            [
              Mpi.irecv p ~comm:ic.Mpi_core.Dynamic.ic_remote ~src:0 ~tag:0
                (Bv.of_bytes (Bytes.create 64));
            ])
    in
    let detections =
      match Mpi.ft_handle w with Some ft -> Ft.detections ft | None -> []
    in
    ( Int64.bits_of_float (Simtime.Env.now_ns env),
      Simtime.Stats.(to_json (snapshot env.Simtime.Env.stats)),
      List.map (fun (r, at) -> (r, Int64.bits_of_float at)) detections )
  in
  let clock, stats, detections = run fast_complete in
  let ref_clock, ref_stats, ref_detections = run ref_complete in
  Alcotest.(check (list int)) "child declared" [ 1 ] (List.map fst detections);
  Alcotest.(check (list (pair int int64)))
    "declared at the same time" ref_detections detections;
  Alcotest.(check int64) "clock bits" ref_clock clock;
  Alcotest.(check string) "counters" ref_stats stats

(* Worlds with a fault plan, reliable delivery or a failure detector
   declare a horizon too, and the public waits end on the same clock,
   counters (the reliable, fault and ft families) and received bytes as
   descriptor-free waits. *)
let test_wrapped_worlds_fast_forward () =
  let prog =
    {
      ff_ranks = 3;
      ff_channel = `Sock;
      ff_motor = false;
      ff_stack = Bare;
      ff_coll = false;
      ff_msgs =
        [ (0, 1, 100); (1, 2, 70_000); (2, 0, 100); (0, 2, 65_537); (1, 0, 8) ];
      ff_gaps = [| 0; 20_000; 5_000 |];
      ff_style = 0;
      ff_gc = false;
      ff_kill = None;
      ff_spawn = None;
      ff_seed = 0;
    }
  in
  let run world complete =
    let env = Simtime.Env.create () in
    let got = Array.make prog.ff_ranks [] in
    ignore
      (world env (fun p ->
           Alcotest.(check bool)
             "quiet world has a horizon" true
             (Option.is_some ((Ch3.idle_poll (Mpi.device p)).Fiber.horizon ()));
           got.(Mpi.rank p) <- ff_body prog complete env p));
    ( Int64.bits_of_float (Simtime.Env.now_ns env),
      Simtime.Stats.(to_json (snapshot env.Simtime.Env.stats)),
      Digest.to_hex
        (Digest.bytes
           (Bytes.concat Bytes.empty (List.concat (Array.to_list got)))) )
  in
  List.iter
    (fun (name, world) ->
      let clock, stats, digest = run world fast_complete in
      let ref_clock, ref_stats, ref_digest = run world ref_complete in
      Alcotest.(check int64) (name ^ ": clock bits") ref_clock clock;
      Alcotest.(check string) (name ^ ": counters") ref_stats stats;
      Alcotest.(check string) (name ^ ": digest") ref_digest digest)
    [
      ( "fault plan",
        fun env body ->
          Mpi.run ~env
            ~fault:(Fault.plan ~seed:3 ~drop:0.2 ~duplicate:0.1 ~delay:0.2 ())
            ~n:prog.ff_ranks body );
      ( "reliable",
        fun env body ->
          Mpi.run ~env ~reliable:Mpi_core.Reliable.default_config
            ~n:prog.ff_ranks body );
      ( "detector",
        fun env body ->
          Mpi.run ~env ~detector:Ft.default_detector ~n:prog.ff_ranks body );
    ]

(* Every rank of a 3-rank ring blocks behind a 10 ms partition, ten
   heartbeat timeouts long. Retransmission deadlines (at most 2 ms apart)
   leave skips longer than the 1 ms timeout. Rank 0 blocks first, so it
   polls first in every scan. With rank 0 doing 200 us of work before
   each pump, the first sweep after a skip, rank 0's, reads the others'
   stamps before they beat again, and only the stamps the skip leaves
   behind keep it from declaring a polling rank dead. The fast waits must
   declare exactly what polling one by one declares: nobody, or with a
   kill plan the victim at the same instant. When rank 1 does the work
   instead, its sweep declares the victim after rank 0, which waits on
   the victim, has polled in the same scan: rank 0 must still wake on the
   next scan, not after a skip. *)
let test_heartbeats_exact_across_long_skips () =
  let n = 3 in
  let detector = { Ft.hb_period_ns = 20_000.0; hb_timeout_ns = 1_000_000.0 } in
  let partition =
    {
      Fault.pt_src = -1;
      pt_dst = -1;
      pt_from_ns = 0.0;
      pt_until_ns = 10_000_000.0;
    }
  in
  let work = 200_000.0 in
  let env_of p = Mpi.env (Mpi.world_of p) in
  let fast_wait worker p req =
    let env = env_of p in
    try
      if Mpi.rank p = worker then
        let idle =
          {
            Fiber.clock = env.Simtime.Env.clock;
            charges = [| work |];
            count = (fun _ ~at:_ -> ());
            horizon = (fun () -> Some Float.infinity);
          }
        in
        ignore
          (Mpi.wait_poll ~idle p
             ~poll:(fun () -> Simtime.Env.charge env work)
             req)
      else ignore (Mpi.wait p req)
    with Ft.Proc_failed _ -> ()
  in
  (* The same waits from Fiber.wait_until and Ch3.progress alone. *)
  let ref_wait worker p req =
    let ft = Option.get (Mpi.ft_handle (Mpi.world_of p)) in
    let rank = Mpi.rank p in
    Ft.check_self ft ~rank;
    Fiber.wait_until (fun () ->
        if rank = worker then Simtime.Env.charge (env_of p) work;
        ignore (Ch3.progress (Mpi.device p));
        Request.is_complete req || Ft.self_doomed ft ~rank);
    Ft.check_self ft ~rank
  in
  let run kills wait =
    let env = Simtime.Env.create () in
    let w =
      Mpi.run ~env ~detector
        ~fault:(Fault.plan ~partitions:[ partition ] ~kills ())
        ~n
        (fun p ->
          let rank = Mpi.rank p in
          let comm = Mpi.comm_world (Mpi.world_of p) in
          let send =
            Mpi.isend p ~comm ~dst:((rank + 1) mod n) ~tag:0
              (Bv.of_bytes (Bytes.make 64 'x'))
          in
          let recv =
            Mpi.irecv p ~comm ~src:((rank + n - 1) mod n) ~tag:0
              (Bv.of_bytes (Bytes.create 64))
          in
          List.iter (wait p) [ send; recv ])
    in
    ( Int64.bits_of_float (Simtime.Env.now_ns env),
      List.map
        (fun (r, at) -> (r, Int64.bits_of_float at))
        (Ft.detections (Option.get (Mpi.ft_handle w))) )
  in
  List.iter
    (fun (name, worker, kills, victims) ->
      let clock, detections = run kills (fast_wait worker) in
      let ref_clock, ref_detections = run kills (ref_wait worker) in
      Alcotest.(check (list int))
        (name ^ ": declared dead") victims (List.map fst ref_detections);
      Alcotest.(check (list (pair int int64)))
        (name ^ ": detections") ref_detections detections;
      Alcotest.(check int64) (name ^ ": clock bits") ref_clock clock)
    [
      ("no kill", 0, [], []);
      ("kill", 0, [ Fault.kill ~rank:2 ~at_ns:3_000_000.0 () ], [ 2 ]);
      ( "kill seen by a later poller",
        1,
        [ Fault.kill ~rank:2 ~at_ns:3_000_000.0 () ],
        [ 2 ] );
    ]

(* A detector world that is stuck: rank 1 waits for a tag nobody sends,
   rank 0 for a reply. Once the stray message lands nothing is in flight
   and no detection is pending, so the heartbeat deadlines must not let
   the clock jump: the deadlock is declared where polling one by one
   declares it. *)
let test_stuck_detector_world_deadlocks_in_place () =
  let run wait =
    let env = Simtime.Env.create () in
    (match
       Mpi.run ~env ~detector:Ft.default_detector ~n:2 (fun p ->
           let comm = Mpi.comm_world (Mpi.world_of p) in
           let buf () = Bv.of_bytes (Bytes.create 8) in
           if Mpi.rank p = 0 then begin
             wait p (Mpi.isend p ~comm ~dst:1 ~tag:1 (buf ()));
             wait p (Mpi.irecv p ~comm ~src:1 ~tag:2 (buf ()))
           end
           else wait p (Mpi.irecv p ~comm ~src:0 ~tag:0 (buf ())))
     with
    | _ -> Alcotest.fail "the world should deadlock"
    | exception Fiber.Deadlock _ -> ());
    Int64.bits_of_float (Simtime.Env.now_ns env)
  in
  let fast p req = ignore (Mpi.wait p req) in
  let reference p req =
    Fiber.wait_until (fun () ->
        ignore (Ch3.progress (Mpi.device p));
        Request.is_complete req)
  in
  Alcotest.(check int64) "clock bits at the deadlock" (run reference) (run fast)

(* --- Reduction and checksum kernels vs the closure folds ------------ *)

module Lanes = Mpi_core.Lanes
module Packet = Mpi_core.Packet

(* The per-lane closure folds the kernel replaced, kept verbatim as the
   oracle: they read the accumulator's length, so a trailing partial lane
   is never touched. *)
let old_fold_f64 f acc x =
  let n = Bytes.length acc / 8 in
  for i = 0 to n - 1 do
    let a = Int64.float_of_bits (Bytes.get_int64_le acc (8 * i)) in
    let b = Int64.float_of_bits (Bytes.get_int64_le x (8 * i)) in
    Bytes.set_int64_le acc (8 * i) (Int64.bits_of_float (f a b))
  done

let old_fold_i32 f acc x =
  let n = Bytes.length acc / 4 in
  for i = 0 to n - 1 do
    let a = Int32.to_int (Bytes.get_int32_le acc (4 * i)) in
    let b = Int32.to_int (Bytes.get_int32_le x (4 * i)) in
    Bytes.set_int32_le acc (4 * i) (Int32.of_int (f a b))
  done

let old_fold_i64 f acc x =
  let n = Bytes.length acc / 8 in
  for i = 0 to n - 1 do
    let a = Bytes.get_int64_le acc (8 * i) in
    let b = Bytes.get_int64_le x (8 * i) in
    Bytes.set_int64_le acc (8 * i) (f a b)
  done

(* RMA's old accumulate loop: the source's length sets the lane count,
   the window offset is arbitrary (not lane-aligned). *)
let old_accum f dst ~off src =
  for i = 0 to (Bytes.length src / 8) - 1 do
    let t = Bytes.get_int64_le dst (off + (8 * i)) in
    let s = Bytes.get_int64_le src (8 * i) in
    Bytes.set_int64_le dst (off + (8 * i)) (f t s)
  done

let random_bytes next len = Bytes.init len (fun _ -> Char.chr (next 256))

let sums =
  [
    ("sum_i64", 8, Coll.sum_i64, old_fold_i64 Int64.add);
    ("sum_i32", 4, Coll.sum_i32, old_fold_i32 ( + ));
    ("sum_f64", 8, Coll.sum_f64, old_fold_f64 ( +. ));
  ]

let arb_sum =
  QCheck.make QCheck.Gen.(oneofl sums) ~print:(fun (n, _, _, _) -> n)

(* [extra] makes the source longer than the accumulator; the accumulator
   length is free, so most cases end in a partial lane. *)
let prop_sums_match_closure_fold =
  QCheck.Test.make ~name:"sum_i64/i32/f64 equal the closure fold" ~count:300
    QCheck.(quad arb_sum (int_range 0 300) (int_range 0 24) (int_range 0 9999))
    (fun ((_, w, kernel, oracle), len, extra, seed) ->
      let next = lcg seed in
      let acc = random_bytes next len in
      let src = random_bytes next (len + extra) in
      let expect = Bytes.copy acc in
      oracle expect src;
      let got = Bytes.copy acc in
      kernel got src;
      let tail = len - (len mod w) in
      Bytes.equal expect got
      && Bytes.equal (Bytes.sub acc tail (len - tail))
           (Bytes.sub got tail (len - tail)))

let prop_short_source_rejected =
  QCheck.Test.make ~name:"a source shorter than the lanes is refused"
    ~count:100
    QCheck.(triple arb_sum (int_range 8 300) (int_range 0 9999))
    (fun ((_, w, kernel, _), len, seed) ->
      let next = lcg seed in
      let acc = random_bytes next len in
      let short = random_bytes next ((len / w * w) - 1 - next w) in
      let got = Bytes.copy acc in
      match kernel got short with
      | () -> false
      | exception Invalid_argument _ -> Bytes.equal acc got)

let lane_ops =
  [
    ("add_i64", Lanes.Add_i64, Int64.add, Rma.Sum);
    ("mul_i64", Lanes.Mul_i64, Int64.mul, Rma.Prod);
    ("min_i64", Lanes.Min_i64, Int64.min, Rma.Min);
    ("max_i64", Lanes.Max_i64, Int64.max, Rma.Max);
    ("xor_i64", Lanes.Xor_i64, Int64.logxor, Rma.Bxor);
  ]

let arb_lane_op =
  QCheck.make QCheck.Gen.(oneofl lane_ops) ~print:(fun (n, _, _, _) -> n)

(* RMA accumulate through a real window: rank 1 combines [lanes] lanes
   into rank 0's window at an arbitrary byte offset; after the fence the
   whole window equals the old loop's result, bytes outside the target
   range included. *)
let prop_rma_accumulate_matches_closure_fold =
  QCheck.Test.make ~name:"RMA accumulate at an offset equals the closure fold"
    ~count:40
    QCheck.(
      quad arb_lane_op (int_range 1 12) (int_range 1 40) (int_range 0 9999))
    (fun ((_, _, f, op), lanes, slack, seed) ->
      let next = lcg seed in
      let len = 8 * lanes in
      let off = 1 + next slack in
      let init = random_bytes next (off + len + next 16) in
      let contrib = random_bytes next (len + 8) in
      let expect = Bytes.copy init in
      old_accum f expect ~off (Bytes.sub contrib 0 len);
      let got = ref Bytes.empty in
      ignore
        (Mpi.run ~n:2 (fun p ->
             let comm = Mpi.comm_world (Mpi.world_of p) in
             let mine =
               if Mpi.rank p = 0 then Bytes.copy init else Bytes.create 0
             in
             let win = Rma.win_create p ~comm mine in
             if Mpi.rank p = 1 then
               Rma.accumulate win ~target:0 ~target_off:off ~op contrib
                 ~off:0 ~len;
             Rma.win_fence win;
             if Mpi.rank p = 0 then got := Bytes.copy mine;
             Rma.win_free win));
      Bytes.equal expect !got)

(* The kernel itself at a nonzero offset, every integer operator, with
   lengths that end in a partial lane. *)
let prop_lanes_at_offset_match_closure_fold =
  QCheck.Test.make ~name:"Lanes.combine at an offset equals the closure fold"
    ~count:300
    QCheck.(
      quad arb_lane_op (int_range 0 200) (int_range 0 24) (int_range 0 9999))
    (fun ((_, op, f, _), len, off, seed) ->
      let next = lcg seed in
      let dst = random_bytes next (off + len + next 9) in
      let src = random_bytes next (len + next 9) in
      let expect = Bytes.copy dst in
      old_accum f expect ~off (Bytes.sub src 0 (len / 8 * 8));
      let got = Bytes.copy dst in
      Lanes.combine op ~dst:got ~dst_off:off ~src ~len;
      Bytes.equal expect got)

(* FNV-1a the old way, one closure call and one boxed int64 per byte,
   over the same canonical encoding. *)
module Fnv_oracle = struct
  let mix_byte h b =
    Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) 0x100000001b3L

  let mix_int h n =
    let rec go h k n =
      if k = 8 then h else go (mix_byte h (n land 0xff)) (k + 1) (n asr 8)
    in
    go h 0 n

  let mix_bytes h b =
    let h = ref (mix_int h (Bytes.length b)) in
    Bytes.iter (fun c -> h := mix_byte !h (Char.code c)) b;
    !h

  let mix_env h (e : Packet.envelope) =
    List.fold_left mix_int h
      Packet.[ e.e_src; e.e_dst; e.e_tag; e.e_context; e.e_bytes; e.e_seq ]

  let rec digest h = function
    | Packet.Eager (e, b) -> mix_bytes (mix_env (mix_int h 1) e) b
    | Packet.Rts (e, id) -> mix_int (mix_env (mix_int h 2) e) id
    | Packet.Cts id -> mix_int (mix_int h 3) id
    | Packet.Rndv_data (id, b) -> mix_bytes (mix_int (mix_int h 4) id) b
    | Packet.Nak (id, msg) ->
        mix_bytes (mix_int (mix_int h 5) id) (Bytes.of_string msg)
    | Packet.Frame (f, inner) ->
        let h = mix_int (mix_int h 6) f.Packet.f_src in
        digest (mix_int (mix_int h f.Packet.f_seq) f.Packet.f_check) inner
    | Packet.Ack (src, cum) -> mix_int (mix_int (mix_int h 7) src) cum

  let checksum p =
    Int64.to_int (Int64.logand (digest 0xcbf29ce484222325L p) 0x3FFFFFFFL)
end

let gen_packet =
  let open QCheck.Gen in
  let int_field =
    oneof [ int_range (-5) 300; int; oneofl [ min_int; max_int ] ]
  in
  let payload = map Bytes.of_string (string_size (int_range 0 300)) in
  let envelope =
    map
      (fun (a, b, c, (d, e, f)) ->
        { Packet.e_src = a; e_dst = b; e_tag = c; e_context = d; e_bytes = e;
          e_seq = f })
      (quad int_field int_field int_field
         (triple int_field int_field int_field))
  in
  let frame =
    map
      (fun (s, q, c) -> { Packet.f_src = s; f_seq = q; f_check = c })
      (triple int_field int_field int_field)
  in
  let eager = map2 (fun e b -> Packet.Eager (e, b)) envelope payload in
  let plain =
    oneof
      [
        eager;
        map2 (fun e id -> Packet.Rts (e, id)) envelope int_field;
        map (fun id -> Packet.Cts id) int_field;
        map2 (fun id b -> Packet.Rndv_data (id, b)) int_field payload;
        map2 (fun id m -> Packet.Nak (id, m)) int_field
          (string_size (int_range 0 40));
        map2 (fun s c -> Packet.Ack (s, c)) int_field int_field;
      ]
  in
  oneof
    [
      plain;
      map2 (fun f p -> Packet.Frame (f, p)) frame plain;
      map2 (fun f p -> Packet.Frame (f, p)) frame eager;
    ]

let prop_checksum_matches_fnv =
  QCheck.Test.make ~name:"Packet.checksum equals per-byte FNV-1a" ~count:500
    (QCheck.make gen_packet ~print:Packet.describe)
    (fun p -> Packet.checksum p = Fnv_oracle.checksum p)

(* Values computed by the per-byte implementation the loops replaced. *)
let test_checksum_known_answers () =
  let env =
    { Packet.e_src = 1; e_dst = 2; e_tag = 3; e_context = 4; e_bytes = 5;
      e_seq = 6 }
  in
  Alcotest.(check int) "ack" 418292624 (Packet.checksum (Packet.Ack (3, 17)));
  Alcotest.(check int) "frame around eager" 457633336
    (Packet.checksum
       (Packet.Frame
          ( { Packet.f_src = 1; f_seq = 2; f_check = 3 },
            Packet.Eager (env, Bytes.of_string "hello") )))

(* Minor-heap words one call allocates: the same for 8 bytes as for 64
   KiB when nothing is boxed per lane or per byte. *)
let minor_words_of f =
  f ();
  let w0 = Stdlib.Gc.minor_words () in
  f ();
  Stdlib.Gc.minor_words () -. w0

let test_kernels_allocate_nothing_per_lane () =
  let sum len =
    let acc = Bytes.make len '\001' and x = Bytes.make len '\002' in
    minor_words_of (fun () -> Coll.sum_i64 acc x)
  in
  Alcotest.(check (float 0.)) "64 KiB sum_i64 allocates as 8 B" (sum 8)
    (sum 65536);
  let check len =
    let p =
      Packet.Frame
        ( { Packet.f_src = 0; f_seq = 1; f_check = 2 },
          Packet.Rndv_data (3, Bytes.make len 'c') )
    in
    minor_words_of (fun () -> ignore (Packet.checksum p))
  in
  Alcotest.(check (float 0.)) "1 KiB checksum allocates as 1 B" (check 1)
    (check 1024)

(* ------------------------------------------------------------------ *)
(* Stats: declared slots against the string-keyed tables they replaced *)
(* ------------------------------------------------------------------ *)

module Stats = Simtime.Stats

(* The string-keyed [Stats] that declared slots replaced, reduced to
   what the comparison reads. Its listings, summaries and JSON are the
   reference output. *)
module Stats_model = struct
  type hist = {
    mutable h_n : int;
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
    h_buckets : int array;
  }

  let fresh_hist () =
    { h_n = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity;
      h_buckets = Array.make 128 0 }

  let bucket_of v =
    if v <= 1.0 then 0
    else
      let i = int_of_float (Float.ceil (2.0 *. Float.log2 v)) in
      if i < 0 then 0 else if i >= 128 then 127 else i

  type t = {
    counters : (string, int ref) Hashtbl.t;
    hists : (string, hist) Hashtbl.t;
  }

  let create () = { counters = Hashtbl.create 8; hists = Hashtbl.create 8 }

  let add t k n =
    match Hashtbl.find_opt t.counters k with
    | Some r -> r := !r + n
    | None -> Hashtbl.add t.counters k (ref n)

  let hist_cell t k =
    match Hashtbl.find_opt t.hists k with
    | Some h -> h
    | None ->
        let h = fresh_hist () in
        Hashtbl.add t.hists k h;
        h

  let observe t k v =
    let h = hist_cell t k in
    h.h_n <- h.h_n + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1

  let reset t =
    Hashtbl.iter (fun _ r -> r := 0) t.counters;
    Hashtbl.reset t.hists

  let absorb t ~from =
    Hashtbl.iter (fun k r -> add t k !r) from.counters;
    Hashtbl.iter
      (fun k h ->
        let dst = hist_cell t k in
        dst.h_n <- dst.h_n + h.h_n;
        dst.h_sum <- dst.h_sum +. h.h_sum;
        if h.h_n > 0 then begin
          if h.h_min < dst.h_min then dst.h_min <- h.h_min;
          if h.h_max > dst.h_max then dst.h_max <- h.h_max
        end;
        Array.iteri
          (fun i v -> dst.h_buckets.(i) <- dst.h_buckets.(i) + v)
          h.h_buckets)
      from.hists

  let merged ts =
    let acc = create () in
    List.iter (fun t -> absorb acc ~from:t) ts;
    acc

  let quantile h q =
    if h.h_n = 0 then 0.0
    else begin
      let target = Float.max 1.0 (Float.ceil (q *. float_of_int h.h_n)) in
      let rec go i cum =
        let cum = cum + h.h_buckets.(i) in
        if float_of_int cum >= target || i = 127 then i else go (i + 1) cum
      in
      let upper = Float.pow 2.0 (float_of_int (go 0 0) /. 2.0) in
      Float.min h.h_max (Float.max h.h_min upper)
    end

  let summarize h =
    { Stats.n = h.h_n; sum = h.h_sum;
      min = (if h.h_n = 0 then 0.0 else h.h_min);
      max = (if h.h_n = 0 then 0.0 else h.h_max);
      p50 = quantile h 0.5; p99 = quantile h 0.99 }

  let sorted l = List.sort (fun (a, _) (b, _) -> String.compare a b) l
  let to_alist t =
    sorted (Hashtbl.fold (fun k r l -> (k, !r) :: l) t.counters [])

  let hists_alist t =
    sorted (Hashtbl.fold (fun k h l -> (k, summarize h) :: l) t.hists [])

  (* A snapshot is its two listings; histogram copies keep the buckets
     so [diff] can subtract them. *)
  type snapshot = (string * int) list * (string * hist) list

  let snapshot t : snapshot =
    ( to_alist t,
      sorted
        (Hashtbl.fold
           (fun k h l -> (k, { h with h_buckets = Array.copy h.h_buckets }) :: l)
           t.hists []) )

  let rec merge_assoc f xs ys =
    match (xs, ys) with
    | [], [] -> []
    | (k, x) :: xs', [] -> (k, f (Some x) None) :: merge_assoc f xs' []
    | [], (k, y) :: ys' -> (k, f None (Some y)) :: merge_assoc f [] ys'
    | (kx, x) :: xs', (ky, y) :: ys' ->
        let c = String.compare kx ky in
        if c = 0 then (kx, f (Some x) (Some y)) :: merge_assoc f xs' ys'
        else if c < 0 then (kx, f (Some x) None) :: merge_assoc f xs' ys
        else (ky, f None (Some y)) :: merge_assoc f xs ys'

  let diff ((lc, lh) : snapshot) ((ec, eh) : snapshot) : snapshot =
    ( merge_assoc
        (fun l e -> Option.value ~default:0 l - Option.value ~default:0 e)
        lc ec,
      merge_assoc
        (fun l e ->
          match (l, e) with
          | Some l, None -> { l with h_buckets = Array.copy l.h_buckets }
          | None, _ -> fresh_hist ()
          | Some l, Some e ->
              {
                l with
                h_n = l.h_n - e.h_n;
                h_sum = l.h_sum -. e.h_sum;
                h_buckets =
                  Array.mapi (fun i v -> v - e.h_buckets.(i)) l.h_buckets;
              })
        lh eh )

  let to_json ((cs, hs) : snapshot) =
    let buf = Buffer.create 1024 in
    let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    out "{\n  \"counters\": {";
    List.iteri
      (fun i (k, v) ->
        out "%s\n    \"%s\": %d"
          (if i = 0 then "" else ",")
          (Stats.json_escape k) v)
      cs;
    out "\n  },\n  \"histograms\": {";
    List.iteri
      (fun i (k, h) ->
        let sm = summarize h in
        out
          "%s\n    \"%s\": {\"count\": %d, \"sum\": %.3f, \"min\": %.3f, \
           \"max\": %.3f, \"p50\": %.3f, \"p99\": %.3f}"
          (if i = 0 then "" else ",")
          (Stats.json_escape k) sm.Stats.n sm.sum sm.min sm.max sm.p50 sm.p99)
      hs;
    out "\n  }\n}\n";
    Buffer.contents buf
end

(* Key [k] is a counter when even and a histogram when odd; [Incr],
   [Add] and [Observe] round it to their kind. *)
type stats_op =
  | Declare of int
  | Incr of int * int  (* accumulator, key *)
  | Add of int * int * int
  | Observe of int * int * float
  | Reset of int
  | Absorb of int * int  (* into, from *)
  | Merge of int  (* replace with merged [0; 1; 2] *)
  | Snapshot of int

let show_stats_op = function
  | Declare k -> Printf.sprintf "declare %d" k
  | Incr (a, k) -> Printf.sprintf "incr %d k%d" a k
  | Add (a, k, n) -> Printf.sprintf "add %d k%d %d" a k n
  | Observe (a, k, v) -> Printf.sprintf "observe %d k%d %h" a k v
  | Reset a -> Printf.sprintf "reset %d" a
  | Absorb (a, b) -> Printf.sprintf "absorb %d <- %d" a b
  | Merge a -> Printf.sprintf "merge -> %d" a
  | Snapshot a -> Printf.sprintf "snapshot %d" a

let gen_stats_ops =
  let open QCheck.Gen in
  let acc = int_bound 2 and key = int_bound 7 in
  let sample =
    oneof
      [ oneofl [ 0.0; 0.5; 1.0; 2.0; 1e9 ]; float_bound_inclusive 1e6;
        map float_of_int (int_bound 100_000) ]
  in
  list_size (int_range 1 60)
    (frequency
       [
         (2, map (fun k -> Declare k) key);
         (4, map2 (fun a k -> Incr (a, k)) acc key);
         ( 4,
           map3
             (fun a k n -> Add (a, k, n))
             acc key
             (oneof [ return 0; int_bound 1000 ]) );
         (6, map3 (fun a k v -> Observe (a, k, v)) acc key sample);
         (1, map (fun a -> Reset a) acc);
         (1, map2 (fun a b -> Absorb (a, b)) acc acc);
         (1, map (fun a -> Merge a) acc);
         (2, map (fun a -> Snapshot a) acc);
       ])

(* Each case declares fresh names, so keys are declared after the
   accumulators exist and every record of them grows an array. *)
let stats_case = ref 0

let prop_stats_match_string_keyed_model =
  QCheck.Test.make
    ~name:"Stats on declared slots matches the string-keyed model" ~count:300
    (QCheck.make gen_stats_ops
       ~print:(fun ops -> String.concat "; " (List.map show_stats_op ops)))
    (fun ops ->
      incr stats_case;
      let case = !stats_case in
      let name k =
        Printf.sprintf "model/%d/%s%d" case
          (if k land 1 = 0 then "c" else "h")
          k
      in
      (* Declaring again returns the same key, so every use declares. *)
      let counter k = Stats.counter (name k)
      and hist k = Stats.histogram (name k) in
      let real = Array.init 3 (fun _ -> Stats.create ()) in
      let model = Array.init 3 (fun _ -> Stats_model.create ()) in
      let snaps = ref [] in
      let same () =
        Array.for_all2
          (fun r m ->
            Stats.to_alist r = Stats_model.to_alist m
            && Stats.hists_alist r = Stats_model.hists_alist m
            && Stats.to_json (Stats.snapshot r)
               = Stats_model.to_json (Stats_model.snapshot m))
          real model
      in
      List.iter
        (function
          | Declare k ->
              if k land 1 = 0 then ignore (counter k) else ignore (hist k)
          | Incr (a, k) ->
              let k = k land lnot 1 in
              Stats.incr real.(a) (counter k);
              Stats_model.add model.(a) (name k) 1
          | Add (a, k, n) ->
              let k = k land lnot 1 in
              Stats.add real.(a) (counter k) n;
              Stats_model.add model.(a) (name k) n
          | Observe (a, k, v) ->
              let k = k lor 1 in
              Stats.observe real.(a) (hist k) v;
              Stats_model.observe model.(a) (name k) v
          | Reset a ->
              Stats.reset real.(a);
              Stats_model.reset model.(a)
          | Absorb (a, b) ->
              Stats.absorb real.(a) ~from:real.(b);
              Stats_model.absorb model.(a) ~from:model.(b)
          | Merge a ->
              real.(a) <- Stats.merged (Array.to_list real);
              model.(a) <- Stats_model.merged (Array.to_list model)
          | Snapshot a ->
              snaps :=
                (Stats.snapshot real.(a), Stats_model.snapshot model.(a))
                :: !snaps)
        ops;
      let diffs_same =
        match !snaps with
        | [] -> true
        | (rl, ml) :: _ as all ->
            List.for_all
              (fun (re, me) ->
                Stats.to_json (Stats.diff rl re)
                = Stats_model.to_json (Stats_model.diff ml me)
                && Stats.to_json (Stats.diff re rl)
                   = Stats_model.to_json (Stats_model.diff me ml))
              all
      in
      same () && diffs_same)

(* Recording a declared key is an array update: 10^4 records allocate
   exactly what one does. *)
let test_stats_record_allocates_nothing () =
  let env = Simtime.Env.create () in
  let c = Stats.Key.visited_probes and h = Stats.Key.h_ser_encode in
  let v = 1234.5 in
  let each n f = minor_words_of (fun () -> for _ = 1 to n do f () done) in
  List.iter
    (fun (what, f) ->
      Alcotest.(check (float 0.)) (what ^ ": 10^4 calls allocate as 1")
        (each 1 f) (each 10_000 f))
    [
      ("Env.count", fun () -> Simtime.Env.count env c);
      ("Env.count_n", fun () -> Simtime.Env.count_n env c 3);
      ("Env.observe", fun () -> Simtime.Env.observe env h v);
    ]

(* The only hash table in [stats.ml] is the declaration registry's. *)
let test_stats_hashtbl_only_in_registry () =
  let lines =
    In_channel.with_open_text "../lib/simtime/stats.ml" In_channel.input_all
    |> String.split_on_char '\n'
  in
  let mentions s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let outside =
    List.fold_left
      (fun (inside, bad) l ->
        if String.starts_with ~prefix:"module Registry = struct" l then
          (true, bad)
        else if inside && l = "end" then (false, bad)
        else if (not inside) && mentions l "Hashtbl" then (inside, l :: bad)
        else (inside, bad))
      (false, []) lines
    |> snd
  in
  Alcotest.(check (list string)) "Hashtbl outside the registry" [] outside;
  Alcotest.(check bool) "the registry uses one" true
    (List.exists (fun l -> mentions l "Hashtbl") lines)

let () =
  Alcotest.run "properties"
    [
      ( "typed storage",
        [
          QCheck_alcotest.to_alcotest prop_field_roundtrip_all_prims;
          QCheck_alcotest.to_alcotest prop_elem_roundtrip_all_prims;
          QCheck_alcotest.to_alcotest prop_float_fields_roundtrip;
        ] );
      ( "serializer algebra",
        [
          QCheck_alcotest.to_alcotest prop_serializer_idempotent;
          QCheck_alcotest.to_alcotest
            prop_visited_strategies_agree_on_graphs;
          QCheck_alcotest.to_alcotest prop_visited_probes_match_paper_list;
          QCheck_alcotest.to_alcotest prop_split_parts_cover_disjointly;
          QCheck_alcotest.to_alcotest
            prop_mixed_transport_roundtrip_isomorphic;
          QCheck_alcotest.to_alcotest prop_mixed_transport_strategies_agree;
        ] );
      ( "communicator algebra",
        [
          QCheck_alcotest.to_alcotest prop_sparse_comm_equals_dense_model;
          QCheck_alcotest.to_alcotest prop_enum_comm_equals_dense_model;
          QCheck_alcotest.to_alcotest prop_group_algebra_matches_model;
          QCheck_alcotest.to_alcotest prop_group_incl_excl_matches_model;
          QCheck_alcotest.to_alcotest prop_group_of_range_comm_stays_sparse;
        ] );
      ( "corpus format",
        [
          QCheck_alcotest.to_alcotest prop_corpus_round_trip;
          QCheck_alcotest.to_alcotest prop_corpus_rejects_mutants;
        ] );
      ( "checkpoint",
        [ QCheck_alcotest.to_alcotest prop_checkpoint_round_trip ] );
      ( "uninitialised arena",
        [
          QCheck_alcotest.to_alcotest
            prop_poisoned_heap_reads_only_written_bytes;
        ] );
      ( "idle fast-forward",
        [
          QCheck_alcotest.to_alcotest prop_fast_forward_exact;
          Alcotest.test_case "wrapped worlds fast-forward exactly" `Quick
            test_wrapped_worlds_fast_forward;
          Alcotest.test_case "heartbeats stay exact across long skips" `Quick
            test_heartbeats_exact_across_long_skips;
          Alcotest.test_case "stuck detector worlds deadlock in place" `Quick
            test_stuck_detector_world_deadlocks_in_place;
          Alcotest.test_case "spawned ranks are declared in place" `Quick
            test_spawned_rank_detected_in_place;
        ] );
      ( "one-sided rma",
        [
          QCheck_alcotest.to_alcotest prop_rma_put_get_matches_model;
          QCheck_alcotest.to_alcotest prop_rma_accumulate_order_insensitive;
          QCheck_alcotest.to_alcotest prop_cache_equals_naive_model;
        ] );
      ( "reduction kernels",
        [
          QCheck_alcotest.to_alcotest prop_sums_match_closure_fold;
          QCheck_alcotest.to_alcotest prop_short_source_rejected;
          QCheck_alcotest.to_alcotest prop_lanes_at_offset_match_closure_fold;
          QCheck_alcotest.to_alcotest prop_rma_accumulate_matches_closure_fold;
          QCheck_alcotest.to_alcotest prop_checksum_matches_fnv;
          Alcotest.test_case "checksum known answers" `Quick
            test_checksum_known_answers;
          Alcotest.test_case "no allocation per lane or byte" `Quick
            test_kernels_allocate_nothing_per_lane;
        ] );
      ( "stats registry",
        [
          QCheck_alcotest.to_alcotest prop_stats_match_string_keyed_model;
          Alcotest.test_case "recording a declared key allocates nothing"
            `Quick test_stats_record_allocates_nothing;
          Alcotest.test_case "no Hashtbl outside the registry" `Quick
            test_stats_hashtbl_only_in_registry;
        ] );
    ]
