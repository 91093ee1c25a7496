(* Process groups share the communicator's sparse representation: an
   arithmetic-progression descriptor when the membership admits one
   (O(1) state, O(1) rank queries), a dense array plus a lazily-built
   reverse index otherwise. The set algebra is hashtable-backed — O(n+m)
   for union/intersection/difference and O(n) for similar — replacing the
   List.filter-with-mem scans that made them O(n^2). *)

type repr =
  | Range of { start : int; step : int; count : int }
  | Enum of { ranks : int array; index : (int, int) Hashtbl.t Lazy.t }

type t = { r : repr }

let index_of ranks =
  lazy
    (let h = Hashtbl.create (Array.length ranks) in
     Array.iteri (fun i r -> Hashtbl.replace h r i) ranks;
     h)

let normalize ranks =
  let n = Array.length ranks in
  if n = 1 then Range { start = ranks.(0); step = 1; count = 1 }
  else begin
    let step = ranks.(1) - ranks.(0) in
    let rec arith i =
      i >= n || (ranks.(i) - ranks.(i - 1) = step && arith (i + 1))
    in
    if n >= 2 && step >= 1 && arith 2 then
      Range { start = ranks.(0); step; count = n }
    else Enum { ranks; index = index_of ranks }
  end

let of_array ranks =
  if Array.length ranks = 0 then { r = Enum { ranks; index = index_of ranks } }
  else { r = normalize ranks }

let of_ranks ranks =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if r < 0 then invalid_arg "Group.of_ranks: negative rank";
      if Hashtbl.mem seen r then invalid_arg "Group.of_ranks: duplicate rank";
      Hashtbl.add seen r ())
    ranks;
  of_array (Array.of_list ranks)

(* Preserve the communicator's descriptor: deriving the world group from
   a 64k-rank range comm stays O(1). *)
let of_comm comm =
  match Comm.range_info comm with
  | Some (start, step, count) -> { r = Range { start; step; count } }
  | None -> of_array (Comm.members comm)

let size t =
  match t.r with
  | Range { count; _ } -> count
  | Enum { ranks; _ } -> Array.length ranks

let rank_of t world_rank =
  match t.r with
  | Range { start; step; count } ->
      let d = world_rank - start in
      if d >= 0 && d mod step = 0 && d / step < count then Some (d / step)
      else None
  | Enum { index; _ } -> Hashtbl.find_opt (Lazy.force index) world_rank

let world_rank t i =
  if i < 0 || i >= size t then invalid_arg "Group.world_rank: out of range";
  match t.r with
  | Range { start; step; _ } -> start + (i * step)
  | Enum { ranks; _ } -> ranks.(i)

let members t =
  match t.r with
  | Range { start; step; count } ->
      Array.init count (fun i -> start + (i * step))
  | Enum { ranks; _ } -> Array.copy ranks

let is_range t = match t.r with Range _ -> true | Enum _ -> false

let mem t world_rank = rank_of t world_rank <> None

let incl t group_ranks = of_ranks (List.map (world_rank t) group_ranks)

let excl t group_ranks =
  let n = size t in
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Group.excl: out of range")
    group_ranks;
  let dropped = Hashtbl.create 16 in
  List.iter
    (fun i ->
      if Hashtbl.mem dropped i then invalid_arg "Group.excl: duplicate rank";
      Hashtbl.add dropped i ())
    group_ranks;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if not (Hashtbl.mem dropped i) then out := world_rank t i :: !out
  done;
  of_array (Array.of_list !out)

(* Set algebra: one O(n) pass over the left operand's index (implicit
   for ranges), one over the right's elements — no quadratic scans. *)
let union a b =
  let out = ref [] in
  for i = size b - 1 downto 0 do
    let r = world_rank b i in
    if not (mem a r) then out := r :: !out
  done;
  of_array (Array.append (members a) (Array.of_list !out))

let intersection a b =
  let out = ref [] in
  for i = size a - 1 downto 0 do
    let r = world_rank a i in
    if mem b r then out := r :: !out
  done;
  of_array (Array.of_list !out)

let difference a b =
  let out = ref [] in
  for i = size a - 1 downto 0 do
    let r = world_rank a i in
    if not (mem b r) then out := r :: !out
  done;
  of_array (Array.of_list !out)

let equal a b =
  match (a.r, b.r) with
  | Range ra, Range rb ->
      ra.start = rb.start && ra.step = rb.step && ra.count = rb.count
  | _ ->
      size a = size b
      && (let n = size a in
          let rec go i = i >= n || (world_rank a i = world_rank b i && go (i + 1)) in
          go 0)

(* Same member set in any order: sizes equal and every member of [a] is
   in [b] (no duplicates exist, so the containment is an equality). *)
let similar a b =
  size a = size b
  && (let n = size a in
      let rec go i = i >= n || (mem b (world_rank a i) && go (i + 1)) in
      go 0)

(* A compact deterministic membership description for context keys:
   O(1) characters for ranges (a 64k-member identity group must not cost
   a 64k-entry key string), the member list otherwise. *)
let descriptor t =
  match t.r with
  | Range { start; step; count } ->
      Printf.sprintf "r%d+%dx%d" start step count
  | Enum { ranks; _ } ->
      String.concat "," (List.map string_of_int (Array.to_list ranks))

(* Collective communicator creation: all members of [comm] call it with
   the same group; agreement on the context id comes from the shared
   deterministic allocator keyed by the group's membership. *)
let comm_create p comm group =
  for i = 0 to size group - 1 do
    if Comm.comm_rank_of comm (world_rank group i) = None then
      invalid_arg "Group.comm_create: group member outside the communicator"
  done;
  let e = Mpi.next_epoch p comm in
  let key =
    Printf.sprintf "create/%d/%d/%s" comm.Comm.ctx e (descriptor group)
  in
  let ctx = Mpi.alloc_context (Mpi.world_of p) ~key in
  (* Synchronise as MPI_Comm_create does. *)
  Collectives.barrier p comm;
  if mem group (Mpi.rank p) then
    Some
      (match group.r with
       | Range { start; step; count } ->
           Comm.range ~ctx ~step ~start ~count ()
       | Enum { ranks; _ } -> Comm.make ~ctx ~members:ranks)
  else None
