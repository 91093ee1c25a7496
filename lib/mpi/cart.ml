type t = {
  grid_comm : Comm.t;
  dims : int array;
  periodic : bool array;
}

let dims_create ~nnodes ~ndims =
  if nnodes < 1 || ndims < 1 then invalid_arg "Cart.dims_create";
  let dims = Array.make ndims 1 in
  (* Greedy balanced factorisation: repeatedly assign the largest prime
     factor to the currently smallest dimension. *)
  let rec factors n d acc =
    if n = 1 then acc
    else if n mod d = 0 then factors (n / d) d (d :: acc)
    else factors n (d + 1) acc
  in
  let fs = List.sort (fun a b -> compare b a) (factors nnodes 2 []) in
  List.iter
    (fun f ->
      let min_i = ref 0 in
      Array.iteri (fun i d -> if d < dims.(!min_i) then min_i := i) dims;
      dims.(!min_i) <- dims.(!min_i) * f)
    fs;
  Array.sort (fun a b -> compare b a) dims;
  dims

let create p comm ~dims ~periodic =
  if Array.length dims <> Array.length periodic then
    invalid_arg "Cart.create: dims/periodic length mismatch";
  Array.iter (fun d -> if d < 1 then invalid_arg "Cart.create: bad dim") dims;
  let nnodes = Array.fold_left ( * ) 1 dims in
  if nnodes > Comm.size comm then
    invalid_arg "Cart.create: grid larger than the communicator";
  let group = Group.incl (Group.of_comm comm) (List.init nnodes Fun.id) in
  match Group.comm_create p comm group with
  | None -> None
  | Some grid_comm ->
      Some { grid_comm; dims = Array.copy dims; periodic = Array.copy periodic }

let comm t = t.grid_comm
let ndims t = Array.length t.dims

let coords t rank =
  if rank < 0 || rank >= Comm.size t.grid_comm then
    invalid_arg "Cart.coords: rank out of range";
  let n = ndims t in
  let out = Array.make n 0 in
  let rest = ref rank in
  for d = n - 1 downto 0 do
    out.(d) <- !rest mod t.dims.(d);
    rest := !rest / t.dims.(d)
  done;
  out

let rank_of_coords t cs =
  if Array.length cs <> ndims t then
    invalid_arg "Cart.rank_of_coords: rank mismatch";
  let ok = ref true in
  let rank = ref 0 in
  Array.iteri
    (fun d c ->
      let c =
        if t.periodic.(d) then ((c mod t.dims.(d)) + t.dims.(d)) mod t.dims.(d)
        else c
      in
      if c < 0 || c >= t.dims.(d) then ok := false
      else rank := (!rank * t.dims.(d)) + c)
    cs;
  if !ok then Some !rank else None

let my_coords t p = coords t (Mpi.comm_rank p t.grid_comm)

let shift t p ~dim ~disp =
  if dim < 0 || dim >= ndims t then invalid_arg "Cart.shift: bad dimension";
  let me = my_coords t p in
  let at delta =
    let cs = Array.copy me in
    cs.(dim) <- cs.(dim) + delta;
    rank_of_coords t cs
  in
  (at (-disp), at disp)
